//! Pluggable privacy criteria.
//!
//! Each criterion is a predicate over the per-bucket sensitive histograms
//! of a bucketization. All but one are **monotone** with respect to the
//! `⪯` partial order: if it holds for `B`, it holds for every coarsening of
//! `B`. Monotonicity is what lets lattice search prune (evaluate a node's
//! predecessors first) and chain binary search work. For (c,k)-safety this
//! is the paper's Theorem 14; for k-anonymity and the ℓ-diversity family it
//! is classical. A criterion that is not monotone says so through
//! [`PrivacyCriterion::monotone`], and the search sweeps every node for it.

use std::sync::Arc;

use wcbk_adversary::{AdversaryModel, ModelId};
use wcbk_core::{CkSafety, CoreError, DisclosureEngine, HistogramSet};

use crate::AnonymizeError;

/// A privacy predicate over histogram-only bucketization views.
///
/// `Send + Sync` so one criterion instance can be shared across the worker
/// threads of the parallel lattice search; implementations that memoize
/// (the (c,k)-safety criterion caches MINIMIZE1 values across calls) do so
/// through interior mutability — the check takes `&self`.
///
/// Every shipped criterion depends only on per-bucket sensitive histograms,
/// which is what lets the lattice search evaluate nodes from rolled-up
/// histograms without materializing a `Bucketization`; a materialized one
/// is judged through [`HistogramSet::from_bucketization`].
pub trait PrivacyCriterion: Send + Sync {
    /// Human-readable name with parameters, e.g. `"(0.70,3)-safety"`.
    fn name(&self) -> String;

    /// Whether the histogram view satisfies the criterion.
    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError>;

    /// Whether a node satisfying the criterion implies every coarsening
    /// satisfies it — what lets the search infer safety instead of
    /// evaluating. `true` unless an implementation says otherwise.
    fn monotone(&self) -> bool {
        true
    }
}

/// Boxed criteria (e.g. `Box<dyn PrivacyCriterion>`) plug into the generic
/// search functions by delegation.
impl<T: PrivacyCriterion + ?Sized> PrivacyCriterion for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        (**self).is_satisfied_hist(h)
    }

    fn monotone(&self) -> bool {
        (**self).monotone()
    }
}

/// Borrowed criteria delegate too, so a caller can hand the same instance
/// to several searches (the scheduler workers already share it by `&C`).
impl<T: PrivacyCriterion + ?Sized> PrivacyCriterion for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        (**self).is_satisfied_hist(h)
    }

    fn monotone(&self) -> bool {
        (**self).monotone()
    }
}

/// k-anonymity: every bucket holds at least `k` tuples.
///
/// (The grouping view of k-anonymity — under full identification information
/// bucketization and full-domain generalization are equivalent, Section 2.1.)
#[derive(Debug, Clone, Copy)]
pub struct KAnonymity {
    k: u64,
}

impl KAnonymity {
    /// Creates the criterion; `k ≥ 1`.
    pub fn new(k: u64) -> Self {
        Self { k: k.max(1) }
    }
}

impl PrivacyCriterion for KAnonymity {
    fn name(&self) -> String {
        format!("{}-anonymity", self.k)
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        Ok(h.min_bucket_size() >= self.k)
    }
}

/// Distinct ℓ-diversity: every bucket contains at least `l` distinct
/// sensitive values.
#[derive(Debug, Clone, Copy)]
pub struct DistinctLDiversity {
    l: usize,
}

impl DistinctLDiversity {
    /// Creates the criterion; `l ≥ 1`.
    pub fn new(l: usize) -> Self {
        Self { l: l.max(1) }
    }
}

impl PrivacyCriterion for DistinctLDiversity {
    fn name(&self) -> String {
        format!("distinct {}-diversity", self.l)
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        Ok(h.histograms().iter().all(|hist| hist.distinct() >= self.l))
    }
}

/// Entropy ℓ-diversity: every bucket's sensitive-value entropy is at least
/// `ln(l)`.
#[derive(Debug, Clone, Copy)]
pub struct EntropyLDiversity {
    l: f64,
}

impl EntropyLDiversity {
    /// Creates the criterion; requires `l ≥ 1`.
    pub fn new(l: f64) -> Result<Self, AnonymizeError> {
        if l.is_nan() || l < 1.0 {
            return Err(AnonymizeError::InvalidParameter(format!(
                "entropy ℓ-diversity needs l ≥ 1, got {l}"
            )));
        }
        Ok(Self { l })
    }
}

impl PrivacyCriterion for EntropyLDiversity {
    fn name(&self) -> String {
        format!("entropy {}-diversity", self.l)
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        let threshold = self.l.ln();
        Ok(h.histograms()
            .iter()
            .all(|hist| hist.entropy() >= threshold - 1e-12))
    }
}

/// Recursive (c,ℓ)-diversity: in every bucket,
/// `f⁰ < c · (f^ℓ⁻¹ + f^ℓ + … )` (frequencies in descending order).
#[derive(Debug, Clone, Copy)]
pub struct RecursiveCLDiversity {
    c: f64,
    l: usize,
}

impl RecursiveCLDiversity {
    /// Creates the criterion; requires `c > 0` and `l ≥ 2`.
    pub fn new(c: f64, l: usize) -> Result<Self, AnonymizeError> {
        if c.is_nan() || c <= 0.0 || l < 2 {
            return Err(AnonymizeError::InvalidParameter(format!(
                "recursive (c,l)-diversity needs c > 0 and l ≥ 2, got c={c}, l={l}"
            )));
        }
        Ok(Self { c, l })
    }
}

impl RecursiveCLDiversity {
    fn histogram_ok(&self, h: &wcbk_core::SensitiveHistogram) -> bool {
        let tail: u64 = (self.l - 1..h.distinct()).map(|r| h.frequency(r)).sum();
        (h.frequency(0) as f64) < self.c * tail as f64
    }
}

impl PrivacyCriterion for RecursiveCLDiversity {
    fn name(&self) -> String {
        format!("recursive ({},{})-diversity", self.c, self.l)
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        Ok(h.histograms().iter().all(|hist| self.histogram_ok(hist)))
    }
}

/// (c,k)-safety (Definition 13) under any registered [`AdversaryModel`]:
/// satisfied when the model's worst-case disclosure bound stays below `c`.
///
/// The default model is the paper's conjunction language, evaluated
/// through a memoizing [`DisclosureEngine`] whose sharded cache is
/// interior-mutable, so the criterion can be shared across search threads:
/// concurrent `is_satisfied_hist` calls memoize MINIMIZE1 values into the
/// same cache. Long-lived callers (the `wcbk-serve` audit service) hand
/// **one** engine to many criteria via [`with_engine`](Self::with_engine)
/// and keep its cache warm across requests that share bucket histograms,
/// and read its counters off that engine.
///
/// [`with_model`](Self::with_model) substitutes another knowledge
/// language. The criterion is [`monotone`](PrivacyCriterion::monotone)
/// exactly when its model is
/// [`merge_monotone`](AdversaryModel::merge_monotone). The `minimality`
/// model is not: it bounds buckets {3,2,1} and {3,1,2} at 0.6 at k=1 but
/// their merge at 6/9, so searches under it sweep every node instead of
/// pruning.
pub struct CkSafetyCriterion {
    c: f64,
    model: Arc<dyn AdversaryModel>,
}

impl CkSafetyCriterion {
    /// Creates the criterion for threshold `c` and attacker power `k`, with
    /// a fresh private engine.
    pub fn new(c: f64, k: usize) -> Result<Self, CoreError> {
        Self::with_engine(c, Arc::new(DisclosureEngine::new(k)))
    }

    /// Creates the criterion for threshold `c` sharing an existing `engine`
    /// (whose `k` fixes the attacker power): MINIMIZE1 values memoized by
    /// any prior search through the same engine are reused, the shape
    /// long-running services want across requests.
    pub fn with_engine(c: f64, engine: Arc<DisclosureEngine>) -> Result<Self, CoreError> {
        Self::with_model(c, ModelId::Conjunction.resolve(engine))
    }

    /// Creates the criterion for threshold `c` under `model` (whose `k`
    /// fixes the attacker power). `c` is validated exactly like
    /// [`CkSafety`].
    pub fn with_model(c: f64, model: Arc<dyn AdversaryModel>) -> Result<Self, CoreError> {
        let c = CkSafety::new(c, model.k())?.c();
        Ok(Self { c, model })
    }
}

impl PrivacyCriterion for CkSafetyCriterion {
    /// `"(c,k)-safety"` under the conjunction model, `"(c,k)-{model}"`
    /// under any other.
    fn name(&self) -> String {
        let language = match self.model.name() {
            "conjunction" => "safety",
            other => other,
        };
        format!("({},{})-{language}", self.c, self.model.k())
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        Ok(self.model.is_safe(h, self.c)?)
    }

    fn monotone(&self) -> bool {
        self.model.merge_monotone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_core::partial_order::merge_all;
    use wcbk_core::{is_ck_safe, Bucketization, SensitiveHistogram};
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    fn bottom() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), |t| t).unwrap()
    }

    /// Judges a materialized bucketization through its histogram view.
    fn holds(c: &dyn PrivacyCriterion, b: &Bucketization) -> bool {
        c.is_satisfied_hist(&HistogramSet::from_bucketization(b))
            .unwrap()
    }

    #[test]
    fn k_anonymity_thresholds() {
        let b = figure3();
        assert!(holds(&KAnonymity::new(5), &b));
        assert!(!holds(&KAnonymity::new(6), &b));
        assert!(!holds(&KAnonymity::new(2), &bottom()));
    }

    #[test]
    fn distinct_l_diversity() {
        let b = figure3();
        // Male bucket has 3 distinct, female 4.
        assert!(holds(&DistinctLDiversity::new(3), &b));
        assert!(!holds(&DistinctLDiversity::new(4), &b));
    }

    #[test]
    fn entropy_l_diversity() {
        let b = figure3();
        let male_entropy = b.bucket(0).histogram().entropy();
        let ok_l = male_entropy.exp() - 0.01;
        let bad_l = male_entropy.exp() + 0.1;
        assert!(holds(&EntropyLDiversity::new(ok_l).unwrap(), &b));
        assert!(!holds(&EntropyLDiversity::new(bad_l).unwrap(), &b));
        assert!(EntropyLDiversity::new(0.5).is_err());
    }

    #[test]
    fn recursive_cl_diversity() {
        let b = figure3();
        // Male bucket (2,2,1), l=2: f0=2 < c·(f1+f2)=c·3 ⟺ c > 2/3.
        // Female bucket (2,1,1,1), l=2: 2 < c·3 — same bound.
        assert!(holds(&RecursiveCLDiversity::new(0.7, 2).unwrap(), &b));
        assert!(!holds(&RecursiveCLDiversity::new(0.6, 2).unwrap(), &b));
        assert!(RecursiveCLDiversity::new(1.0, 1).is_err());
    }

    #[test]
    fn ck_safety_criterion_delegates_to_core() {
        let b = figure3();
        let safe = CkSafetyCriterion::new(0.7, 1).unwrap();
        assert!(holds(&safe, &b));
        let unsafe_ = CkSafetyCriterion::new(0.5, 1).unwrap();
        assert!(!holds(&unsafe_, &b));
    }

    #[test]
    fn with_engine_shares_cache_across_criteria() {
        let b = figure3();
        let engine = Arc::new(DisclosureEngine::new(1));
        let first = CkSafetyCriterion::with_engine(0.7, Arc::clone(&engine)).unwrap();
        assert!(holds(&first, &b));
        let (hits0, misses0) = engine.cache_stats();
        assert_eq!(hits0, 0);
        assert!(misses0 > 0);
        // A second criterion (different c, same engine) reuses the MINIMIZE1
        // tables the first one built.
        let second = CkSafetyCriterion::with_engine(0.5, Arc::clone(&engine)).unwrap();
        assert!(!holds(&second, &b));
        let (hits1, misses1) = engine.cache_stats();
        assert!(hits1 > 0, "second criterion must hit the shared cache");
        assert_eq!(misses1, misses0);
    }

    #[test]
    fn criteria_are_monotone_under_full_merge() {
        let fine = figure3();
        let coarse = merge_all(&fine).unwrap();
        let mut criteria: Vec<Box<dyn PrivacyCriterion>> = vec![
            Box::new(KAnonymity::new(5)),
            Box::new(DistinctLDiversity::new(3)),
            Box::new(EntropyLDiversity::new(2.5).unwrap()),
            Box::new(CkSafetyCriterion::new(0.7, 1).unwrap()),
        ];
        // A model criterion, even boxed, is monotone exactly when its
        // model is merge-monotone.
        let engine = Arc::new(DisclosureEngine::new(1));
        for id in wcbk_adversary::MODEL_IDS {
            let model = id.resolve(engine.clone());
            criteria.push(Box::new(CkSafetyCriterion::with_model(0.7, model).unwrap()));
        }
        for c in criteria.iter() {
            assert_eq!(
                c.monotone(),
                !c.name().ends_with("minimality"),
                "{}",
                c.name()
            );
            if c.monotone() && holds(c, &fine) {
                assert!(holds(c, &coarse), "{} not monotone", c.name());
            }
        }
    }

    /// Each criterion's histogram view agrees with its definition over the
    /// materialized buckets.
    #[test]
    fn histogram_surface_agrees_with_bucketization_surface() {
        type BucketTest = fn(&SensitiveHistogram) -> bool;
        let recursive: BucketTest = |h| {
            let tail: u64 = (1..h.distinct()).map(|r| h.frequency(r)).sum();
            (h.frequency(0) as f64) < 0.7 * tail as f64
        };
        let per_bucket: Vec<(Box<dyn PrivacyCriterion>, BucketTest)> = vec![
            (Box::new(KAnonymity::new(3)), |h| h.n() >= 3),
            (Box::new(KAnonymity::new(6)), |h| h.n() >= 6),
            (Box::new(DistinctLDiversity::new(3)), |h| h.distinct() >= 3),
            (Box::new(DistinctLDiversity::new(4)), |h| h.distinct() >= 4),
            (Box::new(EntropyLDiversity::new(2.5).unwrap()), |h| {
                h.entropy() >= 2.5f64.ln() - 1e-12
            }),
            (
                Box::new(RecursiveCLDiversity::new(0.7, 2).unwrap()),
                recursive,
            ),
        ];
        for b in [figure3(), bottom()] {
            for (c, ok) in &per_bucket {
                let want = b.buckets().iter().all(|x| ok(x.histogram()));
                assert_eq!(want, holds(c, &b), "{} disagrees across surfaces", c.name());
            }
            for c in [0.7, 0.5] {
                let criterion = CkSafetyCriterion::new(c, 1).unwrap();
                assert_eq!(
                    is_ck_safe(&b, c, 1).unwrap(),
                    holds(&criterion, &b),
                    "c={c}"
                );
            }
        }
    }

    #[test]
    fn names_include_parameters() {
        assert_eq!(KAnonymity::new(5).name(), "5-anonymity");
        let engine = Arc::new(DisclosureEngine::new(3));
        let named = |id: ModelId| {
            let model = id.resolve(engine.clone());
            CkSafetyCriterion::with_model(0.7, model).unwrap().name()
        };
        assert_eq!(
            CkSafetyCriterion::new(0.7, 3).unwrap().name(),
            "(0.7,3)-safety"
        );
        assert_eq!(named(ModelId::Conjunction), "(0.7,3)-safety");
        assert_eq!(named(ModelId::Sequential), "(0.7,3)-sequential");
    }
}
