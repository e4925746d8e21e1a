//! Pluggable adversary models — knowledge languages as disclosure bounds.
//!
//! The source paper fixes one knowledge language: `L_k`, conjunctions of `k`
//! basic implications, whose worst-case disclosure the MINIMIZE1/2 dynamic
//! programs compute exactly. This crate makes the attacker itself a plugin:
//! an [`AdversaryModel`] maps a published [`HistogramSet`] to the worst-case
//! probability that *some* adversary expressible in the model's language
//! predicts *some* tuple's sensitive value, together with a human-readable
//! witness of an attacker achieving the bound.
//!
//! Four models ship behind the trait, selected by [`ModelId`]:
//!
//! * `conjunction` ([`ConjunctionModel`]) — the paper's `L_k` language,
//!   routed through the shared [`DisclosureEngine`]. This is the reference
//!   implementation: its bound is bit-identical to calling the engine
//!   directly.
//! * `distribution` ([`DistributionModel`]) — worst-case
//!   *distribution-based* knowledge in the spirit of Wong et al. (arXiv
//!   0909.1127): the adversary holds a prior over the sensitive domain and
//!   strength `k` lets them tilt the prior odds of a bucket's modal value by
//!   a factor of `k + 1`.
//! * `minimality` ([`MinimalityModel`]) — a minimality/utility-aware
//!   attacker that models leakage from publishing the anonymization
//!   *algorithm* itself: knowing the publisher generalized as little as
//!   possible lets the adversary rule out the `k` rarest sensitive values
//!   of a bucket.
//! * `sequential` — linkage-aware sequential release after Riboni et al.
//!   (arXiv 1010.0924): the same engine-backed [`ConjunctionModel`], whose
//!   per-release bounds are the conjunction language's, but whose releases
//!   compose by **common refinement** of the bucketizations
//!   (tuple-correlation tracking) instead of the union-of-buckets audit;
//!   see [`CompositionStyle`].
//!
//! (c,k)-safety under any model is one predicate,
//! [`AdversaryModel::is_safe`]; the lattice searches in `wcbk-anonymize`
//! judge every node through it.
//!
//! # Bound semantics
//!
//! `max_disclosure` returns a probability in `[0, 1]`: the supremum over
//! adversaries expressible in the model's language (with power parameter
//! `k`) of the posterior confidence in the most vulnerable prediction. All
//! models agree at `k = 0` with the no-knowledge bound
//! `max_b n_b(s⁰_b) / n_b`, and every model's bound is monotone in `k`.
//! Bounds are deterministic functions of the histogram multiset — the same
//! set always yields the same bits, which is what lets the serve layer cache
//! and replay audits byte-for-byte.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use wcbk_core::{CoreError, DisclosureEngine, HistogramSet, SensitiveHistogram};

mod conjunction;
mod distribution;
mod minimality;
#[cfg(test)]
mod sequential;

pub use conjunction::ConjunctionModel;
pub use distribution::DistributionModel;
pub use minimality::MinimalityModel;

/// How audits over multiple releases of the same dataset compose under a
/// model's knowledge language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionStyle {
    /// Releases compose as the union of their bucket histograms: the
    /// adversary attacks the weakest bucket across all releases. This is
    /// the paper's composition audit: one MINIMIZE2 pass over the union,
    /// with MINIMIZE1 run only for bucket histograms the cache lacks.
    UnionOfBuckets,
    /// Releases compose as the **common refinement** of their groupings:
    /// the adversary links each tuple across releases, so the effective
    /// buckets are the nonempty intersections of per-release buckets
    /// (Riboni et al., arXiv 1010.0924).
    CommonRefinement,
}

/// A human-readable certificate of an adversary achieving the bound.
///
/// Unlike the core `DisclosureWitness` (which names concrete tuples of a
/// materialized bucketization), a model witness describes the attack at the
/// bucket/value level, since a [`HistogramSet`] carries no tuple
/// membership. The strings are deterministic functions of the set, so
/// witnesses replay byte-for-byte across restarts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelWitness {
    /// The prediction the adversary makes with the bound's confidence.
    pub predicts: String,
    /// The background knowledge that gets them there, one clause per line.
    pub knowing: Vec<String>,
}

/// The first bucket attaining the largest per-bucket bound, with that
/// bound: the set bound of a model that prices each bucket on its own.
fn worst_bucket(
    set: &HistogramSet,
    bound: impl Fn(&SensitiveHistogram) -> f64,
) -> Result<(usize, f64), CoreError> {
    if set.n_buckets() == 0 {
        return Err(CoreError::EmptyBucketization);
    }
    let mut worst = (0, f64::MIN);
    for (i, hist) in set.histograms().iter().enumerate() {
        let v = bound(hist);
        if v > worst.1 {
            worst = (i, v);
        }
    }
    Ok(worst)
}

/// A witness's prediction: bucket `b`'s modal value.
fn modal_prediction(b: usize, hist: &SensitiveHistogram) -> String {
    let modal = hist.value_at(0).expect("buckets are non-empty");
    format!(
        "bucket {b}: t[S] = {modal} (modal value, {} of {} tuples)",
        hist.frequency(0),
        hist.n()
    )
}

/// A knowledge language with a computable worst-case disclosure bound.
///
/// Implementations must be deterministic: the same [`HistogramSet`] must
/// produce bit-identical bounds and witnesses on every call, on every
/// thread. All shipped models satisfy `value(k=0) = max_frequency_ratio`
/// and monotonicity in `k`.
pub trait AdversaryModel: Send + Sync {
    /// The model's stable registry name (`"conjunction"`, …).
    fn name(&self) -> &'static str;

    /// The attacker power parameter this instance was resolved with.
    fn k(&self) -> usize;

    /// Worst-case disclosure over a published histogram set, in `[0, 1]`.
    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError>;

    /// (c,k)-safety under this language: whether the bound stays below
    /// `c`. An override may answer without computing the bound, but must
    /// agree with `max_disclosure(set)? < c`.
    fn is_safe(&self, set: &HistogramSet, c: f64) -> Result<bool, CoreError> {
        Ok(self.max_disclosure(set)? < c)
    }

    /// The bound together with an adversary achieving it, in one pass. The
    /// bound's bits equal [`Self::max_disclosure`]'s.
    fn witness(&self, set: &HistogramSet) -> Result<(f64, ModelWitness), CoreError>;

    /// How sequential releases compose under this language.
    fn composition(&self) -> CompositionStyle {
        CompositionStyle::UnionOfBuckets
    }

    /// Whether merging buckets can never raise the bound (Theorem 14 for
    /// the paper's language). The pruned lattice search infers a node safe
    /// from a safe predecessor only under a merge-monotone model; any other
    /// model gets the exhaustive sweep.
    fn merge_monotone(&self) -> bool {
        true
    }
}

/// Registry identifier for the shipped adversary models. The default is
/// the paper's conjunction language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelId {
    /// The paper's `L_k` conjunctions of basic implications.
    #[default]
    Conjunction,
    /// Worst-case distribution-based knowledge (arXiv 0909.1127).
    Distribution,
    /// Minimality/utility-aware algorithm-publication leakage.
    Minimality,
    /// The conjunction adversary who additionally **links tuples across
    /// releases** of the same dataset, after Riboni et al., "Preserving
    /// Privacy in Sequential Data Release against Background Knowledge
    /// Attacks" (arXiv 1010.0924).
    ///
    /// A single release bounds exactly like [`ModelId::Conjunction`] — the
    /// language per release is the paper's `L_k`. The difference is
    /// composition: arXiv 1010.0924's attacker knows that the same
    /// individual appears in every release, so two groupings jointly
    /// confine each tuple to the *intersection* of its buckets. The
    /// effective published grouping after `m` releases is therefore the
    /// **common refinement** of the `m` bucketizations — typically far
    /// finer (and more disclosive) than any single release — rather than
    /// the union of their bucket histograms.
    ///
    /// It resolves to a [`ConjunctionModel`] that only advertises that
    /// composition rule ([`CompositionStyle::CommonRefinement`]); the
    /// refinement itself is computed by the session layer, which owns tuple
    /// membership, and the refined set is priced through the shared engine.
    Sequential,
}

/// Every registered model, in registry order.
pub const MODEL_IDS: [ModelId; 4] = [
    ModelId::Conjunction,
    ModelId::Distribution,
    ModelId::Minimality,
    ModelId::Sequential,
];

/// Every registered model name, aligned with [`MODEL_IDS`].
pub const MODEL_NAMES: [&str; 4] = ["conjunction", "distribution", "minimality", "sequential"];

impl ModelId {
    /// The model's stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Conjunction => "conjunction",
            ModelId::Distribution => "distribution",
            ModelId::Minimality => "minimality",
            ModelId::Sequential => "sequential",
        }
    }

    /// The registry index (position in [`MODEL_IDS`] / [`MODEL_NAMES`]),
    /// used by per-model metric families.
    pub fn index(self) -> usize {
        match self {
            ModelId::Conjunction => 0,
            ModelId::Distribution => 1,
            ModelId::Minimality => 2,
            ModelId::Sequential => 3,
        }
    }

    /// Instantiates the model at the engine's attacker power. The
    /// engine-backed models (conjunction, sequential) are one
    /// [`ConjunctionModel`] sharing the passed engine's MINIMIZE1 cache;
    /// the closed-form models only borrow its `k`.
    pub fn resolve(self, engine: Arc<DisclosureEngine>) -> Arc<dyn AdversaryModel> {
        match self {
            ModelId::Conjunction | ModelId::Sequential => {
                Arc::new(ConjunctionModel::resolved(self, engine))
            }
            ModelId::Distribution => Arc::new(DistributionModel::new(engine.k())),
            ModelId::Minimality => Arc::new(MinimalityModel::new(engine.k())),
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "conjunction" => Ok(ModelId::Conjunction),
            "distribution" => Ok(ModelId::Distribution),
            "minimality" => Ok(ModelId::Minimality),
            "sequential" => Ok(ModelId::Sequential),
            other => Err(format!(
                "unknown adversary model {other:?} (expected one of: {})",
                MODEL_NAMES.join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wcbk_table::SValue;

    /// The paper's Figure 3 histograms: male bucket (2, 2, 1), female
    /// bucket (2, 1, 1, 1), three diseases in the domain.
    pub(crate) fn figure3_set() -> HistogramSet {
        let male =
            SensitiveHistogram::from_counts([(SValue(0), 2u64), (SValue(1), 2), (SValue(2), 1)]);
        let female = SensitiveHistogram::from_counts([
            (SValue(0), 2u64),
            (SValue(1), 1),
            (SValue(2), 1),
            (SValue(3), 1),
        ]);
        HistogramSet::new(vec![male, female], 4).unwrap()
    }

    /// A histogram over value codes `0..6` with counts summed per code.
    fn tally(pairs: impl IntoIterator<Item = (u32, u64)>) -> SensitiveHistogram {
        let mut tally = std::collections::BTreeMap::<u32, u64>::new();
        for (v, c) in pairs {
            *tally.entry(v).or_insert(0) += c;
        }
        SensitiveHistogram::from_counts(tally.into_iter().map(|(v, c)| (SValue(v), c)))
    }

    /// Random histograms over value codes `0..6`; duplicate codes collapse
    /// (`from_counts` treats each pair as a distinct value).
    pub(crate) fn histogram_strategy() -> impl Strategy<Value = SensitiveHistogram> {
        prop::collection::vec((0u32..6, 1u64..9), 1..6).prop_map(tally)
    }

    /// `a` and `b` as two buckets, and merged into one (one generalization
    /// step).
    pub(crate) fn split_and_merged(
        a: SensitiveHistogram,
        b: SensitiveHistogram,
    ) -> (HistogramSet, HistogramSet) {
        let merged = tally(
            a.iter_counts()
                .chain(b.iter_counts())
                .map(|(v, c)| (v.0, c)),
        );
        (
            HistogramSet::new(vec![a, b], 6).unwrap(),
            HistogramSet::new(vec![merged], 6).unwrap(),
        )
    }

    #[test]
    fn registry_round_trips_names() {
        for (id, name) in MODEL_IDS.iter().zip(MODEL_NAMES) {
            assert_eq!(id.name(), name);
            assert_eq!(name.parse::<ModelId>().unwrap(), *id);
            assert_eq!(id.to_string(), name);
            assert_eq!(MODEL_IDS[id.index()], *id);
        }
        assert!("l-diversity".parse::<ModelId>().is_err());
        let err = "bogus".parse::<ModelId>().unwrap_err();
        assert!(err.contains("conjunction") && err.contains("sequential"));
    }

    #[test]
    fn default_is_conjunction() {
        assert_eq!(ModelId::default(), ModelId::Conjunction);
    }

    #[test]
    fn resolve_matches_registry() {
        let engine = Arc::new(DisclosureEngine::new(2));
        for id in MODEL_IDS {
            let model = id.resolve(Arc::clone(&engine));
            assert_eq!(model.name(), id.name());
            assert_eq!(model.k(), 2);
            assert_eq!(model.merge_monotone(), id != ModelId::Minimality, "{id}");
        }
    }

    /// Every histogram over at most 4 distinct values with counts in
    /// `1..=3`: the non-increasing base-4 digit strings, 0 = absent.
    fn small_histograms() -> Vec<SensitiveHistogram> {
        (1..256u64)
            .map(|code| (0..4).map(|i| code / 4u64.pow(i) % 4).collect::<Vec<_>>())
            .filter(|digits| digits.windows(2).all(|w| w[0] >= w[1]))
            .map(|digits| {
                let counts = digits.into_iter().take_while(|&n| n > 0);
                SensitiveHistogram::from_counts(
                    counts.enumerate().map(|(v, n)| (SValue(v as u32), n)),
                )
            })
            .collect()
    }

    /// Figure 3 plus every one- and two-bucket set of small histograms.
    fn contract_sets() -> Vec<HistogramSet> {
        let hists = small_histograms();
        assert_eq!(hists.len(), 34);
        let mut sets = vec![figure3_set()];
        for a in &hists {
            sets.push(HistogramSet::new(vec![a.clone()], 4).unwrap());
            for b in &hists {
                sets.push(HistogramSet::new(vec![a.clone(), b.clone()], 4).unwrap());
            }
        }
        sets
    }

    #[test]
    fn all_models_agree_at_k0_with_frequency_ratio() {
        let engine = Arc::new(DisclosureEngine::new(0));
        for set in contract_sets() {
            for id in MODEL_IDS {
                let model = id.resolve(Arc::clone(&engine));
                let v = model.max_disclosure(&set).unwrap();
                assert!(
                    (v - set.max_frequency_ratio()).abs() < 1e-15,
                    "{}: {v} != {}",
                    id,
                    set.max_frequency_ratio()
                );
            }
        }
    }

    #[test]
    fn all_models_monotone_in_k() {
        let sets = contract_sets();
        for id in MODEL_IDS {
            let mut prev = vec![0.0; sets.len()];
            for k in 0..6 {
                let model = id.resolve(Arc::new(DisclosureEngine::new(k)));
                for (set, prev) in sets.iter().zip(&mut prev) {
                    let v = model.max_disclosure(set).unwrap();
                    assert!(v >= *prev - 1e-15, "{id} not monotone at k={k}");
                    assert!((0.0..=1.0).contains(&v));
                    *prev = v;
                }
            }
        }
    }

    /// On every small set, `is_safe` is `max_disclosure < c` at the
    /// thresholds where a ratio-first shortcut could disagree (the set's
    /// frequency ratio and bound, and one ulp either side of each), and
    /// the witness carries the bound's exact bits.
    #[test]
    fn every_model_keeps_the_safety_and_witness_contract() {
        let ulps = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        for k in 0..=3 {
            let engine = Arc::new(DisclosureEngine::new(k));
            for id in MODEL_IDS {
                let model = id.resolve(Arc::clone(&engine));
                for set in contract_sets() {
                    let bound = model.max_disclosure(&set).unwrap();
                    let (value, _) = model.witness(&set).unwrap();
                    assert_eq!(value.to_bits(), bound.to_bits(), "{id} k={k}");
                    let thresholds = ulps(set.max_frequency_ratio())
                        .into_iter()
                        .chain(ulps(bound));
                    for c in thresholds.filter(|&c| c > 0.0 && c <= 1.0) {
                        assert_eq!(
                            model.is_safe(&set, c).unwrap(),
                            bound < c,
                            "{id} k={k} c={c:e} bound={bound:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn composition_styles() {
        let engine = Arc::new(DisclosureEngine::new(1));
        for id in MODEL_IDS {
            let style = id.resolve(Arc::clone(&engine)).composition();
            if id == ModelId::Sequential {
                assert_eq!(style, CompositionStyle::CommonRefinement);
            } else {
                assert_eq!(style, CompositionStyle::UnionOfBuckets);
            }
        }
    }
}
