//! A minimality/utility-aware attacker: leakage from publishing the
//! anonymization algorithm itself.

use wcbk_core::{CoreError, HistogramSet, SensitiveHistogram};

use crate::{modal_prediction, worst_bucket, AdversaryModel, ModelWitness};

/// An adversary who knows the published grouping was produced by a
/// *minimal* (utility-maximizing) algorithm.
///
/// Minimality attacks (in the tradition of Wong et al.'s m-confidentiality
/// analysis, arXiv 0909.1127 §2) exploit that a publisher who generalizes
/// as little as possible reveals which sensitive values could **not** have
/// forced the grouping: strength `k` lets the adversary argue away the `k`
/// rarest sensitive values of a bucket (they are too infrequent to have
/// constrained a minimal algorithm), never touching the modal value. The
/// bucket bound is therefore
///
/// ```text
///   f / (n − tail_k)   where tail_k = Σ of the min(k, d−1) smallest
///                      distinct-value counts, d = distinct values,
/// ```
///
/// and the set bound is the maximum over buckets. At `k = 0` this is the
/// no-knowledge ratio `f / n`; once `k ≥ d − 1` only the modal value
/// survives and the bucket discloses fully.
///
/// The bound is **not** merge-monotone: at `k = 1` the buckets with counts
/// (3, 2, 1) and (3, 1, 2) each bound at 3/5, but their merge (6, 3, 3)
/// bounds at 6/9. So [`merge_monotone`](AdversaryModel::merge_monotone)
/// is `false`, and lattice searches under this model sweep every node.
pub struct MinimalityModel {
    k: usize,
}

impl MinimalityModel {
    /// An adversary who can argue away `k` rare values per bucket.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// How many rare values the adversary eliminates in one bucket.
    fn eliminated(&self, hist: &SensitiveHistogram) -> usize {
        self.k.min(hist.distinct().saturating_sub(1))
    }

    /// The per-bucket bound after eliminating the rare tail.
    fn bucket_value(&self, hist: &SensitiveHistogram) -> f64 {
        let counts = hist.key();
        let elim = self.eliminated(hist);
        let tail: u64 = counts[counts.len() - elim..].iter().sum();
        hist.frequency(0) as f64 / (hist.n() - tail) as f64
    }
}

impl AdversaryModel for MinimalityModel {
    fn name(&self) -> &'static str {
        "minimality"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError> {
        Ok(worst_bucket(set, |h| self.bucket_value(h))?.1)
    }

    fn merge_monotone(&self) -> bool {
        false
    }

    fn witness(&self, set: &HistogramSet) -> Result<(f64, ModelWitness), CoreError> {
        let (b, value) = worst_bucket(set, |h| self.bucket_value(h))?;
        let hist = &set.histograms()[b];
        let elim = self.eliminated(hist);
        let knowing = if elim == 0 {
            vec!["no algorithm-publication leverage (k = 0)".to_string()]
        } else {
            vec![format!(
                "the published algorithm is minimal, ruling out the {elim} rarest value(s) \
                 of bucket {b}"
            )]
        };
        let witness = ModelWitness {
            predicts: modal_prediction(b, hist),
            knowing,
        };
        Ok((value, witness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{figure3_set, histogram_strategy, split_and_merged};
    use proptest::prelude::*;
    use wcbk_table::SValue;

    /// Worked example on the Figure 3 histograms. At `k = 1` each bucket
    /// loses its single rarest value: male (2,2,1) → 2/4, female (2,1,1,1)
    /// → 2/4, bound 0.5. At `k = 2` the male bucket argues away both
    /// non-modal values (d − 1 = 2), leaving only the modal value:
    /// 2/2 = 1.0.
    #[test]
    fn figure3_worked_example() {
        let set = figure3_set();
        assert!((MinimalityModel::new(1).max_disclosure(&set).unwrap() - 0.5).abs() < 1e-15);
        assert!((MinimalityModel::new(2).max_disclosure(&set).unwrap() - 1.0).abs() < 1e-15);
    }

    /// The counterexample behind `merge_monotone() == false`: two
    /// buckets at 3/5 merge into one at 6/9.
    #[test]
    fn merging_can_raise_the_bound() {
        let hist = |counts: [u64; 3]| {
            SensitiveHistogram::from_counts((0..3).map(|v| (SValue(v), counts[v as usize])))
        };
        let model = MinimalityModel::new(1);
        let split = HistogramSet::new(vec![hist([3, 2, 1]), hist([3, 1, 2])], 3).unwrap();
        let merged = HistogramSet::new(vec![hist([6, 3, 3])], 3).unwrap();
        assert_eq!(model.max_disclosure(&split).unwrap(), 0.6);
        assert_eq!(model.max_disclosure(&merged).unwrap(), 6.0 / 9.0);
        assert!(!model.merge_monotone());
    }

    #[test]
    fn k0_is_frequency_ratio() {
        let set = figure3_set();
        let m = MinimalityModel::new(0);
        assert!((m.max_disclosure(&set).unwrap() - set.max_frequency_ratio()).abs() < 1e-15);
    }

    #[test]
    fn elimination_never_touches_the_modal_value() {
        // A two-value bucket: no matter how large k is, at most one value
        // can be argued away, so the bound caps at 1.0 without dividing by
        // zero.
        let hist = SensitiveHistogram::from_counts([(SValue(0), 3u64), (SValue(1), 2)]);
        let set = HistogramSet::new(vec![hist], 2).unwrap();
        for k in 0..10 {
            let v = MinimalityModel::new(k).max_disclosure(&set).unwrap();
            assert!(v.is_finite() && v <= 1.0);
        }
        assert!((MinimalityModel::new(9).max_disclosure(&set).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn witness_reports_elimination_count() {
        let set = figure3_set();
        let (_, w) = MinimalityModel::new(1).witness(&set).unwrap();
        assert!(w.knowing[0].contains("1 rarest"), "{}", w.knowing[0]);
        let (_, w0) = MinimalityModel::new(0).witness(&set).unwrap();
        assert!(w0.knowing[0].contains("k = 0"), "{}", w0.knowing[0]);
    }

    proptest! {
        /// Merging two buckets (one generalization step) never increases
        /// the bound at k = 0, where it is the frequency ratio. At k ≥ 1 it
        /// can (`merging_can_raise_the_bound`; a 2,000-case run draws such
        /// a pair), and the model declares that through `merge_monotone()`.
        #[test]
        fn merge_monotone(a in histogram_strategy(), b in histogram_strategy(), k in 0usize..5) {
            let model = MinimalityModel::new(k);
            let (split, merged) = split_and_merged(a, b);
            let v_split = model.max_disclosure(&split).unwrap();
            let v_merged = model.max_disclosure(&merged).unwrap();
            if v_merged > v_split + 1e-12 {
                prop_assert!(k > 0, "merged {v_merged} > split {v_split} at k = 0");
                prop_assert!(!model.merge_monotone(), "merged {v_merged} > split {v_split}");
            }
        }

        /// Bounds stay probabilities and grow with `k`.
        #[test]
        fn bounded_and_monotone_in_k(h in histogram_strategy()) {
            let set = HistogramSet::new(vec![h], 6).unwrap();
            let mut prev = 0.0;
            for k in 0..6 {
                let v = MinimalityModel::new(k).max_disclosure(&set).unwrap();
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= prev - 1e-15);
                prev = v;
            }
        }
    }
}
