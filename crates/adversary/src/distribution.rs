//! Worst-case distribution-based background knowledge, adapted from Wong
//! et al., "Anonymization with Worst-Case Distribution-Based Background
//! Knowledge" (arXiv 0909.1127).

use wcbk_core::{CoreError, HistogramSet, SensitiveHistogram};

use crate::{modal_prediction, worst_bucket, AdversaryModel, ModelWitness};

/// An adversary who holds a prior distribution over the sensitive domain
/// and whose strength `k` bounds how far that prior may deviate from the
/// published bucket frequencies.
///
/// Following the worst-case analysis of arXiv 0909.1127, the most damaging
/// admissible prior concentrates its deviation budget on one bucket's modal
/// value: with strength `k` the adversary may tilt the prior *odds* of the
/// modal value by a factor of `k + 1`, giving posterior confidence
///
/// ```text
///   (k+1) · f
///   ─────────────────   where f = n_b(s⁰_b), n = n_b.
///   (k+1) · f + (n−f)
/// ```
///
/// The bound is the maximum of that tilt over all buckets. At `k = 0` it
/// degenerates to the no-knowledge frequency ratio `f / n`, and it is
/// monotone in `k` (more tilt never hurts the adversary). Merging buckets
/// never increases the bound: the merged odds `f/(n−f)` are a mediant of
/// the parts' odds, so the bound is safe to evaluate on rolled-up
/// histograms.
pub struct DistributionModel {
    k: usize,
}

impl DistributionModel {
    /// An adversary of strength `k` (odds tilt factor `k + 1`).
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The tilted posterior for one bucket.
    fn bucket_value(&self, hist: &SensitiveHistogram) -> f64 {
        let f = hist.frequency(0) as f64;
        let rest = (hist.n() - hist.frequency(0)) as f64;
        let tilt = self.k.saturating_add(1) as f64;
        tilt * f / (tilt * f + rest)
    }
}

impl AdversaryModel for DistributionModel {
    fn name(&self) -> &'static str {
        "distribution"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError> {
        Ok(worst_bucket(set, |h| self.bucket_value(h))?.1)
    }

    fn witness(&self, set: &HistogramSet) -> Result<(f64, ModelWitness), CoreError> {
        let (b, value) = worst_bucket(set, |h| self.bucket_value(h))?;
        let hist = &set.histograms()[b];
        let modal = hist.value_at(0).expect("buckets are non-empty");
        let witness = ModelWitness {
            predicts: modal_prediction(b, hist),
            knowing: vec![format!(
                "a prior tilting the odds of {modal} in bucket {b} by a factor of {}",
                self.k as u128 + 1
            )],
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

    /// Worked example on the paper's running Figure 3 histograms: both
    /// buckets have modal frequency 2 of 5, so at strength 1 the tilted
    /// posterior is `2·2 / (2·2 + 3) = 4/7`, and at strength 4 it is
    /// `5·2 / (5·2 + 3) = 10/13`.
    #[test]
    fn figure3_worked_example() {
        let set = figure3_set();
        let m1 = DistributionModel::new(1);
        assert!((m1.max_disclosure(&set).unwrap() - 4.0 / 7.0).abs() < 1e-15);
        let m4 = DistributionModel::new(4);
        assert!((m4.max_disclosure(&set).unwrap() - 10.0 / 13.0).abs() < 1e-15);
    }

    #[test]
    fn k0_is_frequency_ratio() {
        let set = figure3_set();
        let m = DistributionModel::new(0);
        assert!((m.max_disclosure(&set).unwrap() - set.max_frequency_ratio()).abs() < 1e-15);
    }

    #[test]
    fn homogeneous_bucket_discloses_fully() {
        let hist = SensitiveHistogram::from_counts([(SValue(0), 7u64)]);
        let set = HistogramSet::new(vec![hist], 3).unwrap();
        for k in 0..4 {
            let v = DistributionModel::new(k).max_disclosure(&set).unwrap();
            assert!((v - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn witness_names_the_argmax_bucket() {
        let skewed = SensitiveHistogram::from_counts([(SValue(0), 9u64), (SValue(1), 1)]);
        let flat = SensitiveHistogram::from_counts([(SValue(0), 1u64), (SValue(1), 1)]);
        let set = HistogramSet::new(vec![flat, skewed], 2).unwrap();
        let (v, w) = DistributionModel::new(1).witness(&set).unwrap();
        assert_eq!(v, DistributionModel::new(1).max_disclosure(&set).unwrap());
        assert!(w.predicts.starts_with("bucket 1:"), "{}", w.predicts);
        assert!(w.knowing[0].contains("factor of 2"), "{}", w.knowing[0]);
    }

    proptest! {
        /// Merging two buckets (one generalization step) never increases
        /// the bound — the roll-up monotonicity the lattice search relies
        /// on.
        #[test]
        fn merge_monotone(a in histogram_strategy(), b in histogram_strategy(), k in 0usize..5) {
            let model = DistributionModel::new(k);
            let (split, merged) = split_and_merged(a, b);
            let v_split = model.max_disclosure(&split).unwrap();
            let v_merged = model.max_disclosure(&merged).unwrap();
            prop_assert!(v_merged <= v_split + 1e-12, "merged {v_merged} > split {v_split}");
        }

        /// Bounds stay probabilities and grow with `k`.
        #[test]
        fn bounded_and_monotone_in_k(h in histogram_strategy()) {
            let set = HistogramSet::new(vec![h], 6).unwrap();
            let mut prev = 0.0;
            for k in 0..6 {
                let v = DistributionModel::new(k).max_disclosure(&set).unwrap();
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= prev - 1e-15);
                prev = v;
            }
        }
    }
}
