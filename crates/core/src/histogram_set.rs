//! Histogram-only view of a bucketization — the search-time evaluation
//! surface.
//!
//! Everything the disclosure DP and the diversity criteria look at is the
//! per-bucket sensitive histograms plus the global domain size; bucket
//! *membership* is irrelevant until a chosen bucketization is actually
//! published. [`HistogramSet`] captures exactly that, so lattice search can
//! evaluate nodes from rolled-up histograms (see `wcbk-hierarchy`'s
//! `NodeEvaluator`) without ever materializing a [`Bucketization`].
//!
//! A set is immutable once built, so its buckets live behind an [`Arc`]:
//! cloning is `O(1)`, which lets the roll-up memo hand the same set to every
//! evaluation of a node. Construction also records, per bucket, the first
//! bucket with an equal [`SensitiveHistogram::key`], so the disclosure engine
//! resolves each distinct key's MINIMIZE1 costs once per evaluation, and
//! the smallest per-bucket distinct-value count `d_min`, which decides
//! saturation (`k + 1 ≥ d_min` makes disclosure exactly 1) before any cache
//! lookup.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{Bucketization, CoreError, SensitiveHistogram};

/// The per-bucket sensitive histograms of a (possibly never-materialized)
/// bucketization, in bucket order, plus the sensitive-domain cardinality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSet {
    histograms: Arc<[SensitiveHistogram]>,
    /// `representatives[i]` = the first bucket `j ≤ i` whose histogram has
    /// the same key as bucket `i` (a function of `histograms`).
    representatives: Arc<[usize]>,
    /// `d_min`: the fewest distinct sensitive values in any bucket (a
    /// function of `histograms`).
    d_min: usize,
    domain_size: u32,
}

/// For each histogram, the index of the first one with an equal key.
fn first_occurrences(histograms: &[SensitiveHistogram]) -> Arc<[usize]> {
    let mut first: HashMap<&[u64], usize> = HashMap::with_capacity(histograms.len());
    histograms
        .iter()
        .enumerate()
        .map(|(i, h)| *first.entry(h.key()).or_insert(i))
        .collect()
}

impl HistogramSet {
    /// Builds a set from per-bucket histograms. The set must be non-empty
    /// and every histogram must count at least one tuple (mirroring
    /// [`Bucketization`]'s invariants).
    pub fn new(histograms: Vec<SensitiveHistogram>, domain_size: u32) -> Result<Self, CoreError> {
        if histograms.is_empty() {
            return Err(CoreError::EmptyBucketization);
        }
        if let Some(i) = histograms.iter().position(|h| h.n() == 0) {
            return Err(CoreError::EmptyBucket(i));
        }
        Ok(Self::from_valid(histograms, domain_size))
    }

    fn from_valid(histograms: Vec<SensitiveHistogram>, domain_size: u32) -> Self {
        Self {
            representatives: first_occurrences(&histograms),
            d_min: histograms
                .iter()
                .map(SensitiveHistogram::distinct)
                .min()
                .unwrap_or(0),
            histograms: histograms.into(),
            domain_size,
        }
    }

    /// The histogram view of a materialized bucketization (clones the
    /// per-bucket histograms).
    pub fn from_bucketization(b: &Bucketization) -> Self {
        Self::from_valid(
            b.buckets().iter().map(|x| x.histogram().clone()).collect(),
            b.domain_size(),
        )
    }

    /// Per-bucket histograms in bucket order.
    pub fn histograms(&self) -> &[SensitiveHistogram] {
        &self.histograms
    }

    /// Per bucket, the first bucket with an equal histogram key — the
    /// bucket whose MINIMIZE1 costs stand for it.
    pub(crate) fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// `d_min`: the fewest distinct sensitive values in any bucket. At
    /// attacker power `k ≥ d_min − 1` the set is saturated: `d_min − 1`
    /// atoms rule out every value of that bucket but the predicted one, so
    /// its maximum disclosure is exactly 1.
    pub fn min_distinct(&self) -> usize {
        self.d_min
    }

    /// Number of buckets `|B|`.
    pub fn n_buckets(&self) -> usize {
        self.histograms.len()
    }

    /// Total tuples across buckets.
    pub fn n_tuples(&self) -> u64 {
        self.histograms.iter().map(SensitiveHistogram::n).sum()
    }

    /// Global sensitive-domain cardinality `|S|`.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// The `k = 0` maximum disclosure: `max_b n_b(s⁰_b) / n_b`.
    pub fn max_frequency_ratio(&self) -> f64 {
        self.histograms
            .iter()
            .map(SensitiveHistogram::top_ratio)
            .fold(0.0, f64::max)
    }

    /// Minimum per-bucket entropy (natural log).
    pub fn min_bucket_entropy(&self) -> f64 {
        self.histograms
            .iter()
            .map(SensitiveHistogram::entropy)
            .fold(f64::INFINITY, f64::min)
    }

    /// Smallest bucket size (the k-anonymity parameter of the grouping).
    pub fn min_bucket_size(&self) -> u64 {
        self.histograms
            .iter()
            .map(SensitiveHistogram::n)
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    #[test]
    fn mirrors_bucketization_aggregates() {
        let b = figure3();
        let h = HistogramSet::from_bucketization(&b);
        assert_eq!(h.n_buckets(), b.n_buckets());
        assert_eq!(h.n_tuples(), b.n_tuples());
        assert_eq!(h.domain_size(), b.domain_size());
        assert!((h.max_frequency_ratio() - b.max_frequency_ratio()).abs() < 1e-15);
        assert!((h.min_bucket_entropy() - b.min_bucket_entropy()).abs() < 1e-15);
        assert_eq!(h.min_bucket_size(), b.min_bucket_size());
        let d_min = b.buckets().iter().map(|x| x.histogram().distinct()).min();
        assert_eq!(Some(h.min_distinct()), d_min);
        for (hist, bucket) in h.histograms().iter().zip(b.buckets()) {
            assert_eq!(hist, bucket.histogram());
        }
    }

    /// The first bucket with an equal key, found by scanning every earlier
    /// bucket.
    fn naive_representatives(h: &HistogramSet) -> Vec<usize> {
        let hists = h.histograms();
        (0..hists.len())
            .map(|i| (0..=i).find(|&j| hists[j].key() == hists[i].key()).unwrap())
            .collect()
    }

    #[test]
    fn representatives_are_first_key_occurrences() {
        use wcbk_table::SValue;
        let hist = |counts: &[u64]| {
            SensitiveHistogram::from_counts(
                counts
                    .iter()
                    .enumerate()
                    .map(|(v, &c)| (SValue(v as u32), c)),
            )
        };
        // Equal keys from different values ([2,1] twice) and a repeat of the
        // first bucket after other keys.
        let sets = [
            vec![
                hist(&[2, 1]),
                hist(&[3]),
                hist(&[1, 2]),
                hist(&[2, 1]),
                hist(&[3]),
            ],
            vec![hist(&[1]), hist(&[1]), hist(&[1])],
            vec![hist(&[1, 1, 1]), hist(&[2]), hist(&[1, 2]), hist(&[1])],
        ];
        for hists in sets {
            let h = HistogramSet::new(hists, 4).unwrap();
            assert_eq!(h.representatives(), &naive_representatives(&h)[..]);
        }
        let h = HistogramSet::from_bucketization(&figure3());
        assert_eq!(h.representatives(), &naive_representatives(&h)[..]);
    }

    #[test]
    fn clones_share_buckets() {
        let h = HistogramSet::from_bucketization(&figure3());
        let c = h.clone();
        assert_eq!(c, h);
        assert!(std::ptr::eq(c.histograms(), h.histograms()));
    }

    #[test]
    fn new_validates() {
        assert!(matches!(
            HistogramSet::new(vec![], 3),
            Err(CoreError::EmptyBucketization)
        ));
        let empty = SensitiveHistogram::from_counts(std::iter::empty());
        assert!(matches!(
            HistogramSet::new(vec![empty], 3),
            Err(CoreError::EmptyBucket(0))
        ));
    }
}
