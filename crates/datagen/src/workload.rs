//! Random bucketization workloads for tests and benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wcbk_core::{Bucket, Bucketization, HistogramSet};
use wcbk_table::{SValue, TupleId};

use crate::dist::{zipf_weights, Discrete};

/// Parameters for random bucketization generation.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of buckets `|B|`.
    pub n_buckets: usize,
    /// Bucket sizes drawn uniformly from this inclusive range.
    pub bucket_size: (usize, usize),
    /// Sensitive-domain cardinality `|S|`.
    pub n_values: usize,
    /// Zipf exponent for value skew inside buckets (0 = uniform).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            n_buckets: 16,
            bucket_size: (4, 64),
            n_values: 14,
            skew: 1.0,
            seed: 7,
        }
    }
}

/// Generates a random bucketization: each bucket gets a uniformly random
/// size and values drawn from a per-bucket Zipf over a shuffled value order
/// (so different buckets favour different values).
pub fn random_bucketization(config: WorkloadConfig) -> Bucketization {
    assert!(config.n_buckets > 0, "need at least one bucket");
    assert!(
        config.bucket_size.0 >= 1 && config.bucket_size.0 <= config.bucket_size.1,
        "invalid bucket size range"
    );
    assert!(config.n_values >= 1, "need at least one sensitive value");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let weights = zipf_weights(config.n_values, config.skew);
    let dist = Discrete::new(&weights);

    let mut buckets = Vec::with_capacity(config.n_buckets);
    let mut next_tuple = 0u32;
    for _ in 0..config.n_buckets {
        let size = rng.gen_range(config.bucket_size.0..=config.bucket_size.1);
        // Shuffle which concrete value each Zipf rank maps to in this bucket.
        let mut value_of_rank: Vec<u32> = (0..config.n_values as u32).collect();
        shuffle(&mut value_of_rank, &mut rng);
        let members: Vec<TupleId> = (0..size)
            .map(|_| {
                let t = TupleId(next_tuple);
                next_tuple += 1;
                t
            })
            .collect();
        let values: Vec<SValue> = (0..size)
            .map(|_| SValue(value_of_rank[dist.sample(&mut rng)]))
            .collect();
        buckets.push(Bucket::new(members, &values));
    }
    Bucketization::from_buckets(buckets, config.n_values as u32)
        .expect("generated buckets are valid")
}

/// Fisher–Yates shuffle (avoiding the `rand` `SliceRandom` trait keeps the
/// dependency surface to `Rng` only).
fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The histogram-only view of [`random_bucketization`]'s workload —
/// bit-identical histograms for identical configs, handed over without
/// bucket membership. This is the natural input for histogram-only
/// consumers — the criteria surfaces, `DisclosureEngine::max_disclosure_value_set` —
/// which never look at membership.
pub fn random_histogram_set(config: WorkloadConfig) -> HistogramSet {
    HistogramSet::from_bucketization(&random_bucketization(config))
}

/// A family of increasingly fine/coarse workloads for scaling benchmarks:
/// `sizes` bucket counts, all other parameters shared.
pub fn scaling_series(bucket_counts: &[usize], base: WorkloadConfig) -> Vec<Bucketization> {
    bucket_counts
        .iter()
        .map(|&n| {
            random_bucketization(WorkloadConfig {
                n_buckets: n,
                seed: base.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..base
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let b = random_bucketization(WorkloadConfig {
            n_buckets: 10,
            bucket_size: (3, 7),
            n_values: 5,
            skew: 1.2,
            seed: 42,
        });
        assert_eq!(b.n_buckets(), 10);
        assert_eq!(b.domain_size(), 5);
        for bucket in b.buckets() {
            assert!((3..=7).contains(&(bucket.n() as usize)));
        }
    }

    #[test]
    fn histogram_set_matches_bucketization_draws() {
        let config = WorkloadConfig {
            n_buckets: 12,
            bucket_size: (2, 9),
            n_values: 7,
            skew: 1.4,
            seed: 99,
        };
        let b = random_bucketization(config);
        let h = random_histogram_set(config);
        assert_eq!(h.n_buckets(), b.n_buckets());
        assert_eq!(h.domain_size(), b.domain_size());
        for (hist, bucket) in h.histograms().iter().zip(b.buckets()) {
            assert_eq!(hist, bucket.histogram());
        }
    }

    #[test]
    fn tuple_ids_are_globally_unique() {
        let b = random_bucketization(WorkloadConfig::default());
        let mut seen = std::collections::HashSet::new();
        for bucket in b.buckets() {
            for &t in bucket.members() {
                assert!(seen.insert(t));
            }
        }
        assert_eq!(seen.len() as u64, b.n_tuples());
    }

    #[test]
    fn skew_increases_top_ratio() {
        let uniform = random_bucketization(WorkloadConfig {
            skew: 0.0,
            n_buckets: 8,
            bucket_size: (200, 200),
            ..WorkloadConfig::default()
        });
        let skewed = random_bucketization(WorkloadConfig {
            skew: 2.0,
            n_buckets: 8,
            bucket_size: (200, 200),
            ..WorkloadConfig::default()
        });
        assert!(skewed.max_frequency_ratio() > uniform.max_frequency_ratio());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::default();
        let a = random_bucketization(cfg);
        let b = random_bucketization(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn scaling_series_sizes() {
        let series = scaling_series(&[2, 8, 32], WorkloadConfig::default());
        let sizes: Vec<usize> = series.iter().map(|b| b.n_buckets()).collect();
        assert_eq!(sizes, vec![2, 8, 32]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        random_bucketization(WorkloadConfig {
            n_buckets: 0,
            ..WorkloadConfig::default()
        });
    }
}
