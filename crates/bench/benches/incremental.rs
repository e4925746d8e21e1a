//! E7 — incremental re-evaluation (Section 3.3.3 closing remark): replacing
//! one bucket should cost `O(k²)` via the prefix/suffix composition versus a
//! full `O(|B|·k²)` MINIMIZE2 rerun (plus `O(k³)` for any new histogram).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wcbk_core::{max_disclosure, DisclosureEngine, HistogramSet};
use wcbk_datagen::workload::{random_bucketization, WorkloadConfig};

fn bench_incremental(c: &mut Criterion) {
    let k = 8usize;
    for n_buckets in [64usize, 512, 4096] {
        let mut group = c.benchmark_group(format!("incremental_B{n_buckets}"));
        let bucketization = random_bucketization(WorkloadConfig {
            n_buckets,
            bucket_size: (8, 32),
            n_values: 14,
            skew: 1.0,
            seed: 1234,
        });
        let replacement = random_bucketization(WorkloadConfig {
            n_buckets: 1,
            bucket_size: (16, 16),
            n_values: 14,
            skew: 0.5,
            seed: 4321,
        });
        let new_hist = replacement.bucket(0).histogram().clone();

        let engine = DisclosureEngine::new(k);
        let set = HistogramSet::from_bucketization(&bucketization);
        let session = engine.incremental_set(&set).unwrap();
        let new_costs = engine.costs(&new_hist);
        let target = n_buckets / 2;

        group.bench_function(BenchmarkId::new("what_if_replace", k), |b| {
            b.iter(|| black_box(session.what_if_replace(target, &new_costs).unwrap()))
        });

        group.bench_function(BenchmarkId::new("full_recompute", k), |b| {
            b.iter(|| black_box(max_disclosure(black_box(&bucketization), k).unwrap().value))
        });

        group.bench_function(BenchmarkId::new("cached_recompute", k), |b| {
            // Histogram-level caching only (the paper's memo-reuse claim).
            let warm = DisclosureEngine::new(k);
            warm.max_disclosure_value_set(&set).unwrap();
            b.iter(|| black_box(warm.max_disclosure_value_set(black_box(&set)).unwrap()))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
