//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * MINIMIZE1: the `O(k³)` reformulated table vs. the paper's Algorithm 1
//!   as written (exponential recursion without memoization) — quantifies
//!   why the DP formulation matters;
//! * histogram-keyed caching in the engine vs. cold computation — the
//!   memo-reuse claim of §3.3.3;
//! * witness reconstruction on/off — the cost of producing the worst-case
//!   attacker rather than just the disclosure value;
//! * Incognito's subset join vs. plain monotone BFS over the full lattice —
//!   criterion evaluations traded for join bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wcbk_anonymize::incognito::incognito;
use wcbk_anonymize::search::{search, SearchConfig};
use wcbk_anonymize::KAnonymity;
use wcbk_bench::small_adult;
use wcbk_core::minimize1::{paper_recursion, Minimize1Table};
use wcbk_core::{max_disclosure, DisclosureEngine, HistogramSet, SensitiveHistogram};
use wcbk_datagen::workload::{random_bucketization, WorkloadConfig};
use wcbk_hierarchy::adult::adult_lattice;
use wcbk_table::SValue;

fn skewed_histogram(n: u64, d: u32) -> SensitiveHistogram {
    // Zipf-ish counts over d values summing to ~n.
    let mut counts = Vec::new();
    let mut left = n;
    for v in 0..d {
        let c = (n / (v as u64 + 2)).max(1).min(left);
        counts.push((SValue(v), c));
        left = left.saturating_sub(c);
        if left == 0 {
            break;
        }
    }
    if left > 0 {
        counts[0].1 += left;
    }
    SensitiveHistogram::from_counts(counts)
}

fn bench_minimize1_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_minimize1");
    let hist = skewed_histogram(10_000, 20);
    for k in [4usize, 8, 12, 16] {
        group.bench_with_input(BenchmarkId::new("dp_table", k), &k, |b, &k| {
            b.iter(|| black_box(Minimize1Table::build(&hist, k).m1(k)))
        });
        // The unmemoized paper recursion blows up combinatorially; keep k
        // small enough to terminate in bench time.
        if k <= 12 {
            group.bench_with_input(BenchmarkId::new("paper_recursion", k), &k, |b, &k| {
                b.iter(|| black_box(paper_recursion(&hist, 0, k, k)))
            });
        }
    }
    group.finish();
}

fn bench_engine_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_engine_cache");
    let bucketization = random_bucketization(WorkloadConfig {
        n_buckets: 512,
        bucket_size: (8, 32),
        n_values: 14,
        skew: 1.0,
        seed: 5150,
    });
    let k = 8;
    group.bench_function("cold_no_cache", |b| {
        b.iter(|| black_box(max_disclosure(&bucketization, k).unwrap().value))
    });
    group.bench_function("warm_histogram_cache", |b| {
        let engine = DisclosureEngine::new(k);
        let set = HistogramSet::from_bucketization(&bucketization);
        engine.max_disclosure_value_set(&set).unwrap();
        b.iter(|| black_box(engine.max_disclosure_value_set(&set).unwrap()))
    });
    group.bench_function("value_only_vs_witness", |b| {
        let engine = DisclosureEngine::new(k);
        b.iter(|| black_box(engine.max_disclosure(&bucketization).unwrap().value))
    });
    group.finish();
}

fn bench_incognito_vs_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_incognito");
    group.sample_size(10);
    let table = small_adult(5_000);
    let lattice = adult_lattice(&table).expect("adult lattice");
    let sequential = SearchConfig::with_threads(1);
    group.bench_function("incognito_subset_join", |b| {
        b.iter(|| {
            black_box(incognito(&table, &lattice, &KAnonymity::new(50), &sequential).unwrap())
        })
    });
    group.bench_function("plain_monotone_bfs", |b| {
        b.iter(|| black_box(search(&table, &lattice, &KAnonymity::new(50), &sequential).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_minimize1_variants,
    bench_engine_cache,
    bench_incognito_vs_bfs
);
criterion_main!(benches);
