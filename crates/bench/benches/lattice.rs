//! E6 — Section 3.4 lattice search: finding all minimal (c,k)-safe
//! generalizations with monotone pruning versus the exhaustive sweep, and
//! (c,k)-safety versus the cheaper baselines it replaces in Incognito.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wcbk_anonymize::search::{search, sweep, SearchConfig};
use wcbk_anonymize::{CkSafetyCriterion, EntropyLDiversity, KAnonymity};
use wcbk_bench::small_adult;
use wcbk_hierarchy::adult::adult_lattice;

fn bench_lattice_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice_search");
    group.sample_size(10);
    let table = small_adult(5_000);
    let lattice = adult_lattice(&table).expect("adult lattice");
    let sequential = SearchConfig::with_threads(1);

    group.bench_function("ck_safety_pruned", |b| {
        b.iter(|| {
            let criterion = CkSafetyCriterion::new(0.8, 3).unwrap();
            black_box(search(&table, &lattice, &criterion, &sequential).unwrap())
        })
    });

    group.bench_function("ck_safety_sweep_all", |b| {
        b.iter(|| {
            let criterion = CkSafetyCriterion::new(0.8, 3).unwrap();
            black_box(sweep(&table, &lattice, &criterion).unwrap())
        })
    });

    group.bench_function("k_anonymity_pruned", |b| {
        b.iter(|| {
            let criterion = KAnonymity::new(50);
            black_box(search(&table, &lattice, &criterion, &sequential).unwrap())
        })
    });

    group.bench_function("entropy_ldiv_pruned", |b| {
        b.iter(|| {
            let criterion = EntropyLDiversity::new(4.0).unwrap();
            black_box(search(&table, &lattice, &criterion, &sequential).unwrap())
        })
    });

    for k in [1usize, 5, 9] {
        group.bench_with_input(BenchmarkId::new("ck_safety_power", k), &k, |b, &k| {
            b.iter(|| {
                let criterion = CkSafetyCriterion::new(0.8, k).unwrap();
                black_box(search(&table, &lattice, &criterion, &sequential).unwrap())
            })
        });
    }

    // The work-stealing search against the sequential baseline (1 thread),
    // sharing one engine cache across worker threads.
    for threads in [1usize, 2, 4, 8] {
        let config = SearchConfig::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("ck_safety_parallel", threads),
            &config,
            |b, config| {
                b.iter(|| {
                    let criterion = CkSafetyCriterion::new(0.8, 3).unwrap();
                    black_box(search(&table, &lattice, &criterion, config).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lattice_search);
criterion_main!(benches);
