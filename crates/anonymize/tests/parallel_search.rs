//! Equivalence and concurrency contracts of the parallel lattice search.
//!
//! The load-bearing guarantee of `search` (and `incognito`) at more than
//! one thread is that the work-stealing
//! schedule is *invisible* in the result:
//! the same minimal antichain, the same `evaluated` count, the same
//! `satisfied` count as the sequential search, for any thread count —
//! verified here on the paper's 72-node Adult benchmark lattice. A separate
//! smoke test drives one shared `DisclosureEngine`-backed criterion from
//! many threads at once and checks that the shared cache still answers
//! consistently.

use wcbk_anonymize::search::{search, SearchConfig, SearchOutcome};
use wcbk_anonymize::{
    anonymize, incognito, AnonymizeError, CkSafetyCriterion, DistinctLDiversity, KAnonymity,
    PrivacyCriterion, UtilityMetric,
};
use wcbk_core::{DisclosureEngine, HistogramSet};
use wcbk_datagen::adult::{synthetic_adult, AdultConfig};
use wcbk_hierarchy::adult::adult_lattice;
use wcbk_hierarchy::GeneralizationLattice;
use wcbk_table::Table;

/// The search's outcome under `config`.
fn searched<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> SearchOutcome {
    search(table, lattice, criterion, config).unwrap().outcome
}

/// The sequential search's outcome, the oracle every schedule must equal.
fn sequential<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> SearchOutcome {
    searched(table, lattice, criterion, &SearchConfig::with_threads(1))
}

fn adult(n_rows: usize) -> (Table, GeneralizationLattice) {
    let table = synthetic_adult(AdultConfig {
        n_rows,
        ..Default::default()
    });
    let lattice = adult_lattice(&table).expect("adult lattice");
    (table, lattice)
}

/// The acceptance-criterion test: on the Adult benchmark lattice, the
/// parallel search returns a `SearchOutcome` *equal* (same `minimal_nodes`
/// in the same order, same `evaluated`, same `satisfied`) to the sequential
/// one, for several thread counts and criteria.
#[test]
fn parallel_equals_sequential_on_adult_lattice() {
    let (table, lattice) = adult(1_500);
    for threads in [2usize, 3, 8] {
        let seq = sequential(&table, &lattice, &CkSafetyCriterion::new(0.8, 2).unwrap());
        let config = SearchConfig::with_threads(threads);
        let par = searched(
            &table,
            &lattice,
            &CkSafetyCriterion::new(0.8, 2).unwrap(),
            &config,
        );
        assert_eq!(
            seq, par,
            "(c,k)-safety outcome diverged at {threads} threads"
        );
        assert!(
            !seq.minimal_nodes.is_empty(),
            "search found nothing to compare"
        );

        let seq = sequential(&table, &lattice, &KAnonymity::new(40));
        let par = searched(&table, &lattice, &KAnonymity::new(40), &config);
        assert_eq!(
            seq, par,
            "k-anonymity outcome diverged at {threads} threads"
        );

        let seq = sequential(&table, &lattice, &DistinctLDiversity::new(5));
        let par = searched(&table, &lattice, &DistinctLDiversity::new(5), &config);
        assert_eq!(
            seq, par,
            "l-diversity outcome diverged at {threads} threads"
        );
    }
}

/// `threads == 0` (all cores) and `threads == 1` (sequential fast path) are
/// also equivalent.
#[test]
fn thread_count_edge_cases_match() {
    let (table, lattice) = adult(800);
    let criterion = || CkSafetyCriterion::new(0.85, 1).unwrap();
    let seq = sequential(&table, &lattice, &criterion());
    for threads in [0usize, 1] {
        let config = SearchConfig::with_threads(threads);
        let par = searched(&table, &lattice, &criterion(), &config);
        assert_eq!(seq, par, "threads={threads}");
    }
}

/// The full pipeline picks the same node either way.
#[test]
fn anonymize_parallel_picks_same_node() {
    let (table, lattice) = adult(800);
    let seq = anonymize(
        &table,
        &lattice,
        &CkSafetyCriterion::new(0.85, 1).unwrap(),
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(1),
    )
    .unwrap();
    let par = anonymize(
        &table,
        &lattice,
        &CkSafetyCriterion::new(0.85, 1).unwrap(),
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(4),
    )
    .unwrap();
    assert_eq!(seq.node, par.node);
    assert_eq!(seq.minimal_nodes, par.minimal_nodes);
    assert_eq!(seq.evaluated, par.evaluated);
    assert_eq!(seq.utility_score, par.utility_score);
}

/// One criterion (hence one engine cache) shared by many threads hammering
/// the same bucketizations must answer every query consistently, and the
/// cache must actually be shared: total misses stay bounded by the number
/// of distinct histograms, not multiplied by the thread count.
#[test]
fn shared_criterion_cache_is_thread_safe() {
    let (table, lattice) = adult(600);
    let engine = std::sync::Arc::new(DisclosureEngine::new(2));
    let criterion = CkSafetyCriterion::with_engine(0.8, engine.clone()).unwrap();
    let nodes: Vec<_> = lattice.nodes().into_iter().collect();

    // Sequential reference verdicts.
    let reference: Vec<bool> = nodes
        .iter()
        .map(|n| {
            let b = lattice.bucketize(&table, n).unwrap();
            CkSafetyCriterion::new(0.8, 2)
                .unwrap()
                .is_satisfied_hist(&HistogramSet::from_bucketization(&b))
                .unwrap()
        })
        .collect();

    let n_threads = 8;
    std::thread::scope(|scope| {
        for worker in 0..n_threads {
            let criterion = &criterion;
            let nodes = &nodes;
            let table = &table;
            let lattice = &lattice;
            let reference = &reference;
            scope.spawn(move || {
                // Each worker sweeps every node, offset so workers collide
                // on the cache from different positions.
                for i in 0..nodes.len() {
                    let idx = (i + worker * 7) % nodes.len();
                    let b = lattice.bucketize(table, &nodes[idx]).unwrap();
                    let got = criterion
                        .is_satisfied_hist(&HistogramSet::from_bucketization(&b))
                        .unwrap();
                    assert_eq!(got, reference[idx], "node {} verdict changed", nodes[idx]);
                }
            });
        }
    });

    let stats = engine.stats();
    // Every worker swept all nodes, so lookups are plentiful...
    assert!(
        stats.hits + stats.misses > 0,
        "cache never consulted: {stats:?}"
    );
    // ...but distinct MINIMIZE1 builds are bounded by distinct histograms
    // (entries), plus at most one lost insert race per entry per thread.
    assert!(
        stats.misses <= (stats.entries as u64) * n_threads as u64,
        "cache not shared: {stats:?}"
    );
    assert!(
        stats.hits >= stats.misses,
        "with {n_threads} sweeps the cache should mostly hit: {stats:?}"
    );
}

/// The sequential and work-stealing schedules — chosen by thread count —
/// must return the same outcome exactly, for any thread count.
#[test]
fn both_schedules_equal_sequential() {
    let (table, lattice) = adult(1_200);
    let criterion = || CkSafetyCriterion::new(0.8, 2).unwrap();
    let seq = sequential(&table, &lattice, &criterion());
    assert!(!seq.minimal_nodes.is_empty());
    for threads in [2usize, 3, 8] {
        let config = SearchConfig::with_threads(threads);
        let got = searched(&table, &lattice, &criterion(), &config);
        assert_eq!(seq, got, "work stealing at {threads} threads diverged");
    }
}

/// Scheduler edge case: far more workers than lattice nodes (the 72-node
/// Adult lattice under 64 threads) still matches the sequential outcome.
#[test]
fn more_workers_than_nodes_matches_sequential() {
    let (table, lattice) = adult(400);
    let criterion = || KAnonymity::new(10);
    let seq = sequential(&table, &lattice, &criterion());
    let config = SearchConfig::with_threads(64);
    let got = searched(&table, &lattice, &criterion(), &config);
    assert_eq!(seq, got);
}

/// Capping the roll-up evaluator's memo (forcing evictions and
/// ancestor-fallback derivations) must not change any outcome.
#[test]
fn memo_capacity_does_not_change_outcomes() {
    let (table, lattice) = adult(600);
    let criterion = || CkSafetyCriterion::new(0.8, 2).unwrap();
    let seq = sequential(&table, &lattice, &criterion());
    for cap in [1usize, 2, 8] {
        for threads in [1usize, 4] {
            let config = SearchConfig {
                threads,
                memo_capacity: Some(cap),
                ..Default::default()
            };
            let got = searched(&table, &lattice, &criterion(), &config);
            assert_eq!(seq, got, "cap={cap} threads={threads}");
        }
    }
}

/// A criterion that fails deterministically on specific histogram shapes:
/// errors depend on the node alone, so sequential and stealing runs can be
/// compared error-for-error.
struct ErringCriterion {
    /// Buckets-count band `[lo, hi]` that triggers the error.
    lo: usize,
    hi: usize,
}

impl PrivacyCriterion for ErringCriterion {
    fn name(&self) -> String {
        "erring".to_owned()
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        let n = h.n_buckets();
        if n >= self.lo && n <= self.hi {
            return Err(AnonymizeError::InvalidParameter(format!(
                "criterion failed at {n} buckets"
            )));
        }
        // Monotone in practice on these workloads: few buckets = coarse.
        Ok(n <= 4)
    }
}

/// Asserts that `run` at 2, 4 and 16 threads fails with exactly the error
/// it fails with at one thread (the sequential visit order). A `run` that
/// succeeds at one thread never reached the erroring band: nothing to pin.
fn assert_first_error_kept(label: &str, run: impl Fn(usize) -> Result<(), AnonymizeError>) {
    let seq_err = match run(1) {
        Err(e) => e.to_string(),
        Ok(()) => return,
    };
    for threads in [2usize, 4, 16] {
        let err = run(threads).expect_err("sequential run errored, parallel must too");
        assert_eq!(err.to_string(), seq_err, "{label} threads={threads}");
    }
}

/// Scheduler edge case: a criterion that errors mid-search. The
/// work-stealing run must surface exactly the error the sequential loop
/// stops at (first in visit order), for any thread count — even though
/// stealing workers may hit other erroring nodes first. The same holds for
/// Incognito's per-subset candidate DAGs.
#[test]
fn first_error_semantics_preserved_under_stealing() {
    let (table, lattice) = adult(500);
    for (lo, hi) in [(10usize, 40usize), (5, 5), (1, 2)] {
        let criterion = ErringCriterion { lo, hi };
        assert_first_error_kept(&format!("search band [{lo},{hi}]"), |threads| {
            let config = SearchConfig::with_threads(threads);
            search(&table, &lattice, &criterion, &config).map(drop)
        });
        assert_first_error_kept(&format!("incognito band [{lo},{hi}]"), |threads| {
            let config = SearchConfig::with_threads(threads);
            incognito(&table, &lattice, &criterion, &config).map(drop)
        });
    }
}

/// Incognito's apriori subset join with parallel candidate evaluation finds
/// the same minimal nodes (and spends the same evaluation budget) as the
/// sequential run.
#[test]
fn incognito_parallel_equals_sequential() {
    let (table, lattice) = adult(1_000);
    let criterion = CkSafetyCriterion::new(0.8, 2).unwrap();
    let seq = incognito(&table, &lattice, &criterion, &SearchConfig::with_threads(1)).unwrap();
    for threads in [2usize, 4] {
        let par = incognito(
            &table,
            &lattice,
            &CkSafetyCriterion::new(0.8, 2).unwrap(),
            &SearchConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(seq, par, "incognito outcome diverged at {threads} threads");
    }
}

/// Incognito at one thread (the height-ordered drain) and under work
/// stealing finds the same minimal nodes and spends the same per-size
/// evaluation budget.
#[test]
fn incognito_schedules_equal_sequential() {
    let (table, lattice) = adult(800);
    let criterion = CkSafetyCriterion::new(0.8, 2).unwrap();
    let seq = incognito(&table, &lattice, &criterion, &SearchConfig::with_threads(1)).unwrap();
    for threads in [1usize, 4] {
        let got = incognito(
            &table,
            &lattice,
            &CkSafetyCriterion::new(0.8, 2).unwrap(),
            &SearchConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(seq, got, "incognito diverged at {threads} threads");
    }
}

/// The concrete acceptance criterion: the engine (and the criteria built on
/// it) are `Send + Sync`.
#[test]
fn engine_and_criteria_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<wcbk_core::DisclosureEngine>();
    assert_send_sync::<CkSafetyCriterion>();
    assert_send_sync::<KAnonymity>();
    assert_send_sync::<Box<dyn PrivacyCriterion>>();
}
