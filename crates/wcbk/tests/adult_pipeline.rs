//! End-to-end pipeline on the synthetic Adult workload: generation →
//! hierarchies → lattice search → (c,k)-safety audit, plus the Figure 5/6
//! shape properties the paper reports.

use wcbk::anonymize::{anonymize, CkSafetyCriterion, KAnonymity, UtilityMetric};
use wcbk::core::negation_max_disclosure;
use wcbk::datagen::adult::{synthetic_adult, AdultConfig};
use wcbk::hierarchy::adult::{adult_lattice, figure5_node};
use wcbk::prelude::*;

fn adult(n: usize) -> Table {
    synthetic_adult(AdultConfig {
        n_rows: n,
        seed: 99,
    })
}

#[test]
fn figure5_shape_on_adult() {
    let table = adult(6_000);
    let lattice = adult_lattice(&table).unwrap();
    let b = lattice.bucketize(&table, &figure5_node()).unwrap();
    // Four 20-year age buckets of thousands of tuples each.
    assert_eq!(b.n_buckets(), 4);

    let mut prev_imp = 0.0;
    let mut prev_neg = 0.0;
    for k in 0..=13usize {
        let imp = max_disclosure(&b, k).unwrap().value;
        let neg = negation_max_disclosure(&b, k).unwrap().value;
        assert!(imp >= neg - 1e-12, "k={k}: implication below negation");
        assert!(imp >= prev_imp - 1e-12 && neg >= prev_neg - 1e-12, "k={k}");
        prev_imp = imp;
        prev_neg = neg;
    }
    // 14 sensitive values: k=13 negations rule out everything.
    assert!((prev_imp - 1.0).abs() < 1e-9);
    assert!((prev_neg - 1.0).abs() < 1e-9);
}

#[test]
fn lattice_search_finds_minimal_safe_nodes() {
    let table = adult(3_000);
    let lattice = adult_lattice(&table).unwrap();
    let criterion = CkSafetyCriterion::new(0.9, 2).unwrap();
    let outcome = search(&table, &lattice, &criterion, &SearchConfig::with_threads(1))
        .unwrap()
        .outcome;
    // The top node fully suppresses everything: a single bucket over 14
    // occupations is about as safe as it gets; expect at least one safe node.
    assert!(!outcome.minimal_nodes.is_empty());
    // Minimality: no immediate predecessor of a minimal node is safe.
    for node in &outcome.minimal_nodes {
        let b = lattice.bucketize(&table, node).unwrap();
        assert!(is_ck_safe(&b, 0.9, 2).unwrap());
        for p in lattice.predecessors(node) {
            let pb = lattice.bucketize(&table, &p).unwrap();
            assert!(
                !is_ck_safe(&pb, 0.9, 2).unwrap(),
                "{node} has safe predecessor {p}"
            );
        }
    }
    // Pruning must have saved work.
    assert!(outcome.evaluated <= lattice.n_nodes());
}

#[test]
fn anonymize_pipeline_audits_below_threshold() {
    let table = adult(3_000);
    let lattice = adult_lattice(&table).unwrap();
    let (c, k) = (0.85, 2);
    let criterion = CkSafetyCriterion::new(c, k).unwrap();
    let outcome = anonymize(
        &table,
        &lattice,
        &criterion,
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(1),
    )
    .unwrap();
    let audit = outcome.audit(k).unwrap();
    assert!(audit.value < c);
    assert!(outcome.bucketization.n_tuples() == table.n_rows() as u64);
    // The witness from the audit is a genuine L^k member.
    assert!(audit.witness.k() <= k);
}

#[test]
fn k_anonymity_is_not_ck_safety() {
    // Find a k-anonymous node and show it can still be unsafe against
    // background knowledge — the paper's core motivation.
    let table = adult(3_000);
    let lattice = adult_lattice(&table).unwrap();
    let outcome = anonymize(
        &table,
        &lattice,
        &KAnonymity::new(5),
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(1),
    )
    .unwrap();
    // 5-anonymous, but an attacker with 12 implications gets close to 1.
    let strong_attacker = max_disclosure(&outcome.bucketization, 12).unwrap().value;
    assert!(
        strong_attacker > 0.9,
        "12 implications only reached {strong_attacker}"
    );
}

#[test]
fn dp_witness_verifies_exactly_on_full_scale_adult() {
    // The DP's worst-case witness must evaluate to the claimed disclosure
    // under exact inference even at full scale. The buckets here hold
    // thousands of tuples, far beyond world enumeration; the float-weighted
    // restricted enumeration (probability_f64) handles it because only the
    // witness's few persons are branched on.
    let table = adult(45_222);
    let lattice = adult_lattice(&table).unwrap();
    let b = lattice.bucketize(&table, &figure5_node()).unwrap();
    let space = WorldSpace::new(
        b.to_parts()
            .into_iter()
            .map(|(m, v)| BucketSpec::new(m, v))
            .collect(),
    )
    .unwrap();
    // Far more worlds than u128 can hold — counting is off the table.
    assert_eq!(space.n_worlds(), None);
    for k in [0usize, 1, 4, 8] {
        let report = max_disclosure(&b, k).unwrap();
        let exact = space
            .conditional_f64(
                &wcbk::logic::Formula::Atom(report.witness.consequent),
                &report.witness.knowledge().to_formula(),
            )
            .unwrap()
            .expect("witness consistent with B");
        assert!(
            (exact - report.value).abs() < 1e-9,
            "k={k}: exact {exact} vs dp {}",
            report.value
        );
    }
}

/// At `k = 0` no node the search prices is saturated (a bucket with one
/// value fails the frequency-ratio check first), so every evaluation looks
/// its buckets up, and lattice nodes share histograms. At larger `k` most
/// nodes saturate (`k + 1 ≥ d_min`) and are answered with no lookup.
#[test]
fn engine_cache_pays_off_across_lattice() {
    let table = adult(2_000);
    let lattice = adult_lattice(&table).unwrap();
    let engine = std::sync::Arc::new(DisclosureEngine::new(0));
    let criterion = CkSafetyCriterion::with_engine(0.9, engine.clone()).unwrap();
    let _ = search(&table, &lattice, &criterion, &SearchConfig::with_threads(1))
        .unwrap()
        .outcome;
    let stats = engine.stats();
    assert!(stats.hits + stats.misses > 0);
    assert!(stats.hits > 0, "no histogram sharing across lattice nodes?");
    assert_eq!(stats.saturated, 0);
}

#[test]
fn real_adult_loader_round_trips_through_pipeline() {
    // Simulate a tiny "real" adult.data file through the CSV loader and the
    // full pipeline (schema compatibility check).
    let data = "\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
53, Private, 234721, 11th, 7, Married-civ-spouse, Handlers-cleaners, Husband, Black, Male, 0, 0, 40, United-States, <=50K
28, Private, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, Wife, Black, Female, 0, 0, 40, Cuba, <=50K
37, Private, 284582, Masters, 14, Married-civ-spouse, Exec-managerial, Wife, White, Female, 0, 0, 40, United-States, <=50K
";
    let table = wcbk::datagen::adult::adult_from_reader(data.as_bytes()).unwrap();
    assert_eq!(table.n_rows(), 6);
    let lattice = adult_lattice(&table).unwrap();
    let b = lattice.bucketize(&table, &lattice.top()).unwrap();
    assert_eq!(b.n_buckets(), 1);
    let report = max_disclosure(&b, 1).unwrap();
    assert!(report.value > 0.0 && report.value <= 1.0);
}
