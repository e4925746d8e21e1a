//! Integration tests for the alternative sanitizers (Anatomy, swapping,
//! Incognito) and the future-work extensions (soft knowledge, Monte-Carlo
//! inference, cost-based disclosure) through the public `wcbk` API.

use wcbk::anonymize::anatomy::is_eligible;
use wcbk::core::negation_max_disclosure;
use wcbk::datagen::adult::{synthetic_adult, AdultConfig};
use wcbk::hierarchy::adult::adult_lattice;
use wcbk::prelude::*;
use wcbk::table::datasets::{hospital_bucket_of, hospital_table};
use wcbk::worlds::approx::estimate_conditional;
use wcbk::worlds::soft::SoftPosterior;

fn adult(n: usize) -> Table {
    synthetic_adult(AdultConfig {
        n_rows: n,
        seed: 31,
    })
}

#[test]
fn anatomy_on_adult_is_l_diverse_and_auditable() {
    let table = adult(4_000);
    let l = 4;
    assert!(is_eligible(&table, l));
    let outcome = anatomize(&table, l, 9).unwrap();
    assert_eq!(outcome.bucketization.n_tuples() as usize, table.n_rows());
    // Distinct l-diversity by construction; k=0 disclosure <= 1/l.
    let d0 = max_disclosure(&outcome.bucketization, 0).unwrap().value;
    assert!(d0 <= 1.0 / l as f64 + 1e-12);
    // But l-1 pieces of knowledge defeat it entirely (the paper's thesis).
    let defeated = max_disclosure(&outcome.bucketization, l - 1).unwrap().value;
    assert!((defeated - 1.0).abs() < 1e-12);
}

#[test]
fn incognito_agrees_with_bfs_on_adult_lattice() {
    let table = adult(2_000);
    let lattice = adult_lattice(&table).unwrap();
    let a = CkSafetyCriterion::new(0.85, 2).unwrap();
    let b = CkSafetyCriterion::new(0.85, 2).unwrap();
    let sequential = SearchConfig::with_threads(1);
    let inc = incognito(&table, &lattice, &a, &sequential).unwrap();
    let bfs = search(&table, &lattice, &b, &sequential).unwrap().outcome;
    let mut bfs_nodes = bfs.minimal_nodes;
    bfs_nodes.sort();
    assert_eq!(inc.minimal_nodes, bfs_nodes);
    // The subset join should not evaluate more full-lattice nodes than the
    // whole lattice has, and accounting must be consistent.
    let full_evals = inc.per_size.last().unwrap().2;
    assert!(full_evals <= lattice.n_nodes());
}

#[test]
fn swapping_trades_truth_for_safety() {
    let table = adult(4_000);
    let outcome = anatomize(&table, 4, 9).unwrap();
    let swapped = swap_sanitize(&outcome.bucketization, 0.5, 3).unwrap();
    // Structure preserved.
    assert_eq!(
        swapped.bucketization.n_tuples(),
        outcome.bucketization.n_tuples()
    );
    assert_eq!(
        swapped.bucketization.n_buckets(),
        outcome.bucketization.n_buckets()
    );
    // Some tuples' published values moved.
    assert!(swapped.displaced > 0);
    // The audit machinery still applies to the swapped release.
    let d = max_disclosure(&swapped.bucketization, 2).unwrap();
    assert!(d.value > 0.0 && d.value <= 1.0);
}

#[test]
fn soft_knowledge_interpolates_between_prior_and_hard() {
    let table = hospital_table();
    let buckets = Bucketization::from_grouping(&table, hospital_bucket_of).unwrap();
    let space = WorldSpace::new(
        buckets
            .to_parts()
            .into_iter()
            .map(|(m, v)| BucketSpec::new(m, v))
            .collect(),
    )
    .unwrap();
    let symbols = wcbk::logic::parser::SymbolTable::from_table(&table, "Name").unwrap();
    let phi = wcbk::logic::parser::parse_knowledge("t[Hannah]=Flu -> t[Charlie]=Flu", &symbols)
        .unwrap()
        .to_formula();
    let charlie_flu = wcbk::logic::Formula::Atom(Atom::new(
        wcbk::table::datasets::hospital_person(&table, "Charlie").unwrap(),
        table.sensitive_code("Flu").unwrap(),
    ));

    let prior = 2.0 / 5.0;
    let hard = 10.0 / 19.0;
    let mut post = SoftPosterior::new(&space, 100_000).unwrap();
    let base = post.probability(&phi);
    post.update(&phi, 0.9).unwrap();
    let p = post.probability(&charlie_flu);
    assert!(p > prior && p < hard, "p={p} not strictly between");
    // Exact interpolation: p = 0.9·Pr(C|φ) + 0.1·Pr(C|¬φ), with
    // Pr(C|¬φ) = 0 (¬φ forces Charlie ≠ flu).
    assert!((p - 0.9 * hard).abs() < 1e-12);
    let _ = base;
}

#[test]
fn monte_carlo_agrees_with_dp_witness_value() {
    // Sample the witness knowledge of the DP on Figure 3 and check the
    // estimate brackets the DP value.
    let table = hospital_table();
    let buckets = Bucketization::from_grouping(&table, hospital_bucket_of).unwrap();
    let space = WorldSpace::new(
        buckets
            .to_parts()
            .into_iter()
            .map(|(m, v)| BucketSpec::new(m, v))
            .collect(),
    )
    .unwrap();
    let report = max_disclosure(&buckets, 1).unwrap();
    let est = estimate_conditional(
        &space,
        &wcbk::logic::Formula::Atom(report.witness.consequent),
        &report.witness.knowledge().to_formula(),
        60_000,
        5,
    )
    .unwrap();
    assert!(
        (est.value - report.value).abs() < 6.0 * est.std_error.max(1e-3),
        "estimate {} vs dp {}",
        est.value,
        report.value
    );
}

#[test]
fn cost_weighting_changes_what_matters() {
    let table = adult(3_000);
    let outcome = anatomize(&table, 4, 1).unwrap();
    let b = &outcome.bucketization;
    // Weight the rarest occupation heavily.
    let occ = table.sensitive_column();
    let mut counts = vec![0u64; occ.cardinality()];
    for row in 0..table.n_rows() {
        counts[occ.code(row) as usize] += 1;
    }
    let rarest = counts
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    let mut costs = vec![1.0; counts.len()];
    costs[rarest] = 50.0;
    let costs = CostVector::new(costs).unwrap();

    let plain = negation_max_disclosure(b, 1).unwrap();
    let weighted = cost_negation_max_disclosure(b, 1, &costs).unwrap();
    assert!(weighted.value >= plain.value);
    // Uniform weights reduce to the plain result.
    let uniform = cost_negation_max_disclosure(b, 1, &CostVector::uniform()).unwrap();
    assert!((uniform.value - plain.value).abs() < 1e-12);
}
