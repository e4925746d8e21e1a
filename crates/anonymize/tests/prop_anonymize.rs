//! Property tests for the anonymization searches: Incognito (subset join)
//! and the plain monotone BFS must find the same minimal safe sets on random
//! tables and lattices, for every supported criterion; Anatomy's output must
//! satisfy its contract whenever eligibility holds.

use proptest::prelude::*;

use wcbk_anonymize::anatomy::{anatomize, is_eligible};
use wcbk_anonymize::criteria::{
    CkSafetyCriterion, DistinctLDiversity, KAnonymity, PrivacyCriterion,
};
use wcbk_anonymize::incognito::incognito;
use wcbk_anonymize::search::{search, sweep, SearchConfig, SearchOutcome};
use wcbk_hierarchy::{GenNode, GeneralizationLattice, Hierarchy};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder};

/// Random table over two QI attributes (numeric + categorical) and a
/// sensitive attribute.
fn table_strategy() -> impl Strategy<Value = Table> {
    prop::collection::vec((0u8..12, 0u8..3, 0u8..4), 1..=16).prop_map(|rows| {
        let schema = Schema::new(vec![
            Attribute::new("N", AttributeKind::QuasiIdentifier),
            Attribute::new("C", AttributeKind::QuasiIdentifier),
            Attribute::new("S", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (n, c, s) in rows {
            b.push_row(&[format!("{n}"), format!("c{c}"), format!("s{s}")])
                .unwrap();
        }
        b.build()
    })
}

fn lattice_for(table: &Table) -> GeneralizationLattice {
    let n_dict = table.column(0).dictionary().clone();
    let c_dict = table.column(1).dictionary().clone();
    GeneralizationLattice::new(vec![
        (0, Hierarchy::intervals("N", &n_dict, &[3, 6]).unwrap()),
        (1, Hierarchy::suppression("C", &c_dict)),
    ])
    .unwrap()
}

fn sorted(mut nodes: Vec<GenNode>) -> Vec<GenNode> {
    nodes.sort();
    nodes
}

fn sequential() -> SearchConfig {
    SearchConfig::with_threads(1)
}

/// The sequential lattice search's outcome.
fn bfs<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    c: &C,
) -> SearchOutcome {
    search(table, lattice, c, &sequential()).unwrap().outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incognito == BFS == brute-force sweep minimality, k-anonymity.
    #[test]
    fn incognito_equals_bfs_k_anonymity(table in table_strategy(), k in 1u64..=6) {
        let lattice = lattice_for(&table);
        let inc = incognito(&table, &lattice, &KAnonymity::new(k), &sequential()).unwrap();
        let bfs = bfs(&table, &lattice, &KAnonymity::new(k));
        prop_assert_eq!(inc.minimal_nodes, sorted(bfs.minimal_nodes));
    }

    /// Incognito == BFS, (c,k)-safety.
    #[test]
    fn incognito_equals_bfs_ck_safety(table in table_strategy(), c10 in 3u32..=10, k in 0usize..=2) {
        let c = c10 as f64 / 10.0;
        let lattice = lattice_for(&table);
        let criterion = CkSafetyCriterion::new(c, k).unwrap();
        let inc = incognito(&table, &lattice, &criterion, &sequential()).unwrap();
        let bfs = bfs(&table, &lattice, &CkSafetyCriterion::new(c, k).unwrap());
        prop_assert_eq!(inc.minimal_nodes, sorted(bfs.minimal_nodes));
    }

    /// BFS minimality cross-checked against the exhaustive sweep for
    /// ℓ-diversity.
    #[test]
    fn bfs_minimality_vs_sweep_l_diversity(table in table_strategy(), l in 1usize..=4) {
        let lattice = lattice_for(&table);
        let outcome = bfs(&table, &lattice, &DistinctLDiversity::new(l));
        let swept = sweep(&table, &lattice, &DistinctLDiversity::new(l)).unwrap();
        let safe: std::collections::HashSet<GenNode> = swept
            .into_iter()
            .filter(|(_, ok)| *ok)
            .map(|(n, _)| n)
            .collect();
        prop_assert_eq!(outcome.satisfied, safe.len());
        for m in &outcome.minimal_nodes {
            prop_assert!(safe.contains(m));
            for p in lattice.predecessors(m) {
                prop_assert!(!safe.contains(&p), "{} has safe predecessor {}", m, p);
            }
        }
    }

    /// Anatomy contract: eligible tables produce partitions with distinct
    /// values per bucket and sizes in {l, l+1}.
    #[test]
    fn anatomy_contract(table in table_strategy(), l in 2usize..=4, seed in 0u64..1000) {
        prop_assume!(is_eligible(&table, l));
        let out = anatomize(&table, l, seed).unwrap();
        prop_assert_eq!(out.bucketization.n_tuples() as usize, table.n_rows());
        for bucket in out.bucketization.buckets() {
            let n = bucket.n() as usize;
            prop_assert!(n == l || n == l + 1, "bucket size {n}");
            prop_assert_eq!(bucket.histogram().distinct(), n);
        }
        let histograms = wcbk_core::HistogramSet::from_bucketization(&out.bucketization);
        prop_assert!(DistinctLDiversity::new(l).is_satisfied_hist(&histograms).unwrap());
    }
}
