//! Property tests pinning the roll-up pipeline to the re-scanning baseline:
//! for random tables and hierarchies, roll-up histograms at **every** lattice
//! node equal the from-scratch `bucketize` histograms (same buckets, same
//! order), and search outcomes over the new pipeline equal the old ones
//! node-for-node.

use proptest::prelude::*;

use wcbk_anonymize::search::{
    find_minimal_safe_rescan, search, sweep, sweep_all_rescan, SearchConfig,
};
use wcbk_anonymize::{
    incognito, CkSafetyCriterion, DistinctLDiversity, KAnonymity, PrivacyCriterion,
};
use wcbk_hierarchy::{GeneralizationLattice, Hierarchy, NodeEvaluator};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder};

/// A random table: `qi_cols` quasi-identifier columns drawn from small
/// numeric domains, one sensitive column. Row count ≥ 1.
fn build_table(qi_cols: usize, rows: &[Vec<u8>]) -> Table {
    let mut attributes: Vec<Attribute> = (0..qi_cols)
        .map(|d| Attribute::new(format!("Q{d}"), AttributeKind::QuasiIdentifier))
        .collect();
    attributes.push(Attribute::new("S", AttributeKind::Sensitive));
    let schema = Schema::new(attributes).unwrap();
    let mut b = TableBuilder::new(schema);
    for row in rows {
        let fields: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        b.push_row(&fields).unwrap();
    }
    b.build()
}

/// A lattice mixing hierarchy shapes: suppression-only on even dimensions,
/// 2-then-4-wide intervals (when the domain parses) on odd ones.
fn build_lattice(table: &Table, qi_cols: usize) -> GeneralizationLattice {
    let dims = (0..qi_cols)
        .map(|d| {
            let dict = table.column(d).dictionary();
            let h = if d % 2 == 1 {
                Hierarchy::intervals(format!("Q{d}"), dict, &[2, 4]).unwrap()
            } else {
                Hierarchy::suppression(format!("Q{d}"), dict)
            };
            (d, h)
        })
        .collect();
    GeneralizationLattice::new(dims).unwrap()
}

/// Strategy: (qi_cols, rows) with each row holding qi values in 0..6 and a
/// sensitive value in 0..4, appended as the last field.
fn row_strategy(qi_cols: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..6, qi_cols + 1).prop_map(move |mut row| {
            row[qi_cols] %= 4; // sensitive domain 0..4
            row
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rollup_histograms_equal_bucketize_at_every_node(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
    ) {
        let rows: Vec<Vec<u8>> = seed_rows
            .into_iter()
            .map(|r| {
                let mut row = r[..qi_cols].to_vec();
                row.push(r[3]);
                row
            })
            .collect();
        let table = build_table(qi_cols, &rows);
        let lattice = build_lattice(&table, qi_cols);
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        for node in lattice.nodes() {
            let rolled = eval.histograms(&node).unwrap();
            let scanned = lattice.bucketize(&table, &node).unwrap();
            prop_assert_eq!(rolled.n_buckets(), scanned.n_buckets(), "node {}", &node);
            prop_assert_eq!(rolled.domain_size(), scanned.domain_size());
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                prop_assert_eq!(
                    &rolled.histograms()[i],
                    bucket.histogram(),
                    "node {} bucket {}", &node, i
                );
            }
        }
        prop_assert_eq!(eval.stats().table_scans, 1);
    }

    /// More than 64 distinct sensitive values force the sparse (sorted-run)
    /// tallies in the scan and in every derivation.
    #[test]
    fn rollup_histograms_equal_bucketize_on_a_wide_sensitive_domain(
        qi_cols in 1usize..=3,
        seed_rows in prop::collection::vec(
            (prop::collection::vec(0u8..6, 3), 0u8..100),
            70..140,
        ),
    ) {
        let rows: Vec<Vec<u8>> = seed_rows
            .into_iter()
            .enumerate()
            .map(|(i, (qi, s))| {
                let mut row = qi[..qi_cols].to_vec();
                row.push(if i < 70 { i as u8 } else { s });
                row
            })
            .collect();
        let table = build_table(qi_cols, &rows);
        prop_assert!(table.sensitive_cardinality() > 64);
        let lattice = build_lattice(&table, qi_cols);
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        let mut nodes = lattice.nodes();
        // Top-down first, so derivations also start from distant ancestors.
        nodes.reverse();
        for node in nodes.iter().chain(&lattice.nodes()) {
            let rolled = eval.histograms(node).unwrap();
            let scanned = lattice.bucketize(&table, node).unwrap();
            prop_assert_eq!(rolled.n_buckets(), scanned.n_buckets(), "node {}", node);
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                prop_assert_eq!(
                    &rolled.histograms()[i],
                    bucket.histogram(),
                    "node {} bucket {}", node, i
                );
            }
        }
    }

    #[test]
    fn rollup_subsets_equal_bucketize_subset(
        qi_cols in 2usize..=3,
        seed_rows in row_strategy(3),
        pick in 0usize..64,
    ) {
        let rows: Vec<Vec<u8>> = seed_rows
            .into_iter()
            .map(|r| {
                let mut row = r[..qi_cols].to_vec();
                row.push(r[3]);
                row
            })
            .collect();
        let table = build_table(qi_cols, &rows);
        let lattice = build_lattice(&table, qi_cols);
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        // A non-empty dim subset and one level choice per picked dim.
        let dims: Vec<usize> =
            (0..qi_cols).filter(|d| pick & (1 << d) != 0).collect();
        prop_assume!(!dims.is_empty());
        let levels: Vec<usize> = dims
            .iter()
            .map(|&d| (pick >> 3) % lattice.hierarchy(d).n_levels())
            .collect();
        let rolled = eval.histograms_subset(&dims, &levels).unwrap();
        let scanned = lattice.bucketize_subset(&table, &dims, &levels).unwrap();
        prop_assert_eq!(rolled.n_buckets(), scanned.n_buckets());
        for (i, bucket) in scanned.buckets().iter().enumerate() {
            prop_assert_eq!(&rolled.histograms()[i], bucket.histogram());
        }
    }

    #[test]
    fn search_outcomes_match_rescan_node_for_node(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 1u64..5,
    ) {
        let rows: Vec<Vec<u8>> = seed_rows
            .into_iter()
            .map(|r| {
                let mut row = r[..qi_cols].to_vec();
                row.push(r[3]);
                row
            })
            .collect();
        let table = build_table(qi_cols, &rows);
        let lattice = build_lattice(&table, qi_cols);

        // Full sweep: every node's verdict identical on both pipelines.
        let ck = || CkSafetyCriterion::new(0.75, 1).unwrap();
        prop_assert_eq!(
            sweep(&table, &lattice, &ck()).unwrap(),
            sweep_all_rescan(&table, &lattice, &ck()).unwrap()
        );

        // Pruned BFS, sequential and parallel, across criteria.
        let criteria: Vec<Box<dyn PrivacyCriterion>> = vec![
            Box::new(KAnonymity::new(k)),
            Box::new(DistinctLDiversity::new(2)),
            Box::new(CkSafetyCriterion::new(0.75, 1).unwrap()),
        ];
        for criterion in &criteria {
            let rollup = search(&table, &lattice, criterion, &SearchConfig::with_threads(1))
                .unwrap()
                .outcome;
            let rescan = find_minimal_safe_rescan(&table, &lattice, criterion).unwrap();
            prop_assert_eq!(&rollup, &rescan, "{} diverged", criterion.name());
            // The parallel path (work-stealing + speculation).
            let stealing = search(&table, &lattice, criterion, &SearchConfig::with_threads(3))
                .unwrap()
                .outcome;
            prop_assert_eq!(&rollup, &stealing, "{} stealing diverged", criterion.name());
            // Work-stealing under a tiny memo cap: eviction plus
            // ancestor-fallback derivation must stay invisible.
            let capped_cfg = SearchConfig {
                threads: 3,
                memo_capacity: Some(2),
                ..Default::default()
            };
            let capped = search(&table, &lattice, criterion, &capped_cfg).unwrap().outcome;
            prop_assert_eq!(&rollup, &capped, "{} capped-memo diverged", criterion.name());
        }

        // Incognito (roll-up subsets) still agrees with the BFS minimal set.
        let inc = incognito(&table, &lattice, &ck(), &SearchConfig::with_threads(1)).unwrap();
        let mut bfs = find_minimal_safe_rescan(&table, &lattice, &ck())
            .unwrap()
            .minimal_nodes;
        bfs.sort();
        prop_assert_eq!(inc.minimal_nodes, bfs);
    }
}
