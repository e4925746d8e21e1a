//! Property tests pinning the dataset-handle API to the one-shot paths:
//! for random tables and hierarchies, a [`DatasetSession`]'s `audit`,
//! `search`, and `sweep` produce **bit-identical** results to the
//! corresponding one-shot entry points — whatever the thread count or memo
//! budget — and repeated session calls never re-scan the
//! table.

use proptest::prelude::*;

use wcbk_anonymize::search::{search, sweep, SearchConfig};
use wcbk_anonymize::{
    CkSafetyCriterion, DatasetSession, KAnonymity, PrivacyCriterion, SessionOptions,
};
use wcbk_core::{CkSafety, DisclosureEngine};
use wcbk_hierarchy::{GeneralizationLattice, Hierarchy};
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
/// 2-then-4-wide intervals on odd ones.
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

fn row_strategy(qi_cols: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..6, qi_cols + 1).prop_map(move |mut row| {
            row[qi_cols] %= 4; // sensitive domain 0..4
            row
        }),
        1..40,
    )
}

fn materialize(qi_cols: usize, seed_rows: Vec<Vec<u8>>) -> (Table, GeneralizationLattice) {
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
    (table, lattice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Session audits equal the direct engine path bit for bit: same
    /// disclosure value bits, same witness, same verdict.
    #[test]
    fn session_audit_equals_oneshot(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..3,
    ) {
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let session = DatasetSession::new(table.clone(), lattice.clone()).unwrap();
        let report = session.audit(Some(0.8), k).unwrap();

        // The one-shot path: exact-QI grouping, fresh engine.
        let b = wcbk_core::Bucketization::from_grouping(&table, |t| {
            (0..qi_cols)
                .map(|col| table.column(col).code(t.index()))
                .collect::<Vec<u32>>()
        })
        .unwrap();
        let engine = DisclosureEngine::new(k);
        let direct = engine.max_disclosure(&b).unwrap();
        prop_assert_eq!(report.disclosure.value.to_bits(), direct.value.to_bits());
        prop_assert_eq!(&report.disclosure.witness, &direct.witness);
        prop_assert_eq!(report.buckets, b.n_buckets());
        prop_assert_eq!(
            report.safe,
            Some(
                CkSafety::new(0.8, k)
                    .unwrap()
                    .is_safe_set(&engine, &wcbk_core::HistogramSet::from_bucketization(&b))
                    .unwrap()
            )
        );
        // Re-audit: still identical, still exactly one scan.
        let again = session.audit(Some(0.8), k).unwrap();
        prop_assert_eq!(again.disclosure.value.to_bits(), direct.value.to_bits());
        prop_assert_eq!(session.rollup_stats().unwrap().table_scans, 1);
    }

    /// Session searches and sweeps equal the one-shot entry points across
    /// criteria, thread counts, and memo budgets.
    #[test]
    fn session_search_equals_oneshot(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 1u64..5,
        memo_cap_raw in 0usize..8,
    ) {
        // 0 → unbounded; n → a (tiny) budget of n-1 groups, exercising
        // eviction and the ancestor fallback. (The vendored proptest has no
        // option strategy.)
        let memo_cap = memo_cap_raw.checked_sub(1);
        let (table, lattice) = materialize(qi_cols, seed_rows);
        // The session under test carries a random memo budget; results must
        // not depend on it.
        let session = DatasetSession::with_options(
            table.clone(),
            lattice.clone(),
            SessionOptions { memo_capacity: memo_cap, engines: None, scan_threads: 0 },
        )
        .unwrap();

        let criteria: Vec<Box<dyn PrivacyCriterion>> = vec![
            Box::new(KAnonymity::new(k)),
            Box::new(CkSafetyCriterion::new(0.75, 1).unwrap()),
        ];
        let configs = [
            SearchConfig::default(),
            SearchConfig::with_threads(3),
            SearchConfig::with_threads(2),
        ];
        for criterion in &criteria {
            for config in &configs {
                let via_session = session.search(criterion, config).unwrap();
                let direct = search(&table, &lattice, criterion, config).unwrap().outcome;
                prop_assert_eq!(
                    &via_session.outcome, &direct,
                    "{} under {:?} diverged", criterion.name(), config
                );
            }
            let swept = session.sweep(criterion).unwrap();
            let direct = sweep(&table, &lattice, criterion).unwrap();
            prop_assert_eq!(&swept, &direct, "{} sweep diverged", criterion.name());
        }
        // Everything above cost exactly one scan of the table.
        prop_assert_eq!(session.rollup_stats().unwrap().table_scans, 1);
    }

    /// After every release, a composition audit at a drawn `k` equals one
    /// fresh `max_disclosure_value_set` over the union of the release
    /// histograms so far.
    #[test]
    fn session_composition_equals_direct(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        releases in prop::collection::vec((0usize..64, 0usize..3), 1..4),
    ) {
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let session = DatasetSession::new(table.clone(), lattice.clone()).unwrap();
        let nodes = lattice.nodes();
        let mut histograms = Vec::new();
        for (i, &(pick, k)) in releases.iter().enumerate() {
            let node = &nodes[pick % nodes.len()];
            session.release(node).unwrap();
            let b = lattice.bucketize(&table, node).unwrap();
            histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));
            let report = session.audit_composition(Some(0.8), k).unwrap();
            prop_assert_eq!(report.releases, i + 1);
            prop_assert_eq!(report.buckets, histograms.len());
            let set = wcbk_core::HistogramSet::new(histograms.clone(), b_domain(&table)).unwrap();
            let direct = DisclosureEngine::new(k).max_disclosure_value_set(&set).unwrap();
            prop_assert_eq!(report.value.to_bits(), direct.to_bits());
            prop_assert_eq!(report.safe, Some(direct < 0.8));
        }
    }
}

fn b_domain(table: &Table) -> u32 {
    table.sensitive_cardinality() as u32
}
