//! Property tests pinning the adversary-model plugin surface to the
//! direct MINIMIZE1/MINIMIZE2 paths: for random tables and hierarchies,
//! judging safety through [`CkSafetyCriterion`] (the conjunction model
//! behind the trait) is **bit-identical** to calling
//! [`CkSafety::is_safe_set`] on the engine directly — per-node verdicts
//! at every lattice node, search outcomes across thread counts and memo
//! budgets, and audit values with their witnesses — and
//! model-tagged composition audits match from-scratch rebuilds however the
//! audits interleave with releases. Under **every** registered model the
//! search equals the minimal set derived from the exhaustive sweep, which
//! is what keeps pruning honest for models that are not merge-monotone.

use proptest::prelude::*;

use std::collections::HashSet;

use wcbk_anonymize::search::{search, sweep, SearchConfig, SearchOutcome};
use wcbk_anonymize::{
    AnonymizeError, CkSafetyCriterion, DatasetSession, ModelId, PrivacyCriterion, MODEL_IDS,
};
use wcbk_core::{CkSafety, DisclosureEngine, HistogramSet};
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

/// (c,k)-safety judged by [`CkSafety::is_safe_set`] on the engine, with no
/// adversary model in between: the oracle the criterion is pinned to.
struct Direct {
    safety: CkSafety,
    engine: std::sync::Arc<DisclosureEngine>,
}

impl Direct {
    fn new(c: f64, engine: std::sync::Arc<DisclosureEngine>) -> Self {
        Self {
            safety: CkSafety::new(c, engine.k()).unwrap(),
            engine,
        }
    }
}

impl PrivacyCriterion for Direct {
    fn name(&self) -> String {
        format!("({},{})-safety", self.safety.c(), self.safety.k())
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        Ok(self.safety.is_safe_set(&self.engine, h)?)
    }
}

/// The minimal set the exhaustive sweep implies: the safe nodes with no
/// safe immediate predecessor, in the sequential visit order (by height),
/// with every node evaluated.
fn minimal_from_sweep<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> (Vec<wcbk_hierarchy::GenNode>, usize) {
    let safe: HashSet<_> = sweep(table, lattice, criterion)
        .unwrap()
        .into_iter()
        .filter(|(_, ok)| *ok)
        .map(|(node, _)| node)
        .collect();
    let minimal = lattice
        .nodes_by_height()
        .into_iter()
        .flatten()
        .filter(|node| {
            safe.contains(node) && !lattice.predecessors(node).iter().any(|p| safe.contains(p))
        })
        .collect();
    (minimal, safe.len())
}

proptest! {
    // More cases than the blocks below: with `minimality` wrongly declared
    // merge-monotone, the first mismatching draw is case 88.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under every registered model, at every thread count, the search
    /// reports exactly the sweep-derived minimal set and safe count. A
    /// merge-monotone model may prune; the others evaluate every node.
    #[test]
    fn every_model_search_matches_the_sweep(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..3,
        c100 in 40u32..=95,
    ) {
        let c = c100 as f64 / 100.0;
        let (table, lattice) = materialize(qi_cols, seed_rows);
        for model in MODEL_IDS {
            let engine = std::sync::Arc::new(DisclosureEngine::new(k));
            let criterion = CkSafetyCriterion::with_model(c, model.resolve(engine)).unwrap();
            let (minimal, satisfied) = minimal_from_sweep(&table, &lattice, &criterion);
            for threads in [1, 3] {
                let got: SearchOutcome =
                    search(&table, &lattice, &criterion, &SearchConfig::with_threads(threads))
                        .unwrap()
                        .outcome;
                prop_assert_eq!(&got.minimal_nodes, &minimal, "{} threads {}", model, threads);
                prop_assert_eq!(got.satisfied, satisfied, "{} threads {}", model, threads);
                if !criterion.monotone() {
                    prop_assert_eq!(got.evaluated, lattice.n_nodes(), "{}", model);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At every lattice node, the conjunction model through the trait gives
    /// the same verdict as `CkSafety::is_safe_set` on the engine, and the
    /// session sweeps through both agree entry for entry.
    #[test]
    fn conjunction_criterion_matches_direct_at_every_node(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..3,
    ) {
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let session = DatasetSession::new(table, lattice).unwrap();
        let engine = session.engine(k);
        let direct = Direct::new(0.75, std::sync::Arc::clone(&engine));
        let via_model = CkSafetyCriterion::with_engine(0.75, engine).unwrap();
        let swept_direct = session.sweep(&direct).unwrap();
        let swept_model = session.sweep(&via_model).unwrap();
        prop_assert_eq!(&swept_direct, &swept_model);
    }

    /// Search outcomes (the full ⪯-minimal frontier, evaluated/satisfied
    /// counters included) through the trait equal the direct check's,
    /// across thread counts and memo budgets.
    #[test]
    fn conjunction_search_matches_direct_across_configs(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..3,
        memo_cap_raw in 0usize..8,
    ) {
        let memo_cap = memo_cap_raw.checked_sub(1);
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let engine = std::sync::Arc::new(DisclosureEngine::new(k));
        let direct = Direct::new(0.75, std::sync::Arc::clone(&engine));
        let via_model = CkSafetyCriterion::with_engine(0.75, engine).unwrap();
        let configs = [
            SearchConfig { memo_capacity: memo_cap, ..Default::default() },
            SearchConfig {
                threads: 3,
                memo_capacity: memo_cap,
                ..Default::default()
            },
            SearchConfig {
                threads: 2,
                memo_capacity: memo_cap,
                ..Default::default()
            },
        ];
        for config in &configs {
            let a = search(&table, &lattice, &direct, config).unwrap().outcome;
            let b = search(&table, &lattice, &via_model, config).unwrap().outcome;
            prop_assert_eq!(&a, &b, "diverged under {:?}", config);
        }
    }

    /// Session model-audits under the conjunction model equal the plain
    /// audit bit for bit — value bits and verdicts — at every `k`.
    #[test]
    fn conjunction_model_audit_matches_plain(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..4,
    ) {
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let session = DatasetSession::new(table, lattice).unwrap();
        let plain = session.audit(Some(0.8), k).unwrap();
        let model = session.audit_model(ModelId::Conjunction, Some(0.8), k).unwrap();
        prop_assert_eq!(model.value.to_bits(), plain.disclosure.value.to_bits());
        prop_assert_eq!(model.safe, plain.safe);
        prop_assert_eq!(model.buckets, plain.buckets);
        prop_assert!(!model.witness.predicts.is_empty());
        prop_assert!(!model.witness.knowing.is_empty());
    }

    /// Composition audits equal a fresh value pass over the union no
    /// matter how audits interleave with releases: after **each** release
    /// the value matches `max_disclosure_value_set` over the concatenated
    /// histograms, for both the plain and the model-tagged path.
    #[test]
    fn interleaved_composition_audits_match_full_rebuilds(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
        k in 0usize..3,
        picks in prop::collection::vec(0usize..64, 1..4),
    ) {
        let (table, lattice) = materialize(qi_cols, seed_rows);
        let session = DatasetSession::new(table.clone(), lattice.clone()).unwrap();
        let nodes = lattice.nodes();
        let mut histograms = Vec::new();
        for pick in &picks {
            let node = &nodes[pick % nodes.len()];
            session.release(node).unwrap();
            let b = lattice.bucketize(&table, node).unwrap();
            histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));

            // Audit immediately after every release and compare against a
            // fresh engine over the whole union.
            let report = session.audit_composition(Some(0.8), k).unwrap();
            let set = wcbk_core::HistogramSet::new(
                histograms.clone(),
                table.sensitive_cardinality() as u32,
            )
            .unwrap();
            let direct = DisclosureEngine::new(k).max_disclosure_value_set(&set).unwrap();
            prop_assert_eq!(report.value.to_bits(), direct.to_bits());
            prop_assert_eq!(report.buckets, set.n_buckets());

            let tagged = session
                .audit_composition_model(ModelId::Conjunction, Some(0.8), k)
                .unwrap();
            prop_assert_eq!(tagged.value.to_bits(), direct.to_bits());
            prop_assert_eq!(tagged.safe, report.safe);
        }
    }
}
