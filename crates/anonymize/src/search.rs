//! Lattice search for minimal safe generalizations, over the one-scan
//! roll-up pipeline.
//!
//! There is one search, [`search`], configured by a [`SearchConfig`], and
//! one exhaustive [`sweep`]. A search under a monotone criterion prunes: a
//! node with a known-safe predecessor is safe by monotonicity and never
//! evaluated; a node whose predecessors are all unsafe must be. At one
//! thread the lattice is walked breadth-first by height (the sequential
//! oracle). At more, the whole lattice is handed to [`wcbk_core::sched`]'s
//! work-stealing scheduler, with workers sharing one `&C` criterion (hence
//! [`PrivacyCriterion`]`: Send + Sync`): a node becomes runnable the moment
//! its last predecessor's verdict lands, safe verdicts prune entire up-sets
//! immediately through the generalization partial order, and idle workers
//! speculatively evaluate still-pending nodes (discarding the work if the
//! node gets pruned). No level barriers.
//!
//! The outcome is **bit-for-bit identical** at any thread count — same
//! minimal antichain in the same order, same `evaluated` and `satisfied`
//! counts, same first-error semantics (pinned by `tests/parallel_search.rs`
//! and `tests/rollup_equivalence.rs`). A criterion that is not
//! [`monotone`](PrivacyCriterion::monotone) cannot prune: the search judges
//! every node and reports the safe nodes with no safe immediate
//! predecessor.
//!
//! **Evaluation never re-scans the table.** A [`NodeEvaluator`] scans it
//! once at search start; every node is then judged from rolled-up
//! [`HistogramSet`]s via [`PrivacyCriterion::is_satisfied_hist`], and a
//! full `Bucketization` is only materialized (by callers such as the
//! [`pipeline`](crate::pipeline)) for chosen minimal nodes. Tables whose
//! packed quasi-identifier signature exceeds 128 bits bucketize each node
//! instead; [`find_minimal_safe_rescan`] and [`sweep_all_rescan`] run the
//! same skeletons that way on purpose, as the reference oracles. On deep
//! lattices the evaluator's memo can be capped via
//! [`SearchConfig::memo_capacity`].

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Arc;

use wcbk_core::sched::{
    evaluate_sequential, evaluate_work_stealing, MonotoneDag, NodeResolution, ScheduleOutcome,
};
use wcbk_core::HistogramSet;
use wcbk_hierarchy::{
    GenNode, GeneralizationLattice, HierarchyError, NodeEvaluator, RollupStats, ScanOptions,
};
use wcbk_table::Table;

use crate::{AnonymizeError, PrivacyCriterion};

/// Knobs for the lattice searches ([`search`],
/// [`crate::incognito::incognito`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchConfig {
    /// Worker threads: `0` = all available cores, `1` = sequential.
    pub threads: usize,
    /// Group budget for the roll-up evaluator's memo (`None` = unbounded):
    /// retained node tables may total at most this many groups, weighed by
    /// actual size; see [`NodeEvaluator::with_memo_capacity`].
    pub memo_capacity: Option<usize>,
    /// Worker threads for the evaluator's one bottom scan (`0` = all
    /// available cores, `1` = in-thread). Bit-neutral: the scan's output is
    /// identical at any thread count — see [`ScanOptions`].
    pub scan_threads: usize,
}

impl SearchConfig {
    /// A config running `threads` workers with every other knob at its default.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The effective worker count (`0` resolved to all cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// The bottom-scan tuning this config implies.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            threads: self.scan_threads,
            ..ScanOptions::default()
        }
    }
}

/// Outcome of a bottom-up lattice search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// All ⪯-minimal nodes satisfying the criterion (antichain).
    pub minimal_nodes: Vec<GenNode>,
    /// Nodes whose criterion was actually evaluated (≤ lattice size; the
    /// rest were inferred safe by monotonicity).
    pub evaluated: usize,
    /// Nodes known safe (evaluated or inferred).
    pub satisfied: usize,
}

/// A [`SearchOutcome`] together with the roll-up evaluator's work counters —
/// what long-running callers (the `wcbk-serve` audit service) aggregate
/// across searches. `rollup` is `None` when the signature-overflow fallback
/// bucketized the table per node instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The search result.
    pub outcome: SearchOutcome,
    /// The evaluator's counters at the end of the search.
    pub rollup: Option<RollupStats>,
}

/// The number of worker threads the parallel search uses by default: the
/// machine's available parallelism (1 when that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Builds the roll-up evaluator `config` describes (memo cap, scan
/// threads), or `None` when the table's packed signature does not fit and
/// nodes must be bucketized instead.
pub(crate) fn evaluator(
    table: &Table,
    lattice: &GeneralizationLattice,
    config: &SearchConfig,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    try_evaluator_shared(
        table,
        Arc::new(lattice.clone()),
        config.memo_capacity,
        config.scan_options(),
    )
}

/// Builds a **shared** evaluator over an `Arc`-held lattice, with the same
/// overflow-fallback policy: `None` means the packed signature does not fit
/// and callers must re-scan per node. The session constructor uses this.
pub(crate) fn try_evaluator_shared(
    table: &Table,
    lattice: Arc<GeneralizationLattice>,
    memo_capacity: Option<usize>,
    scan: ScanOptions,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    match NodeEvaluator::shared_with_scan(table, lattice, memo_capacity, scan) {
        Ok(eval) => Ok(Some(eval)),
        Err(HierarchyError::SignatureOverflow { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Where node histograms come from: the roll-up evaluator when there is
/// one, else one bucketization of the table per node (the signature
/// overflow fallback and the `*_rescan` reference oracles).
#[derive(Clone, Copy)]
pub(crate) struct Source<'a> {
    pub(crate) table: &'a Table,
    pub(crate) lattice: &'a GeneralizationLattice,
    pub(crate) evaluator: Option<&'a NodeEvaluator>,
}

impl Source<'_> {
    /// The histograms of `node`'s bucketization.
    pub(crate) fn histograms(&self, node: &GenNode) -> Result<HistogramSet, AnonymizeError> {
        Ok(match self.evaluator {
            Some(eval) => eval.histograms(node)?,
            None => HistogramSet::from_bucketization(&self.lattice.bucketize(self.table, node)?),
        })
    }

    /// The histograms of the grouping by the lattice dimensions `dims` only,
    /// at `levels` (Incognito's subset projections).
    pub(crate) fn subset_histograms(
        &self,
        dims: &[usize],
        levels: &[usize],
    ) -> Result<HistogramSet, AnonymizeError> {
        Ok(match self.evaluator {
            Some(eval) => eval.histograms_subset(dims, levels)?,
            None => HistogramSet::from_bucketization(
                &self.lattice.bucketize_subset(self.table, dims, levels)?,
            ),
        })
    }

    /// Whether `node` satisfies `criterion`.
    fn judge<C: PrivacyCriterion>(
        &self,
        criterion: &C,
        node: &GenNode,
    ) -> Result<bool, AnonymizeError> {
        criterion.is_satisfied_hist(&self.histograms(node)?)
    }

    /// All ⪯-minimal nodes satisfying `criterion`; see [`search`].
    ///
    /// The lattice becomes a DAG in the sequential visit order (by height,
    /// mixed-radix within a height). A criterion that is not monotone gets
    /// the DAG without its edges, so nothing is inferred and every node is
    /// judged. Either way the minimal nodes are the safe ones with no safe
    /// immediate predecessor — under pruning, exactly the evaluated-safe
    /// ones.
    pub(crate) fn search<C: PrivacyCriterion>(
        &self,
        criterion: &C,
        config: &SearchConfig,
    ) -> Result<SearchOutcome, AnonymizeError> {
        let nodes: Vec<GenNode> = self
            .lattice
            .nodes_by_height()
            .into_iter()
            .flatten()
            .collect();
        let index: HashMap<&GenNode, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i as u32))
            .collect();
        let preds: Vec<Vec<u32>> = nodes
            .iter()
            .map(|n| {
                self.lattice
                    .predecessors(n)
                    .iter()
                    .map(|p| index[p])
                    .collect()
            })
            .collect();
        let dag = MonotoneDag::new(if criterion.monotone() {
            preds.clone()
        } else {
            vec![Vec::new(); nodes.len()]
        });
        let outcome = drain(&dag, config.effective_threads(), |i| {
            self.judge(criterion, &nodes[i])
        })?;
        let safe: Vec<bool> = outcome
            .resolutions
            .iter()
            .map(|r| *r != NodeResolution::EvaluatedUnsafe)
            .collect();
        let minimal_nodes = (0..nodes.len())
            .filter(|&i| safe[i] && !preds[i].iter().any(|&p| safe[p as usize]))
            .map(|i| nodes[i].clone())
            .collect();
        Ok(SearchOutcome {
            minimal_nodes,
            evaluated: outcome.evaluated,
            satisfied: outcome.safe_count(),
        })
    }

    /// `criterion` at every node, in [`GeneralizationLattice::nodes`] order.
    pub(crate) fn sweep<C: PrivacyCriterion>(
        &self,
        criterion: &C,
    ) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
        self.lattice
            .nodes()
            .into_iter()
            .map(|node| {
                let ok = self.judge(criterion, &node)?;
                Ok((node, ok))
            })
            .collect()
    }
}

/// Drains a monotone-pruned DAG: in index order at one thread (the
/// sequential oracle), through the work-stealing scheduler at more. The
/// outcome is the same either way, by the scheduler's contract.
pub(crate) fn drain<F>(
    dag: &MonotoneDag,
    threads: usize,
    eval: F,
) -> Result<ScheduleOutcome, AnonymizeError>
where
    F: Fn(usize) -> Result<bool, AnonymizeError> + Sync,
{
    if threads == 1 {
        evaluate_sequential(dag, eval)
    } else {
        evaluate_work_stealing(dag, threads, true, eval)
    }
}

/// Finds **all ⪯-minimal nodes** of the lattice satisfying `criterion`,
/// with the roll-up evaluator's counters for this search.
///
/// Nodes are visited by increasing height. Under a monotone criterion a
/// node with a known-safe predecessor is safe and skipped (it cannot be
/// minimal); otherwise the criterion is evaluated — on rolled-up
/// histograms, after a single table scan — and evaluated-safe nodes are
/// exactly the minimal ones. A criterion that is not monotone is evaluated
/// at every node.
///
/// Whatever the configuration, `minimal_nodes`, `evaluated`, and
/// `satisfied` are exactly what the sequential search produces. At more
/// than one thread the whole lattice drains through per-worker deques with
/// stealing, immediate up-set pruning on safe verdicts, and speculative
/// evaluation on idle workers, all sharing `criterion` (and therefore its
/// memoization cache) and one roll-up evaluator. `threads == 0` selects
/// [`default_threads`]; `threads == 1` runs the sequential algorithm
/// without spawning.
pub fn search<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchReport, AnonymizeError> {
    let evaluator = evaluator(table, lattice, config)?;
    let source = Source {
        table,
        lattice,
        evaluator: evaluator.as_ref(),
    };
    let outcome = source.search(criterion, config)?;
    Ok(SearchReport {
        outcome,
        rollup: evaluator.as_ref().map(NodeEvaluator::stats),
    })
}

/// The sequential [`search`] with every node bucketized from the table (one
/// full scan per evaluated node) — the reference oracle the equivalence
/// tests and `bench_report` compare the roll-up against.
pub fn find_minimal_safe_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<SearchOutcome, AnonymizeError> {
    let source = Source {
        table,
        lattice,
        evaluator: None,
    };
    source.search(criterion, &SearchConfig::with_threads(1))
}

/// Exhaustive sweep evaluating the criterion on **every** node — the
/// unpruned baseline (used by benches to quantify the pruning win and by the
/// Figure 6 experiment which needs per-node statistics anyway). Runs on the
/// roll-up pipeline: one table scan total.
pub fn sweep<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let evaluator = evaluator(table, lattice, &SearchConfig::default())?;
    let source = Source {
        table,
        lattice,
        evaluator: evaluator.as_ref(),
    };
    source.sweep(criterion)
}

/// [`sweep`] with every node bucketized from the table — the reference
/// oracle and the `bench_report` baseline.
pub fn sweep_all_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let source = Source {
        table,
        lattice,
        evaluator: None,
    };
    source.sweep(criterion)
}

/// Binary search along a fine→coarse chain for the first (finest) safe node
/// — logarithmic in the chain length thanks to monotonicity (Theorem 14).
///
/// Returns `None` when even the last (coarsest) node fails, and
/// [`AnonymizeError::InvalidParameter`] for a criterion that is not
/// [`monotone`](PrivacyCriterion::monotone).
pub fn binary_search_chain<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    chain: &[GenNode],
    criterion: &C,
) -> Result<Option<GenNode>, AnonymizeError> {
    require_monotone(criterion, "binary chain search")?;
    for (i, w) in chain.windows(2).enumerate() {
        if !w[0].le(&w[1]) {
            return Err(AnonymizeError::ChainNotMonotone { at: i });
        }
    }
    if chain.is_empty() {
        return Ok(None);
    }
    let evaluator = evaluator(table, lattice, &SearchConfig::default())?;
    let source = Source {
        table,
        lattice,
        evaluator: evaluator.as_ref(),
    };
    // Invariant: everything below `lo` is unsafe; if `hi_safe` then chain[hi]
    // is safe.
    let mut lo = 0usize;
    let mut hi = chain.len() - 1;
    if !source.judge(criterion, &chain[hi])? {
        return Ok(None);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if source.judge(criterion, &chain[mid])? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(chain[lo].clone()))
}

/// Rejects a criterion that is not monotone from a search that prunes by
/// monotonicity (`what` names the search in the error).
pub(crate) fn require_monotone<C: PrivacyCriterion>(
    criterion: &C,
    what: &str,
) -> Result<(), AnonymizeError> {
    if criterion.monotone() {
        Ok(())
    } else {
        Err(AnonymizeError::InvalidParameter(format!(
            "{what} needs a monotone criterion, and {} is not",
            criterion.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::criteria::{
        CkSafetyCriterion, DistinctLDiversity, EntropyLDiversity, KAnonymity, PrivacyCriterion,
        RecursiveCLDiversity,
    };
    use wcbk_adversary::ModelId;
    use wcbk_core::DisclosureEngine;
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;
    use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};

    /// The sequential search's outcome.
    fn find_minimal<C: PrivacyCriterion>(
        table: &Table,
        lattice: &GeneralizationLattice,
        criterion: &C,
    ) -> SearchOutcome {
        search(table, lattice, criterion, &SearchConfig::with_threads(1))
            .unwrap()
            .outcome
    }

    /// Judges `node` by bucketizing the table.
    fn holds<C: PrivacyCriterion>(
        c: &C,
        t: &Table,
        l: &GeneralizationLattice,
        node: &GenNode,
    ) -> bool {
        c.is_satisfied_hist(&HistogramSet::from_bucketization(
            &l.bucketize(t, node).unwrap(),
        ))
        .unwrap()
    }

    fn lattice(table: &Table) -> GeneralizationLattice {
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let sex = table.column(3).dictionary().clone();
        GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap()
    }

    /// Independent check of minimality against the exhaustive sweep.
    fn assert_minimal_consistent<C: PrivacyCriterion>(
        table: &Table,
        lattice: &GeneralizationLattice,
        make: impl Fn() -> C,
    ) {
        let outcome = find_minimal(table, lattice, &make());
        let swept = sweep(table, lattice, &make()).unwrap();
        let safe: HashSet<GenNode> = swept
            .iter()
            .filter(|(_, ok)| *ok)
            .map(|(n, _)| n.clone())
            .collect();
        // 1. Search count of safe nodes matches sweep.
        assert_eq!(outcome.satisfied, safe.len());
        // 2. Every reported minimal node is safe with no safe predecessor.
        for m in &outcome.minimal_nodes {
            assert!(safe.contains(m), "{m} not actually safe");
            for p in lattice.predecessors(m) {
                assert!(!safe.contains(&p), "{m} has safe predecessor {p}");
            }
        }
        // 3. Every safe node with no safe predecessor is reported.
        for s in &safe {
            let has_safe_pred = lattice.predecessors(s).iter().any(|p| safe.contains(p));
            if !has_safe_pred {
                assert!(outcome.minimal_nodes.contains(s), "{s} missing");
            }
        }
    }

    #[test]
    fn k_anonymity_search_matches_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        for k in [2u64, 3, 5, 10] {
            assert_minimal_consistent(&t, &l, || KAnonymity::new(k));
        }
    }

    #[test]
    fn ck_safety_search_matches_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2)] {
            assert_minimal_consistent(&t, &l, || CkSafetyCriterion::new(c, k).unwrap());
        }
    }

    #[test]
    fn rollup_search_matches_rescan_search() {
        let t = hospital_table();
        let l = lattice(&t);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2), (0.41, 0)] {
            let rollup = find_minimal(&t, &l, &CkSafetyCriterion::new(c, k).unwrap());
            let rescan =
                find_minimal_safe_rescan(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            assert_eq!(rollup, rescan, "(c,k)=({c},{k})");
        }
        for k in [2u64, 5, 11] {
            let rollup = find_minimal(&t, &l, &KAnonymity::new(k));
            let rescan = find_minimal_safe_rescan(&t, &l, &KAnonymity::new(k)).unwrap();
            assert_eq!(rollup, rescan, "k={k}");
        }
        // The ℓ-diversity family, judged on the rescan path through
        // `HistogramSet::from_bucketization`.
        let diversity: Vec<Box<dyn PrivacyCriterion>> = vec![
            Box::new(DistinctLDiversity::new(2)),
            Box::new(DistinctLDiversity::new(3)),
            Box::new(DistinctLDiversity::new(4)),
            Box::new(EntropyLDiversity::new(1.5).unwrap()),
            Box::new(EntropyLDiversity::new(2.0).unwrap()),
            Box::new(EntropyLDiversity::new(2.5).unwrap()),
            Box::new(EntropyLDiversity::new(3.5).unwrap()),
            Box::new(RecursiveCLDiversity::new(0.7, 2).unwrap()),
            Box::new(RecursiveCLDiversity::new(1.0, 2).unwrap()),
            Box::new(RecursiveCLDiversity::new(2.0, 3).unwrap()),
            Box::new(RecursiveCLDiversity::new(0.5, 2).unwrap()),
        ];
        for c in &diversity {
            let rescan = find_minimal_safe_rescan(&t, &l, c).unwrap();
            assert_eq!(find_minimal(&t, &l, c), rescan, "{}", c.name());
        }
    }

    #[test]
    fn sweep_matches_rescan_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        let a = sweep(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        let b = sweep_all_rescan(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_saves_evaluations() {
        let t = hospital_table();
        let l = lattice(&t);
        let outcome = find_minimal(&t, &l, &KAnonymity::new(2));
        assert!(outcome.evaluated < l.n_nodes(), "no pruning happened");
        assert!(!outcome.minimal_nodes.is_empty());
    }

    #[test]
    fn impossible_criterion_yields_empty() {
        let t = hospital_table();
        let l = lattice(&t);
        // 11-anonymity is impossible for a 10-row table.
        let outcome = find_minimal(&t, &l, &KAnonymity::new(11));
        assert!(outcome.minimal_nodes.is_empty());
        assert_eq!(outcome.satisfied, 0);
    }

    #[test]
    fn binary_search_finds_first_safe_on_chain() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        let criterion = KAnonymity::new(5);
        let found = binary_search_chain(&t, &l, &chain, &criterion)
            .unwrap()
            .expect("top is 5-anonymous");
        // Verify: found is safe, its chain predecessor is not.
        let idx = chain.iter().position(|n| *n == found).unwrap();
        assert!(holds(&KAnonymity::new(5), &t, &l, &chain[idx]));
        if idx > 0 {
            assert!(!holds(&KAnonymity::new(5), &t, &l, &chain[idx - 1]));
        }
    }

    #[test]
    fn binary_search_none_when_even_top_fails() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        let found = binary_search_chain(&t, &l, &chain, &KAnonymity::new(11)).unwrap();
        assert_eq!(found, None);
    }

    #[test]
    fn binary_search_rejects_bad_chain() {
        let t = hospital_table();
        let l = lattice(&t);
        let mut chain = l.maximal_chain();
        chain.reverse();
        let err = binary_search_chain(&t, &l, &chain, &KAnonymity::new(2)).unwrap_err();
        assert!(matches!(err, AnonymizeError::ChainNotMonotone { at: 0 }));
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        for (c, k) in [(0.5, 0), (0.5, 1), (0.9, 2), (0.41, 0)] {
            let criterion = CkSafetyCriterion::new(c, k).unwrap();
            let binary = binary_search_chain(&t, &l, &chain, &criterion).unwrap();
            let mut linear = None;
            for node in &chain {
                if holds(&CkSafetyCriterion::new(c, k).unwrap(), &t, &l, node) {
                    linear = Some(node.clone());
                    break;
                }
            }
            assert_eq!(binary, linear, "c={c} k={k}");
        }
    }

    #[test]
    fn report_carries_outcome_and_rollup_stats() {
        let t = hospital_table();
        let l = lattice(&t);
        let criterion = CkSafetyCriterion::new(0.7, 1).unwrap();
        let report = search(&t, &l, &criterion, &SearchConfig::default()).unwrap();
        let direct = find_minimal_safe_rescan(&t, &l, &criterion).unwrap();
        assert_eq!(report.outcome, direct);
        let rollup = report.rollup.expect("hospital packs into u64 signatures");
        assert_eq!(rollup.table_scans, 1);
        assert!(rollup.derived > 0);
    }

    /// Two groups of six rows whose sensitive counts are (3, 2, 1) and
    /// (3, 1, 2), under one suppression hierarchy: the minimality model
    /// bounds the bottom node at 3/5 and the top node at 6/9 at k = 1.
    fn minimality_counterexample() -> (Table, GeneralizationLattice) {
        let schema = Schema::new(vec![
            Attribute::new("G", AttributeKind::QuasiIdentifier),
            Attribute::new("S", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (group, counts) in [("x", [3, 2, 1]), ("y", [3, 1, 2])] {
            for (value, count) in ["a", "b", "c"].into_iter().zip(counts) {
                for _ in 0..count {
                    b.push_row(&[group.to_string(), value.to_string()]).unwrap();
                }
            }
        }
        let table = b.build();
        let dict = table.column(0).dictionary().clone();
        let lattice =
            GeneralizationLattice::new(vec![(0, Hierarchy::suppression("G", &dict))]).unwrap();
        (table, lattice)
    }

    /// Regression: the pruned search inferred the top node safe from the
    /// safe bottom node under the non-merge-monotone minimality model. The
    /// search now sweeps for it and agrees with the sweep at every thread
    /// count and on the rescan path; the searches that prune by subsets or
    /// chains reject it.
    #[test]
    fn non_monotone_criterion_searches_by_sweep() {
        let (t, l) = minimality_counterexample();
        let engine = std::sync::Arc::new(DisclosureEngine::new(1));
        let criterion =
            CkSafetyCriterion::with_model(0.62, ModelId::Minimality.resolve(engine)).unwrap();
        assert!(!criterion.monotone());
        let swept = sweep(&t, &l, &criterion).unwrap();
        assert_eq!(swept, vec![(l.bottom(), true), (l.top(), false)]);
        let want = SearchOutcome {
            minimal_nodes: vec![l.bottom()],
            evaluated: 2,
            satisfied: 1,
        };
        for threads in [1, 2, 4] {
            let report = search(&t, &l, &criterion, &SearchConfig::with_threads(threads)).unwrap();
            assert_eq!(report.outcome, want, "threads {threads}");
        }
        assert_eq!(find_minimal_safe_rescan(&t, &l, &criterion).unwrap(), want);
        let err = binary_search_chain(&t, &l, &l.maximal_chain(), &criterion).unwrap_err();
        assert!(matches!(err, AnonymizeError::InvalidParameter(_)), "{err}");
        let err = crate::incognito(&t, &l, &criterion, &SearchConfig::default()).unwrap_err();
        assert!(matches!(err, AnonymizeError::InvalidParameter(_)), "{err}");
    }

    use wcbk_table::Table;
}
