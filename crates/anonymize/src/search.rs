//! Lattice search for minimal safe generalizations — sequential and
//! work-stealing whole-lattice, over the one-scan roll-up pipeline.
//!
//! All searches share the same monotone-pruning contract: a node with a
//! known-safe predecessor is safe by monotonicity and never evaluated; a
//! node whose predecessors are all unsafe must be. At one thread the
//! lattice is walked breadth-first by height (the sequential oracle). At
//! more, the whole lattice is handed to [`wcbk_core::sched`]'s work-stealing
//! scheduler, with workers sharing one `&C` criterion (hence
//! [`PrivacyCriterion`]`: Send + Sync`): a node becomes runnable the moment
//! its last predecessor's verdict lands, safe verdicts prune entire up-sets
//! immediately through the generalization partial order, and idle workers
//! speculatively evaluate still-pending nodes (discarding the work if the
//! node gets pruned). No level barriers.
//!
//! The outcome is **bit-for-bit identical** to the sequential search —
//! same minimal antichain in the same order, same `evaluated` and
//! `satisfied` counts, same first-error semantics (pinned by
//! `tests/parallel_search.rs` and `tests/rollup_equivalence.rs`).
//!
//! **Evaluation never re-scans the table.** A [`NodeEvaluator`] scans it
//! once at search start; every node is then judged from rolled-up
//! [`HistogramSet`](wcbk_core::HistogramSet)s via
//! [`PrivacyCriterion::is_satisfied_hist`], and a full
//! `Bucketization` is only materialized (by callers such as the
//! [`pipeline`](crate::pipeline)) for chosen minimal nodes. Tables whose
//! packed quasi-identifier signature exceeds 128 bits fall back to the
//! legacy `*_rescan` path, which bucketizes per node. On deep lattices the
//! evaluator's memo can be capped via [`SearchConfig::memo_capacity`].

use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;

use wcbk_adversary::ModelId;
use wcbk_core::sched::{evaluate_work_stealing, MonotoneDag};
use wcbk_hierarchy::{
    GenNode, GeneralizationLattice, HierarchyError, NodeEvaluator, RollupStats, ScanOptions,
};
use wcbk_table::Table;

use crate::{AnonymizeError, PrivacyCriterion};

/// Knobs for the parallel searches ([`find_minimal_safe_with`],
/// [`crate::incognito::incognito_with`]).
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
    /// The adversary model the caller judges safety under (the default is
    /// the paper's conjunction language). The search machinery itself is
    /// model-agnostic — the criterion carries the actual bound — but the
    /// selection rides here so services and reports can thread it alongside
    /// the other search knobs.
    pub model: ModelId,
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

/// The number of worker threads the parallel search uses by default: the
/// machine's available parallelism (1 when that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Builds the roll-up evaluator, or `None` when the table's packed signature
/// does not fit (the caller then takes the legacy re-scanning path). Shared
/// with [`crate::incognito`] so the fallback policy lives in one place.
pub(crate) fn try_evaluator(
    table: &Table,
    lattice: &GeneralizationLattice,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    try_evaluator_capped(table, lattice, None, ScanOptions::default())
}

/// [`try_evaluator`] with a memo entry cap (see
/// [`NodeEvaluator::with_memo_capacity`]) and explicit bottom-scan tuning.
pub(crate) fn try_evaluator_capped(
    table: &Table,
    lattice: &GeneralizationLattice,
    memo_capacity: Option<usize>,
    scan: ScanOptions,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    try_evaluator_shared(
        table,
        std::sync::Arc::new(lattice.clone()),
        memo_capacity,
        scan,
    )
}

/// Builds a **shared** evaluator over an `Arc`-held lattice, with the same
/// overflow-fallback policy: `None` means the packed signature does not fit
/// and callers must re-scan per node. The session constructor uses this.
pub(crate) fn try_evaluator_shared(
    table: &Table,
    lattice: std::sync::Arc<GeneralizationLattice>,
    memo_capacity: Option<usize>,
    scan: ScanOptions,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    match NodeEvaluator::shared_with_scan(table, lattice, memo_capacity, scan) {
        Ok(eval) => Ok(Some(eval)),
        Err(HierarchyError::SignatureOverflow { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The monotone-pruned BFS skeleton, generic over how a node is judged.
fn minimal_safe_with<E>(
    lattice: &GeneralizationLattice,
    mut eval: E,
) -> Result<SearchOutcome, AnonymizeError>
where
    E: FnMut(&GenNode) -> Result<bool, AnonymizeError>,
{
    let mut safe: HashSet<GenNode> = HashSet::new();
    let mut minimal: Vec<GenNode> = Vec::new();
    let mut evaluated = 0usize;

    for level in lattice.nodes_by_height() {
        for node in level {
            let inherited = lattice
                .predecessors(&node)
                .into_iter()
                .any(|p| safe.contains(&p));
            if inherited {
                safe.insert(node);
                continue;
            }
            evaluated += 1;
            if eval(&node)? {
                minimal.push(node.clone());
                safe.insert(node);
            }
        }
    }
    Ok(SearchOutcome {
        minimal_nodes: minimal,
        evaluated,
        satisfied: safe.len(),
    })
}

/// Bottom-up breadth-first search (Incognito-style) for **all minimal safe
/// nodes** of the lattice under a monotone criterion.
///
/// Nodes are visited by increasing height. A node with a known-safe
/// predecessor is safe by monotonicity and skipped (it cannot be minimal);
/// otherwise the criterion is evaluated — on rolled-up histograms, after a
/// single table scan. Evaluated-safe nodes are exactly the minimal ones: all
/// their predecessors were found unsafe.
pub fn find_minimal_safe<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<SearchOutcome, AnonymizeError> {
    match try_evaluator(table, lattice)? {
        Some(eval) => minimal_safe_with(lattice, |node| {
            criterion.is_satisfied_hist(&eval.histograms(node)?)
        }),
        None => find_minimal_safe_rescan(table, lattice, criterion),
    }
}

/// [`find_minimal_safe`] over the legacy per-node `bucketize` path (one full
/// table scan per evaluated node). Kept public as the fallback for
/// signature-overflow tables and as the baseline the equivalence tests and
/// `bench_report` compare against.
pub fn find_minimal_safe_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<SearchOutcome, AnonymizeError> {
    minimal_safe_with(lattice, |node| {
        criterion.is_satisfied(&lattice.bucketize(table, node)?)
    })
}

/// The work-stealing whole-lattice skeleton: hands the lattice (nodes in
/// sequential visit order — by height, mixed-radix within a height) to
/// [`wcbk_core::sched::evaluate_work_stealing`] and maps the resolutions
/// back onto a [`SearchOutcome`]. Outcome-equivalent to the sequential
/// skeleton by the scheduler's contract.
fn minimal_safe_steal_with<E>(
    lattice: &GeneralizationLattice,
    threads: usize,
    eval: E,
) -> Result<SearchOutcome, AnonymizeError>
where
    E: Fn(&GenNode) -> Result<bool, AnonymizeError> + Sync,
{
    let nodes: Vec<GenNode> = lattice.nodes_by_height().into_iter().flatten().collect();
    let index: HashMap<&GenNode, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n, i as u32))
        .collect();
    let preds: Vec<Vec<u32>> = nodes
        .iter()
        .map(|n| {
            lattice
                .predecessors(n)
                .iter()
                .map(|p| index[p])
                .collect::<Vec<u32>>()
        })
        .collect();
    let dag = MonotoneDag::new(preds);
    let outcome = evaluate_work_stealing(&dag, threads, true, |i| eval(&nodes[i]))?;
    Ok(SearchOutcome {
        minimal_nodes: outcome
            .evaluated_safe()
            .into_iter()
            .map(|i| nodes[i].clone())
            .collect(),
        evaluated: outcome.evaluated,
        satisfied: outcome.safe_count(),
    })
}

/// Parallel variant of [`find_minimal_safe`] with explicit [`SearchConfig`]
/// — thread count, evaluator memo cap and bottom-scan threads.
///
/// Whatever the configuration, `minimal_nodes`, `evaluated`, and
/// `satisfied` are exactly what the sequential search produces. At more
/// than one thread the whole lattice drains through per-worker deques with
/// stealing, immediate up-set pruning on safe verdicts, and speculative
/// evaluation on idle workers, all sharing `criterion` (and therefore its
/// memoization cache) and one roll-up evaluator — required evaluations, and
/// therefore outcomes, are scheduling-independent. `threads == 0` selects
/// [`default_threads`]; `threads == 1` runs the sequential algorithm
/// without spawning.
pub fn find_minimal_safe_with<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchOutcome, AnonymizeError> {
    Ok(find_minimal_safe_report(table, lattice, criterion, config)?.outcome)
}

/// A [`SearchOutcome`] together with the roll-up evaluator's work counters —
/// what long-running callers (the `wcbk-serve` audit service) aggregate
/// across searches. `rollup` is `None` when the signature-overflow fallback
/// re-scanned the table per node instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The search result, identical to [`find_minimal_safe_with`]'s.
    pub outcome: SearchOutcome,
    /// The evaluator's counters at the end of the search.
    pub rollup: Option<RollupStats>,
}

/// [`find_minimal_safe_with`], also reporting the roll-up evaluator's
/// counters (table scans, derivations, memo traffic) for this search.
pub fn find_minimal_safe_report<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchReport, AnonymizeError> {
    let evaluator =
        try_evaluator_capped(table, lattice, config.memo_capacity, config.scan_options())?;
    let outcome = minimal_safe_over(table, lattice, evaluator.as_ref(), criterion, config)?;
    Ok(SearchReport {
        outcome,
        rollup: evaluator.as_ref().map(NodeEvaluator::stats),
    })
}

/// The thread-count dispatcher over an **injected** evaluator (`None` = the
/// signature-overflow re-scanning fallback). This is the primitive both the
/// one-shot entry points and [`crate::DatasetSession`] (which owns a
/// long-lived evaluator shared across many searches) run on; outcomes are
/// identical either way.
pub(crate) fn minimal_safe_over<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    evaluator: Option<&NodeEvaluator>,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchOutcome, AnonymizeError> {
    let threads = config.effective_threads();
    let judge = |node: &GenNode| -> Result<bool, AnonymizeError> {
        match evaluator {
            Some(eval) => criterion.is_satisfied_hist(&eval.histograms(node)?),
            None => criterion.is_satisfied(&lattice.bucketize(table, node)?),
        }
    };
    if threads == 1 {
        minimal_safe_with(lattice, judge)
    } else {
        minimal_safe_steal_with(lattice, threads, judge)
    }
}

/// The exhaustive sweep over an injected evaluator — the session-owned
/// counterpart of [`sweep_all`].
pub(crate) fn sweep_over<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    evaluator: Option<&NodeEvaluator>,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let mut out = Vec::with_capacity(lattice.n_nodes());
    for node in lattice.nodes() {
        let ok = match evaluator {
            Some(eval) => criterion.is_satisfied_hist(&eval.histograms(&node)?)?,
            None => criterion.is_satisfied(&lattice.bucketize(table, &node)?)?,
        };
        out.push((node, ok));
    }
    Ok(out)
}

/// Exhaustive sweep evaluating the criterion on **every** node — the
/// unpruned baseline (used by benches to quantify the pruning win and by the
/// Figure 6 experiment which needs per-node statistics anyway). Runs on the
/// roll-up pipeline: one table scan total.
pub fn sweep_all<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let Some(eval) = try_evaluator(table, lattice)? else {
        return sweep_all_rescan(table, lattice, criterion);
    };
    let mut out = Vec::with_capacity(lattice.n_nodes());
    for node in lattice.nodes() {
        let ok = criterion.is_satisfied_hist(&eval.histograms(&node)?)?;
        out.push((node, ok));
    }
    Ok(out)
}

/// [`sweep_all`] over the legacy per-node `bucketize` path — the
/// fallback for signature-overflow tables and the `bench_report` baseline.
pub fn sweep_all_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let mut out = Vec::with_capacity(lattice.n_nodes());
    for node in lattice.nodes() {
        let b = lattice.bucketize(table, &node)?;
        let ok = criterion.is_satisfied(&b)?;
        out.push((node, ok));
    }
    Ok(out)
}

/// Binary search along a fine→coarse chain for the first (finest) safe node
/// — logarithmic in the chain length thanks to monotonicity (Theorem 14).
///
/// Returns `None` when even the last (coarsest) node fails.
pub fn binary_search_chain<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    chain: &[GenNode],
    criterion: &C,
) -> Result<Option<GenNode>, AnonymizeError> {
    for (i, w) in chain.windows(2).enumerate() {
        if !w[0].le(&w[1]) {
            return Err(AnonymizeError::ChainNotMonotone { at: i });
        }
    }
    if chain.is_empty() {
        return Ok(None);
    }
    let evaluator = try_evaluator(table, lattice)?;
    let check = |node: &GenNode| -> Result<bool, AnonymizeError> {
        match &evaluator {
            Some(eval) => criterion.is_satisfied_hist(&eval.histograms(node)?),
            None => criterion.is_satisfied(&lattice.bucketize(table, node)?),
        }
    };
    // Invariant: everything below `lo` is unsafe; if `hi_safe` then chain[hi]
    // is safe.
    let mut lo = 0usize;
    let mut hi = chain.len() - 1;
    if !check(&chain[hi])? {
        return Ok(None);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if check(&chain[mid])? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(chain[lo].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{CkSafetyCriterion, KAnonymity, PrivacyCriterion};
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

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
        let outcome = find_minimal_safe(table, lattice, &make()).unwrap();
        let sweep = sweep_all(table, lattice, &make()).unwrap();
        let safe: HashSet<GenNode> = sweep
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
            let rollup = find_minimal_safe(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            let rescan =
                find_minimal_safe_rescan(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            assert_eq!(rollup, rescan, "(c,k)=({c},{k})");
        }
        for k in [2u64, 5, 11] {
            let rollup = find_minimal_safe(&t, &l, &KAnonymity::new(k)).unwrap();
            let rescan = find_minimal_safe_rescan(&t, &l, &KAnonymity::new(k)).unwrap();
            assert_eq!(rollup, rescan, "k={k}");
        }
    }

    #[test]
    fn sweep_matches_rescan_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        let a = sweep_all(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        let b = sweep_all_rescan(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_saves_evaluations() {
        let t = hospital_table();
        let l = lattice(&t);
        let outcome = find_minimal_safe(&t, &l, &KAnonymity::new(2)).unwrap();
        assert!(outcome.evaluated < l.n_nodes(), "no pruning happened");
        assert!(!outcome.minimal_nodes.is_empty());
    }

    #[test]
    fn impossible_criterion_yields_empty() {
        let t = hospital_table();
        let l = lattice(&t);
        // 11-anonymity is impossible for a 10-row table.
        let outcome = find_minimal_safe(&t, &l, &KAnonymity::new(11)).unwrap();
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
        assert!(KAnonymity::new(5)
            .is_satisfied(&l.bucketize(&t, &chain[idx]).unwrap())
            .unwrap());
        if idx > 0 {
            assert!(!KAnonymity::new(5)
                .is_satisfied(&l.bucketize(&t, &chain[idx - 1]).unwrap())
                .unwrap());
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
                let b = l.bucketize(&t, node).unwrap();
                if CkSafetyCriterion::new(c, k)
                    .unwrap()
                    .is_satisfied(&b)
                    .unwrap()
                {
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
        let config = SearchConfig::default();
        let report = find_minimal_safe_report(&t, &l, &criterion, &config).unwrap();
        let direct = find_minimal_safe_with(&t, &l, &criterion, &config).unwrap();
        assert_eq!(report.outcome, direct);
        let rollup = report.rollup.expect("hospital packs into u64 signatures");
        assert_eq!(rollup.table_scans, 1);
        assert!(rollup.derived > 0);
    }

    use wcbk_table::Table;
}
