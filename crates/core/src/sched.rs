//! Work-stealing evaluation of monotone-pruned DAGs.
//!
//! The lattice searches in `wcbk-anonymize` all share one shape: nodes of a
//! DAG are judged by a monotone predicate, a node whose predecessor is known
//! **safe** is safe by monotonicity and must *not* be evaluated (it cannot be
//! minimal), and a node all of whose predecessors are known **unsafe** must
//! be evaluated. Fanning that out one height at a time would make every
//! level wait on its slowest node. This module has no barrier: a node
//! becomes runnable the instant its last predecessor's
//! verdict lands, safe verdicts prune entire up-sets immediately, and idle
//! workers *speculate* — they evaluate nodes whose predecessors are still
//! pending, preferring the node nearest the required frontier (fewest
//! predecessors still pending, smallest index on ties — the node most
//! likely to become required next), and discard the work if it turns out
//! pruned.
//!
//! The scheduler is deliberately ignorant of lattices: it sees a
//! [`MonotoneDag`] of integer nodes in **topological index order** (every
//! predecessor index is smaller than its successor's) plus an evaluation
//! closure. That order is exactly the sequential visit order, which buys the
//! two contracts the searches rely on:
//!
//! * **Bit-for-bit outcome equivalence.** The set of evaluated nodes, the
//!   safe set, and the evaluated-safe ("minimal") set are functions of the
//!   DAG and the verdicts alone — not of scheduling. Speculative work on
//!   nodes that end up pruned is counted separately and never leaks into
//!   `evaluated`.
//! * **First-error-in-visit-order semantics.** A failed evaluation resolves
//!   its node as unsafe-for-propagation so the DAG still drains, every
//!   *required* evaluation error is recorded with its node index, and the
//!   smallest index wins — the same error the sequential loop would have
//!   stopped at, because an error can only unlock evaluations at strictly
//!   larger indices.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a node of a [`MonotoneDag`] was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeResolution {
    /// Safe by monotonicity (some predecessor was safe); never evaluated.
    PrunedSafe,
    /// Evaluated (all predecessors unsafe) and the predicate held — these
    /// are exactly the ⪯-minimal safe nodes.
    EvaluatedSafe,
    /// Evaluated and the predicate failed.
    EvaluatedUnsafe,
}

/// Outcome of draining a [`MonotoneDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Per-node resolution, indexed like the DAG.
    pub resolutions: Vec<NodeResolution>,
    /// Number of *required* evaluations (identical to the sequential loop's
    /// count; speculative evaluations on pruned nodes are excluded).
    pub evaluated: usize,
    /// Evaluations started speculatively (predecessors still pending).
    pub speculated: usize,
    /// Speculative evaluations that ran to a verdict on a node that ended up
    /// pruned — work discarded.
    pub discarded: usize,
    /// Speculative claims abandoned before evaluating because the node was
    /// pruned between the claim and the evaluation (pruning is final, so the
    /// verdict could never be committed).
    pub abandoned: usize,
    /// Nodes a worker took from a sibling's deque rather than its own
    /// (always 0 for the sequential evaluator). Schedule-dependent: varies
    /// run to run, so equivalence tests must not compare it.
    pub steals: usize,
    /// Wall-clock time spent draining the DAG, in microseconds.
    /// Schedule-dependent, like `steals`.
    pub wall_micros: u64,
}

impl ScheduleOutcome {
    /// Count of safe nodes (pruned or evaluated-safe).
    pub fn safe_count(&self) -> usize {
        self.resolutions
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    NodeResolution::PrunedSafe | NodeResolution::EvaluatedSafe
                )
            })
            .count()
    }

    /// Indices of evaluated-safe nodes, ascending — the minimal antichain in
    /// sequential visit order.
    pub fn evaluated_safe(&self) -> Vec<usize> {
        self.resolutions
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, NodeResolution::EvaluatedSafe))
            .map(|(i, _)| i)
            .collect()
    }
}

/// A DAG in topological index order, ready for monotone-pruned evaluation.
///
/// `preds[i]` lists the immediate predecessors of node `i`; every listed
/// index must be `< i` (construction panics otherwise — the searches index
/// nodes in visit order, where predecessors always come first).
#[derive(Debug, Clone)]
pub struct MonotoneDag {
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
}

impl MonotoneDag {
    /// Builds the DAG from per-node predecessor lists.
    pub fn new(preds: Vec<Vec<u32>>) -> Self {
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); preds.len()];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                assert!(
                    (p as usize) < i,
                    "predecessor {p} of node {i} violates topological index order"
                );
                succs[p as usize].push(i as u32);
            }
        }
        Self { preds, succs }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.preds.len()
    }
}

/// The sequential reference evaluator: visits nodes in index order, prunes
/// on any safe predecessor, evaluates otherwise, stops at the first error.
/// [`evaluate_work_stealing`] is defined to be outcome-equivalent to this.
pub fn evaluate_sequential<E, F>(dag: &MonotoneDag, eval: F) -> Result<ScheduleOutcome, E>
where
    F: Fn(usize) -> Result<bool, E>,
{
    let started = std::time::Instant::now();
    let n = dag.n_nodes();
    let mut resolutions = Vec::with_capacity(n);
    let mut safe = vec![false; n];
    let mut evaluated = 0usize;
    for i in 0..n {
        if dag.preds[i].iter().any(|&p| safe[p as usize]) {
            safe[i] = true;
            resolutions.push(NodeResolution::PrunedSafe);
            continue;
        }
        evaluated += 1;
        if eval(i)? {
            safe[i] = true;
            resolutions.push(NodeResolution::EvaluatedSafe);
        } else {
            resolutions.push(NodeResolution::EvaluatedUnsafe);
        }
    }
    Ok(ScheduleOutcome {
        resolutions,
        evaluated,
        speculated: 0,
        discarded: 0,
        abandoned: 0,
        steals: 0,
        wall_micros: started.elapsed().as_micros() as u64,
    })
}

// Resolution states (atomic u8).
const UNRESOLVED: u8 = 0;
/// All predecessors unsafe; verdict pending. Transient.
const REQUIRED: u8 = 1;
const PRUNED_SAFE: u8 = 2;
const EVAL_SAFE: u8 = 3;
const EVAL_UNSAFE: u8 = 4;
/// Required evaluation failed; propagates as unsafe so the DAG drains.
const ERRORED: u8 = 5;

// Evaluation states (atomic u8), decoupled from resolution so speculation
// can run ahead of it.
const NOT_STARTED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;
/// A speculative claim dropped without evaluating: the node was pruned
/// between the claim and the evaluation. Only reachable from `RUNNING` on a
/// `PRUNED_SAFE` node, so `make_required` (which excludes pruned nodes by
/// the pending-count invariant) never observes it.
const ABANDONED: u8 = 3;

struct Shared<'d, E, F> {
    dag: &'d MonotoneDag,
    eval: F,
    /// Per-node resolution state machine.
    resolution: Vec<AtomicU8>,
    /// Predecessors not yet known-unsafe. Only unsafe (or errored)
    /// predecessors decrement, so a node with any safe predecessor never
    /// reaches zero — `REQUIRED` and `PRUNED_SAFE` are mutually exclusive.
    pending: Vec<AtomicUsize>,
    /// Per-node evaluation claim (speculative or required).
    eval_state: Vec<AtomicU8>,
    /// Parked verdicts: written once by the evaluator, taken exactly once by
    /// the committing thread.
    results: Vec<Mutex<Option<Result<bool, E>>>>,
    /// Per-worker deques; owners push/pop the back, thieves pop the front.
    queues: Vec<Mutex<VecDeque<u32>>>,
    /// Nodes in a final state; workers exit when this reaches `n`.
    resolved: AtomicUsize,
    speculated: AtomicUsize,
    /// Speculative claims dropped before evaluating (node pruned mid-flight).
    abandoned: AtomicUsize,
    /// Nodes popped from a sibling's deque rather than the worker's own.
    steals: AtomicUsize,
    /// Errors from *required* evaluations, with their node index.
    errors: Mutex<Vec<(u32, E)>>,
    /// Set when a worker unwinds, so siblings stop instead of spinning.
    abort: AtomicBool,
}

impl<'d, E: Send, F> Shared<'d, E, F>
where
    F: Fn(usize) -> Result<bool, E> + Sync,
{
    fn new(dag: &'d MonotoneDag, workers: usize, eval: F) -> Self {
        let n = dag.n_nodes();
        Self {
            dag,
            eval,
            resolution: (0..n).map(|_| AtomicU8::new(UNRESOLVED)).collect(),
            pending: dag
                .preds
                .iter()
                .map(|p| AtomicUsize::new(p.len()))
                .collect(),
            eval_state: (0..n).map(|_| AtomicU8::new(NOT_STARTED)).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            resolved: AtomicUsize::new(0),
            speculated: AtomicUsize::new(0),
            abandoned: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            errors: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
        }
    }

    fn lock_queue(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<u32>> {
        self.queues[w].lock().expect("scheduler queue poisoned")
    }

    /// Own deque first (LIFO, for cache locality along derivation chains),
    /// then steal the oldest item from a sibling.
    fn pop_or_steal(&self, w: usize) -> Option<u32> {
        if let Some(i) = self.lock_queue(w).pop_back() {
            return Some(i);
        }
        let workers = self.queues.len();
        for offset in 1..workers {
            let victim = (w + offset) % workers;
            if let Some(i) = self.lock_queue(victim).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(i);
            }
        }
        None
    }

    /// Claims the best speculation candidate: among unresolved, unstarted
    /// nodes, the one nearest the required frontier — fewest predecessors
    /// still pending, smallest index on ties. Frontier distance is the best
    /// cheap predictor of "becomes required next": a node one verdict away
    /// wastes the least work when its up-set is pruned instead. The scan is
    /// O(n), which is noise next to an evaluation (each one scans or derives
    /// a full node table). Outcome bit-identity does not depend on the
    /// choice — any claim order yields the same resolutions (pinned by the
    /// equivalence tests) — so the policy is pure wall-clock tuning.
    fn claim_speculation(&self) -> Option<u32> {
        loop {
            let mut best: Option<(usize, usize)> = None; // (pending, index)
            for i in 0..self.dag.n_nodes() {
                if self.resolution[i].load(Ordering::SeqCst) != UNRESOLVED
                    || self.eval_state[i].load(Ordering::SeqCst) != NOT_STARTED
                {
                    continue;
                }
                let candidate = (self.pending[i].load(Ordering::SeqCst), i);
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            }
            let (_, i) = best?;
            if self.eval_state[i]
                .compare_exchange(NOT_STARTED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.speculated.fetch_add(1, Ordering::Relaxed);
                return Some(i as u32);
            }
            // Lost the claim race: the frontier moved, rescan. Each lost race
            // removes a candidate, so the loop terminates.
        }
    }

    /// Runs a node popped from a deque (resolution is `REQUIRED`).
    fn run_required(&self, w: usize, i: u32) {
        match self.eval_state[i as usize].compare_exchange(
            NOT_STARTED,
            RUNNING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                let verdict = (self.eval)(i as usize);
                *self.results[i as usize]
                    .lock()
                    .expect("result slot poisoned") = Some(verdict);
                self.eval_state[i as usize].store(DONE, Ordering::SeqCst);
                self.commit(w, i);
            }
            // A speculator owns the evaluation. It stores DONE before
            // re-reading the resolution (and REQUIRED was stored before this
            // node was queued), so under SeqCst at least one side observes
            // the other and commits; `commit` itself is exactly-once.
            Err(RUNNING) => {}
            Err(_) => self.commit(w, i),
        }
    }

    /// Runs a speculatively claimed node; commits only if the node became
    /// required in the meantime.
    fn run_speculative(&self, w: usize, i: u32) {
        // The node may have been pruned between the claim and here. Pruning
        // is final (`PRUNED_SAFE` nodes never become required — their
        // pending count never reaches zero), so the verdict could never be
        // committed: abandon the claim instead of evaluating into the void.
        if self.resolution[i as usize].load(Ordering::SeqCst) == PRUNED_SAFE {
            self.eval_state[i as usize].store(ABANDONED, Ordering::SeqCst);
            self.abandoned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let verdict = (self.eval)(i as usize);
        *self.results[i as usize]
            .lock()
            .expect("result slot poisoned") = Some(verdict);
        self.eval_state[i as usize].store(DONE, Ordering::SeqCst);
        if self.resolution[i as usize].load(Ordering::SeqCst) == REQUIRED {
            self.commit(w, i);
        }
    }

    /// Consumes node `i`'s parked verdict and resolves it. The `take()` on
    /// the result slot makes concurrent commit attempts exactly-once.
    fn commit(&self, w: usize, i: u32) {
        let verdict = self.results[i as usize]
            .lock()
            .expect("result slot poisoned")
            .take();
        let Some(verdict) = verdict else {
            return; // another thread already committed
        };
        let state = match verdict {
            Ok(true) => EVAL_SAFE,
            Ok(false) => EVAL_UNSAFE,
            Err(e) => {
                self.errors
                    .lock()
                    .expect("error list poisoned")
                    .push((i, e));
                ERRORED
            }
        };
        self.resolution[i as usize].store(state, Ordering::SeqCst);
        self.resolved.fetch_add(1, Ordering::SeqCst);
        self.propagate(w, i, state == EVAL_SAFE);
    }

    /// Pushes node `i`'s verdict into its successors: a safe verdict prunes
    /// the whole up-set (cascading), an unsafe one arms successors whose
    /// last pending predecessor this was.
    fn propagate(&self, w: usize, i: u32, is_safe: bool) {
        let mut prune_stack: Vec<u32> = Vec::new();
        if is_safe {
            prune_stack.push(i);
            while let Some(j) = prune_stack.pop() {
                for &s in &self.dag.succs[j as usize] {
                    if self.resolution[s as usize]
                        .compare_exchange(
                            UNRESOLVED,
                            PRUNED_SAFE,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        self.resolved.fetch_add(1, Ordering::SeqCst);
                        prune_stack.push(s);
                    }
                }
            }
        } else {
            for &s in &self.dag.succs[i as usize] {
                if self.pending[s as usize].fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.make_required(w, s);
                }
            }
        }
    }

    /// All of `s`'s predecessors are unsafe: mark it required and get its
    /// verdict committed — now if already evaluated, else via a deque.
    fn make_required(&self, w: usize, s: u32) {
        let prev = self.resolution[s as usize].compare_exchange(
            UNRESOLVED,
            REQUIRED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        debug_assert!(prev.is_ok(), "required node was already resolved");
        match self.eval_state[s as usize].load(Ordering::SeqCst) {
            DONE => self.commit(w, s),
            NOT_STARTED => self.lock_queue(w).push_back(s),
            // RUNNING: the speculator stores DONE and then re-reads the
            // resolution we just stored, so it will commit.
            _ => {}
        }
    }

    fn worker(&self, w: usize, speculate: bool) {
        let n = self.dag.n_nodes();
        loop {
            if self.resolved.load(Ordering::SeqCst) >= n || self.abort.load(Ordering::Relaxed) {
                return;
            }
            if let Some(i) = self.pop_or_steal(w) {
                self.run_required(w, i);
                continue;
            }
            if speculate {
                if let Some(i) = self.claim_speculation() {
                    self.run_speculative(w, i);
                    continue;
                }
            }
            std::thread::yield_now();
        }
    }
}

/// Sets the shared abort flag if its worker unwinds, so sibling workers
/// stop waiting for a resolution count that will never arrive.
struct AbortGuard<'a>(&'a AtomicBool);

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Drains `dag` on `workers` threads with work stealing (and, when
/// `speculate` is set, speculative evaluation on idle workers), returning an
/// outcome identical to [`evaluate_sequential`]'s.
///
/// `workers` is clamped to `[1, n_nodes]`. On evaluation errors the DAG
/// still drains (errors propagate as unsafe) and the error with the smallest
/// node index — the one the sequential loop would have hit — is returned.
pub fn evaluate_work_stealing<E, F>(
    dag: &MonotoneDag,
    workers: usize,
    speculate: bool,
    eval: F,
) -> Result<ScheduleOutcome, E>
where
    E: Send,
    F: Fn(usize) -> Result<bool, E> + Sync,
{
    let started = std::time::Instant::now();
    let n = dag.n_nodes();
    if n == 0 {
        return Ok(ScheduleOutcome {
            resolutions: Vec::new(),
            evaluated: 0,
            speculated: 0,
            discarded: 0,
            abandoned: 0,
            steals: 0,
            wall_micros: 0,
        });
    }
    let workers = workers.clamp(1, n);
    let shared = Shared::new(dag, workers, eval);

    // Seed: sources (no predecessors) are required from the start.
    {
        let mut w = 0usize;
        for i in 0..n {
            if dag.preds[i].is_empty() {
                shared.resolution[i].store(REQUIRED, Ordering::SeqCst);
                shared.lock_queue(w).push_back(i as u32);
                w = (w + 1) % workers;
            }
        }
    }

    std::thread::scope(|scope| {
        let shared = &shared;
        for w in 0..workers {
            scope.spawn(move || {
                let _guard = AbortGuard(&shared.abort);
                shared.worker(w, speculate);
            });
        }
    });
    debug_assert_eq!(shared.resolved.load(Ordering::SeqCst), n);

    // First error in sequential visit order wins, exactly like the
    // sequential loop (see the module docs for why no smaller-index error
    // can have been missed).
    let mut errors = shared.errors.into_inner().expect("error list poisoned");
    if !errors.is_empty() {
        errors.sort_by_key(|&(i, _)| i);
        let (_, e) = errors.remove(0);
        return Err(e);
    }

    let mut evaluated = 0usize;
    let mut discarded = 0usize;
    let resolutions: Vec<NodeResolution> = (0..n)
        .map(|i| match shared.resolution[i].load(Ordering::SeqCst) {
            PRUNED_SAFE => {
                // A parked verdict on a pruned node is discarded speculation;
                // an abandoned claim never evaluated, so it is counted apart.
                match shared.eval_state[i].load(Ordering::SeqCst) {
                    NOT_STARTED | ABANDONED => {}
                    _ => discarded += 1,
                }
                NodeResolution::PrunedSafe
            }
            EVAL_SAFE => {
                evaluated += 1;
                NodeResolution::EvaluatedSafe
            }
            EVAL_UNSAFE => {
                evaluated += 1;
                NodeResolution::EvaluatedUnsafe
            }
            other => unreachable!("node {i} finished in non-final state {other}"),
        })
        .collect();
    Ok(ScheduleOutcome {
        resolutions,
        evaluated,
        speculated: shared.speculated.load(Ordering::Relaxed),
        discarded,
        abandoned: shared.abandoned.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        wall_micros: started.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A w×h grid DAG (the shape of a two-dimension generalization lattice)
    /// in height-major index order, mirroring `nodes_by_height`.
    fn grid(w: usize, h: usize) -> (MonotoneDag, Vec<(usize, usize)>) {
        let mut coords: Vec<(usize, usize)> =
            (0..w).flat_map(|x| (0..h).map(move |y| (x, y))).collect();
        coords.sort_by_key(|&(x, y)| (x + y, x));
        let index_of = |x: usize, y: usize| coords.iter().position(|&c| c == (x, y)).unwrap();
        let preds = coords
            .iter()
            .map(|&(x, y)| {
                let mut p = Vec::new();
                if x > 0 {
                    p.push(index_of(x - 1, y) as u32);
                }
                if y > 0 {
                    p.push(index_of(x, y - 1) as u32);
                }
                p
            })
            .collect();
        (MonotoneDag::new(preds), coords)
    }

    /// Monotone predicate on the grid: safe above an anti-diagonal.
    fn grid_safe(coords: &[(usize, usize)], threshold: usize) -> impl Fn(usize) -> bool + '_ {
        move |i| {
            let (x, y) = coords[i];
            x + y >= threshold
        }
    }

    #[test]
    fn sequential_prunes_and_counts() {
        let (dag, coords) = grid(4, 4);
        let safe = grid_safe(&coords, 3);
        let out = evaluate_sequential::<(), _>(&dag, |i| Ok(safe(i))).unwrap();
        // Safe set: x+y >= 3 (10 of 16 nodes). Minimal: x+y == 3 (4 nodes).
        assert_eq!(out.safe_count(), 10);
        assert_eq!(out.evaluated_safe().len(), 4);
        // Evaluated: everything below the frontier (6) plus the frontier (4).
        assert_eq!(out.evaluated, 10);
    }

    #[test]
    fn stealing_matches_sequential_on_grids() {
        for (w, h) in [(1, 1), (1, 7), (5, 5), (4, 9)] {
            let (dag, coords) = grid(w, h);
            for threshold in 0..(w + h) {
                let safe = grid_safe(&coords, threshold);
                let seq = evaluate_sequential::<(), _>(&dag, |i| Ok(safe(i))).unwrap();
                for workers in [1usize, 2, 4, 16] {
                    for speculate in [false, true] {
                        let par = evaluate_work_stealing::<(), _>(&dag, workers, speculate, |i| {
                            Ok(safe(i))
                        })
                        .unwrap();
                        assert_eq!(
                            seq.resolutions, par.resolutions,
                            "grid {w}x{h} t={threshold} workers={workers} spec={speculate}"
                        );
                        assert_eq!(seq.evaluated, par.evaluated);
                    }
                }
            }
        }
    }

    #[test]
    fn one_worker_equals_sequential() {
        let (dag, coords) = grid(6, 6);
        let safe = grid_safe(&coords, 5);
        let seq = evaluate_sequential::<(), _>(&dag, |i| Ok(safe(i))).unwrap();
        let one = evaluate_work_stealing::<(), _>(&dag, 1, true, |i| Ok(safe(i))).unwrap();
        assert_eq!(seq.resolutions, one.resolutions);
        assert_eq!(seq.evaluated, one.evaluated);
    }

    #[test]
    fn more_workers_than_nodes() {
        let (dag, coords) = grid(2, 2);
        let safe = grid_safe(&coords, 1);
        let seq = evaluate_sequential::<(), _>(&dag, |i| Ok(safe(i))).unwrap();
        let par = evaluate_work_stealing::<(), _>(&dag, 64, true, |i| Ok(safe(i))).unwrap();
        assert_eq!(seq.resolutions, par.resolutions);
    }

    #[test]
    fn empty_dag() {
        let dag = MonotoneDag::new(Vec::new());
        let out = evaluate_work_stealing::<(), _>(&dag, 4, true, |_| Ok(true)).unwrap();
        assert!(out.resolutions.is_empty());
        assert_eq!(out.evaluated, 0);
    }

    #[test]
    fn first_error_in_index_order_wins() {
        // A wide antichain over one source: indices 1..=8 all evaluate (the
        // source is unsafe), several of them error; the sequential loop
        // would stop at index 3, and so must the stealing run — regardless
        // of which worker hits which error first.
        let preds: Vec<Vec<u32>> = std::iter::once(Vec::new())
            .chain((1..=8).map(|_| vec![0u32]))
            .collect();
        let dag = MonotoneDag::new(preds);
        let eval = |i: usize| -> Result<bool, String> {
            match i {
                0 => Ok(false),
                3 | 5 | 7 => Err(format!("boom at {i}")),
                _ => Ok(true),
            }
        };
        let seq_err = evaluate_sequential(&dag, eval).unwrap_err();
        assert_eq!(seq_err, "boom at 3");
        for workers in [1usize, 2, 4, 8] {
            for speculate in [false, true] {
                let err = evaluate_work_stealing(&dag, workers, speculate, eval).unwrap_err();
                assert_eq!(err, "boom at 3", "workers={workers} spec={speculate}");
            }
        }
    }

    #[test]
    fn error_downstream_of_error_is_masked() {
        // 0 -> 1 -> 2: node 1 errors, which unlocks node 2 (error counts as
        // unsafe for propagation), and node 2 errors too. Only node 1's
        // error may surface — node 2 was never reached sequentially.
        let dag = MonotoneDag::new(vec![vec![], vec![0], vec![1]]);
        let eval = |i: usize| -> Result<bool, String> {
            match i {
                0 => Ok(false),
                _ => Err(format!("boom at {i}")),
            }
        };
        for workers in [1usize, 3] {
            let err = evaluate_work_stealing(&dag, workers, true, eval).unwrap_err();
            assert_eq!(err, "boom at 1");
        }
    }

    #[test]
    fn speculation_work_is_discarded_not_counted() {
        // A chain 0 -> 1 -> ... -> n-1 where the source is safe: the only
        // required evaluation is node 0; everything else is pruned. With
        // speculation on and several workers, speculative evaluations run
        // but must not inflate `evaluated`.
        let n = 64usize;
        let preds: Vec<Vec<u32>> = (0..n)
            .map(|i| if i == 0 { vec![] } else { vec![i as u32 - 1] })
            .collect();
        let dag = MonotoneDag::new(preds);
        let evals = AtomicUsize::new(0);
        let out = evaluate_work_stealing::<(), _>(&dag, 4, true, |_| {
            evals.fetch_add(1, Ordering::Relaxed);
            // Slow the evaluation a touch so speculation actually happens.
            std::thread::yield_now();
            Ok(true)
        })
        .unwrap();
        assert_eq!(out.evaluated, 1, "only the source is a required eval");
        assert_eq!(out.safe_count(), n);
        assert_eq!(out.evaluated_safe(), vec![0]);
        assert_eq!(out.discarded + 1, evals.load(Ordering::Relaxed).max(1));
        // Every speculative claim either ran (discarded here — nothing else
        // ever becomes required) or was abandoned before evaluating.
        assert_eq!(out.speculated, out.discarded + out.abandoned);
    }

    /// Speculation claims the node nearest the required frontier: fewest
    /// still-pending predecessors first, smallest index on ties, skipping
    /// nodes already claimed or resolved.
    #[test]
    fn speculation_claims_nearest_frontier_first() {
        // Sources 0 and 1; node 2 waits on both, node 3 on 0 alone.
        let dag = MonotoneDag::new(vec![vec![], vec![], vec![0, 1], vec![0]]);
        let shared = Shared::<(), _>::new(&dag, 1, |_| Ok(true));
        // The sources are required work mid-evaluation, not candidates.
        for i in [0, 1] {
            shared.resolution[i].store(REQUIRED, Ordering::SeqCst);
            shared.eval_state[i].store(RUNNING, Ordering::SeqCst);
        }
        // Node 3 (one pending predecessor) beats node 2 (two pending).
        assert_eq!(shared.claim_speculation(), Some(3));
        // The claim is recorded, so the rescan moves on to node 2.
        assert_eq!(shared.claim_speculation(), Some(2));
        assert_eq!(shared.claim_speculation(), None);
        assert_eq!(shared.speculated.load(Ordering::Relaxed), 2);

        // Equal distance falls back to index order.
        let dag = MonotoneDag::new(vec![vec![], vec![0], vec![0]]);
        let shared = Shared::<(), _>::new(&dag, 1, |_| Ok(true));
        shared.resolution[0].store(REQUIRED, Ordering::SeqCst);
        shared.eval_state[0].store(RUNNING, Ordering::SeqCst);
        assert_eq!(shared.claim_speculation(), Some(1));
        assert_eq!(shared.claim_speculation(), Some(2));
    }

    /// A speculative claim on a node pruned after the claim is abandoned
    /// without invoking the evaluator at all.
    #[test]
    fn pruned_claim_is_abandoned_before_evaluating() {
        let dag = MonotoneDag::new(vec![vec![], vec![0]]);
        let evals = AtomicUsize::new(0);
        let shared = Shared::<(), _>::new(&dag, 1, |_| {
            evals.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        });
        // Simulate: worker claimed node 1 speculatively, then node 0's safe
        // verdict pruned node 1 before the evaluation started.
        shared.eval_state[1].store(RUNNING, Ordering::SeqCst);
        shared.resolution[1].store(PRUNED_SAFE, Ordering::SeqCst);
        shared.run_speculative(0, 1);
        assert_eq!(evals.load(Ordering::Relaxed), 0, "evaluator must not run");
        assert_eq!(shared.eval_state[1].load(Ordering::SeqCst), ABANDONED);
        assert_eq!(shared.abandoned.load(Ordering::Relaxed), 1);
        assert!(
            shared.results[1].lock().unwrap().is_none(),
            "no verdict may be parked for an abandoned claim"
        );
    }

    #[test]
    #[should_panic(expected = "topological index order")]
    fn rejects_forward_edges() {
        MonotoneDag::new(vec![vec![1], vec![]]);
    }
}
