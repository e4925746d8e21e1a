//! One-scan roll-up evaluation of lattice nodes.
//!
//! The paper's Section 3.3.3 complexity story is that re-analyzing a
//! bucketization sharing buckets with an already-analyzed one should cost
//! only the *new* buckets. The generalization lattice has exactly that
//! structure: a coarser node's buckets are unions of a finer node's buckets,
//! so its sensitive histograms are mergeable in `O(buckets)` without touching
//! table rows. [`NodeEvaluator`] exploits this:
//!
//! * Construction scans the table **once**, packing each row's base
//!   quasi-identifier codes into a single integer signature (no per-row heap
//!   allocation) and tallying sensitive counts per distinct signature — the
//!   bottom node's group table. Signatures are `u64` when the packed fields
//!   fit 64 bits and `u128` up to 128 bits; wider tables fail with
//!   [`HierarchyError::SignatureOverflow`] and callers fall back to the
//!   legacy re-scanning path.
//! * Any other node's histograms are derived without row access: from a
//!   memoized immediate predecessor by re-keying one dimension one level up,
//!   or — when eviction or out-of-order (work-stealing, speculative)
//!   evaluation has left no immediate predecessor behind — from the
//!   **coarsest retained ancestor**, re-keying each differing dimension
//!   through a composed parent map. The bottom table is always retained, so
//!   a source always exists. Either way the cost is `O(groups × dims)`, not
//!   `O(rows × dims)`.
//! * The memo is **weight-bounded** (see
//!   [`NodeEvaluator::with_memo_capacity`]): the budget counts retained
//!   *groups* (each group ≈ one packed signature plus its sensitive
//!   histogram — the actual bytes a node table holds), not entries, so one huge
//!   near-bottom table can't hide behind the same cap as a handful of tiny
//!   near-top ones. Past the budget the least-recently-touched node table is
//!   evicted, so deep lattices don't hold every node's group table.
//!   Derivation sources are a cache, not a correctness input — any ancestor
//!   yields bit-identical histograms in the same first-row-occurrence bucket
//!   order, so eviction never changes results.
//! * Results are [`HistogramSet`]s — the histogram-only surface `wcbk-core`'s
//!   criteria evaluate — in **exactly** the bucket order
//!   [`GeneralizationLattice::bucketize`] produces (first row occurrence),
//!   with identical histograms, so search outcomes are bit-for-bit the same.
//!   A node table *is* its set plus the signatures: it is built once, and
//!   re-evaluating a memoized node costs an `O(1)` clone, not a histogram
//!   per bucket.
//!
//! The evaluator is `Sync` (memo behind an `RwLock`, counters atomic), so
//! one instance serves all workers of the parallel lattice search.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use wcbk_core::{CoreError, HistogramSet, SensitiveHistogram};
use wcbk_table::{SValue, Table, TupleId};

use crate::scan::{self, MergeTallies, ScanResult, SigMap, Signature};
use crate::{GenNode, GeneralizationLattice, Hierarchy, HierarchyError};

/// Tuning for the single bottom-table scan a [`NodeEvaluator`] performs at
/// construction. Every setting is **bit-neutral**: the scan's output (and
/// therefore every histogram downstream) is identical at any thread count,
/// chunk size, or kernel choice — only throughput varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanOptions {
    /// Worker threads for the chunked scan. `0` picks the machine's
    /// available parallelism; `1` runs the kernel on the calling thread.
    /// Small tables (a single chunk) never spawn regardless.
    pub threads: usize,
    /// Rows per scan chunk (`0` = default 65 536).
    pub chunk_rows: usize,
    /// Use the pre-kernel row-at-a-time scan instead of the chunked
    /// columnar kernel — the equivalence/throughput baseline for tests and
    /// `bench_report --scale`.
    pub reference: bool,
}

impl ScanOptions {
    /// The thread count `0` resolves to: one worker per available core.
    fn effective_threads(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// One node's grouped view: a packed signature and a sensitive histogram per
/// bucket, in first-row-occurrence order (the `bucketize` bucket order).
///
/// The histograms are the node's [`HistogramSet`] itself, built once when
/// the table is: every evaluation of a memoized node shares it through an
/// `O(1)` clone, and successors are derived straight from its counts.
#[derive(Debug)]
struct NodeTable<S> {
    sigs: Vec<S>,
    /// The per-bucket histograms (`Err` only for a table with no rows).
    set: Result<HistogramSet, HierarchyError>,
}

impl<S: Signature> NodeTable<S> {
    /// Builds the table from `(value, count)` rows, one per signature.
    fn new(sigs: Vec<S>, counts: Vec<Vec<(SValue, u64)>>, domain_size: u32) -> Self {
        let set = if sigs.is_empty() {
            // Mirror `bucketize` on an empty table, which fails building the
            // (empty) partition.
            Err(HierarchyError::Table(
                CoreError::EmptyBucketization.to_string(),
            ))
        } else {
            let histograms: Vec<SensitiveHistogram> = counts
                .into_iter()
                .map(SensitiveHistogram::from_counts)
                .collect();
            HistogramSet::new(histograms, domain_size)
                .map_err(|e| HierarchyError::Table(e.to_string()))
        };
        Self { sigs, set }
    }

    /// Groups `source`'s buckets under re-keyed signatures, merging counts.
    /// First-occurrence order over `source` buckets preserves the row
    /// first-occurrence bucket order transitively — from *any* ancestor, so
    /// the derivation source never affects results.
    ///
    /// Group lookup is an open-addressed [`SigMap`]; count rows merge as
    /// dense arrays (small sensitive domains) or sorted runs — no hash
    /// re-insertion on either side.
    fn derive(source: &NodeTable<S>, domain_size: u32, rekey: impl Fn(S) -> S) -> NodeTable<S> {
        let mut index = SigMap::with_capacity(source.sigs.len());
        let mut tallies = MergeTallies::new(domain_size as usize);
        let histograms = source
            .set
            .as_ref()
            .map_or(&[][..], HistogramSet::histograms);
        for (&sig, histogram) in source.sigs.iter().zip(histograms) {
            let gi = index.get_or_insert(rekey(sig));
            tallies.add_unsorted(gi, histogram.iter_counts());
        }
        NodeTable::new(index.into_sigs(), tallies.finish(), domain_size)
    }
}

/// Counters describing how much work the roll-up pipeline actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupStats {
    /// Full table scans performed (always 1 — at construction).
    pub table_scans: u64,
    /// Node tables derived by merging (i.e. evaluated without row access).
    pub derived: u64,
    /// Derivations that could not re-key a memoized immediate predecessor
    /// and fell back to a retained (possibly bottom) ancestor instead.
    pub ancestor_derived: u64,
    /// Node evaluations answered straight from the memo.
    pub memo_hits: u64,
    /// Memoized node tables evicted to respect the group budget.
    pub evictions: u64,
    /// Node tables currently memoized (bottom excluded; it is kept
    /// separately and never evicted).
    pub memo_entries: usize,
    /// Total groups currently retained across memoized tables — the
    /// byte-ish weight the memo budget bounds (each group holds one packed
    /// signature plus its sensitive histogram). Bottom excluded.
    pub memo_groups: u64,
    /// Distinct signatures at the lattice bottom (the scan's output size).
    pub bottom_groups: usize,
    /// Wall-clock microseconds the construction-time bottom scan took.
    /// Schedule/machine-dependent: equivalence tests must not compare it.
    pub scan_micros: u64,
    /// Cumulative wall-clock microseconds spent deriving node tables
    /// (re-keying and merging, the `O(groups × dims)` roll-up work).
    pub derive_micros: u64,
    /// Cumulative wall-clock microseconds spent in
    /// [`NodeEvaluator::bottom_members`] passes (fetching the persons a
    /// disclosure witness names).
    pub member_micros: u64,
}

/// A memoized node table plus its last-touch tick for LRU eviction.
struct MemoEntry<S> {
    table: Arc<NodeTable<S>>,
    touch: AtomicU64,
}

/// The memo map plus the maintenance state kept in lockstep with it: a
/// by-height index so ancestor lookups never scan the whole map, and the
/// total retained group weight the eviction budget bounds.
struct Memo<S> {
    entries: HashMap<GenNode, MemoEntry<S>>,
    /// Height → memoized nodes at that height. The coarsest-retained-
    /// ancestor lookup walks heights downward from the target and stops at
    /// the first `⪯`-comparable node, instead of scanning every entry under
    /// the read lock.
    by_height: BTreeMap<usize, HashSet<GenNode>>,
    /// Σ group count over `entries` — the weight [`RollupStats::memo_groups`]
    /// reports and the budget bounds.
    groups: u64,
}

impl<S> Memo<S> {
    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            by_height: BTreeMap::new(),
            groups: 0,
        }
    }

    fn insert(&mut self, node: GenNode, entry: MemoEntry<S>, weight: u64) {
        self.groups += weight;
        self.by_height
            .entry(node.height())
            .or_default()
            .insert(node.clone());
        self.entries.insert(node, entry);
    }

    fn remove(&mut self, node: &GenNode) {
        if let Some(entry) = self.entries.remove(node) {
            self.groups -= entry.table.sigs.len() as u64;
            let height = node.height();
            if let Some(set) = self.by_height.get_mut(&height) {
                set.remove(node);
                if set.is_empty() {
                    self.by_height.remove(&height);
                }
            }
        }
    }
}

/// The signature-width-generic core of [`NodeEvaluator`].
struct RollupEngine<S> {
    /// The lattice the evaluator serves. Held by `Arc` so an evaluator can
    /// be **owned** alongside its lattice by long-lived callers (a
    /// `DatasetSession`) instead of borrowing from the stack.
    lattice: Arc<GeneralizationLattice>,
    domain_size: u32,
    /// Bit offset of each dimension's field within a packed signature.
    shifts: Vec<u32>,
    /// Field mask (already shifted down) of each dimension.
    masks: Vec<u64>,
    /// `parent_maps[d][l]`: dimension `d`'s level-`l` → level-`l+1` map.
    parent_maps: Vec<Vec<Vec<u32>>>,
    /// The bottom node's table, built by the single scan. Never evicted, so
    /// ancestor derivation always has a source.
    bottom: Arc<NodeTable<S>>,
    /// Each bottom group's first row, as the scan recorded it.
    bottom_first_rows: Vec<u32>,
    memo: RwLock<Memo<S>>,
    /// Group budget for `memo` (`None` = unbounded): total retained groups
    /// across memoized tables may not exceed it.
    capacity: Option<u64>,
    /// Monotone tick supplying `MemoEntry::touch` values.
    clock: AtomicU64,
    derived: AtomicU64,
    ancestor_derived: AtomicU64,
    memo_hits: AtomicU64,
    evictions: AtomicU64,
    /// Wall time of the construction-time bottom scan, in microseconds.
    scan_micros: u64,
    /// Per-chunk scan wall times in chunk index order (one entry for the
    /// reference or single-chunk scan).
    scan_chunk_micros: Vec<u64>,
    /// Cumulative derivation wall time, in microseconds.
    derive_micros: AtomicU64,
    /// Cumulative `bottom_members` wall time, in microseconds.
    member_micros: AtomicU64,
}

/// The per-dimension field layout, shared by both signature widths.
struct Layout {
    shifts: Vec<u32>,
    masks: Vec<u64>,
    total_bits: u32,
}

fn layout(lattice: &GeneralizationLattice) -> Layout {
    let n_dims = lattice.n_dims();
    let mut shifts = Vec::with_capacity(n_dims);
    let mut masks = Vec::with_capacity(n_dims);
    let mut total_bits: u32 = 0;
    for d in 0..n_dims {
        let h = lattice.hierarchy(d);
        // The field must hold group ids of *every* level (re-keying
        // writes coarser ids into the same slot).
        let max_groups = (0..h.n_levels()).map(|l| h.n_groups(l)).max().unwrap_or(1);
        let bits = bits_for(max_groups);
        shifts.push(total_bits);
        masks.push(if bits == 0 { 0 } else { (!0u64) >> (64 - bits) });
        total_bits += bits;
    }
    Layout {
        shifts,
        masks,
        total_bits,
    }
}

impl<S: Signature> RollupEngine<S> {
    /// Builds the engine with exactly one scan over `table`; the caller has
    /// already checked that `layout.total_bits <= S::BITS`.
    fn new(
        table: &Table,
        lattice: Arc<GeneralizationLattice>,
        layout: Layout,
        capacity: Option<usize>,
        scan: ScanOptions,
    ) -> Self {
        let n_dims = lattice.n_dims();
        debug_assert!(layout.total_bits <= S::BITS);
        let parent_maps: Vec<Vec<Vec<u32>>> = (0..n_dims)
            .map(|d| {
                let h: &Hierarchy = lattice.hierarchy(d);
                (0..h.n_levels() - 1).map(|l| h.parent_map(l)).collect()
            })
            .collect();

        // The single columnar scan: pack base codes, tally sensitive values.
        let columns: Vec<&[u32]> = (0..n_dims)
            .map(|d| table.column(lattice.column(d)).codes())
            .collect();
        let sensitive = table.sensitive_column().codes();
        let domain = table.sensitive_cardinality();
        let scan_started = std::time::Instant::now();
        let ScanResult {
            sigs,
            first_rows,
            counts,
            chunk_micros,
        } = if scan.reference {
            scan::scan_reference::<S>(&columns, &layout.shifts, &layout.masks, sensitive)
        } else {
            scan::scan_kernel::<S>(
                &columns,
                &layout.shifts,
                sensitive,
                domain,
                scan.chunk_rows,
                scan.effective_threads(),
            )
        };
        let scan_micros = scan_started.elapsed().as_micros() as u64;
        let bottom = Arc::new(NodeTable::new(sigs, counts, domain as u32));

        Self {
            lattice,
            domain_size: table.sensitive_cardinality() as u32,
            shifts: layout.shifts,
            masks: layout.masks,
            parent_maps,
            bottom,
            bottom_first_rows: first_rows,
            memo: RwLock::new(Memo::new()),
            capacity: capacity.map(|c| (c as u64).max(1)),
            clock: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            ancestor_derived: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            scan_micros,
            scan_chunk_micros: chunk_micros,
            derive_micros: AtomicU64::new(0),
            member_micros: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> RollupStats {
        let (memo_entries, memo_groups) = {
            let memo = self.memo.read().expect("rollup memo poisoned");
            (memo.entries.len(), memo.groups)
        };
        RollupStats {
            table_scans: 1,
            derived: self.derived.load(Ordering::Relaxed),
            ancestor_derived: self.ancestor_derived.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            memo_entries,
            memo_groups,
            bottom_groups: self.bottom.sigs.len(),
            scan_micros: self.scan_micros,
            derive_micros: self.derive_micros.load(Ordering::Relaxed),
            member_micros: self.member_micros.load(Ordering::Relaxed),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn histograms(&self, node: &GenNode) -> Result<HistogramSet, HierarchyError> {
        self.lattice.validate(node)?;
        self.node_table(node).set.clone()
    }

    /// See [`NodeEvaluator::bottom_members`].
    fn bottom_members(&self, table: &Table, requests: &[(usize, usize)]) -> Vec<Vec<TupleId>> {
        let started = std::time::Instant::now();
        let mut out: Vec<Vec<TupleId>> = requests
            .iter()
            .map(|&(group, n)| {
                let mut members = Vec::with_capacity(n);
                if n > 0 {
                    members.push(TupleId(self.bottom_first_rows[group]));
                }
                members
            })
            .collect();
        // Requests still short after their first row, keyed by signature:
        // `wanted` maps a signature to its slot in `pending`.
        let mut wanted = SigMap::with_capacity(requests.len());
        let mut pending: Vec<usize> = Vec::new();
        let mut start = table.n_rows();
        for (i, &(group, n)) in requests.iter().enumerate() {
            if n > 1 {
                let slot = wanted.get_or_insert(self.bottom.sigs[group]);
                debug_assert_eq!(slot, pending.len(), "requests name distinct groups");
                pending.push(i);
                start = start.min(self.bottom_first_rows[group] as usize + 1);
            }
        }
        let mut unfilled = pending.len();
        let columns: Vec<&[u32]> = (0..self.lattice.n_dims())
            .map(|d| table.column(self.lattice.column(d)).codes())
            .collect();
        let mut sigs = vec![S::zero(); MEMBER_BLOCK_ROWS.min(table.n_rows().saturating_sub(start))];
        while unfilled > 0 && start < table.n_rows() {
            let end = (start + MEMBER_BLOCK_ROWS).min(table.n_rows());
            let block = &mut sigs[..end - start];
            scan::pack_signatures(&columns, &self.shifts, start, block);
            for (offset, &sig) in block.iter().enumerate() {
                let Some(slot) = wanted.get(sig) else {
                    continue;
                };
                let i = pending[slot];
                let row = start + offset;
                let members = &mut out[i];
                if members.len() < requests[i].1 && row > members[0].index() {
                    members.push(TupleId(row as u32));
                    if members.len() == requests[i].1 {
                        unfilled -= 1;
                        if unfilled == 0 {
                            break;
                        }
                    }
                }
            }
            start = end;
        }
        debug_assert_eq!(unfilled, 0, "every request fits its group");
        self.member_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        out
    }

    fn histograms_subset(
        &self,
        dims: &[usize],
        levels: &[usize],
    ) -> Result<HistogramSet, HierarchyError> {
        let maps: Vec<(usize, &[u32])> = dims
            .iter()
            .zip(levels)
            .map(|(&d, &level)| (d, self.lattice.hierarchy(d).level_map(level)))
            .collect();
        let derive_started = std::time::Instant::now();
        let table = NodeTable::derive(&self.bottom, self.domain_size, |sig| {
            let mut out = S::zero();
            for &(d, map) in &maps {
                let base = sig.field(self.shifts[d], self.masks[d]);
                out = out.with_field(self.shifts[d], self.masks[d], map[base]);
            }
            out
        });
        self.derive_micros.fetch_add(
            derive_started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        self.derived.fetch_add(1, Ordering::Relaxed);
        table.set
    }

    /// The map taking dimension `d`'s level-`from` group ids to level-`to`
    /// ids: a stored single-step parent map, the hierarchy's base-level map,
    /// or a fold of the parent maps in between.
    fn cross_map(&self, d: usize, from: usize, to: usize) -> Cow<'_, [u32]> {
        debug_assert!(from < to);
        if to == from + 1 {
            return Cow::Borrowed(&self.parent_maps[d][from]);
        }
        if from == 0 {
            return Cow::Borrowed(self.lattice.hierarchy(d).level_map(to));
        }
        let mut map = self.parent_maps[d][from].clone();
        for l in from + 1..to {
            let step = &self.parent_maps[d][l];
            for g in map.iter_mut() {
                *g = step[*g as usize];
            }
        }
        Cow::Owned(map)
    }

    /// Fetches or derives `node`'s group table. Prefers re-keying a single
    /// dimension of a memoized immediate predecessor (`O(groups)`); falls
    /// back to the coarsest retained ancestor — ultimately the bottom table,
    /// which is never evicted.
    fn node_table(&self, node: &GenNode) -> Arc<NodeTable<S>> {
        if node.height() == 0 {
            return Arc::clone(&self.bottom);
        }
        // Source selection: memoized node itself → immediate predecessor →
        // coarsest retained ancestor → bottom.
        let mut source: Option<(Arc<NodeTable<S>>, GenNode)> = None;
        {
            let memo = self.memo.read().expect("rollup memo poisoned");
            if let Some(e) = memo.entries.get(node) {
                e.touch.store(self.tick(), Ordering::Relaxed);
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.table);
            }
            for d in 0..self.lattice.n_dims() {
                if node.0[d] == 0 {
                    continue;
                }
                let mut pred = node.clone();
                pred.0[d] -= 1;
                if pred.height() == 0 {
                    source = Some((Arc::clone(&self.bottom), pred));
                    break;
                }
                if let Some(e) = memo.entries.get(&pred) {
                    e.touch.store(self.tick(), Ordering::Relaxed);
                    source = Some((Arc::clone(&e.table), pred));
                    break;
                }
            }
            if source.is_none() {
                // Coarsest retained ancestor: any memoized strictly-finer
                // node works (derivation is source-independent); the highest
                // one needs the fewest merge steps. Walk the by-height index
                // downward and stop at the first `⪯`-comparable node — no
                // full-memo scan under the read lock. (A comparable node at
                // equal height would be `node` itself, already missed, so
                // strictly lower heights suffice.)
                'heights: for (_, nodes) in memo.by_height.range(..node.height()).rev() {
                    for cand in nodes {
                        if cand.le(node) {
                            let entry = &memo.entries[cand];
                            entry.touch.store(self.tick(), Ordering::Relaxed);
                            source = Some((Arc::clone(&entry.table), cand.clone()));
                            break 'heights;
                        }
                    }
                }
                self.ancestor_derived.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (src_table, src_node) =
            source.unwrap_or_else(|| (Arc::clone(&self.bottom), self.lattice.bottom()));

        // Re-key every dimension whose level differs, through (possibly
        // composed) parent maps.
        let derive_started = std::time::Instant::now();
        let maps: Vec<(u32, u64, Cow<'_, [u32]>)> = (0..self.lattice.n_dims())
            .filter(|&d| src_node.0[d] < node.0[d])
            .map(|d| {
                (
                    self.shifts[d],
                    self.masks[d],
                    self.cross_map(d, src_node.0[d], node.0[d]),
                )
            })
            .collect();
        let table = NodeTable::derive(&src_table, self.domain_size, |sig| {
            let mut out = sig;
            for (shift, mask, map) in &maps {
                let group = out.field(*shift, *mask);
                out = out.with_field(*shift, *mask, map[group]);
            }
            out
        });
        self.derive_micros.fetch_add(
            derive_started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        self.derived.fetch_add(1, Ordering::Relaxed);
        self.insert_memo(node.clone(), Arc::new(table))
    }

    /// Inserts under the group budget, evicting least-recently-touched
    /// tables (by total retained *group* count, the actual size, not entry
    /// count) until the newcomer fits. A table that alone exceeds the whole
    /// budget is served unmemoized rather than evicting everything for
    /// nothing. (The bottom table lives outside the memo and is exempt.)
    fn insert_memo(&self, node: GenNode, table: Arc<NodeTable<S>>) -> Arc<NodeTable<S>> {
        let weight = table.sigs.len() as u64;
        let mut memo = self.memo.write().expect("rollup memo poisoned");
        if let Some(existing) = memo.entries.get(&node) {
            // Lost a race with a concurrent deriver: keep the first insert.
            existing.touch.store(self.tick(), Ordering::Relaxed);
            return Arc::clone(&existing.table);
        }
        if let Some(budget) = self.capacity {
            if weight > budget {
                // It can never fit: don't flush everything else first.
                return table;
            }
            while memo.groups + weight > budget && !memo.entries.is_empty() {
                let victim = memo
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.touch.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        memo.remove(&k);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
            if memo.groups + weight > budget {
                return table;
            }
        }
        let touch = self.tick();
        memo.insert(
            node,
            MemoEntry {
                table: Arc::clone(&table),
                touch: AtomicU64::new(touch),
            },
            weight,
        );
        table
    }
}

/// Rows packed per block by [`NodeEvaluator::bottom_members`]: small enough
/// that a pass stopping early wastes little packing, large enough to keep
/// the columnar packing loop efficient.
const MEMBER_BLOCK_ROWS: usize = 4096;

/// The two signature widths an evaluator can run at.
enum Inner {
    Narrow(RollupEngine<u64>),
    Wide(RollupEngine<u128>),
}

/// Evaluates lattice nodes from one columnar table scan plus histogram
/// roll-ups — see the module docs.
///
/// The evaluator **owns** its lattice (behind an [`Arc`]), so it can
/// outlive the stack frame that built it — the shape long-lived dataset
/// sessions need to reuse one scan across many audits.
pub struct NodeEvaluator {
    inner: Inner,
}

impl NodeEvaluator {
    /// Builds the evaluator with exactly one scan over `table` and an
    /// unbounded memo (every derived node table is retained). The lattice
    /// is cloned into the evaluator; use [`NodeEvaluator::shared`] to hand
    /// over an existing [`Arc`] instead.
    ///
    /// Fails with [`HierarchyError::SignatureOverflow`] when the packed
    /// per-row signature does not fit 128 bits (callers then fall back to
    /// the row-scanning `bucketize` path).
    pub fn new(table: &Table, lattice: &GeneralizationLattice) -> Result<Self, HierarchyError> {
        Self::with_memo_capacity(table, lattice, None)
    }

    /// [`NodeEvaluator::new`] with a **group budget** on memoized node
    /// tables: `capacity = Some(n)` retains derived tables totalling at most
    /// `n.max(1)` groups (a group ≈ one packed signature plus its sensitive
    /// histogram — the actual bytes a table holds), evicting the
    /// least recently touched until the newcomer fits; a table that alone
    /// exceeds the whole budget is served unmemoized. Derivations that miss
    /// every immediate predecessor re-key the coarsest retained ancestor (at
    /// worst the bottom table, which is held outside the budget), so results
    /// are identical at any capacity — only derivation cost varies.
    pub fn with_memo_capacity(
        table: &Table,
        lattice: &GeneralizationLattice,
        capacity: Option<usize>,
    ) -> Result<Self, HierarchyError> {
        Self::shared(table, Arc::new(lattice.clone()), capacity)
    }

    /// [`NodeEvaluator::with_memo_capacity`] over a lattice the caller
    /// already shares by [`Arc`] — no clone, and the evaluator can be moved
    /// into long-lived owners alongside that `Arc`.
    pub fn shared(
        table: &Table,
        lattice: Arc<GeneralizationLattice>,
        capacity: Option<usize>,
    ) -> Result<Self, HierarchyError> {
        Self::shared_with_scan(table, lattice, capacity, ScanOptions::default())
    }

    /// [`NodeEvaluator::shared`] with explicit [`ScanOptions`] for the
    /// construction-time bottom scan. All settings are bit-neutral — the
    /// evaluator's results are identical at any thread count or chunk size;
    /// only construction throughput varies.
    pub fn shared_with_scan(
        table: &Table,
        lattice: Arc<GeneralizationLattice>,
        capacity: Option<usize>,
        scan: ScanOptions,
    ) -> Result<Self, HierarchyError> {
        let l = layout(&lattice);
        let inner = if l.total_bits <= u64::BITS {
            Inner::Narrow(RollupEngine::new(table, lattice, l, capacity, scan))
        } else if l.total_bits <= u128::BITS {
            Inner::Wide(RollupEngine::new(table, lattice, l, capacity, scan))
        } else {
            return Err(HierarchyError::SignatureOverflow { bits: l.total_bits });
        };
        Ok(Self { inner })
    }

    /// The lattice this evaluator serves.
    pub fn lattice(&self) -> &GeneralizationLattice {
        match &self.inner {
            Inner::Narrow(e) => &e.lattice,
            Inner::Wide(e) => &e.lattice,
        }
    }

    /// Whether signatures are packed into `u64` (`false`: the `u128`
    /// wide-table fallback is active).
    pub fn is_narrow(&self) -> bool {
        matches!(self.inner, Inner::Narrow(_))
    }

    /// Work counters (scan count, derivations, memo traffic, evictions).
    pub fn stats(&self) -> RollupStats {
        match &self.inner {
            Inner::Narrow(e) => e.stats(),
            Inner::Wide(e) => e.stats(),
        }
    }

    /// Per-chunk wall times of the construction-time bottom scan, in chunk
    /// index order (a single entry when the scan ran as one chunk or via
    /// the reference path). Sums to roughly CPU time, not wall time, when
    /// chunks ran in parallel.
    pub fn scan_chunk_micros(&self) -> &[u64] {
        match &self.inner {
            Inner::Narrow(e) => &e.scan_chunk_micros,
            Inner::Wide(e) => &e.scan_chunk_micros,
        }
    }

    /// The histograms `node` induces, in `bucketize` bucket order — derived
    /// by roll-up, never by re-scanning the table.
    pub fn histograms(&self, node: &GenNode) -> Result<HistogramSet, HierarchyError> {
        match &self.inner {
            Inner::Narrow(e) => e.histograms(node),
            Inner::Wide(e) => e.histograms(node),
        }
    }

    /// For each `(group, n)` request, the first `n` rows, in row order, of
    /// the lattice bottom's group `group` — that bucket's leading members
    /// in the order [`GeneralizationLattice::bucketize`] lists them, fetched
    /// without materializing the grouping. Answers are in request order.
    ///
    /// `table` must be the table the evaluator scanned, requests must name
    /// distinct groups, and `n` may not exceed the group's size. The scan
    /// recorded each group's first row, so a request for one member costs
    /// nothing; longer ones re-pack signatures from the earliest such row
    /// onward and stop as soon as every request is filled.
    pub fn bottom_members(&self, table: &Table, requests: &[(usize, usize)]) -> Vec<Vec<TupleId>> {
        match &self.inner {
            Inner::Narrow(e) => e.bottom_members(table, requests),
            Inner::Wide(e) => e.bottom_members(table, requests),
        }
    }

    /// The histograms of the projection onto `dims` at `levels` (the
    /// Incognito subset evaluation) — a single roll-up from the bottom
    /// table; other dimensions are treated as fully suppressed.
    pub fn histograms_subset(
        &self,
        dims: &[usize],
        levels: &[usize],
    ) -> Result<HistogramSet, HierarchyError> {
        let lattice = self.lattice();
        if dims.len() != levels.len() {
            return Err(HierarchyError::DimensionMismatch {
                expected: dims.len(),
                found: levels.len(),
            });
        }
        for (&d, &level) in dims.iter().zip(levels) {
            if d >= lattice.n_dims() {
                return Err(HierarchyError::DimensionMismatch {
                    expected: lattice.n_dims(),
                    found: d + 1,
                });
            }
            if level >= lattice.hierarchy(d).n_levels() {
                return Err(HierarchyError::LevelOutOfRange {
                    attribute: d,
                    level,
                    n_levels: lattice.hierarchy(d).n_levels(),
                });
            }
        }
        match &self.inner {
            Inner::Narrow(e) => e.histograms_subset(dims, levels),
            Inner::Wide(e) => e.histograms_subset(dims, levels),
        }
    }
}

/// Bits needed to represent group ids `0..n` (0 for a single-group domain).
fn bits_for(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::hospital_table;

    fn hospital_lattice() -> (Table, GeneralizationLattice) {
        let table = hospital_table();
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let sex = table.column(3).dictionary().clone();
        let lattice = GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap();
        (table, lattice)
    }

    /// The roll-up result must equal the scan result at EVERY node: same
    /// bucket count, same bucket order, same histograms.
    #[test]
    fn rollup_matches_bucketize_at_every_node() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        for node in lattice.nodes() {
            let rolled = eval.histograms(&node).unwrap();
            let scanned = lattice.bucketize(&table, &node).unwrap();
            assert_eq!(rolled.n_buckets(), scanned.n_buckets(), "node {node}");
            assert_eq!(rolled.domain_size(), scanned.domain_size());
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                assert_eq!(
                    &rolled.histograms()[i],
                    bucket.histogram(),
                    "node {node} bucket {i}"
                );
            }
        }
    }

    #[test]
    fn single_scan_and_derivations_counted() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        for node in lattice.nodes() {
            eval.histograms(&node).unwrap();
        }
        // Repeat: everything above the bottom now memoized.
        for node in lattice.nodes() {
            eval.histograms(&node).unwrap();
        }
        let stats = eval.stats();
        assert_eq!(stats.table_scans, 1);
        assert_eq!(stats.derived as usize, lattice.n_nodes() - 1);
        assert_eq!(stats.memo_hits as usize, lattice.n_nodes() - 1);
        assert_eq!(stats.memo_entries, lattice.n_nodes() - 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.bottom_groups, 10); // hospital rows are all distinct
                                             // Unbounded memo: the retained weight is the sum of every derived
                                             // table's group count — at least one group per entry, at most the
                                             // bottom's group count each.
        assert!(stats.memo_groups >= stats.memo_entries as u64);
        assert!(stats.memo_groups <= (stats.memo_entries * stats.bottom_groups) as u64);
    }

    /// A budgeted memo evicts, falls back to ancestor derivation, and still
    /// produces histograms identical to `bucketize` at every node — in any
    /// evaluation order. The budget counts retained groups, so entries ≤
    /// groups ≤ budget throughout.
    #[test]
    fn capped_memo_evicts_and_stays_correct() {
        let (table, lattice) = hospital_lattice();
        let mut total_evictions = 0u64;
        for cap in [1usize, 2, 3, 8] {
            let eval = NodeEvaluator::with_memo_capacity(&table, &lattice, Some(cap)).unwrap();
            // Top-down order maximizes memo misses (predecessors evaluated
            // after successors), then bottom-up for coverage.
            let mut nodes = lattice.nodes();
            nodes.reverse();
            let forward = lattice.nodes();
            for node in nodes.iter().chain(&forward) {
                let rolled = eval.histograms(node).unwrap();
                let scanned = lattice.bucketize(&table, node).unwrap();
                assert_eq!(rolled.n_buckets(), scanned.n_buckets(), "cap {cap} {node}");
                for (i, bucket) in scanned.buckets().iter().enumerate() {
                    assert_eq!(
                        &rolled.histograms()[i],
                        bucket.histogram(),
                        "cap {cap} node {node} bucket {i}"
                    );
                }
            }
            let stats = eval.stats();
            assert!(stats.memo_groups <= cap as u64, "cap {cap}: {stats:?}");
            assert!(stats.memo_entries as u64 <= stats.memo_groups);
            // A cap that admits only one table may legitimately never evict
            // (oversized tables bail out before touching the memo), so
            // eviction is asserted across the cap sweep, not per cap.
            total_evictions += stats.evictions;
            assert!(
                stats.ancestor_derived > 0,
                "cap {cap} never used the ancestor fallback: {stats:?}"
            );
        }
        assert!(total_evictions > 0, "no cap in the sweep ever evicted");
    }

    /// The budget is weighed in groups, not entries: a table bigger than the
    /// whole budget is served unmemoized (it would evict everything and
    /// still not fit), while small coarse tables are retained and re-served.
    #[test]
    fn group_weight_budget_skips_oversized_tables() {
        let (table, lattice) = hospital_lattice();
        let budget = 5usize;
        let eval = NodeEvaluator::with_memo_capacity(&table, &lattice, Some(budget)).unwrap();
        let fine = lattice
            .nodes()
            .into_iter()
            .find(|n| n.height() > 0 && lattice.bucketize(&table, n).unwrap().n_buckets() > budget)
            .expect("hospital lattice has a non-bottom node with > 5 buckets");
        eval.histograms(&fine).unwrap();
        let after_fine = eval.stats();
        assert_eq!(after_fine.memo_entries, 0, "{after_fine:?}");
        assert_eq!(after_fine.memo_groups, 0, "{after_fine:?}");
        // The top table (1 group) fits, is memoized, and is re-served.
        eval.histograms(&lattice.top()).unwrap();
        assert_eq!(eval.stats().memo_entries, 1);
        let hits_before = eval.stats().memo_hits;
        eval.histograms(&lattice.top()).unwrap();
        let stats = eval.stats();
        assert_eq!(stats.memo_hits, hits_before + 1);
        assert!(stats.memo_groups <= budget as u64, "{stats:?}");
        // A second oversized derivation must not flush what is retained:
        // it can never fit, so nothing is evicted for it.
        eval.histograms(&fine).unwrap();
        let stats = eval.stats();
        assert_eq!(stats.memo_entries, 1, "{stats:?}");
        assert_eq!(stats.evictions, 0, "{stats:?}");
    }

    /// A node's histogram set is built once and kept with its table:
    /// repeated requests return equal sets at any memo budget — unbounded,
    /// one group, and a budget that evicts — and, while the table stays
    /// memoized, the very same shared buckets.
    #[test]
    fn repeated_requests_return_the_memoized_set() {
        let (table, lattice) = hospital_lattice();
        for cap in [None, Some(1usize), Some(6)] {
            let eval = NodeEvaluator::with_memo_capacity(&table, &lattice, cap).unwrap();
            let first: Vec<HistogramSet> = lattice
                .nodes()
                .iter()
                .map(|n| eval.histograms(n).unwrap())
                .collect();
            for round in 0..2 {
                let mut nodes = lattice.nodes();
                if round == 1 {
                    nodes.reverse();
                }
                for node in &nodes {
                    let i = lattice.nodes().iter().position(|n| n == node).unwrap();
                    let again = eval.histograms(node).unwrap();
                    assert_eq!(again, first[i], "cap {cap:?} round {round} node {node}");
                }
            }
            if cap.is_none() {
                for (node, set) in lattice.nodes().iter().zip(&first) {
                    let again = eval.histograms(node).unwrap();
                    assert!(std::ptr::eq(again.histograms(), set.histograms()), "{node}");
                }
            }
            if cap == Some(6) {
                assert!(eval.stats().evictions > 0, "{:?}", eval.stats());
            }
        }
    }

    /// `Some(0)` behaves as a 1-group budget rather than thrashing or
    /// panicking.
    #[test]
    fn zero_capacity_is_clamped() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::with_memo_capacity(&table, &lattice, Some(0)).unwrap();
        for node in lattice.nodes() {
            let rolled = eval.histograms(&node).unwrap();
            let scanned = lattice.bucketize(&table, &node).unwrap();
            assert_eq!(rolled.n_buckets(), scanned.n_buckets());
        }
        assert!(eval.stats().memo_entries <= 1);
    }

    #[test]
    fn subset_matches_bucketize_subset() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0], vec![0]),
            (vec![1], vec![1]),
            (vec![2], vec![0]),
            (vec![0, 2], vec![1, 0]),
            (vec![0, 1, 2], vec![0, 2, 1]),
        ];
        for (dims, levels) in cases {
            let rolled = eval.histograms_subset(&dims, &levels).unwrap();
            let scanned = lattice.bucketize_subset(&table, &dims, &levels).unwrap();
            assert_eq!(
                rolled.n_buckets(),
                scanned.n_buckets(),
                "{dims:?}/{levels:?}"
            );
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                assert_eq!(&rolled.histograms()[i], bucket.histogram());
            }
        }
    }

    #[test]
    fn validates_nodes_and_subsets() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        assert!(matches!(
            eval.histograms(&GenNode(vec![0, 0])),
            Err(HierarchyError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            eval.histograms(&GenNode(vec![0, 9, 0])),
            Err(HierarchyError::LevelOutOfRange { .. })
        ));
        assert!(matches!(
            eval.histograms_subset(&[0, 1], &[0]),
            Err(HierarchyError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            eval.histograms_subset(&[7], &[0]),
            Err(HierarchyError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            eval.histograms_subset(&[1], &[9]),
            Err(HierarchyError::LevelOutOfRange { .. })
        ));
    }

    /// 65–128 bits of packed codes now run on the `u128` representation
    /// instead of falling back to row scans: 70 copies of the 1-bit Sex
    /// dimension must produce `bucketize`-identical histograms.
    #[test]
    fn wide_signatures_use_u128() {
        let table = hospital_table();
        let sex = table.column(3).dictionary().clone();
        let dims: Vec<(usize, Hierarchy)> = (0..70)
            .map(|_| (3usize, Hierarchy::suppression("Sex", &sex)))
            .collect();
        let lattice = GeneralizationLattice::new(dims).unwrap();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        assert!(!eval.is_narrow(), "70 bits should select the u128 engine");
        // The full 2^70-node lattice is unenumerable; spot-check a mixed
        // sample of nodes against the row-scanning baseline.
        let mut nodes = vec![lattice.bottom(), lattice.top()];
        nodes.push(GenNode((0..70).map(|d| usize::from(d % 2 == 0)).collect()));
        nodes.push(GenNode((0..70).map(|d| usize::from(d < 35)).collect()));
        nodes.push(GenNode((0..70).map(|d| usize::from(d == 69)).collect()));
        for node in &nodes {
            let rolled = eval.histograms(node).unwrap();
            let scanned = lattice.bucketize(&table, node).unwrap();
            assert_eq!(rolled.n_buckets(), scanned.n_buckets(), "node {node}");
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                assert_eq!(&rolled.histograms()[i], bucket.histogram(), "{node}/{i}");
            }
        }
        assert_eq!(eval.stats().table_scans, 1);
    }

    #[test]
    fn narrow_signatures_stay_u64() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        assert!(eval.is_narrow());
    }

    /// Beyond 128 bits the evaluator still fails cleanly (callers fall back
    /// to the row-scanning path).
    #[test]
    fn very_wide_signatures_overflow_cleanly() {
        let table = hospital_table();
        let sex = table.column(3).dictionary().clone();
        let dims: Vec<(usize, Hierarchy)> = (0..130)
            .map(|_| (3usize, Hierarchy::suppression("Sex", &sex)))
            .collect();
        let lattice = GeneralizationLattice::new(dims).unwrap();
        assert!(matches!(
            NodeEvaluator::new(&table, &lattice),
            Err(HierarchyError::SignatureOverflow { bits: 130 })
        ));
    }

    /// Every bottom group's members as `bucketize` lists them, asked for
    /// all at once and as every single prefix.
    fn assert_bottom_members(table: &Table, lattice: &GeneralizationLattice, eval: &NodeEvaluator) {
        let exact = lattice.bucketize(table, &lattice.bottom()).unwrap();
        let all: Vec<(usize, usize)> = exact
            .buckets()
            .iter()
            .enumerate()
            .map(|(g, b)| (g, b.members().len()))
            .collect();
        let members = eval.bottom_members(table, &all);
        for (g, bucket) in exact.buckets().iter().enumerate() {
            assert_eq!(members[g], bucket.members(), "group {g}");
            for n in 0..=bucket.members().len() {
                assert_eq!(
                    eval.bottom_members(table, &[(g, n)]),
                    vec![bucket.members()[..n].to_vec()],
                    "group {g} prefix {n}"
                );
            }
        }
        // Requests out of group order answer in request order.
        let reversed: Vec<(usize, usize)> = all.iter().rev().copied().collect();
        let mut answers = eval.bottom_members(table, &reversed);
        answers.reverse();
        assert_eq!(answers, members);
    }

    #[test]
    fn bottom_members_match_bucketize() {
        let (table, lattice) = hospital_lattice();
        let eval = NodeEvaluator::new(&table, &lattice).unwrap();
        assert_bottom_members(&table, &lattice, &eval);

        // Many rows per group, in runs of three equal rows (so a group's
        // next member can sit right after its first row), scanned in small
        // chunks over two threads so the recorded first rows come through
        // the chunk merge.
        let schema = table.schema().clone();
        let mut builder = wcbk_table::TableBuilder::new(schema);
        for r in 0..500usize {
            let q = r / 3;
            let age = (20 + (q * 7) % 13).to_string();
            let zip = format!("1300{}", (q * 3) % 5);
            let sex = if q % 11 < 4 { "F" } else { "M" };
            let disease = ["Flu", "Cold", "Cancer"][r % 3];
            builder
                .push_row(&[format!("p{r}").as_str(), &zip, &age, sex, disease])
                .unwrap();
        }
        let big = builder.build();
        let zip = big.column(1).dictionary().clone();
        let age = big.column(2).dictionary().clone();
        let sex = big.column(3).dictionary().clone();
        let lattice = GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap();
        let scan = ScanOptions {
            threads: 2,
            chunk_rows: 37,
            reference: false,
        };
        let eval =
            NodeEvaluator::shared_with_scan(&big, Arc::new(lattice.clone()), None, scan).unwrap();
        assert_bottom_members(&big, &lattice, &eval);

        // The same over `u128` signatures (70 one-bit fields).
        let dims: Vec<(usize, Hierarchy)> = (0..70)
            .map(|_| (3usize, Hierarchy::suppression("Sex", &sex)))
            .chain([(2usize, Hierarchy::intervals("Age", &age, &[5]).unwrap())])
            .collect();
        let wide = GeneralizationLattice::new(dims).unwrap();
        let eval =
            NodeEvaluator::shared_with_scan(&big, Arc::new(wide.clone()), None, scan).unwrap();
        assert!(!eval.is_narrow());
        assert_bottom_members(&big, &wide, &eval);
    }

    #[test]
    fn bits_for_edges() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(1 << 20), 20);
    }
}
