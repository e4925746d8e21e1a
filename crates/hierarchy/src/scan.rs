//! The bottom-scan kernel: chunked columnar signature packing and tallying.
//!
//! [`NodeEvaluator`](crate::NodeEvaluator) construction performs exactly one
//! scan over the table. This module is that scan, rebuilt for million-row
//! tables:
//!
//! * **Batch packing** ([`pack_signatures`]): instead of a per-row chain of
//!   `with_field` calls, each dimension is OR-packed in its own pass over the
//!   contiguous `u32` code slice, with a fixed-width 8-row inner lane the
//!   compiler can autovectorize. Base-level codes always fit their field
//!   (the layout sizes each field for the *largest* level), so packing is a
//!   shift-and-OR — no masking on the write path.
//! * **Open-addressed group index** ([`SigMap`]): the per-row group lookup
//!   drops `std::collections::HashMap` (SipHash per probe) for a linear-probe
//!   table keyed by a multiply-shift hash of the packed signature. Insertion
//!   order is the group order, which keeps the first-row-occurrence bucket
//!   order `bucketize` defines. Each group's first row is recorded as it
//!   is inserted, so a later member pass (witness persons) starts there.
//! * **Dense tallies** ([`ScanTallies`] / [`MergeTallies`]): sensitive counts
//!   accumulate into a flat `groups × domain` array when the sensitive domain
//!   is small (the common case — e.g. 14 occupations), falling back to
//!   sorted-run merges for large domains. Either way the output is the same
//!   value-sorted `(SValue, count)` rows the roll-up pipeline stores.
//! * **Chunked parallelism** ([`scan_kernel`]): rows are split into
//!   contiguous chunks scanned independently (each worker owns its packing
//!   buffer, map, and tallies), then partial results merge **in chunk index
//!   order**. A signature's global group position is therefore its first
//!   occurrence across the row order — bit-identical to the sequential scan
//!   at every chunk size and thread count.
//!
//! The pre-kernel row-at-a-time scan survives as [`scan_reference`]; it is
//! the equivalence baseline for proptests and the in-run ratio
//! `bench_report --scale` publishes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wcbk_table::SValue;

/// A packed per-row quasi-identifier signature: one bit field per dimension,
/// wide enough for that dimension's largest per-level group id.
pub(crate) trait Signature: Copy + Eq + Hash + Send + Sync + 'static {
    /// Total bits available in this representation.
    const BITS: u32;
    fn zero() -> Self;
    /// Extracts the field at `shift` under `mask` as a group index.
    fn field(self, shift: u32, mask: u64) -> usize;
    /// Replaces the field at `shift` under `mask` with `group`.
    fn with_field(self, shift: u32, mask: u64, group: u32) -> Self;
    /// ORs `code` into the (all-zero) field at `shift` — the packing fast
    /// path; callers guarantee the field is zero and `code` fits it.
    fn or_field(self, shift: u32, code: u32) -> Self;
    /// Folds the signature to 64 bits for the open-addressed group index.
    fn hash64(self) -> u64;
}

impl Signature for u64 {
    const BITS: u32 = 64;

    fn zero() -> Self {
        0
    }

    #[inline]
    fn field(self, shift: u32, mask: u64) -> usize {
        ((self >> shift) & mask) as usize
    }

    #[inline]
    fn with_field(self, shift: u32, mask: u64, group: u32) -> Self {
        (self & !(mask << shift)) | (u64::from(group) << shift)
    }

    #[inline]
    fn or_field(self, shift: u32, code: u32) -> Self {
        self | (u64::from(code) << shift)
    }

    #[inline]
    fn hash64(self) -> u64 {
        self
    }
}

impl Signature for u128 {
    const BITS: u32 = 128;

    fn zero() -> Self {
        0
    }

    #[inline]
    fn field(self, shift: u32, mask: u64) -> usize {
        ((self >> shift) as u64 & mask) as usize
    }

    #[inline]
    fn with_field(self, shift: u32, mask: u64, group: u32) -> Self {
        (self & !(u128::from(mask) << shift)) | (u128::from(group) << shift)
    }

    #[inline]
    fn or_field(self, shift: u32, code: u32) -> Self {
        // A `u128` shift handles fields straddling the 64-bit boundary
        // (shift < 64 < shift + bits) in one operation.
        self | (u128::from(code) << shift)
    }

    #[inline]
    fn hash64(self) -> u64 {
        (self as u64) ^ ((self >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Inner lane width of the packing loop. Eight rows of `u64` fill one
/// 512-bit vector register; the fixed trip count lets the compiler unroll
/// and vectorize without a runtime remainder check per row.
const LANES: usize = 8;

/// OR-packs one dimension's codes into `sigs` at `shift`, 8 rows per lane.
#[inline]
fn or_pack<S: Signature>(sigs: &mut [S], codes: &[u32], shift: u32) {
    debug_assert_eq!(sigs.len(), codes.len());
    let mut sig_lanes = sigs.chunks_exact_mut(LANES);
    let mut code_lanes = codes.chunks_exact(LANES);
    for (s, c) in (&mut sig_lanes).zip(&mut code_lanes) {
        for j in 0..LANES {
            s[j] = s[j].or_field(shift, c[j]);
        }
    }
    for (s, &c) in sig_lanes
        .into_remainder()
        .iter_mut()
        .zip(code_lanes.remainder())
    {
        *s = s.or_field(shift, c);
    }
}

/// Packs rows `start..start + out.len()` into `out`, one columnar pass per
/// dimension over its contiguous code slice.
pub(crate) fn pack_signatures<S: Signature>(
    columns: &[&[u32]],
    shifts: &[u32],
    start: usize,
    out: &mut [S],
) {
    for sig in out.iter_mut() {
        *sig = S::zero();
    }
    for (codes, &shift) in columns.iter().zip(shifts) {
        or_pack(out, &codes[start..start + out.len()], shift);
    }
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Fibonacci multiplier for the multiply-shift slot hash.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An insertion-ordered signature → group-index map with open addressing
/// (linear probing over a power-of-two slot array). Insertion order is the
/// group order, which is what makes the scan's output bucket order equal
/// `bucketize`'s first-row-occurrence order.
pub(crate) struct SigMap<S> {
    /// Groups in first-insertion order.
    sigs: Vec<S>,
    /// Slot array: group index or `EMPTY_SLOT`.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`, so `hash >> shift` is a slot index.
    shift: u32,
}

impl<S: Signature> SigMap<S> {
    pub(crate) fn with_capacity(groups: usize) -> Self {
        let slots = (groups.max(8).saturating_mul(8) / 7)
            .next_power_of_two()
            .max(16);
        Self {
            sigs: Vec::with_capacity(groups),
            slots: vec![EMPTY_SLOT; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sigs.len()
    }

    #[cfg(test)]
    pub(crate) fn sigs(&self) -> &[S] {
        &self.sigs
    }

    pub(crate) fn into_sigs(self) -> Vec<S> {
        self.sigs
    }

    /// The group index of `sig`, if it has been inserted.
    #[inline]
    pub(crate) fn get(&self, sig: S) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (sig.hash64().wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let g = self.slots[i];
            if g == EMPTY_SLOT {
                return None;
            }
            if self.sigs[g as usize] == sig {
                return Some(g as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// The group index of `sig`, inserting it as a new group when unseen.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, sig: S) -> usize {
        // Keep load factor under 7/8 (checked before probing so the probe
        // loop always finds an empty slot).
        if (self.sigs.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (sig.hash64().wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let g = self.slots[i];
            if g == EMPTY_SLOT {
                let gi = self.sigs.len();
                self.slots[i] = gi as u32;
                self.sigs.push(sig);
                return gi;
            }
            if self.sigs[g as usize] == sig {
                return g as usize;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let slots = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(slots, EMPTY_SLOT);
        self.shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        for (gi, sig) in self.sigs.iter().enumerate() {
            let mut i = (sig.hash64().wrapping_mul(HASH_MUL) >> self.shift) as usize;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = gi as u32;
        }
    }
}

/// Sensitive domains up to this cardinality tally into dense per-group rows
/// (`domain × 8` bytes per group); larger domains use sorted sparse rows.
/// The paper's workloads sit far below this (hospital: 4, Adult: 14).
pub(crate) const DENSE_DOMAIN_MAX: usize = 64;

/// Per-row tally accumulator for the scan: dense rows for small sensitive
/// domains, unsorted append (sorted and aggregated at `finish`) otherwise.
pub(crate) struct ScanTallies {
    domain: usize,
    dense: bool,
    /// Group-major flat dense counts (`dense` only).
    flat: Vec<u64>,
    /// Per-group unsorted `(value, 1)` appends (sparse only).
    rows: Vec<Vec<(SValue, u64)>>,
    n_groups: usize,
}

impl ScanTallies {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            domain,
            dense: domain > 0 && domain <= DENSE_DOMAIN_MAX,
            flat: Vec::new(),
            rows: Vec::new(),
            n_groups: 0,
        }
    }

    /// Adds one row with sensitive `value` to `group`. `group` is at most
    /// the current group count (i.e. groups appear in index order).
    #[inline]
    pub(crate) fn bump(&mut self, group: usize, value: SValue) {
        if group == self.n_groups {
            self.n_groups += 1;
            if self.dense {
                self.flat.resize(self.n_groups * self.domain, 0);
            } else {
                self.rows.push(Vec::new());
            }
        }
        if self.dense {
            self.flat[group * self.domain + value.index()] += 1;
        } else {
            self.rows[group].push((value, 1));
        }
    }

    /// Value-sorted `(value, count)` rows per group.
    pub(crate) fn finish(self) -> Vec<Vec<(SValue, u64)>> {
        if self.dense {
            dense_to_sorted(&self.flat, self.domain, self.n_groups)
        } else {
            self.rows
                .into_iter()
                .map(|mut row| {
                    row.sort_unstable_by_key(|&(value, _)| value);
                    aggregate_sorted(&mut row);
                    row
                })
                .collect()
        }
    }
}

/// Tally accumulator for merges (chunk merge, node derivation). Chunk rows
/// arrive value-sorted, so the sparse fallback is a linear two-pointer merge
/// — no hash re-insertion anywhere; histogram rows arrive in frequency
/// order and are sorted into a scratch row first.
pub(crate) struct MergeTallies {
    domain: usize,
    dense: bool,
    flat: Vec<u64>,
    rows: Vec<Vec<(SValue, u64)>>,
    n_groups: usize,
    /// Reused sort buffer for [`MergeTallies::add_unsorted`] (sparse only).
    scratch: Vec<(SValue, u64)>,
}

impl MergeTallies {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            domain,
            dense: domain > 0 && domain <= DENSE_DOMAIN_MAX,
            flat: Vec::new(),
            rows: Vec::new(),
            n_groups: 0,
            scratch: Vec::new(),
        }
    }

    /// Opens `group` if it is the next new one (groups appear in index
    /// order).
    fn open(&mut self, group: usize) {
        if group == self.n_groups {
            self.n_groups += 1;
            if self.dense {
                self.flat.resize(self.n_groups * self.domain, 0);
            } else {
                self.rows.push(Vec::new());
            }
        }
    }

    fn add_dense(&mut self, group: usize, pairs: impl IntoIterator<Item = (SValue, u64)>) {
        let row = &mut self.flat[group * self.domain..(group + 1) * self.domain];
        for (value, count) in pairs {
            row[value.index()] += count;
        }
    }

    /// Merges a value-sorted count row into `group`.
    pub(crate) fn add_sorted(&mut self, group: usize, pairs: &[(SValue, u64)]) {
        self.open(group);
        if self.dense {
            self.add_dense(group, pairs.iter().copied());
        } else {
            merge_sorted(&mut self.rows[group], pairs);
        }
    }

    /// Merges `(value, count)` pairs with distinct values, in any order,
    /// into `group`.
    pub(crate) fn add_unsorted(
        &mut self,
        group: usize,
        pairs: impl IntoIterator<Item = (SValue, u64)>,
    ) {
        self.open(group);
        if self.dense {
            self.add_dense(group, pairs);
        } else {
            let Self { rows, scratch, .. } = self;
            scratch.clear();
            scratch.extend(pairs);
            scratch.sort_unstable_by_key(|&(value, _)| value);
            merge_sorted(&mut rows[group], scratch);
        }
    }

    /// Value-sorted `(value, count)` rows per group.
    pub(crate) fn finish(self) -> Vec<Vec<(SValue, u64)>> {
        if self.dense {
            dense_to_sorted(&self.flat, self.domain, self.n_groups)
        } else {
            self.rows
        }
    }
}

/// Converts flat dense rows to sparse value-sorted rows (ascending value
/// iteration yields the sorted order for free).
fn dense_to_sorted(flat: &[u64], domain: usize, n_groups: usize) -> Vec<Vec<(SValue, u64)>> {
    (0..n_groups)
        .map(|g| {
            flat[g * domain..(g + 1) * domain]
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(value, &count)| (SValue(value as u32), count))
                .collect()
        })
        .collect()
}

/// Collapses equal-value runs of a value-sorted row in place.
fn aggregate_sorted(row: &mut Vec<(SValue, u64)>) {
    let mut out = 0;
    for i in 0..row.len() {
        if out > 0 && row[out - 1].0 == row[i].0 {
            row[out - 1].1 += row[i].1;
        } else {
            row[out] = row[i];
            out += 1;
        }
    }
    row.truncate(out);
}

/// Two-pointer merge of value-sorted count rows: `dst += src`.
fn merge_sorted(dst: &mut Vec<(SValue, u64)>, src: &[(SValue, u64)]) {
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        match dst[i].0.cmp(&src[j].0) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push((dst[i].0, dst[i].1 + src[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// The scan's output: distinct signatures in first-row-occurrence order,
/// each group's first row and value-sorted sensitive count row, plus
/// per-chunk wall timings (one entry per chunk in chunk index order; a
/// single entry for the reference or single-chunk scan) for phase
/// profiling.
pub(crate) struct ScanResult<S> {
    pub(crate) sigs: Vec<S>,
    pub(crate) first_rows: Vec<u32>,
    pub(crate) counts: Vec<Vec<(SValue, u64)>>,
    pub(crate) chunk_micros: Vec<u64>,
}

/// One chunk's partial scan, in the chunk's own first-occurrence order.
struct ChunkScan<S> {
    sigs: Vec<S>,
    /// Each group's first row (a table row index, not chunk-local).
    first_rows: Vec<u32>,
    counts: Vec<Vec<(SValue, u64)>>,
    /// Wall time this chunk's scan took, in microseconds.
    micros: u64,
}

/// Default rows per chunk: large enough to amortize per-chunk map and tally
/// setup, small enough that per-chunk buffers stay cache- and
/// memory-friendly.
pub(crate) const DEFAULT_CHUNK_ROWS: usize = 65_536;

fn scan_chunk<S: Signature>(
    columns: &[&[u32]],
    shifts: &[u32],
    sensitive: &[u32],
    domain: usize,
    start: usize,
    end: usize,
) -> ChunkScan<S> {
    let started = std::time::Instant::now();
    let mut sig_buf = vec![S::zero(); end - start];
    pack_signatures(columns, shifts, start, &mut sig_buf);
    let mut map = SigMap::with_capacity((end - start).min(1024));
    let mut tallies = ScanTallies::new(domain);
    let mut first_rows = Vec::new();
    for (i, &sig) in sig_buf.iter().enumerate() {
        let group = map.get_or_insert(sig);
        if group == first_rows.len() {
            first_rows.push((start + i) as u32);
        }
        tallies.bump(group, SValue(sensitive[start + i]));
    }
    ChunkScan {
        sigs: map.into_sigs(),
        first_rows,
        counts: tallies.finish(),
        micros: started.elapsed().as_micros() as u64,
    }
}

/// Merges per-chunk partials **in chunk index order**: a signature's global
/// group position is its first occurrence over the whole row order, so the
/// merged result is bit-identical to a single sequential scan.
fn merge_chunks<S: Signature>(chunks: Vec<ChunkScan<S>>, domain: usize) -> ScanResult<S> {
    let groups_hint = chunks.iter().map(|c| c.sigs.len()).max().unwrap_or(0);
    let chunk_micros: Vec<u64> = chunks.iter().map(|c| c.micros).collect();
    let mut map = SigMap::with_capacity(groups_hint);
    let mut tallies = MergeTallies::new(domain);
    let mut first_rows = Vec::with_capacity(groups_hint);
    for chunk in chunks {
        for (local, sig) in chunk.sigs.into_iter().enumerate() {
            let group = map.get_or_insert(sig);
            if group == first_rows.len() {
                first_rows.push(chunk.first_rows[local]);
            }
            tallies.add_sorted(group, &chunk.counts[local]);
        }
    }
    ScanResult {
        sigs: map.into_sigs(),
        first_rows,
        counts: tallies.finish(),
        chunk_micros,
    }
}

/// The chunked columnar scan. `threads == 1` (or a single chunk) runs
/// entirely on the calling thread; otherwise `threads` workers claim chunks
/// from a shared counter and the partials merge deterministically. Output is
/// bit-identical across every `chunk_rows`/`threads` combination.
pub(crate) fn scan_kernel<S: Signature>(
    columns: &[&[u32]],
    shifts: &[u32],
    sensitive: &[u32],
    domain: usize,
    chunk_rows: usize,
    threads: usize,
) -> ScanResult<S> {
    let n_rows = sensitive.len();
    let chunk_rows = if chunk_rows == 0 {
        // Auto sizing: big enough that each worker sees at most two chunks —
        // merging partials is pure overhead, so don't create more of them
        // than load balancing needs. Chunk geometry is bit-neutral either
        // way; only the merge count changes.
        let per_worker = n_rows.div_ceil(threads.max(1) * 2);
        DEFAULT_CHUNK_ROWS.max(per_worker)
    } else {
        chunk_rows
    };
    let n_chunks = n_rows.div_ceil(chunk_rows).max(1);
    let bounds = |ci: usize| (ci * chunk_rows, ((ci + 1) * chunk_rows).min(n_rows));

    if n_chunks == 1 {
        // A lone chunk's local first-occurrence order IS the global order.
        let chunk = scan_chunk(columns, shifts, sensitive, domain, 0, n_rows);
        return ScanResult {
            sigs: chunk.sigs,
            first_rows: chunk.first_rows,
            counts: chunk.counts,
            chunk_micros: vec![chunk.micros],
        };
    }

    let threads = threads.max(1).min(n_chunks);
    let chunks: Vec<ChunkScan<S>> = if threads == 1 {
        (0..n_chunks)
            .map(|ci| {
                let (start, end) = bounds(ci);
                scan_chunk(columns, shifts, sensitive, domain, start, end)
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<ChunkScan<S>>>> =
            (0..n_chunks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let ci = next.fetch_add(1, Ordering::Relaxed);
                    if ci >= n_chunks {
                        break;
                    }
                    let (start, end) = bounds(ci);
                    let chunk = scan_chunk(columns, shifts, sensitive, domain, start, end);
                    *results[ci].lock().expect("chunk slot poisoned") = Some(chunk);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chunk slot poisoned")
                    .expect("every chunk index was claimed")
            })
            .collect()
    };
    merge_chunks(chunks, domain)
}

/// The pre-kernel row-at-a-time scan (per-row `with_field` chain, std
/// `HashMap` group index and tallies), kept as the equivalence and
/// throughput baseline.
pub(crate) fn scan_reference<S: Signature>(
    columns: &[&[u32]],
    shifts: &[u32],
    masks: &[u64],
    sensitive: &[u32],
) -> ScanResult<S> {
    let started = std::time::Instant::now();
    let mut index: HashMap<S, usize> = HashMap::new();
    let mut sigs: Vec<S> = Vec::new();
    let mut first_rows: Vec<u32> = Vec::new();
    let mut tallies: Vec<HashMap<SValue, u64>> = Vec::new();
    for row in 0..sensitive.len() {
        let mut sig = S::zero();
        for (d, codes) in columns.iter().enumerate() {
            sig = sig.with_field(shifts[d], masks[d], codes[row]);
        }
        let gi = *index.entry(sig).or_insert_with(|| {
            sigs.push(sig);
            first_rows.push(row as u32);
            tallies.push(HashMap::new());
            sigs.len() - 1
        });
        *tallies[gi].entry(SValue(sensitive[row])).or_insert(0) += 1;
    }
    let counts = tallies
        .into_iter()
        .map(|tally| {
            let mut row: Vec<(SValue, u64)> = tally.into_iter().collect();
            row.sort_unstable_by_key(|&(value, _)| value);
            row
        })
        .collect();
    ScanResult {
        sigs,
        first_rows,
        counts,
        chunk_micros: vec![started.elapsed().as_micros() as u64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_same<S: Signature + std::fmt::Debug>(a: &ScanResult<S>, b: &ScanResult<S>) {
        assert_eq!(a.sigs, b.sigs);
        assert_eq!(a.first_rows, b.first_rows);
        assert_eq!(a.counts, b.counts);
    }

    /// A small deterministic workload with group repeats across chunk
    /// boundaries and a couple of distinct sensitive values.
    fn workload(n_rows: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let col_a: Vec<u32> = (0..n_rows).map(|r| (r % 5) as u32).collect();
        let col_b: Vec<u32> = (0..n_rows).map(|r| ((r / 3) % 4) as u32).collect();
        let sensitive: Vec<u32> = (0..n_rows).map(|r| (r % 3) as u32).collect();
        (col_a, col_b, sensitive)
    }

    #[test]
    fn kernel_matches_reference_across_chunk_sizes_and_threads() {
        let (a, b, s) = workload(157);
        let columns: Vec<&[u32]> = vec![&a, &b];
        let shifts = [0u32, 3];
        let masks = [0b111u64, 0b11];
        let reference = scan_reference::<u64>(&columns, &shifts, &masks, &s);
        for chunk_rows in [1usize, 2, 3, 7, 16, 64, 157, 1000] {
            for threads in [1usize, 2, 4] {
                let kernel = scan_kernel::<u64>(&columns, &shifts, &s, 3, chunk_rows, threads);
                assert_same(&reference, &kernel);
            }
        }
    }

    #[test]
    fn sparse_domain_falls_back_and_still_matches() {
        let n = 300;
        let a: Vec<u32> = (0..n).map(|r| (r % 7) as u32).collect();
        // Sensitive domain larger than DENSE_DOMAIN_MAX forces the sparse
        // tally path in both scan and merge.
        let s: Vec<u32> = (0..n).map(|r| ((r * 13) % 100) as u32).collect();
        let columns: Vec<&[u32]> = vec![&a];
        let shifts = [0u32];
        let masks = [0b111u64];
        let reference = scan_reference::<u64>(&columns, &shifts, &masks, &s);
        for chunk_rows in [4usize, 37, 300] {
            let kernel = scan_kernel::<u64>(&columns, &shifts, &s, 100, chunk_rows, 2);
            assert_same(&reference, &kernel);
        }
    }

    #[test]
    fn u128_field_straddles_the_64_bit_boundary() {
        // One dimension shifted to bit 62 with 3-bit codes: the field spans
        // bits 62..65, crossing the u64/u128 boundary inside or_field.
        let n = 97;
        let a: Vec<u32> = (0..n).map(|r| (r % 2) as u32).collect();
        let b: Vec<u32> = (0..n).map(|r| (r % 6) as u32).collect();
        let columns: Vec<&[u32]> = vec![&a, &b];
        let shifts = [0u32, 62];
        let masks = [0b1u64, 0b111];
        let reference = scan_reference::<u128>(&columns, &shifts, &masks, &a);
        for chunk_rows in [5usize, 64, 97] {
            let kernel = scan_kernel::<u128>(&columns, &shifts, &a, 2, chunk_rows, 2);
            assert_same(&reference, &kernel);
        }
        // The straddling field really is written above bit 63.
        assert!(reference.sigs.iter().any(|&sig| sig >> 64 != 0));
    }

    #[test]
    fn sigmap_preserves_insertion_order_and_grows() {
        let mut map = SigMap::<u64>::with_capacity(0);
        for i in 0..1000u64 {
            assert_eq!(map.get_or_insert(i * 7), i as usize);
        }
        for i in 0..1000u64 {
            assert_eq!(map.get_or_insert(i * 7), i as usize);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.sigs()[3], 21);
    }

    #[test]
    fn merge_sorted_accumulates_overlaps() {
        let mut dst = vec![(SValue(1), 2u64), (SValue(3), 1)];
        merge_sorted(&mut dst, &[(SValue(0), 5), (SValue(3), 4), (SValue(9), 1)]);
        assert_eq!(
            dst,
            vec![
                (SValue(0), 5),
                (SValue(1), 2),
                (SValue(3), 5),
                (SValue(9), 1)
            ]
        );
    }

    #[test]
    fn empty_table_scans_to_zero_groups() {
        let columns: Vec<&[u32]> = vec![&[]];
        let kernel = scan_kernel::<u64>(&columns, &[0], &[], 4, 8, 4);
        assert!(kernel.sigs.is_empty());
        assert!(kernel.counts.is_empty());
    }
}
