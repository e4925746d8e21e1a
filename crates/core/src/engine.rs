//! Memoized disclosure computation.
//!
//! The closing remark of Section 3.3.3: if bucketization `B*` differs from an
//! already-analyzed `B` by removing some buckets and adding `x` new ones,
//! only the new buckets' MINIMIZE1 values need computing, plus one
//! MINIMIZE2 pass (`O(|B*|·k²)` here). [`DisclosureEngine`] implements that:
//! a view at one attacker power `k` over a MINIMIZE1 cache that every `k`
//! shares. The cache maps a bucket's descending frequency vector to its
//! [`BucketCosts`], shared across *all* bucketizations analyzed (during
//! lattice search, sibling anonymizations share most buckets; a release
//! history's union shares every bucket of the releases before it). `m1(c)`
//! does not depend on `k`: `minimize1_values(h, k1)` is a bit-identical
//! prefix of `minimize1_values(h, k2)` for `k1 < k2`, so an entry built for
//! a larger `k` answers every smaller one, and a view at a larger `k`
//! rebuilds a shorter entry in place. MINIMIZE2 reads nothing else; a
//! witness builds a bucket-sized profile only for each of the at most `k+1`
//! buckets it names. A what-if edit (replace, remove or merge buckets) is
//! one [`DisclosureEngine::max_disclosure_value_set`] on the edited set.
//! The cache is sharded behind [`RwLock`]s and the engine is `Send + Sync`,
//! so one engine can serve many search threads at once — the foundation of
//! the parallel lattice search in `wcbk-anonymize`.
//!
//! A set is **saturated** at `k` when `k + 1 ≥ d_min`, the fewest distinct
//! values of any of its buckets ([`HistogramSet::min_distinct`]): its
//! disclosure is exactly 1 (`r_min = +0`, see [`crate::minimize2`]). Every
//! route checks that before any cache lookup. The value is `1.0` and a
//! (c,k)-safety verdict is unsafe with no cache traffic at all. The
//! allocation a witness is built from is the DP's own, in closed form:
//! MINIMIZE2 runs, and looks its entries up, only over the buckets after
//! the consequent's host, each of which has more than `k + 1` values. No
//! `k`-sized allocation is made whatever `k` is; each saturated evaluation
//! bumps [`CacheStats::saturated`].

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::disclosure::{build_witness, check_witness_size, leading_members};
use crate::minimize1::minimize1_values;
use crate::minimize2::{
    minimize2, minimize2_value, place_antecedents, to_disclosure, BucketAllocation, BucketCosts,
    Minimize2Result,
};
use crate::{Bucketization, CoreError, DisclosureResult, HistogramSet, SensitiveHistogram};
use wcbk_table::TupleId;

/// A cached bucket's costs plus its last-touch tick for LRU eviction under
/// a cache budget.
struct CacheEntry {
    costs: Arc<BucketCosts>,
    touch: AtomicU64,
}

/// Number of independent cache shards. A small power of two: enough to keep
/// search threads off each other's locks, few enough that per-shard maps
/// stay densely used.
const N_SHARDS: usize = 16;

/// Snapshot of the engine cache's effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute MINIMIZE1 values: a key not cached, or
    /// cached with too few values for the view's `k`.
    pub misses: u64,
    /// Evaluations of saturated sets (`k + 1 ≥ d_min`), answered in closed
    /// form with no lookup.
    pub saturated: u64,
    /// Distinct histograms currently cached.
    pub entries: usize,
    /// Total retained weight across entries — each entry weighs its
    /// histogram's distinct-frequency **group** count, the length of its
    /// key. This is what a cache budget bounds (mirroring the roll-up
    /// memo's group-weighted eviction).
    pub groups: u64,
    /// Entries evicted to respect the cache budget (0 when unbounded).
    pub evictions: u64,
    /// Cumulative microseconds spent computing MINIMIZE1 values on cache
    /// misses (the work memoization exists to avoid), rounded up from
    /// the nanoseconds the cache accumulates.
    pub build_micros: u64,
    /// High-water mark of the retained group weight since the cache was
    /// created — the memory-broker accounting signal.
    pub peak_groups: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (`0.0` when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The MINIMIZE1 cache behind every [`DisclosureEngine`] view: one entry per
/// histogram key, holding `m1` for the largest `k` asked so far.
///
/// Thread-safe: entries live behind sharded [`RwLock`]s and the counters are
/// atomic.
pub(crate) struct Minimize1Cache {
    shards: [RwLock<HashMap<Vec<u64>, CacheEntry>>; N_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    saturated: AtomicU64,
    /// Group budget (`None` = unbounded, the CLI default): the total
    /// retained weight (Σ per-entry histogram group counts) may not exceed
    /// it; past the budget the least-recently-touched entries are evicted
    /// (see [`Minimize1Cache::enforce_budget`]).
    capacity: Option<u64>,
    /// Σ entry weights currently retained (all shards).
    groups: AtomicU64,
    /// High-water mark of `groups`.
    peak_groups: AtomicU64,
    evictions: AtomicU64,
    /// Cumulative MINIMIZE1 build time on misses, in nanoseconds: a
    /// value-only build often takes under a microsecond, which per-build
    /// microsecond truncation would drop.
    build_nanos: AtomicU64,
    /// Monotone tick supplying `CacheEntry::touch` values.
    clock: AtomicU64,
}

/// The LRU weight of one cached histogram: its distinct-frequency group
/// count (`key` length). The entry itself keeps its key plus its `m1`.
fn entry_weight(key: &[u64]) -> u64 {
    (key.len() as u64).max(1)
}

impl Minimize1Cache {
    /// An empty cache under a group budget: `capacity = Some(n)` retains
    /// entries totalling at most `n.max(1)` groups (an entry weighs its
    /// histogram's distinct-frequency count), evicting the least recently
    /// touched once a newcomer overflows it; an entry that alone exceeds
    /// the whole budget is served unmemoized. Results are identical at any capacity —
    /// only rebuild cost varies.
    pub(crate) fn new(capacity: Option<u64>) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
            capacity: capacity.map(|c| c.max(1)),
            groups: AtomicU64::new(0),
            peak_groups: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("cache shard poisoned").len())
                .sum(),
            groups: self.groups.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            build_micros: self.build_nanos.load(Ordering::Relaxed).div_ceil(1000),
            peak_groups: self.peak_groups.load(Ordering::Relaxed),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Which shard a histogram key hashes to (FNV-1a over the key words).
    fn shard_of(key: &[u64]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % N_SHARDS as u64) as usize
    }

    /// The costs of `hist` with `m1` covering at least `0..=k+1`. An entry
    /// with fewer values is rebuilt at `k` and replaced; a longer one is
    /// never replaced by a shorter one.
    fn lookup(&self, hist: &SensitiveHistogram, k: usize) -> Arc<BucketCosts> {
        let covers = |costs: &BucketCosts| costs.m1.len() >= k + 2;
        let shard = &self.shards[Self::shard_of(hist.key())];
        if let Some(entry) = shard.read().expect("cache shard poisoned").get(hist.key()) {
            if covers(&entry.costs) {
                entry.touch.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.costs);
            }
        }
        // Build outside any lock: concurrent builders for the same key are
        // rare (they waste a little work but never race on results — the
        // longer entry wins below).
        let build_started = std::time::Instant::now();
        let m1 = minimize1_values(hist, k + 1);
        let costs = Arc::new(BucketCosts::new(m1, hist.frequency(0), hist.n()));
        self.build_nanos
            .fetch_add(build_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let weight = entry_weight(hist.key());
        if self.capacity.is_some_and(|budget| weight > budget) {
            // It can never fit: serve it unmemoized rather than flushing the
            // whole cache for nothing (the roll-up memo's contract).
            return costs;
        }
        match shard
            .write()
            .expect("cache shard poisoned")
            .entry(hist.key().to_vec())
        {
            Entry::Occupied(mut e) => {
                e.get().touch.store(self.tick(), Ordering::Relaxed);
                if covers(&e.get().costs) {
                    // Lost a race with a builder at least as long: keep it.
                    return Arc::clone(&e.get().costs);
                }
                // Same key, same weight: the budget is unchanged.
                e.get_mut().costs = Arc::clone(&costs);
                return costs;
            }
            Entry::Vacant(v) => {
                v.insert(CacheEntry {
                    costs: Arc::clone(&costs),
                    touch: AtomicU64::new(self.tick()),
                });
                let now = self.groups.fetch_add(weight, Ordering::Relaxed) + weight;
                self.peak_groups.fetch_max(now, Ordering::Relaxed);
            }
        }
        self.enforce_budget();
        costs
    }

    /// Evicts least-recently-touched entries until the retained weight fits
    /// the budget, and a further 1/32 of the budget, so that the inserts
    /// that follow do not each pay a scan of the whole cache. One scan reads
    /// every entry's touch tick under read locks; entries at or below the
    /// cut-off tick are then dropped one shard at a time, so it never holds
    /// two shard locks at once. An entry touched after the scan survives.
    fn enforce_budget(&self) {
        let Some(budget) = self.capacity else {
            return;
        };
        let excess = self.groups.load(Ordering::Relaxed).saturating_sub(budget);
        if excess == 0 {
            return;
        }
        let mut ticks: Vec<(u64, u64)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read().expect("cache shard poisoned");
            ticks.extend(
                guard
                    .iter()
                    .map(|(key, e)| (e.touch.load(Ordering::Relaxed), entry_weight(key))),
            );
        }
        ticks.sort_unstable();
        let (target, mut freed) = (excess + budget / 32, 0);
        let Some(&(cutoff, _)) = ticks
            .iter()
            .find(|&&(_, weight)| {
                freed += weight;
                freed >= target
            })
            .or(ticks.last())
        else {
            return; // nothing left to evict
        };
        for shard in &self.shards {
            shard
                .write()
                .expect("cache shard poisoned")
                .retain(|key, e| {
                    let keep = e.touch.load(Ordering::Relaxed) > cutoff;
                    if !keep {
                        self.groups.fetch_sub(entry_weight(key), Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    keep
                });
        }
    }
}

/// Histogram-memoizing disclosure calculator: a view at attacker power `k`
/// over a MINIMIZE1 cache (see the module docs).
///
/// Thread-safe: all methods take `&self` and the cache is
/// `Minimize1Cache`'s sharded locks and atomic counters, so a single
/// engine can be shared by reference (or `Arc`) across worker threads
/// evaluating different bucketizations concurrently. Views at different `k`
/// over one cache (from an [`EngineRegistry`](crate::EngineRegistry)) share
/// its entries and its counters.
pub struct DisclosureEngine {
    k: usize,
    cache: Arc<Minimize1Cache>,
}

impl DisclosureEngine {
    /// Creates an engine for attacker power `k` with an **unbounded** cache
    /// of its own (every MINIMIZE1 vector ever computed is retained — the
    /// right default for one-shot CLI runs).
    pub fn new(k: usize) -> Self {
        Self::over(Arc::new(Minimize1Cache::new(None)), k)
    }

    /// The view at `k` over a shared cache.
    pub(crate) fn over(cache: Arc<Minimize1Cache>, k: usize) -> Self {
        Self { k, cache }
    }

    /// The attacker power bound this engine serves.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `(hits, misses)` counters for cache effectiveness reporting.
    pub fn cache_stats(&self) -> (u64, u64) {
        let stats = self.stats();
        (stats.hits, stats.misses)
    }

    /// Full counter snapshot of the cache, including the entry count and
    /// retained weight.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn cached(&self, hist: &SensitiveHistogram) -> Arc<BucketCosts> {
        self.cache.lookup(hist, self.k)
    }

    /// The per-bucket DP costs for a histogram (cached), with `m1` over
    /// `0..=k+1` whatever `k` built the cache entry.
    pub fn costs(&self, hist: &SensitiveHistogram) -> BucketCosts {
        let cached = self.cached(hist);
        BucketCosts {
            m1: cached.m1[..self.k + 2].to_vec(),
            rho: cached.rho,
        }
    }

    /// Whether `h` is saturated at this view's `k` (`k + 1 ≥ d_min`, see
    /// the module docs), counting each saturated evaluation.
    fn saturates(&self, h: &HistogramSet) -> bool {
        let saturated = h.min_distinct().saturating_sub(1) <= self.k;
        if saturated {
            self.cache.saturated.fetch_add(1, Ordering::Relaxed);
        }
        saturated
    }

    /// Maximum disclosure value of a histogram-only bucketization view —
    /// what the roll-up lattice search evaluates, with no `Bucketization`
    /// ever materialized. Exactly `1.0`, with no cache lookup, on a
    /// saturated set.
    pub fn max_disclosure_value_set(&self, h: &HistogramSet) -> Result<f64, CoreError> {
        if h.n_buckets() == 0 {
            return Err(CoreError::EmptyBucketization);
        }
        if self.saturates(h) {
            return Ok(to_disclosure(0.0));
        }
        Ok(self.with_set_entries(h, 0, |entries| {
            to_disclosure(minimize2_value(entries, self.k))
        }))
    }

    /// Full maximum disclosure with witness over a histogram-only view,
    /// with no tuple-level grouping held ([`DisclosureEngine::max_disclosure`]
    /// runs this on a bucketization's histograms).
    ///
    /// The witness names persons in at most `k+1` buckets (Lemma 12), so
    /// membership is fetched on demand: `members` is called once with
    /// `(bucket, n)` requests (distinct buckets) and must answer each with
    /// that bucket's first `n` members in member order, in request order.
    pub fn max_disclosure_set(
        &self,
        h: &HistogramSet,
        members: impl FnOnce(&[(usize, usize)]) -> Vec<Vec<TupleId>>,
    ) -> Result<DisclosureResult, CoreError> {
        let result = self.allocation_set(h)?;
        let witness = build_witness(
            |b| &h.histograms()[b],
            h.domain_size(),
            &result.allocation,
            members,
        );
        Ok(DisclosureResult {
            value: result.value(),
            r_min: result.r_min,
            k: self.k,
            witness,
        })
    }

    /// One MINIMIZE2 pass over the cached entries of `h`, keeping the
    /// minimizing atom allocation a witness is rebuilt from. Its
    /// [`value`](Minimize2Result::value) is bit-identical to
    /// [`DisclosureEngine::max_disclosure_value_set`].
    ///
    /// Errors with [`CoreError::WitnessTooLarge`] before any DP when a
    /// witness over `h` could need a profile table past
    /// [`MAX_WITNESS_ATOMS`](crate::disclosure::MAX_WITNESS_ATOMS).
    pub fn allocation_set(&self, h: &HistogramSet) -> Result<Minimize2Result, CoreError> {
        if h.n_buckets() == 0 {
            return Err(CoreError::EmptyBucketization);
        }
        check_witness_size(h.histograms(), self.k)?;
        if self.saturates(h) {
            return Ok(self.saturated_allocation(h));
        }
        Ok(self.with_set_entries(h, 0, |entries| minimize2(entries, self.k)))
    }

    /// The allocation [`minimize2`] picks on a saturated set, with
    /// `r_min = +0`, running MINIMIZE2 only past the consequent's host.
    ///
    /// The DP's walk takes, at each bucket, the first zero option in the
    /// order (skip with 0 atoms, host with 0 atoms, skip with 1, …). Let
    /// `i*` be the last bucket with `d ≤ k + 1`. Before `i*`, skipping with
    /// no atom leaves a zero suffix (host at `i*`), so every earlier bucket
    /// is skipped. At `i*`, every option before hosting behind `d_{i*} − 1`
    /// atoms multiplies positive values, since no later bucket can reach
    /// zero with at most `k` atoms; that host is the first zero when a
    /// later bucket can take the remaining atoms, and
    /// hosting behind all `k` is the only feasible zero when `i*` is the
    /// last bucket. The rest of the walk is the DP's own over the buckets
    /// after `i*` (`place_antecedents`), all below saturation. As with
    /// [`minimize1_profile`](crate::minimize1::minimize1_profile), the DP
    /// would pick otherwise only where a product of positive values
    /// underflowed to `0.0`.
    fn saturated_allocation(&self, h: &HistogramSet) -> Minimize2Result {
        let histograms = h.histograms();
        let host = histograms
            .iter()
            .rposition(|hist| hist.distinct() - 1 <= self.k)
            .expect("a saturated set has a bucket with d ≤ k + 1");
        let rest = host + 1;
        let host_atoms = if rest == histograms.len() {
            self.k
        } else {
            histograms[host].distinct() - 1
        };
        let mut allocation = vec![BucketAllocation {
            bucket: host,
            atoms: host_atoms,
            has_consequent: true,
        }];
        // With no atom left, the walk skips every later bucket.
        if host_atoms < self.k {
            let placed = self.with_set_entries(h, rest, |entries| {
                place_antecedents(entries, self.k - host_atoms)
            });
            allocation.extend(placed.into_iter().map(|a| BucketAllocation {
                bucket: a.bucket + rest,
                ..a
            }));
        }
        Minimize2Result {
            r_min: 0.0,
            allocation,
        }
    }

    /// Calls `f` with the per-bucket cache entries of `h`'s buckets
    /// `from..`, in bucket order. The cache is consulted once per distinct
    /// histogram key among them; buckets repeating an earlier key reuse its
    /// entry and count as cache hits, as a per-bucket lookup would have.
    fn with_set_entries<R>(
        &self,
        h: &HistogramSet,
        from: usize,
        f: impl FnOnce(&[&BucketCosts]) -> R,
    ) -> R {
        let histograms = &h.histograms()[from..];
        // Per bucket of the slice, the slice position of the first bucket
        // with its key.
        let representatives: Cow<[usize]> = if from == 0 {
            Cow::Borrowed(h.representatives())
        } else {
            let mut first: HashMap<usize, usize> = HashMap::new();
            let owners = h.representatives()[from..].iter().enumerate();
            Cow::Owned(
                owners
                    .map(|(i, &rep)| match rep.checked_sub(from) {
                        Some(local) => local,
                        None => *first.entry(rep).or_insert(i),
                    })
                    .collect(),
            )
        };
        let distinct: Vec<Arc<BucketCosts>> = representatives
            .iter()
            .enumerate()
            .filter(|&(i, &rep)| rep == i)
            .map(|(i, _)| self.cached(&histograms[i]))
            .collect();
        let repeats = (histograms.len() - distinct.len()) as u64;
        if repeats > 0 {
            self.cache.hits.fetch_add(repeats, Ordering::Relaxed);
        }
        let mut fresh = distinct.iter();
        let mut entries: Vec<&BucketCosts> = Vec::with_capacity(histograms.len());
        for (i, &rep) in representatives.iter().enumerate() {
            let entry = if rep == i {
                fresh.next().expect("one entry per distinct key")
            } else {
                entries[rep]
            };
            entries.push(entry);
        }
        f(&entries)
    }

    /// Full maximum disclosure with witness, using the cache: the
    /// histogram-set path over `b`'s buckets, with the witness's persons
    /// read off `b`'s members.
    pub fn max_disclosure(&self, b: &Bucketization) -> Result<DisclosureResult, CoreError> {
        self.max_disclosure_set(&HistogramSet::from_bucketization(b), |requests| {
            leading_members(b, requests)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, four_buckets, from_values, wide_repeated_keys, wide_tables};
    use crate::partial_order::{merge_buckets, merge_histograms};
    use crate::{max_disclosure, Bucketization, CkSafety};
    use wcbk_table::TupleId;

    /// The engine's value over `b`'s histograms.
    fn value_of(engine: &DisclosureEngine, b: &Bucketization) -> f64 {
        engine
            .max_disclosure_value_set(&HistogramSet::from_bucketization(b))
            .unwrap()
    }

    /// An engine at `k` over a cache of its own under a `cap`-group budget.
    fn capped(k: usize, cap: u64) -> DisclosureEngine {
        DisclosureEngine::over(Arc::new(Minimize1Cache::new(Some(cap))), k)
    }

    /// Six buckets over three histogram keys: `[2, 1]` from different
    /// values three times, `[1, 1]` twice and `[1]` once. The last bucket
    /// holds one value, so the set is saturated at every `k`.
    fn repeated_keys() -> Bucketization {
        let groups: [&[u32]; 6] = [&[0, 0, 1], &[2, 3], &[1, 1, 2], &[0, 0, 1], &[3, 2], &[4]];
        from_values(&groups.map(<[u32]>::to_vec), 5)
    }

    #[test]
    fn set_path_with_repeated_keys_matches_bucketization_path() {
        for k in 0..=6 {
            let sets = [
                repeated_keys(),
                wide_repeated_keys(),
                figure3(),
                four_buckets(),
            ];
            for b in sets.into_iter().chain(wide_tables()) {
                let engine = DisclosureEngine::new(k);
                let set = HistogramSet::from_bucketization(&b);
                let via_set = engine.max_disclosure_value_set(&set).unwrap();
                let via_buckets = engine.max_disclosure(&b).unwrap().value;
                let direct = max_disclosure(&b, k).unwrap().value;
                assert_eq!(via_set.to_bits(), via_buckets.to_bits(), "k={k}");
                assert_eq!(via_set.to_bits(), direct.to_bits(), "k={k}");
            }
        }
    }

    /// Every bucket gets the costs of its own histogram, whichever bucket
    /// resolved its key, from any first bucket on. Pinned directly because
    /// a wrong pick that names another bucket's key rarely shows in the
    /// value: the optimum seldom places atoms in two copies of one key.
    #[test]
    fn set_costs_follow_each_bucket_histogram() {
        for k in 0..=3 {
            let engine = DisclosureEngine::new(k);
            for b in [
                repeated_keys(),
                wide_repeated_keys(),
                figure3(),
                four_buckets(),
            ] {
                let set = HistogramSet::from_bucketization(&b);
                for from in 0..b.n_buckets() {
                    engine.with_set_entries(&set, from, |entries| {
                        assert_eq!(entries.len(), b.n_buckets() - from);
                        for (got, bucket) in entries.iter().zip(&b.buckets()[from..]) {
                            let want = engine.costs(bucket.histogram());
                            assert_eq!(got.m1, want.m1, "k={k}");
                            assert_eq!(got.rho.to_bits(), want.rho.to_bits(), "k={k}");
                        }
                    });
                }
            }
        }
    }

    /// One lookup per distinct key still reports per-bucket traffic: a
    /// repeated key counts as the hit a per-bucket lookup would have scored.
    #[test]
    fn set_path_counts_cache_traffic_per_bucket() {
        let b = wide_repeated_keys();
        let set = HistogramSet::from_bucketization(&b);
        let per_bucket = DisclosureEngine::new(2);
        let per_key = DisclosureEngine::new(2);
        for (round, (hits, misses)) in [(3, 3), (9, 3)].into_iter().enumerate() {
            for bucket in b.buckets() {
                per_bucket.costs(bucket.histogram());
            }
            per_key.max_disclosure_value_set(&set).unwrap();
            assert_eq!(per_bucket.cache_stats(), (hits, misses), "round {round}");
            assert_eq!(per_key.cache_stats(), (hits, misses), "round {round}");
            assert_eq!(per_key.stats().entries, 3);
        }
        assert_eq!(per_key.stats().saturated, 0);
    }

    /// A saturated set (`k + 1 ≥ d_min`) is priced from `d_min` alone:
    /// value 1, unsafe at every `c`, and a witness of the DP's allocation,
    /// with no cache lookup — each evaluation counts as `saturated`.
    /// Figure 3's male bucket has 3 values, so `k = 2` is the first
    /// saturated power; at `k = 2` the host takes every atom, and from
    /// `k = 3` on the host is the last bucket.
    #[test]
    fn saturated_sets_make_no_lookups() {
        let b = figure3();
        let set = HistogramSet::from_bucketization(&b);
        for k in [2, 3, 1_000_000_000] {
            let engine = DisclosureEngine::new(k);
            assert_eq!(engine.max_disclosure_value_set(&set).unwrap(), 1.0);
            let safety = CkSafety::new(1.0, k).unwrap();
            assert!(!safety.is_safe_set(&engine, &set).unwrap());
            let result = engine.max_disclosure(&b).unwrap();
            assert_eq!(result.value, 1.0);
            assert_eq!(result.r_min.to_bits(), 0.0f64.to_bits());
            let stats = engine.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.entries),
                (0, 0, 0),
                "k={k}"
            );
            assert_eq!(stats.saturated, 3, "k={k}");
        }
        // One below: the DP runs and looks up both buckets.
        let engine = DisclosureEngine::new(1);
        assert!(engine.max_disclosure_value_set(&set).unwrap() < 1.0);
        assert_eq!((engine.stats().misses, engine.stats().saturated), (2, 0));
    }

    /// The value path sizes MINIMIZE1 by each bucket, not by k: at
    /// k = 1000 a k-sized table would take about 8 GB per bucket. Two
    /// atoms already rule out both values of a bucket, so disclosure is
    /// certain.
    #[test]
    fn large_k_value_path_is_sized_by_the_bucket() {
        let two = from_values(&[vec![0, 1], vec![0, 2]], 3);
        let engine = DisclosureEngine::new(1000);
        let set = HistogramSet::from_bucketization(&two);
        assert_eq!(engine.max_disclosure_value_set(&set).unwrap(), 1.0);
        assert_eq!(engine.costs(two.bucket(0).histogram()).m1.len(), 1002);
    }

    #[test]
    fn cache_hits_across_shared_histograms() {
        let engine = DisclosureEngine::new(1);
        let b = figure3();
        value_of(&engine, &b);
        let (h0, m0) = engine.cache_stats();
        assert_eq!(h0, 0);
        assert_eq!(m0, 2);
        // Same bucketization again: all hits.
        value_of(&engine, &b);
        let (h1, m1) = engine.cache_stats();
        assert_eq!(h1, 2);
        assert_eq!(m1, 2);
        assert_eq!(engine.stats().entries, 2);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = DisclosureEngine::new(1);
        let b = figure3();
        let expected = value_of(&engine, &b);
        // Pre-warmed cache: every lookup from the workers must hit.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let v = value_of(engine, b);
                        assert!((v - expected).abs() < 1e-15);
                    }
                });
            }
        });
        let (hits, misses) = engine.cache_stats();
        assert_eq!(misses, 2, "workers rebuilt cached tables");
        assert_eq!(hits, 4 * 50 * 2, "4 workers × 50 sweeps × 2 buckets");
        assert_eq!(engine.stats().entries, 2);
    }

    #[test]
    fn cold_cache_concurrent_builds_converge() {
        // Two distinct bucketizations raced from four threads on a cold
        // cache: values must match the direct computation and the cache must
        // end up with exactly the distinct histograms.
        let engine = DisclosureEngine::new(3);
        let bs = wide_tables();
        let expected: Vec<f64> = bs
            .iter()
            .map(|b| max_disclosure(b, 3).unwrap().value)
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let engine = &engine;
                let bs = &bs;
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..bs.len() {
                        let idx = (i + worker) % bs.len();
                        let v = value_of(engine, &bs[idx]);
                        assert!((v - expected[idx]).abs() < 1e-15);
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.entries, 6, "{stats:?}");
        assert!(stats.hit_rate() > 0.0);
    }

    /// A bounded cache evicts by LRU group weight, stays within budget, and
    /// keeps producing values identical to the unbounded engine. The wide
    /// entries weigh 10 to 12 groups each, 64 in all.
    #[test]
    fn capped_cache_evicts_and_stays_correct() {
        let k = 2;
        let reference = DisclosureEngine::new(k);
        let bs = wide_tables();
        let expected: Vec<f64> = bs.iter().map(|b| value_of(&reference, b)).collect();
        for cap in [10u64, 12, 23, 64] {
            let engine = capped(k, cap);
            for round in 0..3 {
                for (b, want) in bs.iter().zip(&expected) {
                    let got = value_of(&engine, b);
                    assert_eq!(got.to_bits(), want.to_bits(), "cap {cap} round {round}");
                    let stats = engine.stats();
                    assert!(stats.groups <= cap, "cap {cap}: {stats:?}");
                    assert!(stats.entries as u64 <= stats.groups.max(1), "{stats:?}");
                }
            }
        }
        // A tight budget across distinct histograms must have evicted.
        let tight = capped(k, 23);
        for b in &bs {
            value_of(&tight, b);
        }
        for b in &bs {
            value_of(&tight, b);
        }
        assert!(tight.stats().evictions > 0, "{:?}", tight.stats());
    }

    /// An entry heavier than the whole budget is served unmemoized instead
    /// of flushing everything else; `Some(0)` clamps to a 1-group budget.
    #[test]
    fn oversized_entries_bypass_the_cache() {
        let engine = capped(2, 1);
        let [_, b] = wide_tables(); // every histogram weighs 10+ groups
        let direct = max_disclosure(&b, 2).unwrap().value;
        let got = value_of(&engine, &b);
        assert_eq!(got.to_bits(), direct.to_bits());
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.groups), (4, 0), "{stats:?}");
        assert_eq!(stats.evictions, 0, "oversized entries never evict");

        let clamped = capped(2, 0);
        let got = value_of(&clamped, &b);
        assert_eq!(got.to_bits(), direct.to_bits());
        assert!(clamped.stats().groups <= 1);
    }

    /// Concurrent access under a tight budget stays correct and bounded.
    #[test]
    fn capped_cache_is_thread_safe() {
        let engine = capped(2, 23);
        let bs = wide_tables();
        let expected: Vec<f64> = bs
            .iter()
            .map(|b| max_disclosure(b, 2).unwrap().value)
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let engine = &engine;
                let bs = &bs;
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..40 {
                        let idx = (i + worker) % bs.len();
                        let v = value_of(engine, &bs[idx]);
                        assert_eq!(v.to_bits(), expected[idx].to_bits());
                    }
                });
            }
        });
        assert!(engine.stats().groups <= 23, "{:?}", engine.stats());
    }

    /// A what-if edit is one value pass over the edited set: replacing a
    /// bucket's histogram matches the full computation on the edited
    /// bucketization bit for bit.
    #[test]
    fn what_if_replace_matches_recompute() {
        let k = 2;
        let engine = DisclosureEngine::new(k);
        let [_, b] = wide_tables();

        // Replace bucket 1's histogram with bucket 3's (members don't
        // affect the value, only the histogram).
        let replacement = b.bucket(3).histogram().clone();
        let mut histograms: Vec<SensitiveHistogram> =
            b.buckets().iter().map(|x| x.histogram().clone()).collect();
        histograms[1] = replacement.clone();
        let set = HistogramSet::new(histograms, b.domain_size()).unwrap();
        let mut buckets: Vec<crate::Bucket> = b.buckets().to_vec();
        let members = (1000..1000 + replacement.n() as u32).map(TupleId).collect();
        buckets[1] = crate::Bucket::from_histogram(members, replacement);
        let replaced = Bucketization::from_buckets(buckets, b.domain_size()).unwrap();
        let value = engine.max_disclosure_value_set(&set).unwrap();
        let direct = max_disclosure(&replaced, k).unwrap().value;
        assert_eq!(value.to_bits(), direct.to_bits());
        assert_eq!(engine.stats().saturated, 0);
    }

    /// Removing any one bucket matches the full computation on the
    /// remaining buckets bit for bit.
    #[test]
    fn what_if_remove_matches_recompute() {
        let k = 2;
        let engine = DisclosureEngine::new(k);
        let [_, b] = wide_tables();
        for i in 0..4 {
            let mut buckets = b.buckets().to_vec();
            buckets.remove(i);
            let removed = Bucketization::from_buckets(buckets, b.domain_size()).unwrap();
            let direct = max_disclosure(&removed, k).unwrap().value;
            assert_eq!(
                value_of(&engine, &removed).to_bits(),
                direct.to_bits(),
                "remove {i}"
            );
        }
        assert_eq!(engine.stats().saturated, 0);
    }

    /// Merging two adjacent buckets sums their histograms and matches the
    /// full computation on the merged bucketization bit for bit.
    #[test]
    fn what_if_merge_matches_recompute() {
        let k = 2;
        let engine = DisclosureEngine::new(k);
        let [_, b] = wide_tables();
        for i in 0..3 {
            let merged = merge_buckets(&b, i, i + 1).unwrap();
            assert_eq!(
                merged.bucket(i).histogram(),
                &merge_histograms(b.bucket(i).histogram(), b.bucket(i + 1).histogram())
            );
            let direct = max_disclosure(&merged, k).unwrap().value;
            assert_eq!(
                value_of(&engine, &merged).to_bits(),
                direct.to_bits(),
                "merge {i}"
            );
        }
        assert_eq!(engine.stats().saturated, 0);
    }
}
