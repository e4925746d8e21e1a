//! One MINIMIZE1 cache for every attacker power `k`.
//!
//! Long-lived callers (the `wcbk-serve` audit service, a
//! `wcbk-anonymize::DatasetSession`) want MINIMIZE1 values memoized by any
//! request to serve every later one, whatever its `k`. `m1(c)` does not
//! depend on `k` (an entry built for a larger `k` holds every smaller
//! one's values as a bit-identical prefix), so an [`EngineRegistry`] holds
//! a single cache under an optional group-weighted LRU budget and hands
//! out [`DisclosureEngine`] views at any `k` over it. A view is cheap to
//! create; results never depend on the budget — only cache warmth does.

use std::sync::Arc;

use crate::engine::Minimize1Cache;
use crate::{CacheStats, DisclosureEngine};

/// One shared MINIMIZE1 cache and the per-`k` engine views over it — see
/// the module docs.
pub struct EngineRegistry {
    cache: Arc<Minimize1Cache>,
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineRegistry {
    /// A registry over an unbounded cache — the one-shot default.
    pub fn new() -> Self {
        Self::with_limits(None, None)
    }

    /// A registry whose cache retains at most the smaller of the two group
    /// budgets (`None` = no bound from that argument): past it, the least
    /// recently touched entries are evicted.
    pub fn with_limits(engine_cache_capacity: Option<u64>, budget: Option<u64>) -> Self {
        let capacity = engine_cache_capacity.into_iter().chain(budget).min();
        Self {
            cache: Arc::new(Minimize1Cache::new(capacity)),
        }
    }

    /// The engine for attacker power `k`: a view over the shared cache.
    pub fn engine(&self, k: usize) -> Arc<DisclosureEngine> {
        Arc::new(DisclosureEngine::over(Arc::clone(&self.cache), k))
    }

    /// Snapshot of the shared cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, wide_tables};
    use crate::{is_ck_safe, max_disclosure, CkSafety, HistogramSet};

    /// Two bucketizations over six distinct histogram keys, below
    /// saturation at every `k ≤ 8`, so each view runs the DP on its own
    /// entries.
    fn tables() -> [crate::Bucketization; 2] {
        wide_tables()
    }

    /// Interleaved attacker powers, so views meet entries built both
    /// shorter and longer than they need.
    const INTERLEAVED: [usize; 9] = [8, 1, 5, 2, 7, 3, 0, 6, 4];

    /// Asserts that `engine` answers every table as a fresh engine at its
    /// `k` does: value bits, witness and verdict.
    fn assert_like_fresh(engine: &DisclosureEngine, label: &str) {
        let k = engine.k();
        let fresh = DisclosureEngine::new(k);
        for b in tables() {
            let set = HistogramSet::from_bucketization(&b);
            let want = fresh.max_disclosure(&b).unwrap();
            let got = engine.max_disclosure(&b).unwrap();
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{label} k={k}");
            assert_eq!(got.witness, want.witness, "{label} k={k}");
            let value = engine.max_disclosure_value_set(&set).unwrap();
            assert_eq!(value.to_bits(), want.value.to_bits(), "{label} k={k}");
            let safety = CkSafety::new(0.7, k).unwrap();
            assert_eq!(
                safety.is_safe_set(engine, &set).unwrap(),
                is_ck_safe(&b, 0.7, k).unwrap(),
                "{label} k={k} verdict"
            );
            let costs = engine.costs(b.bucket(0).histogram());
            assert_eq!(costs.m1.len(), k + 2, "{label} k={k}");
        }
    }

    #[test]
    fn views_at_interleaved_k_match_fresh_engines() {
        // The six entries weigh 10 to 12 groups each, 64 in all.
        for cap in [None, Some(10), Some(12), Some(23), Some(64)] {
            let registry = EngineRegistry::with_limits(cap, None);
            for round in 0..2 {
                for k in INTERLEAVED {
                    assert_like_fresh(&registry.engine(k), &format!("cap {cap:?} round {round}"));
                    if let Some(cap) = cap {
                        assert!(registry.stats().groups <= cap, "{:?}", registry.stats());
                    }
                }
            }
        }
    }

    #[test]
    fn views_from_four_threads_match_fresh_engines() {
        for cap in [None, Some(23)] {
            let registry = EngineRegistry::with_limits(None, cap);
            std::thread::scope(|scope| {
                for worker in 0..4 {
                    let registry = &registry;
                    scope.spawn(move || {
                        for i in 0..INTERLEAVED.len() {
                            let k = INTERLEAVED[(i + worker) % INTERLEAVED.len()];
                            assert_like_fresh(&registry.engine(k), &format!("worker {worker}"));
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn engines_inherit_the_cache_capacity() {
        let registry = EngineRegistry::with_limits(Some(1), None);
        let engine = registry.engine(1);
        let b = figure3();
        // Both figure-3 histograms weigh >1 group, so a 1-group budget
        // caches neither — yet values stay correct.
        let direct = max_disclosure(&b, 1).unwrap().value;
        assert_eq!(
            engine.max_disclosure(&b).unwrap().value.to_bits(),
            direct.to_bits()
        );
        assert!(engine.stats().groups <= 1, "{:?}", engine.stats());
        // The second bound caps the same cache; the smaller one wins.
        let both = EngineRegistry::with_limits(Some(100), Some(1));
        both.engine(1).max_disclosure(&b).unwrap();
        assert_eq!(both.stats().entries, 0, "{:?}", both.stats());
    }

    /// Auditing at the largest `k` first builds each distinct histogram
    /// once: every smaller `k` reads a prefix of the same entry.
    #[test]
    fn largest_k_first_builds_each_histogram_once() {
        let registry = EngineRegistry::new();
        for b in tables() {
            registry.engine(8).max_disclosure(&b).unwrap();
        }
        let distinct = registry.stats().entries as u64;
        assert_eq!(distinct, 6);
        for k in 1..=7 {
            for b in tables() {
                registry.engine(k).max_disclosure(&b).unwrap();
            }
        }
        let stats = registry.stats();
        assert_eq!(stats.misses, distinct, "{stats:?}");
        assert_eq!(stats.entries as u64, distinct);
    }

    /// Ascending `k` rebuilds a shorter entry at most once per `k` — never
    /// more builds than one private cache per `k` made.
    #[test]
    fn ascending_k_builds_no_more_than_per_k_caches() {
        let shared = EngineRegistry::new();
        let mut per_k_builds = 0;
        for k in 1..=8 {
            let private = DisclosureEngine::new(k);
            for b in tables() {
                shared.engine(k).max_disclosure(&b).unwrap();
                private.max_disclosure(&b).unwrap();
            }
            per_k_builds += private.stats().misses;
        }
        let stats = shared.stats();
        assert!(stats.misses <= per_k_builds, "{stats:?} vs {per_k_builds}");
        assert_eq!(stats.entries, 6, "{stats:?}");
    }
}
