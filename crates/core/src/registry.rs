//! A bounded registry of shared [`DisclosureEngine`]s, one per attacker
//! power `k`.
//!
//! Long-lived callers (the `wcbk-serve` audit service, a
//! `wcbk-anonymize::DatasetSession`) want **one** engine per distinct `k`
//! so MINIMIZE1 tables memoized by any request serve every later one — but
//! a registry that only ever grows is a slow leak under diverse traffic
//! (every distinct `k` pins an engine, and every engine's cache pins its
//! tables). [`EngineRegistry`] bounds both dimensions:
//!
//! * each engine it creates carries the registry's per-engine **cache
//!   budget** (see [`DisclosureEngine::with_cache_capacity`]);
//! * the registry itself carries a **group-weighted LRU budget**: when the
//!   total retained weight (Σ [`CacheStats::groups`] over registered
//!   engines) exceeds it, the least-recently-requested engines are dropped
//!   from the registry. In-flight holders of an evicted engine's `Arc`
//!   finish unaffected; the next request for that `k` starts a fresh,
//!   cold engine. Results never change — only cache warmth does.
//!
//! Both budgets default to `None` (unbounded), preserving one-shot CLI
//! behavior exactly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::{CacheStats, DisclosureEngine};

/// A registered engine plus its last-request tick for LRU eviction.
struct Registered {
    engine: Arc<DisclosureEngine>,
    touch: AtomicU64,
}

/// Shared per-`k` engines under optional cache and registry budgets — see
/// the module docs.
pub struct EngineRegistry {
    engines: RwLock<HashMap<usize, Registered>>,
    /// Cache budget handed to every engine this registry creates.
    engine_cache_capacity: Option<u64>,
    /// Registry budget: Σ retained groups across engines.
    budget: Option<u64>,
    clock: AtomicU64,
    evictions: AtomicU64,
    /// High-water of Σ retained groups, sampled wherever the total is
    /// computed (budget checks and [`EngineRegistry::stats`] snapshots).
    peak_groups: AtomicU64,
}

/// Snapshot of a registry: per-`k` cache stats plus registry-level totals.
#[derive(Debug, Clone)]
pub struct RegistryStats {
    /// Engines currently registered.
    pub engines: usize,
    /// Σ retained cache weight (groups) across registered engines.
    pub groups: u64,
    /// Engines dropped to respect the registry budget.
    pub evictions: u64,
    /// High-water mark of Σ retained groups observed at snapshot points
    /// since the registry was created (survives engine eviction).
    pub peak_groups: u64,
    /// Per-`k` cache stats, ascending in `k`.
    pub per_k: Vec<(usize, CacheStats)>,
}

impl RegistryStats {
    /// Summed cache stats across every registered engine.
    pub fn totals(&self) -> CacheStats {
        self.per_k.iter().fold(
            CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                groups: 0,
                evictions: 0,
                build_micros: 0,
                peak_groups: 0,
            },
            |acc, (_, s)| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                entries: acc.entries + s.entries,
                groups: acc.groups + s.groups,
                evictions: acc.evictions + s.evictions,
                build_micros: acc.build_micros + s.build_micros,
                peak_groups: acc.peak_groups + s.peak_groups,
            },
        )
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineRegistry {
    /// An unbounded registry (engines and their caches live forever) — the
    /// one-shot default.
    pub fn new() -> Self {
        Self::with_limits(None, None)
    }

    /// A registry whose engines carry `engine_cache_capacity` as their
    /// MINIMIZE1 cache budget, and which itself drops least-recently-
    /// requested engines once the total retained weight exceeds `budget`.
    /// The most recently requested engine is never dropped, so a single
    /// hot engine can exceed the budget rather than thrash.
    pub fn with_limits(engine_cache_capacity: Option<u64>, budget: Option<u64>) -> Self {
        Self {
            engines: RwLock::new(HashMap::new()),
            engine_cache_capacity,
            budget: budget.map(|b| b.max(1)),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_groups: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The shared engine for attacker power `k`, created (under the
    /// registry's per-engine cache budget) on first request.
    pub fn engine(&self, k: usize) -> Arc<DisclosureEngine> {
        {
            let engines = self.engines.read().expect("engine registry poisoned");
            if let Some(entry) = engines.get(&k) {
                entry.touch.store(self.tick(), Ordering::Relaxed);
                return Arc::clone(&entry.engine);
            }
        }
        let mut engines = self.engines.write().expect("engine registry poisoned");
        let engine = match engines.get(&k) {
            Some(entry) => {
                // Lost a race with a concurrent creator: keep the first.
                entry.touch.store(self.tick(), Ordering::Relaxed);
                Arc::clone(&entry.engine)
            }
            None => {
                let engine = Arc::new(DisclosureEngine::with_cache_capacity(
                    k,
                    self.engine_cache_capacity,
                ));
                engines.insert(
                    k,
                    Registered {
                        engine: Arc::clone(&engine),
                        touch: AtomicU64::new(self.tick()),
                    },
                );
                engine
            }
        };
        if let Some(budget) = self.budget {
            // Drop cold engines (never the one just requested) until the
            // total retained weight fits.
            while engines.len() > 1 {
                let total: u64 = engines.values().map(|e| e.engine.stats().groups).sum();
                self.peak_groups.fetch_max(total, Ordering::Relaxed);
                if total <= budget {
                    break;
                }
                let victim = engines
                    .iter()
                    .filter(|(&vk, _)| vk != k)
                    .min_by_key(|(_, e)| e.touch.load(Ordering::Relaxed))
                    .map(|(&vk, _)| vk);
                match victim {
                    Some(vk) => {
                        engines.remove(&vk);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        engine
    }

    /// Number of engines currently registered.
    pub fn len(&self) -> usize {
        self.engines.read().expect("engine registry poisoned").len()
    }

    /// Whether no engine has been requested yet (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of per-`k` cache stats plus registry totals.
    pub fn stats(&self) -> RegistryStats {
        let engines = self.engines.read().expect("engine registry poisoned");
        let mut per_k: Vec<(usize, CacheStats)> = engines
            .iter()
            .map(|(&k, e)| (k, e.engine.stats()))
            .collect();
        per_k.sort_by_key(|&(k, _)| k);
        let groups: u64 = per_k.iter().map(|(_, s)| s.groups).sum();
        self.peak_groups.fetch_max(groups, Ordering::Relaxed);
        RegistryStats {
            engines: per_k.len(),
            groups,
            evictions: self.evictions.load(Ordering::Relaxed),
            peak_groups: self.peak_groups.load(Ordering::Relaxed),
            per_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bucketization;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    #[test]
    fn same_k_returns_the_same_engine() {
        let registry = EngineRegistry::new();
        let a = registry.engine(2);
        let b = registry.engine(2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = registry.engine(3);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn engines_inherit_the_cache_capacity() {
        let registry = EngineRegistry::with_limits(Some(1), None);
        let engine = registry.engine(1);
        let b = figure3();
        // Both figure-3 histograms weigh >1 group, so a 1-group budget
        // caches neither — yet values stay correct.
        let direct = crate::max_disclosure(&b, 1).unwrap().value;
        assert_eq!(
            engine.max_disclosure(&b).unwrap().value.to_bits(),
            direct.to_bits()
        );
        assert!(engine.stats().groups <= 1, "{:?}", engine.stats());
    }

    #[test]
    fn budget_drops_cold_engines_but_never_the_hot_one() {
        let registry = EngineRegistry::with_limits(None, Some(1));
        let b = figure3();
        // Warm k=1: its retained weight alone exceeds the 1-group budget,
        // but the most recent engine is never evicted.
        let e1 = registry.engine(1);
        e1.max_disclosure(&b).unwrap();
        assert_eq!(registry.len(), 1);
        registry.engine(1);
        assert_eq!(registry.len(), 1, "hot engine must survive");
        // Requesting k=2 makes k=1 the cold one; total weight still exceeds
        // the budget, so k=1 is dropped.
        registry.engine(2);
        let stats = registry.stats();
        assert_eq!(stats.engines, 1, "{stats:?}");
        assert_eq!(stats.per_k[0].0, 2);
        assert!(stats.evictions >= 1);
        // The in-flight Arc still works; a re-request starts cold.
        e1.max_disclosure(&b).unwrap();
        let fresh = registry.engine(1);
        assert!(!Arc::ptr_eq(&e1, &fresh));
        assert_eq!(fresh.stats().entries, 0);
    }

    #[test]
    fn stats_sum_across_engines() {
        let registry = EngineRegistry::new();
        let b = figure3();
        registry.engine(1).max_disclosure(&b).unwrap();
        registry.engine(2).max_disclosure(&b).unwrap();
        let stats = registry.stats();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.per_k.len(), 2);
        let totals = stats.totals();
        assert_eq!(totals.misses, 4, "2 engines x 2 distinct histograms");
        assert_eq!(totals.entries, 4);
        assert_eq!(stats.groups, totals.groups);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_requests_converge_on_one_engine() {
        let registry = EngineRegistry::new();
        let engines: Vec<Arc<DisclosureEngine>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| registry.engine(3))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in engines.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(registry.len(), 1);
    }
}
