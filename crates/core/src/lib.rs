//! # wcbk-core — worst-case background knowledge, polynomially
//!
//! The primary contribution of Martin et al. (ICDE 2007): computing the
//! **maximum disclosure** of a bucketization against an attacker holding any
//! `k` basic implications (`L^k_basic`), in `O(|B|·k³)` time, and checking
//! **(c,k)-safety**.
//!
//! The pipeline mirrors Section 3 of the paper:
//!
//! 1. Theorem 9 reduces the worst case over all of `L^k_basic` to `k`
//!    *simple* implications sharing one consequent atom `A`, so maximum
//!    disclosure equals `1 / (1 + r_min)` where `r_min` minimizes Formula (1):
//!    `Pr(¬A ∧ ∧_{i∈[k]} ¬A_i | B) / Pr(A | B)`.
//! 2. [`minimize1`] minimizes `Pr(∧ ¬A_i | B)` for atoms within one bucket
//!    via the Lemma 12 closed form (Algorithm 1).
//! 3. [`minimize2`] distributes the `k+1` atoms (including `A`) across
//!    buckets, exploiting cross-bucket independence (Algorithm 2).
//! 4. [`disclosure`] assembles the public API, including **witness
//!    reconstruction**: the actual worst-case implications, checkable against
//!    exact inference.
//! 5. [`negation`] computes the worst case for the ℓ-diversity-style
//!    negated-atom sublanguage (the dotted line of Figure 5).
//! 6. [`safety`] defines (c,k)-safety (Definition 13) and monotonicity
//!    helpers (Theorem 14).
//! 7. [`engine`] adds histogram-keyed memoization across bucketizations,
//!    so a changed bucketization costs MINIMIZE1 only for its new buckets
//!    plus one MINIMIZE2 pass (the remark closing Section 3.3.3);
//!    [`registry`] holds one such cache for every `k` under a
//!    group-weighted LRU budget.
//! 8. [`sched`] is the scheduler-visible verdict/pruning surface: a
//!    work-stealing evaluator for monotone-pruned DAGs, which the lattice
//!    searches in `wcbk-anonymize` drive whole-lattice at more than one
//!    thread.
//!
//! Two errata in the paper's Algorithm 2 pseudocode are corrected here (the
//! base case and the initial flag value); see `DESIGN.md` and the
//! documentation of [`minimize2::minimize2`].

mod bucket;
pub mod cost;
pub mod disclosure;
pub mod engine;
mod error;
#[cfg(test)]
mod fixtures;
mod histogram;
mod histogram_set;
pub mod minimize1;
pub mod minimize2;
pub mod negation;
pub mod partial_order;
pub mod registry;
pub mod safety;
pub mod sched;

pub use bucket::{Bucket, Bucketization};
pub use cost::{cost_negation_max_disclosure, CostNegationResult, CostVector};
pub use disclosure::{max_disclosure, DisclosureResult, DisclosureWitness};
pub use engine::{CacheStats, DisclosureEngine};
pub use error::CoreError;
pub use histogram::SensitiveHistogram;
pub use histogram_set::HistogramSet;
pub use negation::{negation_max_disclosure, NegationResult};
pub use registry::EngineRegistry;
pub use safety::{is_ck_safe, CkSafety};
pub use sched::{
    evaluate_sequential, evaluate_work_stealing, MonotoneDag, NodeResolution, ScheduleOutcome,
};
