//! # wcbk — Worst-Case Background Knowledge for Privacy-Preserving Data Publishing
//!
//! A from-scratch Rust implementation of Martin, Kifer, Machanavajjhala,
//! Gehrke & Halpern, *Worst-Case Background Knowledge for Privacy-Preserving
//! Data Publishing* (ICDE 2007): the `L^k_basic` background-knowledge
//! language, the polynomial-time maximum-disclosure dynamic program,
//! **(c,k)-safety**, and the lattice-search machinery for finding minimally
//! sanitized bucketizations — plus every substrate the paper relies on
//! (tables, generalization hierarchies, an exact random-worlds inference
//! engine, baselines, and evaluation workloads).
//!
//! ## Quickstart
//!
//! ```
//! use wcbk::prelude::*;
//!
//! // The paper's running example (Figure 1) bucketized as in Figure 3.
//! let table = wcbk::table::datasets::hospital_table();
//! let buckets = Bucketization::from_grouping(
//!     &table,
//!     wcbk::table::datasets::hospital_bucket_of,
//! )?;
//!
//! // Worst-case disclosure against an attacker with one basic implication.
//! let report = max_disclosure(&buckets, 1)?;
//! assert!((report.value - 2.0 / 3.0).abs() < 1e-12);
//!
//! // Is the bucketization (0.7, 1)-safe? (max disclosure < 0.7 given k=1)
//! assert!(is_ck_safe(&buckets, 0.7, 1)?);
//! # Ok::<(), wcbk::core::CoreError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`table`] | dictionary-encoded tables, schemas, CSV, example data |
//! | [`logic`] | atoms, basic/simple implications, `L^k`, parser |
//! | [`worlds`] | exact random-worlds inference, consistency (Theorem 8) |
//! | [`core`] | MINIMIZE1/2 DP, witnesses, (c,k)-safety, memoizing engine |
//! | [`hierarchy`] | DGHs, generalization lattice, the Adult hierarchies |
//! | [`adversary`] | pluggable background-knowledge languages (adversary models) |
//! | [`anonymize`] | privacy criteria, Incognito-style search, utility |
//! | [`datagen`] | synthetic Adult and random workloads |
//! | [`serve`] | batch/streaming HTTP audit service on the shared engine |
//! | [`store`] | embedded WAL-backed durable dataset catalog (`serve --data-dir`) |

pub use wcbk_adversary as adversary;
pub use wcbk_anonymize as anonymize;
pub use wcbk_core as core;
pub use wcbk_datagen as datagen;
pub use wcbk_hierarchy as hierarchy;
pub use wcbk_logic as logic;
pub use wcbk_serve as serve;
pub use wcbk_store as store;
pub use wcbk_table as table;
pub use wcbk_worlds as worlds;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use wcbk_anonymize::{
        anatomize, anonymize, default_threads, incognito, search, swap_sanitize, sweep,
        AdversaryModel, AuditReport, CkSafetyCriterion, CompositionReport, CompositionStyle,
        DatasetSession, DistinctLDiversity, EntropyLDiversity, KAnonymity, ModelAuditReport,
        ModelId, ModelWitness, PrivacyCriterion, RecursiveCLDiversity, ReleaseReport, SearchConfig,
        SearchOutcome, SearchReport, SessionOptions, UtilityMetric, MODEL_IDS, MODEL_NAMES,
    };
    pub use wcbk_core::{
        cost_negation_max_disclosure, is_ck_safe, max_disclosure, negation_max_disclosure, Bucket,
        Bucketization, CacheStats, CkSafety, CostVector, DisclosureEngine, DisclosureResult,
        EngineRegistry, HistogramSet, SensitiveHistogram,
    };
    pub use wcbk_hierarchy::{
        dataset_fingerprint, GenNode, GeneralizationLattice, Hierarchy, NodeEvaluator, RollupStats,
    };
    pub use wcbk_logic::{Atom, BasicImplication, Knowledge, SimpleImplication};
    pub use wcbk_serve::{AuditService, Server, ServerConfig, ServerHandle, ServiceLimits};
    pub use wcbk_table::{Attribute, AttributeKind, SValue, Schema, Table, TableBuilder, TupleId};
    pub use wcbk_worlds::{BucketSpec, Ratio, WorldSpace};
}
