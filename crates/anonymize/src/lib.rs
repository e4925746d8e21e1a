//! # wcbk-anonymize — finding safe bucketizations (Section 3.4)
//!
//! The paper plugs the (c,k)-safety check into existing lattice-search
//! frameworks: "we can modify the Incognito algorithm … by simply replacing
//! the check for k-anonymity with the check for (c,k)-safety". This crate
//! supplies that machinery:
//!
//! * [`PrivacyCriterion`] — the pluggable predicate interface, with
//!   implementations for **k-anonymity** [Samarati & Sweeney],
//!   **distinct/entropy/recursive ℓ-diversity** [Machanavajjhala et al.] and
//!   **(c,k)-safety** (Definition 13, backed by the `wcbk-core` engine).
//!   All of these are monotone w.r.t. the generalization lattice
//!   (Theorem 14 for (c,k)-safety), which the searches exploit; a
//!   criterion that is not monotone (the `minimality` adversary) gets an
//!   exhaustive sweep instead.
//! * [`search()`] — the one lattice search: bottom-up over a
//!   [`GeneralizationLattice`](wcbk_hierarchy::GeneralizationLattice) with
//!   monotone pruning, sequential or work-stealing per [`SearchConfig`],
//!   returning **all ⪯-minimal safe nodes**; plus [`sweep`] over every node
//!   and binary search along chains (the "logarithmic in the height of the
//!   lattice" observation below Definition 13).
//! * [`utility`] — utility metrics for choosing among minimal safe nodes
//!   (discernibility penalty, average class size, generalization height,
//!   minimum bucket entropy).
//! * [`pipeline`] — a one-call anonymizer: search, rank by utility, return
//!   the chosen node, its bucketization and a disclosure report.
//! * [`session`] — the dataset-handle API: a [`DatasetSession`] is built
//!   once from table + hierarchies (one scan), then serves audits,
//!   searches, sweeps, and sequential-release composition checks forever —
//!   the register-once surface the `wcbk-serve` resource endpoints and the
//!   CLI both run on.
//! * Pluggable adversaries: [`CkSafetyCriterion`] judges (c,k)-safety
//!   through one [`AdversaryModel`] (see [`wcbk_adversary`]), the paper's
//!   conjunction language unless [`CkSafetyCriterion::with_model`] names
//!   another, and the session's `audit_model` / `audit_composition_model`
//!   paths thread a [`ModelId`] through audits, releases, and composition
//!   checks — with the conjunction model bit-identical to the classic
//!   (c,k) paths.

pub mod anatomy;
pub mod criteria;
mod error;
pub mod incognito;
pub mod pipeline;
pub mod search;
pub mod session;
pub mod swap;
pub mod utility;

pub use anatomy::{anatomize, AnatomyOutcome};
pub use criteria::{
    CkSafetyCriterion, DistinctLDiversity, EntropyLDiversity, KAnonymity, PrivacyCriterion,
    RecursiveCLDiversity,
};
pub use error::AnonymizeError;
pub use incognito::{incognito, IncognitoOutcome};
pub use pipeline::{anonymize, AnonymizationOutcome};
pub use search::{
    binary_search_chain, default_threads, find_minimal_safe_rescan, search, sweep,
    sweep_all_rescan, SearchConfig, SearchOutcome, SearchReport,
};
pub use session::{
    AuditReport, CompositionReport, DatasetSession, ModelAuditReport, ReleaseReport, SessionOptions,
};
pub use swap::{swap_sanitize, SwapOutcome};
pub use utility::UtilityMetric;
pub use wcbk_adversary::{
    AdversaryModel, CompositionStyle, ModelId, ModelWitness, MODEL_IDS, MODEL_NAMES,
};
pub use wcbk_hierarchy::ScanOptions;
