//! # wcbk-hierarchy — full-domain generalization substrate
//!
//! The paper's experiments (Section 4) anonymize by *full-domain
//! generalization* [Samarati & Sweeney; LeFevre et al. "Incognito"]: each
//! quasi-identifier attribute has a **domain generalization hierarchy** (DGH)
//! of nested coarsenings, and an anonymization picks one level per attribute.
//! The set of such choices forms a lattice; under full identification
//! information, applying a lattice node to a table yields exactly a
//! bucketization (tuples with equal generalized quasi-identifiers share a
//! bucket), so the (c,k)-safety machinery of `wcbk-core` applies directly.
//!
//! * [`Hierarchy`] — one attribute's DGH: per-level maps from base dictionary
//!   codes to group labels, with nestedness validated at construction.
//!   Builders: [`Hierarchy::suppression`], [`Hierarchy::intervals`] (numeric
//!   attributes), [`Hierarchy::from_groups`] (categorical trees).
//! * [`GenNode`] / [`GeneralizationLattice`] — the product lattice over all
//!   quasi-identifiers: node enumeration, covers (successors/predecessors),
//!   chains, and [`GeneralizationLattice::bucketize`] which applies a node to
//!   a table.
//! * [`NodeEvaluator`] — the roll-up evaluation pipeline: one columnar table
//!   scan materializes the bottom node's signature → histogram map; every
//!   other node's histograms are derived by re-keying packed signatures
//!   through parent/level maps and merging — `O(groups)` per node, no row
//!   access, identical bucket order and histograms to `bucketize`.
//! * [`dataset_fingerprint`] — a stable 64-bit content identity for a
//!   (table, lattice) pair: schema roles, hierarchy grouping maps,
//!   dictionaries, and row codes all mixed in — what a dataset-handle
//!   service keys registrations by ("register once, audit forever").
//! * [`encode_dataset`] / [`decode_dataset`] and [`encode_node`] /
//!   [`decode_node`] — the stable binary format the durable catalog
//!   persists datasets and release records in; a decoded dataset
//!   fingerprints bit-identically to the encoded one.
//! * [`adult`] — the paper's Adult hierarchies: Age 6 levels (exact, 5, 10,
//!   20, 40, suppressed), Marital Status 3 levels, Race 2, Gender 2 — a
//!   6·3·2·2 = 72-node lattice.

pub mod adult;
mod dgh;
mod error;
mod fingerprint;
mod lattice;
mod rollup;
mod scan;
mod serial;

pub use dgh::Hierarchy;
pub use error::HierarchyError;
pub use fingerprint::dataset_fingerprint;
pub use lattice::{GenNode, GeneralizationLattice};
pub use rollup::{NodeEvaluator, RollupStats, ScanOptions};
pub use serial::{decode_dataset, decode_node, encode_dataset, encode_dataset_into, encode_node};
