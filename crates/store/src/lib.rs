//! # wcbk-store — the embedded, crash-safe dataset catalog
//!
//! The dataset-handle API made "register once, audit forever" the service
//! contract, but a process holds its catalog in memory: a restart forgets
//! every handle and the sequential-release audit trail behind
//! `audit_composition`. This crate is the persistence layer that removes
//! that asterisk — **std-only, no dependencies**, one directory on disk:
//!
//! ```text
//! <data-dir>/
//!   wal          append-only write-ahead log (length+checksum framed)
//!   catalog      page-based checkpoint of the full catalog state
//!   catalog.tmp  transient; a crashed checkpoint leaves one, open removes it
//! ```
//!
//! ## Durability model
//!
//! Every mutation is one **transaction** through [`DatasetStore`]:
//!
//! 1. a WAL record (monotone sequence number + operation + body) is framed
//!    as `[len][checksum][payload]` and appended to the log,
//! 2. the log is `fsync`ed — only now is the operation acknowledged,
//! 3. the operation is applied to the in-memory catalog,
//! 4. once the log outgrows the live catalog (payload plus release bytes)
//!    by a threshold ([`StoreOptions::checkpoint_bytes`]), a
//!    **checkpoint** rewrites the page-based catalog file atomically (write
//!    `catalog.tmp`, `fsync`, rename over `catalog`, `fsync` the
//!    directory) and truncates the log.
//!
//! On [`DatasetStore::open`] the catalog file is loaded (it records the
//! sequence number it is current through) and the WAL is **replayed**,
//! one record at a time:
//! records with stale sequence numbers are skipped (a crash between
//! checkpoint-rename and log-truncate re-reads them harmlessly), and the
//! first torn or corrupt frame — a crash mid-append — truncates the log
//! tail. The result is exactly the acknowledged history: an operation
//! whose `fsync` never returned may be missing, but nothing torn is ever
//! visible and nothing acknowledged is ever lost.
//!
//! The store maps `dataset_fingerprint` keys to opaque payload bytes plus
//! an append-only list of release records — *what* those bytes encode is
//! the caller's business (`wcbk-serve` stores encoded column blocks and
//! release nodes), which keeps this crate dependency-free and the format
//! honest: bytes in, the same bytes out, across any crash.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod codec;
mod error;
mod store;
mod wal;

pub use error::StoreError;
pub use store::{DatasetStore, StoreOptions, StoreStats, StoredDataset};
