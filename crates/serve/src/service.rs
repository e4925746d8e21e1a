//! The audit service: JSON requests in, engine-backed verdicts out.
//!
//! One [`AuditService`] lives for the whole server process and is shared by
//! every connection handler. Since the dataset-handle redesign it is a
//! **resource manager over [`DatasetSession`]s**:
//!
//! * `POST /tables` registers a dataset (table + hierarchies) once — one
//!   scan builds the shared roll-up evaluator — and returns a
//!   content-fingerprint handle; `/tables/{id}/audit|search|batch|release|
//!   composition` then run against that session **without ever re-parsing
//!   or re-scanning**. Registering identical content returns the existing
//!   handle.
//! * The session store and the [`EngineRegistry`]'s one MINIMIZE1 cache
//!   (shared by every `k`) both sit under group-weighted LRU budgets, so a
//!   long-lived server is memory-bounded;
//!   an evicted handle answers a clean 404 (re-register to continue).
//! * The one-shot endpoints (`POST /audit`, `POST /search`) are
//!   reimplemented as *register → run → drop* over transient sessions —
//!   same engine registry, bit-identical results (pinned by the
//!   integration tests).
//!
//! Results are **bit-identical** to the CLI `audit`/`search` paths: tables
//! are built with the same schema rules, bucketized by the same grouping,
//! and judged by the same engine code — only the transport differs (JSON
//! numbers serialize via shortest-round-trip formatting, so not even the
//! last bit of an `f64` is lost).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use wcbk_anonymize::{
    default_threads, AuditReport, CkSafetyCriterion, DatasetSession, ModelAuditReport, ModelId,
    PrivacyCriterion, SearchConfig, SearchReport, SessionOptions, MODEL_NAMES,
};
use wcbk_core::EngineRegistry;
use wcbk_hierarchy::{GenNode, GeneralizationLattice, Hierarchy, RollupStats};
use wcbk_store::{DatasetStore, StoreError};
use wcbk_table::csv::TableDecoder;
use wcbk_table::{Attribute, AttributeKind, ChunkedTableBuilder, Schema, Table, TableError};

use crate::json::Json;
use crate::persist;

/// A request the service could not satisfy.
#[derive(Debug)]
pub enum ServeError {
    /// The client's request is invalid (missing fields, bad CSV, unknown
    /// columns, parameters out of range) — an HTTP 400.
    BadRequest(String),
    /// The addressed table handle does not exist (never registered, dropped,
    /// or evicted under the session budget) — an HTTP 404.
    UnknownTable(String),
    /// The durable store failed (I/O error persisting, corrupt catalog
    /// payload on rehydration) — an HTTP 500. The request was valid; the
    /// server could not durably honor it.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "{m}"),
            ServeError::UnknownTable(id) => write!(f, "no table registered under {id:?}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest(message.into())
}

/// Parses a handle id back to its fingerprint. Handles are minted by
/// `format!("{:016x}", fp)`, so only exactly-16 lowercase hex digits can
/// name a catalog entry — anything else is unknown without touching disk.
fn parse_handle(id: &str) -> Option<u64> {
    if id.len() != 16
        || !id
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(id, 16).ok()
}

/// Memory budgets for a long-lived service; `Default` is fully unbounded
/// (the one-shot behavior).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceLimits {
    /// Budget (groups) of the one MINIMIZE1 cache every `k` shares —
    /// `wcbk serve --engine-cache-cap`.
    pub engine_cache_cap: Option<u64>,
    /// Session-store budget (Σ per-session bottom-group weight); past it,
    /// least-recently-used handles are evicted (→ 404 until re-registered).
    pub session_budget: Option<u64>,
}

/// Roll-up counters summed over evaluators: the one-shot searches the
/// service absorbed and, as `/stats` and `/metrics` report them, every live
/// session.
#[derive(Default, Clone)]
struct RollupSum {
    /// One-shot searches absorbed (live sessions keep no search count).
    searches: u64,
    table_scans: u64,
    derived: u64,
    ancestor_derived: u64,
    memo_hits: u64,
    evictions: u64,
    /// Largest memo weight (groups) any one evaluator reached or retains.
    peak_memo_groups: u64,
    /// Cumulative bottom-scan wall time.
    scan_micros: u64,
    /// Cumulative node-derivation wall time.
    derive_micros: u64,
}

impl RollupSum {
    /// Adds one evaluator's counters.
    fn add(&mut self, stats: &RollupStats) {
        self.table_scans += stats.table_scans;
        self.derived += stats.derived;
        self.ancestor_derived += stats.ancestor_derived;
        self.memo_hits += stats.memo_hits;
        self.evictions += stats.evictions;
        self.peak_memo_groups = self.peak_memo_groups.max(stats.memo_groups);
        self.scan_micros += stats.scan_micros;
        self.derive_micros += stats.derive_micros;
    }
}

/// A registered session plus the store's bookkeeping for it.
struct StoredSession {
    id: String,
    session: Arc<DatasetSession>,
    /// Column names echoed back by `GET /tables/{id}`.
    qi: Vec<String>,
    sensitive: String,
    /// LRU weight: the session's bottom group count (the scan's resident
    /// output — its dominant memory cost), or the row count when the
    /// signature-overflow fallback left no evaluator.
    weight: u64,
    touch: AtomicU64,
}

/// The handle → session map under a group-weighted LRU budget.
struct SessionStore {
    inner: RwLock<HashMap<String, Arc<StoredSession>>>,
    budget: Option<u64>,
    clock: AtomicU64,
    evictions: AtomicU64,
    /// Registrations that created a new session (dedup hits excluded).
    registered: AtomicU64,
    /// Sessions rebuilt from the durable catalog (restart or post-eviction
    /// reload) — these are not new registrations.
    rehydrated: AtomicU64,
    /// High-water mark of Σ resident session weight (groups), sampled at
    /// insert time — where the total can only have grown — and surviving
    /// every later eviction.
    peak_groups: AtomicU64,
}

impl SessionStore {
    fn new(budget: Option<u64>) -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            budget: budget.map(|b| b.max(1)),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            rehydrated: AtomicU64::new(0),
            peak_groups: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn get(&self, id: &str) -> Option<Arc<StoredSession>> {
        let inner = self.inner.read().expect("session store poisoned");
        inner.get(id).map(|s| {
            s.touch.store(self.tick(), Ordering::Relaxed);
            Arc::clone(s)
        })
    }

    /// Inserts (or dedups onto) `stored`, returning `(session, created)`.
    /// A dedup hit must hold the **same dataset**, not merely the same
    /// 64-bit fingerprint — FNV-1a is not collision-resistant, and silently
    /// merging distinct datasets would serve one table's verdicts for the
    /// other. Past the budget, least-recently-used **other** handles are
    /// evicted — the handle just registered always survives, so one big
    /// dataset can exceed the budget rather than thrash.
    fn insert(
        &self,
        stored: StoredSession,
        rehydrated: bool,
    ) -> Result<(Arc<StoredSession>, bool), ServeError> {
        let id = stored.id.clone();
        let mut inner = self.inner.write().expect("session store poisoned");
        if let Some(existing) = inner.get(&id) {
            if !existing.session.same_dataset(&stored.session) {
                return Err(bad(format!(
                    "fingerprint collision: handle {id} already holds a different dataset; \
                     change the table or hierarchies and re-register"
                )));
            }
            existing.touch.store(self.tick(), Ordering::Relaxed);
            return Ok((Arc::clone(existing), false));
        }
        stored.touch.store(self.tick(), Ordering::Relaxed);
        let stored = Arc::new(stored);
        inner.insert(id.clone(), Arc::clone(&stored));
        let resident: u64 = inner.values().map(|s| s.weight).sum();
        self.peak_groups.fetch_max(resident, Ordering::Relaxed);
        if rehydrated {
            self.rehydrated.fetch_add(1, Ordering::Relaxed);
        } else {
            self.registered.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(budget) = self.budget {
            while inner.len() > 1 {
                let total: u64 = inner.values().map(|s| s.weight).sum();
                if total <= budget {
                    break;
                }
                let victim = inner
                    .iter()
                    .filter(|(vid, _)| **vid != id)
                    .min_by_key(|(_, s)| s.touch.load(Ordering::Relaxed))
                    .map(|(vid, _)| vid.clone());
                match victim {
                    Some(vid) => {
                        inner.remove(&vid);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        Ok((stored, true))
    }

    fn remove(&self, id: &str) -> bool {
        self.inner
            .write()
            .expect("session store poisoned")
            .remove(id)
            .is_some()
    }

    fn snapshot(&self) -> Vec<Arc<StoredSession>> {
        let inner = self.inner.read().expect("session store poisoned");
        let mut all: Vec<Arc<StoredSession>> = inner.values().cloned().collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }
}

/// Shared per-process audit state — see the module docs.
pub struct AuditService {
    /// The budget-bounded MINIMIZE1 cache, viewed at any attacker power.
    engines: Arc<EngineRegistry>,
    sessions: SessionStore,
    /// Durable catalog. `None` (no `--data-dir`) keeps the classic
    /// in-memory-only behavior, bit-for-bit.
    store: Option<Arc<DatasetStore>>,
    /// Roll-up counters absorbed from one-shot searches.
    rollup: Mutex<RollupSum>,
    audits: AtomicU64,
    searches: AtomicU64,
    batches: AtomicU64,
    batch_tables: AtomicU64,
    bad_requests: AtomicU64,
    /// Requests answered per adversary model, indexed
    /// `[ModelId::index()][ModelOp as usize]` — the source for the
    /// `wcbk_model_requests_total{model,op}` metric family.
    model_ops: [[AtomicU64; 3]; 4],
}

/// The operations the per-model counters distinguish.
#[derive(Clone, Copy)]
enum ModelOp {
    Audit = 0,
    Search = 1,
    Composition = 2,
}

/// Names for the per-model operations (`ModelOp`), indexed by
/// discriminant — the metric label set.
pub const MODEL_OPS: [&str; 3] = ["audit", "search", "composition"];

impl Default for AuditService {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditService {
    /// Creates an unbounded service (engines and sessions materialize on
    /// first use and are never evicted).
    pub fn new() -> Self {
        Self::with_limits(ServiceLimits::default())
    }

    /// Creates a service under explicit memory budgets.
    pub fn with_limits(limits: ServiceLimits) -> Self {
        Self {
            engines: Arc::new(EngineRegistry::with_limits(limits.engine_cache_cap, None)),
            sessions: SessionStore::new(limits.session_budget),
            store: None,
            rollup: Mutex::default(),
            audits: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_tables: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            model_ops: Default::default(),
        }
    }

    /// Bumps the per-model request counter for `op`.
    fn count_model(&self, model: ModelId, op: ModelOp) {
        self.model_ops[model.index()][op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// [`AuditService::with_limits`] backed by a durable catalog: new
    /// registrations and releases are persisted through `store`, and
    /// handles it already holds are served again — lazily rebuilt on first
    /// touch — instead of 404ing after a restart or an LRU eviction.
    pub fn with_store(limits: ServiceLimits, store: Arc<DatasetStore>) -> Self {
        let mut service = Self::with_limits(limits);
        service.store = Some(store);
        service
    }

    /// The durable catalog, when one is attached.
    pub fn store(&self) -> Option<&Arc<DatasetStore>> {
        self.store.as_ref()
    }

    /// The engine for attacker power `k`: a view over the shared cache.
    pub fn engine(&self, k: usize) -> Arc<wcbk_core::DisclosureEngine> {
        self.engines.engine(k)
    }

    /// Builds a [`DatasetSession`] from a request body (table + qi +
    /// hierarchies + optional `memo_cap`), on the service's shared engine
    /// registry. Both `POST /tables` and the one-shot endpoints
    /// (register → run → drop) construct through here, which is what makes
    /// their results bit-identical.
    fn build_session(
        &self,
        request: &Json,
    ) -> Result<(DatasetSession, Vec<String>, String), ServeError> {
        let table = table_from_request(request)?;
        self.session_from_table(table, request)
    }

    /// Builds a session from an already-constructed table plus the request
    /// parameters (qi, hierarchies, memo/scan knobs) — the tail of
    /// [`build_session`](Self::build_session), shared with the streamed
    /// wire-CSV upload path so both produce identical sessions.
    fn session_from_table(
        &self,
        table: Table,
        request: &Json,
    ) -> Result<(DatasetSession, Vec<String>, String), ServeError> {
        let sensitive = request
            .get("sensitive")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"sensitive\" column name"))?
            .to_owned();
        let qi_names = string_list(request, "qi")?;
        let lattice = build_lattice(&table, &qi_names, request)?;
        let memo_capacity = match optional_usize(request, "memo_cap")? {
            Some(n) => Some(n),
            None => optional_usize(request, "memo-cap")?,
        };
        let scan_threads = optional_usize(request, "scan_threads")?
            .unwrap_or(0)
            .min(default_threads());
        let session = DatasetSession::with_options(
            table,
            lattice,
            SessionOptions {
                memo_capacity,
                engines: Some(Arc::clone(&self.engines)),
                scan_threads,
            },
        )
        .map_err(|e| bad(e.to_string()))?;
        Ok((session, qi_names, sensitive))
    }

    /// Handles `POST /tables`: register the dataset once, returning its
    /// content-fingerprint handle. Registering identical content returns
    /// the existing handle (`"created": false`) without rebuilding.
    pub fn register_table(&self, request: &Json) -> Result<Json, ServeError> {
        let (session, qi, sensitive) = self.build_session(request)?;
        self.register_session(session, qi, sensitive)
    }

    /// Finalizes a wire-streamed CSV upload ([`CsvUpload`]): builds the
    /// table the upload decoded incrementally off the socket, then
    /// registers it exactly as `POST /tables` with a JSON body would — the
    /// handle is the content fingerprint, so a chunked upload of the same
    /// data resolves to the **same id** as a buffered registration.
    pub fn register_upload(&self, upload: CsvUpload) -> Result<Json, ServeError> {
        if let Some(e) = upload.failed {
            return Err(e);
        }
        let params = upload.params;
        let table = csv_table(upload.decoder)?;
        if table.n_rows() == 0 {
            return Err(bad("table has no rows"));
        }
        let (session, qi, sensitive) = self.session_from_table(table, &params)?;
        self.register_session(session, qi, sensitive)
    }

    /// Stores a built session and renders the registration response.
    fn register_session(
        &self,
        session: DatasetSession,
        qi: Vec<String>,
        sensitive: String,
    ) -> Result<Json, ServeError> {
        let weight = session
            .rollup_stats()
            .map(|s| s.bottom_groups as u64)
            .unwrap_or(session.table().n_rows() as u64)
            .max(1);
        let id = format!("{:016x}", session.fingerprint());
        let rows = session.table().n_rows();
        let buckets = session.lattice().n_nodes();
        // If the catalog already holds this dataset but memory doesn't
        // (fresh process, or evicted), rehydrate it *first* so the insert
        // below dedups onto the session carrying the durable release
        // history — a blank just-built session must never shadow it.
        if self.sessions.get(&id).is_none() {
            self.rehydrate(&id)?;
        }
        let (stored, created) = self.sessions.insert(
            StoredSession {
                id: id.clone(),
                session: Arc::new(session),
                qi,
                sensitive,
                weight,
                touch: AtomicU64::new(0),
            },
            false,
        )?;
        if created {
            if let Some(store) = &self.store {
                // Persist before acknowledging: when this response reaches
                // the client, the handle survives any crash. The store is
                // first-writer-wins per fingerprint, so re-registering
                // after a restart (memory empty, disk populated) is a
                // durable no-op.
                let payload =
                    persist::encode_session(&stored.session, &stored.qi, &stored.sensitive);
                if let Err(e) = store.register(stored.session.fingerprint(), &payload) {
                    // Keep memory and disk consistent: an unpersisted
                    // handle must not be served as if it were durable.
                    self.sessions.remove(&id);
                    return Err(ServeError::Internal(format!(
                        "persisting registration of {id}: {e}"
                    )));
                }
            }
        }
        Ok(Json::object(vec![
            ("op", "register".into()),
            ("id", id.into()),
            ("created", created.into()),
            ("rows", rows.into()),
            ("lattice_nodes", buckets.into()),
            ("weight", stored.weight.into()),
            (
                "rollup",
                stored
                    .session
                    .rollup_stats()
                    .as_ref()
                    .map(rollup_json)
                    .unwrap_or(Json::Null),
            ),
        ]))
    }

    /// Resolves a handle: the in-memory map first, then — with a durable
    /// catalog attached — rehydration from disk, so an evicted or
    /// restart-forgotten handle answers again instead of 404ing. Only a
    /// handle on neither tier is unknown.
    fn stored(&self, id: &str) -> Result<Arc<StoredSession>, ServeError> {
        if let Some(stored) = self.sessions.get(id) {
            return Ok(stored);
        }
        if let Some(stored) = self.rehydrate(id)? {
            return Ok(stored);
        }
        Err(ServeError::UnknownTable(id.to_owned()))
    }

    /// Rebuilds a session from its catalog record: decode the payload,
    /// reconstruct the [`DatasetSession`] with the options it was
    /// registered with, and replay its persisted release nodes — each
    /// recomputed deterministically, so the composition history is
    /// bit-identical to the pre-restart one. Returns `Ok(None)` when no
    /// store is attached or the catalog has no such fingerprint.
    fn rehydrate(&self, id: &str) -> Result<Option<Arc<StoredSession>>, ServeError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let Some(fp) = parse_handle(id) else {
            return Ok(None);
        };
        let Some(record) = store.get(fp) else {
            return Ok(None);
        };
        let internal = |m: String| ServeError::Internal(format!("rehydrating {id}: {m}"));
        let payload = persist::decode_session(&record.payload).map_err(internal)?;
        let session = DatasetSession::with_options(
            payload.table,
            payload.lattice,
            SessionOptions {
                memo_capacity: payload.memo_capacity,
                engines: Some(Arc::clone(&self.engines)),
                scan_threads: payload.scan_threads,
            },
        )
        .map_err(|e| internal(e.to_string()))?;
        if session.fingerprint() != fp {
            return Err(internal(
                "payload fingerprints differently than its catalog key; refusing to serve".into(),
            ));
        }
        for rec in &record.releases {
            let (node, model) = persist::decode_release(rec).map_err(internal)?;
            session
                .release_with_model(&node, model)
                .map_err(|e| internal(e.to_string()))?;
        }
        let weight = session
            .rollup_stats()
            .map(|s| s.bottom_groups as u64)
            .unwrap_or(session.table().n_rows() as u64)
            .max(1);
        // A concurrent rehydration of the same handle dedups inside insert.
        let (stored, _) = self.sessions.insert(
            StoredSession {
                id: id.to_owned(),
                session: Arc::new(session),
                qi: payload.qi,
                sensitive: payload.sensitive,
                weight,
                touch: AtomicU64::new(0),
            },
            true,
        )?;
        Ok(Some(stored))
    }

    /// Handles `GET /tables/{id}`.
    pub fn table_info(&self, id: &str) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        Ok(Json::object(vec![
            ("id", stored.id.as_str().into()),
            ("rows", stored.session.table().n_rows().into()),
            (
                "qi",
                Json::Array(stored.qi.iter().map(|n| n.as_str().into()).collect()),
            ),
            ("sensitive", stored.sensitive.as_str().into()),
            ("lattice_nodes", stored.session.lattice().n_nodes().into()),
            ("releases", stored.session.releases().into()),
            ("weight", stored.weight.into()),
            (
                "rollup",
                stored
                    .session
                    .rollup_stats()
                    .as_ref()
                    .map(rollup_json)
                    .unwrap_or(Json::Null),
            ),
        ]))
    }

    /// Handles `DELETE /tables/{id}`. With a durable catalog attached this
    /// is the one *true* deletion: the handle leaves both memory and disk,
    /// so — unlike an LRU eviction — it stays gone across restarts.
    pub fn drop_table(&self, id: &str) -> Result<Json, ServeError> {
        let in_memory = self.sessions.remove(id);
        let on_disk = match (&self.store, parse_handle(id)) {
            (Some(store), Some(fp)) => store
                .delete(fp)
                .map_err(|e| ServeError::Internal(format!("deleting {id}: {e}")))?,
            _ => false,
        };
        if !in_memory && !on_disk {
            return Err(ServeError::UnknownTable(id.to_owned()));
        }
        Ok(Json::object(vec![
            ("op", "drop".into()),
            ("id", id.into()),
            ("deleted", true.into()),
        ]))
    }

    /// Runs one audit against a session and renders it in the one-shot
    /// `/audit` response shape.
    fn audit_on(&self, session: &DatasetSession, request: &Json) -> Result<Json, ServeError> {
        let k = optional_usize(request, "k")?.unwrap_or(3);
        let c = optional_f64(request, "c")?;
        let model = parse_model(request)?;
        self.count_model(model, ModelOp::Audit);
        let profile = profile_requested(request)?;
        // As in `search_on`: peek, so a one-shot audit's scan stays inside
        // the timed section.
        let build_before = profile.then(|| self.engines.stats().build_micros);
        let rollup_before = profile.then(|| session.rollup_stats_peek()).flatten();
        let started = profile.then(std::time::Instant::now);
        // The conjunction reply names persons in its witness, which only
        // the session's tuple-level audit can do: a model audit sees a
        // `HistogramSet`, with no members. Both price the same bound.
        let mut out = if model == ModelId::Conjunction {
            audit_json(&session.audit(c, k).map_err(|e| bad(e.to_string()))?)
        } else {
            let report = session
                .audit_model(model, c, k)
                .map_err(|e| bad(e.to_string()))?;
            model_audit_json(&report)
        };
        self.audits.fetch_add(1, Ordering::Relaxed);
        if let (Some(started), Some(build_before)) = (started, build_before) {
            let build = self
                .engines
                .stats()
                .build_micros
                .saturating_sub(build_before);
            let rollup = session.rollup_stats_peek();
            let delta = |f| rollup_delta(rollup_before.as_ref(), rollup.as_ref(), f);
            push_field(
                &mut out,
                "profile",
                Json::object(vec![
                    (
                        "compute_micros",
                        (started.elapsed().as_micros() as u64).into(),
                    ),
                    (
                        "detail",
                        Json::object(vec![
                            ("scan_micros", delta(|s| s.scan_micros).into()),
                            ("derive_micros", delta(|s| s.derive_micros).into()),
                            ("witness_micros", delta(|s| s.member_micros).into()),
                            ("minimize1_build_micros", build.into()),
                        ]),
                    ),
                ]),
            );
        }
        Ok(out)
    }

    /// Runs one search against a session and renders it in the one-shot
    /// `/search` response shape.
    fn search_on(
        &self,
        session: &DatasetSession,
        qi_names: &[String],
        request: &Json,
        absorb: bool,
    ) -> Result<Json, ServeError> {
        let k = optional_usize(request, "k")?.unwrap_or(3);
        let c = optional_f64(request, "c")?.ok_or_else(|| bad("search needs \"c\""))?;
        if qi_names.is_empty() {
            return Err(bad("search needs a non-empty \"qi\" list"));
        }
        let config = search_config(request)?;
        let model = parse_model(request)?;
        self.count_model(model, ModelOp::Search);
        // One criterion for every model: the model's bound, pruned only if
        // the model is merge-monotone.
        let criterion = CkSafetyCriterion::with_model(c, model.resolve(session.engine(k)))
            .map_err(|e| bad(e.to_string()))?;
        let profile = profile_requested(request)?;
        // The "before" snapshots must not force the evaluator build: for a
        // one-shot search the single table scan happens lazily inside
        // `search`, and it belongs inside the timed compute section.
        let build_before = profile.then(|| self.engines.stats().build_micros);
        let rollup_before = profile.then(|| session.rollup_stats_peek()).flatten();
        let started = profile.then(std::time::Instant::now);
        let SearchReport { outcome, rollup } = session
            .search(&criterion, &config)
            .map_err(|e| bad(format!("search: {e}")))?;
        if absorb {
            if let Some(stats) = &rollup {
                let mut absorbed = self.rollup.lock().expect("rollup totals poisoned");
                absorbed.searches += 1;
                absorbed.add(stats);
            }
        }
        self.searches.fetch_add(1, Ordering::Relaxed);
        let minimal: Vec<Json> = outcome
            .minimal_nodes
            .iter()
            .map(|node| Json::Array(node.0.iter().map(|&l| l.into()).collect()))
            .collect();
        let mut out = Json::object(vec![
            ("op", "search".into()),
            ("criterion", criterion.name().into()),
            (
                "qi",
                Json::Array(qi_names.iter().map(|n| n.as_str().into()).collect()),
            ),
            ("nodes", session.lattice().n_nodes().into()),
            ("evaluated", outcome.evaluated.into()),
            ("satisfied", outcome.satisfied.into()),
            ("safe", (!outcome.minimal_nodes.is_empty()).into()),
            ("minimal", Json::Array(minimal)),
            (
                "rollup",
                rollup.as_ref().map(rollup_json).unwrap_or(Json::Null),
            ),
        ]);
        if model != ModelId::Conjunction {
            push_field(&mut out, "model", model.name().into());
        }
        if let (Some(started), Some(build_before)) = (started, build_before) {
            let build = self
                .engines
                .stats()
                .build_micros
                .saturating_sub(build_before);
            let delta = |f| rollup_delta(rollup_before.as_ref(), rollup.as_ref(), f);
            push_field(
                &mut out,
                "profile",
                Json::object(vec![
                    (
                        "compute_micros",
                        (started.elapsed().as_micros() as u64).into(),
                    ),
                    (
                        "detail",
                        Json::object(vec![
                            ("scan_micros", delta(|s| s.scan_micros).into()),
                            ("derive_micros", delta(|s| s.derive_micros).into()),
                            ("minimize1_build_micros", build.into()),
                        ]),
                    ),
                ]),
            );
        }
        Ok(out)
    }

    /// Handles `POST /audit`: **register → run → drop** over a transient
    /// session — group by the exact quasi-identifiers (the session's one
    /// scan) and report maximum disclosure (and the (c,k)-safety verdict
    /// when `c` is given), exactly like `wcbk audit`.
    pub fn audit(&self, request: &Json) -> Result<Json, ServeError> {
        let (session, _, _) = self.build_session(request)?;
        self.audit_on(&session, request)
    }

    /// Handles `POST /search`: register → run → drop over a transient
    /// session; minimal (c,k)-safe generalizations over the request's
    /// hierarchies, honoring `threads` (and `memo_cap` / `scan_threads`
    /// through the session), exactly
    /// like `wcbk search` — through the **shared** engine for that `k`, so
    /// repeated searches reuse each other's MINIMIZE1 tables.
    pub fn search(&self, request: &Json) -> Result<Json, ServeError> {
        let (session, qi_names, _) = self.build_session(request)?;
        self.search_on(&session, &qi_names, request, true)
    }

    /// Handles `POST /tables/{id}/audit`: the registered evaluator answers
    /// without re-parsing or re-scanning anything.
    pub fn session_audit(&self, id: &str, request: &Json) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        let mut out = self.audit_on(&stored.session, request)?;
        annotate_id(&mut out, id);
        Ok(out)
    }

    /// Handles `POST /tables/{id}/search`. `memo_cap` is ignored here: the
    /// session's memo budget was fixed at registration (results are
    /// identical at any cap, so this cannot change answers).
    pub fn session_search(&self, id: &str, request: &Json) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        let mut out = self.search_on(&stored.session, &stored.qi, request, false)?;
        annotate_id(&mut out, id);
        Ok(out)
    }

    /// Handles `POST /tables/{id}/release`: record `"node"` (one level per
    /// lattice dimension) into the sequential-release history. With a
    /// durable catalog attached the node is appended to the store **before**
    /// the in-memory release — an acknowledged release survives any crash
    /// (replay recomputes its histograms bit-identically on rehydration).
    pub fn session_release(&self, id: &str, request: &Json) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        let node = request
            .get("node")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("release needs a \"node\" array of levels"))?
            .iter()
            .map(|l| {
                l.as_u64()
                    .map(|v| v as usize)
                    .ok_or_else(|| bad("\"node\" levels must be non-negative integers"))
            })
            .collect::<Result<Vec<usize>, ServeError>>()?;
        let node = GenNode(node);
        let model = parse_model(request)?;
        if let Some(store) = &self.store {
            // Validate first so only releases the session would accept hit
            // the durable history, then persist before computing: if we
            // crash between the append and the response, replay produces a
            // release the client never saw acknowledged — the standard WAL
            // contract (acknowledged ⇒ durable; durable ⇏ acknowledged).
            stored
                .session
                .lattice()
                .validate(&node)
                .map_err(|e| bad(e.to_string()))?;
            let record = persist::encode_release(&node, model);
            match store.append_release(stored.session.fingerprint(), &record) {
                Ok(_) => {}
                // The handle raced a DELETE: the catalog entry is gone, so
                // this release must not outlive it.
                Err(StoreError::UnknownDataset(_)) => {
                    self.sessions.remove(id);
                    return Err(ServeError::UnknownTable(id.to_owned()));
                }
                Err(e) => {
                    return Err(ServeError::Internal(format!(
                        "persisting release on {id}: {e}"
                    )))
                }
            }
        }
        let report = stored
            .session
            .release_with_model(&node, model)
            .map_err(|e| bad(e.to_string()))?;
        let mut out = Json::object(vec![
            ("op", "release".into()),
            ("id", id.into()),
            ("index", report.index.into()),
            (
                "node",
                Json::Array(report.node.0.iter().map(|&l| l.into()).collect()),
            ),
            ("buckets", report.buckets.into()),
            ("total_buckets", report.total_buckets.into()),
        ]);
        if model != ModelId::Conjunction {
            push_field(&mut out, "model", model.name().into());
        }
        Ok(out)
    }

    /// Handles `POST /tables/{id}/composition`: worst-case disclosure over
    /// every recorded release, composed under the request's `"model"` —
    /// union of released buckets by default (one MINIMIZE2 pass over the
    /// union), the common refinement for the linkage-aware sequential
    /// adversary (kept in the session, so each audit folds in only the
    /// releases recorded since the last one).
    pub fn session_composition(&self, id: &str, request: &Json) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        let k = optional_usize(request, "k")?.unwrap_or(3);
        let c = optional_f64(request, "c")?;
        let model = parse_model(request)?;
        self.count_model(model, ModelOp::Composition);
        let report = stored
            .session
            .audit_composition_model(model, c, k)
            .map_err(|e| bad(e.to_string()))?;
        let mut fields = vec![("op", "composition".into()), ("id", id.into())];
        if model != ModelId::Conjunction {
            fields.push(("model", model.name().into()));
        }
        fields.extend([
            ("releases", report.releases.into()),
            ("buckets", report.buckets.into()),
            ("k", report.k.into()),
            ("max_disclosure", report.value.into()),
            ("c", report.c.map(Json::from).unwrap_or(Json::Null)),
            ("safe", report.safe.map(Json::from).unwrap_or(Json::Null)),
        ]);
        Ok(Json::object(fields))
    }

    /// Handles `GET /tables/{id}/history`: the session's release history in
    /// release order — the audit trail `audit_composition` runs over. Served
    /// from the (possibly rehydrated) session, so the answer is identical
    /// before and after a restart.
    pub fn table_history(&self, id: &str) -> Result<Json, ServeError> {
        let stored = self.stored(id)?;
        let history = stored.session.release_history_models();
        let entries: Vec<Json> = history
            .iter()
            .enumerate()
            .map(|(index, (node, buckets, model))| {
                let mut entry = Json::object(vec![
                    ("index", index.into()),
                    (
                        "node",
                        Json::Array(node.0.iter().map(|&l| l.into()).collect()),
                    ),
                    ("buckets", (*buckets).into()),
                ]);
                // Conjunction entries keep the pre-model shape, so history
                // responses stay byte-identical for classic clients.
                if *model != ModelId::Conjunction {
                    push_field(&mut entry, "model", model.name().into());
                }
                entry
            })
            .collect();
        Ok(Json::object(vec![
            ("op", "history".into()),
            ("id", id.into()),
            ("releases", entries.len().into()),
            ("history", Json::Array(entries)),
        ]))
    }

    /// Validates `POST /tables/{id}/batch`: many (c,k)/config jobs against
    /// one registered evaluator. Returns the resolved session and job list.
    pub fn session_batch_jobs(
        &self,
        id: &str,
        request: &Json,
    ) -> Result<(Arc<DatasetSession>, Vec<Json>), ServeError> {
        let stored = self.stored(id)?;
        let jobs = request
            .get("jobs")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("table batch needs a \"jobs\" array"))?;
        if jobs.is_empty() {
            return Err(bad("table batch needs at least one job"));
        }
        for (i, job) in jobs.iter().enumerate() {
            if job.as_object().is_none() {
                return Err(bad(format!("jobs[{i}] is not an object")));
            }
            match job.get("op").map(|op| op.as_str()) {
                None => {}
                Some(Some("audit" | "search")) => {}
                Some(other) => {
                    return Err(bad(format!(
                        "jobs[{i}].op must be \"audit\" or \"search\", got {other:?}"
                    )))
                }
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(&stored.session), jobs.to_vec()))
    }

    /// Runs one job of a `/tables/{id}/batch` — never fails; job-level
    /// errors are embedded as `{"error": …}`.
    pub fn run_session_job(&self, id: &str, session: &DatasetSession, job: &Json) -> Json {
        let qi: Vec<String> = (0..session.lattice().n_dims())
            .map(|d| session.lattice().hierarchy(d).attribute().to_owned())
            .collect();
        let result = match job.get("op").and_then(Json::as_str).unwrap_or("audit") {
            "search" => self.search_on(session, &qi, job, false),
            _ => self.audit_on(session, job),
        };
        self.batch_tables.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(mut v) => {
                annotate_id(&mut v, id);
                v
            }
            Err(e) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
                Json::object(vec![("error", e.to_string().into())])
            }
        }
    }

    /// Validates a `POST /batch` request, returning the job list (each an
    /// `audit`/`search` object as taken by [`audit`](Self::audit) and
    /// [`search`](Self::search), selected by its `"op"` field).
    pub fn batch_jobs(&self, request: &Json) -> Result<Vec<Json>, ServeError> {
        let tables = request
            .get("tables")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("batch needs a \"tables\" array"))?;
        if tables.is_empty() {
            return Err(bad("batch needs at least one table"));
        }
        for (i, job) in tables.iter().enumerate() {
            if job.as_object().is_none() {
                return Err(bad(format!("tables[{i}] is not an object")));
            }
            match job.get("op").map(|op| op.as_str()) {
                None => {}
                Some(Some("audit" | "search")) => {}
                Some(other) => {
                    return Err(bad(format!(
                        "tables[{i}].op must be \"audit\" or \"search\", got {other:?}"
                    )))
                }
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok(tables.to_vec())
    }

    /// Runs one batch job to a result object — never fails; job-level
    /// errors are embedded as `{"error": …}` so one bad table cannot sink
    /// its batch.
    pub fn run_job(&self, job: &Json) -> Json {
        let result = match job.get("op").and_then(Json::as_str).unwrap_or("audit") {
            "search" => self.search(job),
            _ => self.audit(job),
        };
        self.batch_tables.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(v) => v,
            Err(e) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
                Json::object(vec![("error", e.to_string().into())])
            }
        }
    }

    /// Counts one request rejected before reaching a handler.
    pub fn count_bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The `/stats` body: the MINIMIZE1 cache's counters, the accumulated
    /// roll-up counters, per-session snapshots, and service-level request
    /// counts. The caller (the server) appends its own section.
    pub fn stats(&self) -> Vec<(&'static str, Json)> {
        let cache = self.engines.stats();
        let sessions = self.sessions.snapshot();
        let per_session: Vec<Json> = sessions
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("id", s.id.as_str().into()),
                    ("weight", s.weight.into()),
                    ("releases", s.session.releases().into()),
                    (
                        "rollup",
                        s.session
                            .rollup_stats()
                            .as_ref()
                            .map(rollup_json)
                            .unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        let session_groups: u64 = sessions.iter().map(|s| s.weight).sum();
        let rollup = self.rollup_sum(&sessions);
        let mut out = vec![
            (
                "engine_cache",
                Json::object(vec![
                    ("hits", cache.hits.into()),
                    ("misses", cache.misses.into()),
                    ("saturated", cache.saturated.into()),
                    ("entries", cache.entries.into()),
                    ("groups", cache.groups.into()),
                    ("peak_groups", cache.peak_groups.into()),
                    ("cache_evictions", cache.evictions.into()),
                    ("build_micros", cache.build_micros.into()),
                    ("hit_rate", cache.hit_rate().into()),
                ]),
            ),
            (
                "sessions",
                Json::object(vec![
                    ("count", sessions.len().into()),
                    ("groups", session_groups.into()),
                    (
                        "peak_groups",
                        self.sessions.peak_groups.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "evictions",
                        self.sessions.evictions.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "registered",
                        self.sessions.registered.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "rehydrated",
                        self.sessions.rehydrated.load(Ordering::Relaxed).into(),
                    ),
                    ("per_session", Json::Array(per_session)),
                ]),
            ),
            (
                "rollup",
                Json::object(vec![
                    ("searches", rollup.searches.into()),
                    ("table_scans", rollup.table_scans.into()),
                    ("derived", rollup.derived.into()),
                    ("ancestor_derived", rollup.ancestor_derived.into()),
                    ("memo_hits", rollup.memo_hits.into()),
                    ("evictions", rollup.evictions.into()),
                    ("peak_memo_groups", rollup.peak_memo_groups.into()),
                    ("scan_micros", rollup.scan_micros.into()),
                    ("derive_micros", rollup.derive_micros.into()),
                ]),
            ),
            (
                "service",
                Json::object(vec![
                    ("audits", self.audits.load(Ordering::Relaxed).into()),
                    ("searches", self.searches.load(Ordering::Relaxed).into()),
                    ("batches", self.batches.load(Ordering::Relaxed).into()),
                    (
                        "batch_tables",
                        self.batch_tables.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "bad_requests",
                        self.bad_requests.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "model_requests",
                        Json::Object(
                            wcbk_anonymize::MODEL_IDS
                                .iter()
                                .map(|m| {
                                    let ops = &self.model_ops[m.index()];
                                    (
                                        m.name().to_owned(),
                                        Json::Object(
                                            MODEL_OPS
                                                .iter()
                                                .zip(ops)
                                                .map(|(op, n)| {
                                                    (
                                                        (*op).to_owned(),
                                                        n.load(Ordering::Relaxed).into(),
                                                    )
                                                })
                                                .collect(),
                                        ),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ];
        if let Some(store) = &self.store {
            let s = store.stats();
            out.push((
                "store",
                Json::object(vec![
                    ("datasets", s.datasets.into()),
                    ("releases", s.releases.into()),
                    ("wal_records", s.wal_records.into()),
                    ("wal_bytes", s.wal_bytes.into()),
                    ("checkpoints", s.checkpoints.into()),
                    ("checkpoint_micros", s.checkpoint_micros.into()),
                    ("replayed_records", s.replayed_records.into()),
                    ("truncated_bytes", s.truncated_bytes.into()),
                    ("wal_appends", s.wal_appends.into()),
                    ("wal_append_micros", s.wal_append_micros.into()),
                    ("wal_fsync_micros", s.wal_fsync_micros.into()),
                ]),
            ));
        }
        out
    }

    /// The roll-up counters `/stats` and `/metrics` both report: the
    /// absorbed one-shot totals plus every **live** session's evaluator
    /// stats (peeked, never forcing a build at scrape time).
    fn rollup_sum(&self, sessions: &[Arc<StoredSession>]) -> RollupSum {
        let mut sum = self.rollup.lock().expect("rollup totals poisoned").clone();
        for stats in sessions
            .iter()
            .filter_map(|s| s.session.rollup_stats_peek())
        {
            sum.add(&stats);
        }
        sum
    }

    /// Raw cumulative totals for the `/metrics` mirror — see
    /// `crate::metrics::ServeMetrics::sync`. Evicted sessions' roll-up
    /// contributions survive there because the mirror counters only move
    /// up.
    pub fn metric_totals(&self) -> MetricTotals {
        let cache = self.engines.stats();
        let sessions = self.sessions.snapshot();
        let rollup = self.rollup_sum(&sessions);
        let session_groups: u64 = sessions.iter().map(|s| s.weight).sum();
        MetricTotals {
            scan_micros: rollup.scan_micros,
            derive_micros: rollup.derive_micros,
            derived: rollup.derived,
            table_scans: rollup.table_scans,
            minimize1_build_micros: cache.build_micros,
            engine_saturated: cache.saturated,
            minimize1_groups: cache.groups,
            minimize1_peak_groups: cache.peak_groups,
            session_count: sessions.len() as u64,
            session_groups,
            session_peak_groups: self.sessions.peak_groups.load(Ordering::Relaxed),
            model_requests: std::array::from_fn(|m| {
                std::array::from_fn(|op| self.model_ops[m][op].load(Ordering::Relaxed))
            }),
            store: self.store.as_ref().map(|s| s.stats()),
        }
    }
}

/// Cumulative engine/store-layer totals mirrored into `/metrics` at scrape
/// time. Counters here are raw monotone sources (modulo LRU eviction, which
/// the mirror's `record_total` absorbs); gauges are instantaneous.
pub struct MetricTotals {
    /// Σ roll-up bottom-scan wall time (absorbed one-shots + live sessions).
    pub scan_micros: u64,
    /// Σ roll-up node-derivation wall time.
    pub derive_micros: u64,
    /// Σ node tables derived by roll-up.
    pub derived: u64,
    /// Σ full bottom scans performed.
    pub table_scans: u64,
    /// Cumulative MINIMIZE1 build wall time.
    pub minimize1_build_micros: u64,
    /// Saturated evaluations answered in closed form (the engine cache's
    /// `saturated`, which `/stats` renders too).
    pub engine_saturated: u64,
    /// Groups retained by the MINIMIZE1 cache right now.
    pub minimize1_groups: u64,
    /// The MINIMIZE1 cache's retained-groups high-water mark.
    pub minimize1_peak_groups: u64,
    /// Sessions resident right now.
    pub session_count: u64,
    /// Σ resident session weight (groups).
    pub session_groups: u64,
    /// Session-store retained-weight high-water mark.
    pub session_peak_groups: u64,
    /// Σ requests per adversary model, indexed
    /// `[ModelId::index()][op]` with ops ordered as [`MODEL_OPS`].
    pub model_requests: [[u64; 3]; 4],
    /// Durable-store stats when `--data-dir` is attached.
    pub store: Option<wcbk_store::StoreStats>,
}

/// Renders an [`AuditReport`] in the `/audit` response shape (unchanged
/// across the handle redesign, pinned by the integration tests).
fn audit_json(report: &AuditReport) -> Json {
    Json::object(vec![
        ("op", "audit".into()),
        ("buckets", report.buckets.into()),
        ("tuples", report.tuples.into()),
        ("domain", report.domain.into()),
        ("k", report.k.into()),
        ("max_disclosure", report.disclosure.value.into()),
        (
            "witness",
            Json::object(vec![
                (
                    "predicts",
                    report.disclosure.witness.consequent.to_string().into(),
                ),
                (
                    "knowing",
                    report.disclosure.witness.knowledge().to_string().into(),
                ),
            ]),
        ),
        ("c", report.c.map(Json::from).unwrap_or(Json::Null)),
        ("safe", report.safe.map(Json::from).unwrap_or(Json::Null)),
    ])
}

/// Renders a [`ModelAuditReport`] in the `/audit` response shape plus a
/// `"model"` field; the witness clauses are the model's reconstruction
/// (deterministic strings, so responses replay byte-for-byte).
fn model_audit_json(report: &ModelAuditReport) -> Json {
    Json::object(vec![
        ("op", "audit".into()),
        ("model", report.model.name().into()),
        ("buckets", report.buckets.into()),
        ("tuples", report.tuples.into()),
        ("domain", report.domain.into()),
        ("k", report.k.into()),
        ("max_disclosure", report.value.into()),
        (
            "witness",
            Json::object(vec![
                ("predicts", report.witness.predicts.as_str().into()),
                ("knowing", report.witness.knowing.join("\n").into()),
            ]),
        ),
        ("c", report.c.map(Json::from).unwrap_or(Json::Null)),
        ("safe", report.safe.map(Json::from).unwrap_or(Json::Null)),
    ])
}

/// Appends the handle id to a session response object.
fn annotate_id(out: &mut Json, id: &str) {
    if let Json::Object(pairs) = out {
        pairs.push(("id".to_owned(), id.into()));
    }
}

/// Appends one field to a response object (no-op on non-objects).
fn push_field(out: &mut Json, key: &str, value: Json) {
    if let Json::Object(pairs) = out {
        pairs.push((key.to_owned(), value));
    }
}

/// How much one cumulative roll-up counter grew between two snapshots (a
/// missing snapshot counts as zero: no evaluator, or not built yet).
fn rollup_delta(
    before: Option<&RollupStats>,
    after: Option<&RollupStats>,
    counter: fn(&RollupStats) -> u64,
) -> u64 {
    after
        .map_or(0, counter)
        .saturating_sub(before.map_or(0, counter))
}

/// Parses the optional `"profile"` flag (absent or `null` → off).
fn profile_requested(request: &Json) -> Result<bool, ServeError> {
    match request.get("profile") {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad("\"profile\" must be a boolean")),
    }
}

fn rollup_json(stats: &RollupStats) -> Json {
    Json::object(vec![
        ("table_scans", stats.table_scans.into()),
        ("derived", stats.derived.into()),
        ("ancestor_derived", stats.ancestor_derived.into()),
        ("memo_hits", stats.memo_hits.into()),
        ("evictions", stats.evictions.into()),
        ("memo_entries", stats.memo_entries.into()),
        ("memo_groups", stats.memo_groups.into()),
        ("bottom_groups", stats.bottom_groups.into()),
        // Deliberately no wall-time fields: response bodies stay
        // bit-identical across runs and restarts (pinned by the
        // persistence tests); timings live in /stats, /metrics, and the
        // opt-in "profile" object.
    ])
}

fn optional_usize(request: &Json, key: &str) -> Result<Option<usize>, ServeError> {
    match request.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn optional_f64(request: &Json, key: &str) -> Result<Option<f64>, ServeError> {
    match request.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("\"{key}\" must be a number"))),
    }
}

/// An optional list of strings (absent → empty).
fn string_list(request: &Json, key: &str) -> Result<Vec<String>, ServeError> {
    match request.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| bad(format!("\"{key}\" must be an array of strings")))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| bad(format!("\"{key}\" must be an array of strings")))
            })
            .collect(),
    }
}

/// Parses the optional `"model"` field: the adversary model the request is
/// judged under. Absent or `null` means the paper's conjunction language
/// (the pre-model behavior, byte-identical on the wire); an unknown name is
/// a 400 listing the registry.
fn parse_model(request: &Json) -> Result<ModelId, ServeError> {
    match request.get("model") {
        None | Some(Json::Null) => Ok(ModelId::Conjunction),
        Some(v) => v
            .as_str()
            .ok_or_else(|| bad(format!("\"model\" must be one of {MODEL_NAMES:?}")))?
            .parse::<ModelId>()
            .map_err(bad),
    }
}

/// Parses a search's `threads` into a [`SearchConfig`] (default 1, like
/// the CLI), capped at the machine's core count: it is a client-supplied
/// number on a network surface, and the scheduler's own clamp (lattice
/// size) is *also* client-controlled via `hierarchy`. The memo cap and the
/// scan threads belong to the session, which took them at registration.
fn search_config(request: &Json) -> Result<SearchConfig, ServeError> {
    let threads = optional_usize(request, "threads")?
        .unwrap_or(1)
        .min(default_threads());
    Ok(SearchConfig::with_threads(threads))
}

/// Builds the generalization lattice for `qi` from the request's
/// `"hierarchy"` object (`{"Age": [5, 10], …}` — interval widths per
/// column; unlisted columns get suppression hierarchies), mirroring the
/// CLI's `--hierarchy COL:W1,W2,…` flags.
fn build_lattice(
    table: &Table,
    qi: &[String],
    request: &Json,
) -> Result<GeneralizationLattice, ServeError> {
    let specs: Vec<(String, Vec<u64>)> = match request.get("hierarchy") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => v
            .as_object()
            .ok_or_else(|| bad("\"hierarchy\" must be an object of column -> widths"))?
            .iter()
            .map(|(col, widths)| {
                let widths = widths
                    .as_array()
                    .ok_or_else(|| bad(format!("hierarchy {col:?}: widths must be an array")))?
                    .iter()
                    .map(|w| {
                        w.as_u64()
                            .ok_or_else(|| bad(format!("hierarchy {col:?}: bad width")))
                    })
                    .collect::<Result<Vec<u64>, ServeError>>()?;
                Ok((col.clone(), widths))
            })
            .collect::<Result<_, ServeError>>()?,
    };
    for (col, _) in &specs {
        if !qi.contains(col) {
            return Err(bad(format!("hierarchy column {col:?} is not a qi column")));
        }
    }
    let dims = qi
        .iter()
        .map(|name| {
            let col = table
                .schema()
                .index_of(name)
                .map_err(|e| bad(e.to_string()))?;
            let dict = table.column(col).dictionary();
            let hierarchy = match specs.iter().find(|(sc, _)| sc == name) {
                Some((_, widths)) => {
                    Hierarchy::intervals(name, dict, widths).map_err(|e| bad(e.to_string()))?
                }
                None => Hierarchy::suppression(name, dict),
            };
            Ok((col, hierarchy))
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    GeneralizationLattice::new(dims).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
fn resolve_columns(table: &Table, names: &[String]) -> Result<Vec<usize>, ServeError> {
    names
        .iter()
        .map(|n| table.schema().index_of(n).map_err(|e| bad(e.to_string())))
        .collect()
}

/// Buckets by the exact quasi-identifier codes (the `wcbk audit` grouping);
/// no quasi-identifiers means one bucket holding every tuple. Kept as the
/// tests' independent baseline for what a session's exact grouping must
/// equal.
#[cfg(test)]
fn bucketize_exact(
    table: &Table,
    qi_cols: &[usize],
) -> Result<wcbk_core::Bucketization, ServeError> {
    let b = if qi_cols.is_empty() {
        wcbk_core::Bucketization::from_grouping(table, |_| 0u8)
    } else {
        wcbk_core::Bucketization::from_grouping(table, |t| {
            qi_cols
                .iter()
                .map(|&col| table.column(col).code(t.index()))
                .collect::<Vec<u32>>()
        })
    };
    b.map_err(|e| bad(format!("bucketize: {e}")))
}

/// Builds the [`Schema`] for the request's column `names`: `sensitive`
/// names the sensitive column, `qi` columns are quasi-identifiers,
/// everything else insensitive — the same roles the CLI assigns.
fn schema_from_names(
    names: &[String],
    sensitive: &str,
    qi: &[String],
) -> Result<Schema, ServeError> {
    let attributes: Vec<Attribute> = names
        .iter()
        .map(|n| {
            let kind = if n == sensitive {
                AttributeKind::Sensitive
            } else if qi.contains(n) {
                AttributeKind::QuasiIdentifier
            } else {
                AttributeKind::Insensitive
            };
            Attribute::new(n.clone(), kind)
        })
        .collect();
    Schema::new(attributes).map_err(|e| bad(e.to_string()))
}

/// Builds a [`Table`] from the request: either `"csv"` (text, first record
/// the header) or `"columns"` + `"rows"` (inline). Column roles follow the
/// CLI: `"sensitive"` names the sensitive column, `"qi"` columns are
/// quasi-identifiers, everything else insensitive.
///
/// The CSV text is decoded in place by the same [`TableDecoder`] path wire
/// uploads take: each record's borrowed fields are dictionary-encoded the
/// moment it is tokenized, so registration never stages decoded rows in
/// memory. The built table is bit-identical to the record-at-a-time
/// [`TableBuilder`](wcbk_table::TableBuilder) path (pinned in `wcbk-table`).
pub fn table_from_request(request: &Json) -> Result<Table, ServeError> {
    if request.as_object().is_none() {
        return Err(bad("request body must be a JSON object"));
    }
    let sensitive = request
        .get("sensitive")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"sensitive\" column name"))?;
    let qi = string_list(request, "qi")?;

    let table = match request.get("csv") {
        Some(csv) => {
            let text = csv
                .as_str()
                .ok_or_else(|| bad("\"csv\" must be a string"))?;
            let mut decoder = TableDecoder::new(schema_from_header(Some(sensitive), qi));
            decoder.decode_slice(text.as_bytes())?;
            csv_table(decoder)?
        }
        None => {
            let names = string_list(request, "columns")?;
            if names.is_empty() {
                return Err(bad("need \"csv\" text or \"columns\" + \"rows\""));
            }
            let schema = schema_from_names(&names, sensitive, &qi)?;
            let mut builder = ChunkedTableBuilder::new(schema);
            let rows = request
                .get("rows")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("\"rows\" must be an array of arrays"))?;
            let mut trimmed: Vec<&str> = Vec::with_capacity(names.len());
            for row in rows {
                let cells = row
                    .as_array()
                    .ok_or_else(|| bad("\"rows\" must be an array of arrays"))?;
                trimmed.clear();
                for cell in cells {
                    trimmed.push(
                        cell.as_str()
                            .ok_or_else(|| bad("row cells must be strings"))?
                            .trim(),
                    );
                }
                builder.push_row(&trimmed).map_err(|e| bad(e.to_string()))?;
            }
            builder.build()
        }
    };
    if table.n_rows() == 0 {
        return Err(bad("table has no rows"));
    }
    Ok(table)
}

/// The one CSV-to-table path of the server, shared by wire uploads and
/// JSON `"csv"` bodies: a [`TableDecoder`] that builds the schema from the
/// header record ([`schema_from_header`]).
type CsvDecoder = TableDecoder<HeaderStep>;

/// Turns a CSV header record (its fields and line) into the schema.
type HeaderStep = Box<dyn FnOnce(&[&str], usize) -> Result<Schema, ServeError> + Send>;

/// The header step of a [`CsvDecoder`]: trimmed header names, with the
/// `"sensitive"` and `"qi"` column roles of the request.
fn schema_from_header(sensitive: Option<&str>, qi: Vec<String>) -> HeaderStep {
    let sensitive = sensitive.map(str::to_owned);
    Box::new(move |header, _line| {
        let names: Vec<String> = header.iter().map(|s| s.trim().to_owned()).collect();
        let sensitive = sensitive
            .as_deref()
            .ok_or_else(|| bad("missing \"sensitive\" column name"))?;
        schema_from_names(&names, sensitive, &qi)
    })
}

/// The table a [`CsvDecoder`] built; input without a header record is
/// `csv is empty`.
fn csv_table(decoder: CsvDecoder) -> Result<Table, ServeError> {
    decoder.into_table().ok_or_else(|| bad("csv is empty"))
}

/// CSV syntax and encoding errors read `csv: …`; a row of the wrong width
/// is reported bare.
impl From<TableError> for ServeError {
    fn from(e: TableError) -> Self {
        match e {
            TableError::Csv { .. } => bad(format!("csv: {e}")),
            e => bad(e.to_string()),
        }
    }
}

/// An incremental wire-CSV registration: `POST /tables` with a `text/csv`
/// body (parameters in the query string: `sensitive=…`, `qi=A,B`,
/// repeatable `hierarchy=COL:W1,W2`, `memo_cap=…`, `scan_threads=…`).
///
/// The reactor [`push`](Self::push)es raw body bytes as they arrive off
/// the socket, and every record they complete is tokenized and
/// dictionary-encoded at once ([`TableDecoder`]). The upload never
/// materializes the request body: the decoder's carry buffer holds the
/// record still being assembled and the newest pushed piece, plus at most
/// as many already-decoded bytes again awaiting lazy compaction. The
/// resulting table is bit-identical to the buffered JSON `"csv"` path
/// (same decoder, same trimming), so both roads produce the same
/// content-fingerprint handle.
pub struct CsvUpload {
    /// Query-string parameters lifted into the same JSON shape the body
    /// path uses, so the session-building tail is literally shared code.
    params: Json,
    decoder: CsvDecoder,
    /// The first problem (parameters, CSV syntax, a short row), held until
    /// [`AuditService::register_upload`] reports it, so the connection can
    /// keep draining the body cheaply.
    failed: Option<ServeError>,
}

impl CsvUpload {
    /// Starts an upload for a request target like
    /// `/tables?sensitive=Disease&qi=Age,Sex`. Never fails: bad parameters
    /// are held and surface as the 400 when finalized.
    pub fn new(target: &str) -> CsvUpload {
        let query = target.split_once('?').map_or("", |(_, q)| q);
        let (params, failed) = match upload_params(query) {
            Ok(params) => (params, None),
            Err(e) => (Json::Null, Some(e)),
        };
        // `upload_params` builds `"qi"` as an array of strings.
        let qi = string_list(&params, "qi").unwrap_or_default();
        let sensitive = params.get("sensitive").and_then(Json::as_str);
        CsvUpload {
            decoder: TableDecoder::new(schema_from_header(sensitive, qi)),
            params,
            failed,
        }
    }

    /// Feeds decoded body bytes, consuming every record they complete.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.failed.is_none() {
            self.decoder.push(bytes);
            self.decode(false);
        }
    }

    /// Marks end-of-body, consuming a trailing unterminated record.
    pub fn finish(&mut self) {
        if self.failed.is_none() {
            self.decode(true);
        }
    }

    fn decode(&mut self, eof: bool) {
        if let Err(e) = self.decoder.decode(eof) {
            self.failed = Some(e);
        }
    }
}

/// Parses an upload query string into the JSON parameter shape
/// `POST /tables` bodies use (`sensitive`, `qi`, `hierarchy`, `memo_cap`,
/// `scan_threads`), with `%XX`/`+` decoding. Unknown keys are rejected —
/// a typo silently ignored here would mis-register a dataset.
fn upload_params(query: &str) -> Result<Json, ServeError> {
    let mut sensitive: Option<String> = None;
    let mut qi: Vec<Json> = Vec::new();
    let mut hierarchy: Vec<(String, Json)> = Vec::new();
    let mut memo_cap: Option<u64> = None;
    let mut scan_threads: Option<u64> = None;
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let key = percent_decode(key);
        let value = percent_decode(value);
        match key.as_str() {
            "sensitive" => sensitive = Some(value),
            "qi" => qi.extend(value.split(',').filter(|s| !s.is_empty()).map(Json::from)),
            "hierarchy" => {
                let (col, widths) = value
                    .split_once(':')
                    .ok_or_else(|| bad(format!("hierarchy {value:?}: expected COL:W1,W2,…")))?;
                let widths = widths
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse::<u64>()
                            .map(Json::from)
                            .map_err(|_| bad(format!("hierarchy {col:?}: bad width")))
                    })
                    .collect::<Result<Vec<Json>, ServeError>>()?;
                hierarchy.push((col.to_owned(), Json::Array(widths)));
            }
            "memo_cap" | "memo-cap" => {
                memo_cap = Some(
                    value
                        .parse()
                        .map_err(|_| bad("\"memo_cap\" must be a non-negative integer"))?,
                );
            }
            "scan_threads" => {
                scan_threads = Some(
                    value
                        .parse()
                        .map_err(|_| bad("\"scan_threads\" must be a non-negative integer"))?,
                );
            }
            other => return Err(bad(format!("unknown query parameter {other:?}"))),
        }
    }
    let mut params: Vec<(String, Json)> = Vec::new();
    if let Some(s) = sensitive {
        params.push(("sensitive".to_owned(), s.into()));
    }
    params.push(("qi".to_owned(), Json::Array(qi)));
    if !hierarchy.is_empty() {
        params.push(("hierarchy".to_owned(), Json::Object(hierarchy)));
    }
    if let Some(n) = memo_cap {
        params.push(("memo_cap".to_owned(), n.into()));
    }
    if let Some(n) = scan_threads {
        params.push(("scan_threads".to_owned(), n.into()));
    }
    Ok(Json::Object(params))
}

/// Decodes `%XX` escapes and `+`-for-space in a query component. Invalid
/// escapes pass through literally; non-UTF-8 decodes lossily (the value
/// will then simply fail to match a column name).
fn percent_decode(s: &str) -> String {
    let raw = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = raw.get(i + 1..i + 3);
                let decoded = hex.and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use wcbk_core::DisclosureEngine;

    const HOSPITAL_CSV: &str =
        "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n";

    fn audit_request() -> String {
        Json::object(vec![
            ("csv", HOSPITAL_CSV.into()),
            ("sensitive", "Disease".into()),
            ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
            ("k", 1u64.into()),
            ("c", 0.9.into()),
        ])
        .to_string()
    }

    #[test]
    fn audit_matches_direct_engine_path() {
        let service = AuditService::new();
        let request = Json::parse(&audit_request()).unwrap();
        let out = service.audit(&request).unwrap();

        // The same computation through the library directly.
        let table = table_from_request(&request).unwrap();
        let qi_cols = resolve_columns(&table, &["Age".into(), "Sex".into()]).unwrap();
        let b = bucketize_exact(&table, &qi_cols).unwrap();
        let engine = DisclosureEngine::new(1);
        let direct = engine.max_disclosure(&b).unwrap();
        assert_eq!(
            out.get("max_disclosure")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            direct.value.to_bits()
        );
        assert_eq!(
            out.get("safe").unwrap().as_bool(),
            Some(wcbk_core::is_ck_safe(&b, 0.9, 1).unwrap())
        );
        assert_eq!(out.get("buckets").unwrap().as_u64(), Some(6));
        assert_eq!(out.get("tuples").unwrap().as_u64(), Some(6));
    }

    /// The streamed register path (CSV records encoded as parsed, via the
    /// chunked builder) produces a table `==` to pushing the same trimmed
    /// rows through the classic row builder — for both request shapes.
    #[test]
    fn streamed_register_is_bit_identical_to_row_builder() {
        let csv_request = Json::parse(
            &Json::object(vec![
                ("csv", HOSPITAL_CSV.into()),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
            ])
            .to_string(),
        )
        .unwrap();
        let streamed = table_from_request(&csv_request).unwrap();

        let mut reference = wcbk_table::TableBuilder::new(streamed.schema().clone());
        let mut reader = wcbk_table::csv::CsvReader::new(BufReader::new(HOSPITAL_CSV.as_bytes()));
        reader.next_record().unwrap().unwrap(); // header
        while let Some(record) = reader.next_record().unwrap() {
            let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
            reference.push_row(&trimmed).unwrap();
        }
        assert_eq!(streamed, reference.build());

        let inline_request = Json::parse(
            &Json::object(vec![
                (
                    "columns",
                    Json::Array(vec!["Age".into(), "Sex".into(), "Disease".into()]),
                ),
                (
                    "rows",
                    Json::Array(vec![
                        Json::Array(vec!["21 ".into(), "M".into(), "Flu".into()]),
                        Json::Array(vec![" 23".into(), "F".into(), "Flu".into()]),
                    ]),
                ),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into()])),
            ])
            .to_string(),
        )
        .unwrap();
        let inline = table_from_request(&inline_request).unwrap();
        let mut reference = wcbk_table::TableBuilder::new(inline.schema().clone());
        reference.push_row(&["21", "M", "Flu"]).unwrap();
        reference.push_row(&["23", "F", "Flu"]).unwrap();
        assert_eq!(inline, reference.build());
    }

    /// Upload pieces of any size, the JSON `"csv"` body and
    /// `csv::read_table` all build `==` tables from the same bytes, and
    /// register under one handle.
    #[test]
    fn upload_json_and_read_table_build_equal_tables() {
        let csv = "Age , Sex,Disease\r\n21,M,\"Flu\"\n\n 23,\"F\",Flu \r\n\"2\"\"7\",M,\"Co\nld\"\n29,F,Cold";
        let json = Json::object(vec![
            ("csv", csv.into()),
            ("sensitive", "Disease".into()),
            ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ]);
        let from_json = table_from_request(&json).unwrap();
        let read =
            wcbk_table::csv::read_table(csv.as_bytes(), from_json.schema().clone(), true).unwrap();
        assert_eq!(read, from_json);

        let service = AuditService::new();
        let id = service.register_table(&json).unwrap();
        for step in [1, 2, 7, 64 * 1024] {
            let upload = |csv: &str| {
                let mut upload = CsvUpload::new("/tables?sensitive=Disease&qi=Age,Sex");
                for piece in csv.as_bytes().chunks(step) {
                    upload.push(piece);
                }
                upload.finish();
                upload
            };
            let uploaded = csv_table(upload(csv).decoder).unwrap();
            assert_eq!(uploaded, from_json, "{step}-byte pieces");
            let registered = service.register_upload(upload(csv)).unwrap();
            assert_eq!(registered.get("id"), id.get("id"), "{step}-byte pieces");
        }
    }

    #[test]
    fn search_matches_library_search() {
        let service = AuditService::new();
        let request = Json::parse(
            &Json::object(vec![
                ("csv", HOSPITAL_CSV.into()),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
                ("k", 1u64.into()),
                ("c", 0.9.into()),
                ("threads", 2u64.into()),
                ("memo_cap", 16u64.into()),
            ])
            .to_string(),
        )
        .unwrap();
        let out = service.search(&request).unwrap();

        let table = table_from_request(&request).unwrap();
        let lattice = build_lattice(&table, &["Age".into(), "Sex".into()], &request).unwrap();
        let criterion = CkSafetyCriterion::new(0.9, 1).unwrap();
        let config = SearchConfig {
            threads: 2,
            memo_capacity: Some(16),
            ..Default::default()
        };
        let direct = wcbk_anonymize::search(&table, &lattice, &criterion, &config)
            .unwrap()
            .outcome;
        let minimal = out.get("minimal").unwrap().as_array().unwrap();
        assert_eq!(minimal.len(), direct.minimal_nodes.len());
        for (got, want) in minimal.iter().zip(&direct.minimal_nodes) {
            let got: Vec<usize> = got
                .as_array()
                .unwrap()
                .iter()
                .map(|l| l.as_u64().unwrap() as usize)
                .collect();
            assert_eq!(got, want.0);
        }
        assert_eq!(
            out.get("evaluated").unwrap().as_u64(),
            Some(direct.evaluated as u64)
        );
        assert_eq!(
            out.get("satisfied").unwrap().as_u64(),
            Some(direct.satisfied as u64)
        );
        // The roll-up section made it into the response and the totals.
        assert!(out.get("rollup").unwrap().get("table_scans").is_some());
        let stats = Json::Object(
            service
                .stats()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        );
        assert_eq!(
            stats
                .get("rollup")
                .unwrap()
                .get("searches")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn shared_engine_hits_across_requests() {
        let service = AuditService::new();
        // Grouped by sex alone, each bucket holds two diseases: k = 0 is
        // below saturation, so the audit looks its bucket up.
        let request = Json::object(vec![
            ("csv", HOSPITAL_CSV.into()),
            ("sensitive", "Disease".into()),
            ("qi", Json::Array(vec!["Sex".into()])),
            ("k", 0u64.into()),
        ]);
        let cache = |service: &AuditService| {
            let stats = service.stats();
            let (_, cache) = stats.iter().find(|(k, _)| *k == "engine_cache").unwrap();
            let count = |name: &str| cache.get(name).unwrap().as_u64().unwrap();
            (count("hits"), count("misses"), count("saturated"))
        };
        service.audit(&request).unwrap();
        let (hits, misses, saturated) = cache(&service);
        assert!(misses > 0);
        service.audit(&request).unwrap();
        assert_eq!(
            cache(&service),
            (hits + 2, misses, saturated),
            "the second audit must hit the shared engine cache"
        );
        assert_eq!(saturated, 0);
    }

    #[test]
    fn inline_rows_equal_csv() {
        let service = AuditService::new();
        let by_csv = service
            .audit(&Json::parse(&audit_request()).unwrap())
            .unwrap();
        let rows: Vec<Json> = HOSPITAL_CSV
            .lines()
            .skip(1)
            .map(|l| Json::Array(l.split(',').map(Json::from).collect()))
            .collect();
        let by_rows = service
            .audit(&Json::object(vec![
                (
                    "columns",
                    Json::Array(vec!["Age".into(), "Sex".into(), "Disease".into()]),
                ),
                ("rows", Json::Array(rows)),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
                ("k", 1u64.into()),
                ("c", 0.9.into()),
            ]))
            .unwrap();
        assert_eq!(by_csv, by_rows);
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        let service = AuditService::new();
        let cases: Vec<Json> = vec![
            Json::Array(vec![]),
            Json::object(vec![("csv", HOSPITAL_CSV.into())]), // no sensitive
            Json::object(vec![("sensitive", "Disease".into())]), // no data
            Json::object(vec![
                ("csv", "A,B\n".into()), // header only
                ("sensitive", "A".into()),
            ]),
            Json::object(vec![
                ("csv", HOSPITAL_CSV.into()),
                ("sensitive", "Nope".into()),
            ]),
            Json::object(vec![
                ("csv", HOSPITAL_CSV.into()),
                ("sensitive", "Disease".into()),
                ("k", (-1.0).into()),
            ]),
        ];
        for request in cases {
            assert!(service.audit(&request).is_err(), "{request} should fail");
        }
        // Search-specific: missing c, empty qi, hierarchy on non-qi column.
        let base = vec![
            ("csv", Json::from(HOSPITAL_CSV)),
            ("sensitive", "Disease".into()),
        ];
        let mut no_c = base.clone();
        no_c.push(("qi", Json::Array(vec!["Age".into()])));
        assert!(service.search(&Json::object(no_c)).is_err());
        let mut no_qi = base.clone();
        no_qi.push(("c", 0.9.into()));
        assert!(service.search(&Json::object(no_qi)).is_err());
        let mut bad_hier = base.clone();
        bad_hier.push(("c", 0.9.into()));
        bad_hier.push(("qi", Json::Array(vec!["Sex".into()])));
        bad_hier.push((
            "hierarchy",
            Json::object(vec![("Age", Json::Array(vec![5u64.into()]))]),
        ));
        assert!(service.search(&Json::object(bad_hier)).is_err());
    }

    #[test]
    fn batch_jobs_validate_shape() {
        let service = AuditService::new();
        assert!(service.batch_jobs(&Json::object(vec![])).is_err());
        assert!(service
            .batch_jobs(&Json::object(vec![("tables", Json::Array(vec![]))]))
            .is_err());
        assert!(service
            .batch_jobs(&Json::object(vec![(
                "tables",
                Json::Array(vec![Json::Null])
            )]))
            .is_err());
        assert!(service
            .batch_jobs(&Json::object(vec![(
                "tables",
                Json::Array(vec![Json::object(vec![("op", "explode".into())])])
            )]))
            .is_err());
        let ok = service
            .batch_jobs(&Json::object(vec![(
                "tables",
                Json::Array(vec![
                    Json::object(vec![("op", "audit".into())]),
                    Json::object(vec![("op", "search".into())]),
                    Json::object(vec![]),
                ]),
            )]))
            .unwrap();
        assert_eq!(ok.len(), 3);
    }

    fn register_request() -> String {
        Json::object(vec![
            ("csv", HOSPITAL_CSV.into()),
            ("sensitive", "Disease".into()),
            ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ])
        .to_string()
    }

    #[test]
    fn register_is_idempotent_and_handles_serve_audits() {
        let service = AuditService::new();
        let request = Json::parse(&register_request()).unwrap();
        let first = service.register_table(&request).unwrap();
        assert_eq!(first.get("created").unwrap().as_bool(), Some(true));
        let id = first.get("id").unwrap().as_str().unwrap().to_owned();
        assert_eq!(
            first
                .get("rollup")
                .unwrap()
                .get("table_scans")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Same content again: same handle, nothing rebuilt.
        let second = service.register_table(&request).unwrap();
        assert_eq!(second.get("created").unwrap().as_bool(), Some(false));
        assert_eq!(second.get("id").unwrap().as_str(), Some(id.as_str()));

        // A handle audit matches the one-shot audit bit for bit.
        let params = Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]);
        let via_handle = service.session_audit(&id, &params).unwrap();
        let oneshot = service
            .audit(&Json::parse(&audit_request()).unwrap())
            .unwrap();
        assert_eq!(
            via_handle
                .get("max_disclosure")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            oneshot
                .get("max_disclosure")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits()
        );
        assert_eq!(via_handle.get("safe"), oneshot.get("safe"));
        assert_eq!(via_handle.get("witness"), oneshot.get("witness"));
        assert_eq!(via_handle.get("id").unwrap().as_str(), Some(id.as_str()));

        // Info and drop; dropped handles answer 404.
        let info = service.table_info(&id).unwrap();
        assert_eq!(info.get("rows").unwrap().as_u64(), Some(6));
        service.drop_table(&id).unwrap();
        assert!(matches!(
            service.session_audit(&id, &params),
            Err(ServeError::UnknownTable(_))
        ));
        assert!(matches!(
            service.drop_table(&id),
            Err(ServeError::UnknownTable(_))
        ));
    }

    #[test]
    fn handle_search_matches_oneshot_search() {
        let service = AuditService::new();
        let request = Json::parse(
            &Json::object(vec![
                ("csv", HOSPITAL_CSV.into()),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
                (
                    "hierarchy",
                    Json::object(vec![("Age", Json::Array(vec![4u64.into(), 8u64.into()]))]),
                ),
            ])
            .to_string(),
        )
        .unwrap();
        let id = service
            .register_table(&request)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let params = Json::object(vec![
            ("k", 1u64.into()),
            ("c", 0.9.into()),
            ("threads", 2u64.into()),
        ]);
        let via_handle = service.session_search(&id, &params).unwrap();
        // One-shot with the same table, hierarchy, and params.
        let mut oneshot_request = request.clone();
        if let Json::Object(pairs) = &mut oneshot_request {
            pairs.push(("k".into(), 1u64.into()));
            pairs.push(("c".into(), 0.9.into()));
            pairs.push(("threads".into(), 2u64.into()));
        }
        let oneshot = service.search(&oneshot_request).unwrap();
        assert_eq!(via_handle.get("minimal"), oneshot.get("minimal"));
        assert_eq!(via_handle.get("evaluated"), oneshot.get("evaluated"));
        assert_eq!(via_handle.get("satisfied"), oneshot.get("satisfied"));
        // Repeated handle searches never rescan: cumulative scans stay 1.
        service.session_search(&id, &params).unwrap();
        let via_handle = service.session_search(&id, &params).unwrap();
        assert_eq!(
            via_handle
                .get("rollup")
                .unwrap()
                .get("table_scans")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn release_and_composition_flow() {
        let service = AuditService::new();
        let id = service
            .register_table(&Json::parse(&register_request()).unwrap())
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        // Composing before any release is a 400.
        let params = Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]);
        assert!(matches!(
            service.session_composition(&id, &params),
            Err(ServeError::BadRequest(_))
        ));
        // Release the top (full suppression: 1 bucket), then by-Sex. Both
        // qi columns carry 2-level suppression hierarchies here.
        let top = Json::object(vec![("node", Json::Array(vec![1u64.into(), 1u64.into()]))]);
        let r = service.session_release(&id, &top).unwrap();
        assert_eq!(r.get("buckets").unwrap().as_u64(), Some(1));
        let by_sex = Json::object(vec![("node", Json::Array(vec![1u64.into(), 0u64.into()]))]);
        let r = service.session_release(&id, &by_sex).unwrap();
        assert_eq!(r.get("index").unwrap().as_u64(), Some(1));
        let out = service.session_composition(&id, &params).unwrap();
        assert_eq!(out.get("releases").unwrap().as_u64(), Some(2));
        assert_eq!(out.get("buckets").unwrap().as_u64(), Some(3));
        assert!(out.get("max_disclosure").unwrap().as_f64().unwrap() > 0.0);
        // Bad node shape is a 400.
        assert!(matches!(
            service.session_release(&id, &Json::object(vec![("node", "x".into())])),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn session_budget_evicts_lru_handles() {
        let service = AuditService::with_limits(ServiceLimits {
            session_budget: Some(8),
            ..Default::default()
        });
        // Three distinct 6-row tables (weight 6 each, all rows distinct):
        // only one fits an 8-group budget at a time.
        let mut ids = Vec::new();
        for variant in 0..3 {
            let csv = format!(
                "Age,Sex,Disease\n2{variant},M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n"
            );
            let request = Json::object(vec![
                ("csv", csv.into()),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
            ]);
            let out = service.register_table(&request).unwrap();
            ids.push(out.get("id").unwrap().as_str().unwrap().to_owned());
        }
        // The latest handle lives; earlier ones were evicted.
        let params = Json::object(vec![("k", 1u64.into())]);
        assert!(service.session_audit(&ids[2], &params).is_ok());
        assert!(matches!(
            service.session_audit(&ids[0], &params),
            Err(ServeError::UnknownTable(_))
        ));
        let stats = Json::Object(
            service
                .stats()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        );
        let sessions = stats.get("sessions").unwrap();
        assert_eq!(sessions.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(sessions.get("evictions").unwrap().as_u64(), Some(2));
        assert_eq!(sessions.get("registered").unwrap().as_u64(), Some(3));
        // Re-registering an evicted handle brings it back.
        let csv =
            "Age,Sex,Disease\n20,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n";
        let request = Json::object(vec![
            ("csv", csv.into()),
            ("sensitive", "Disease".into()),
            ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ]);
        let again = service.register_table(&request).unwrap();
        assert_eq!(again.get("created").unwrap().as_bool(), Some(true));
        assert_eq!(again.get("id").unwrap().as_str(), Some(ids[0].as_str()));
    }

    #[test]
    fn stats_report_per_session_rollups() {
        let service = AuditService::new();
        let id = service
            .register_table(&Json::parse(&register_request()).unwrap())
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let params = Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]);
        service.session_search(&id, &params).unwrap();
        let stats = Json::Object(
            service
                .stats()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        );
        let per_session = stats
            .get("sessions")
            .unwrap()
            .get("per_session")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(per_session.len(), 1);
        let entry = &per_session[0];
        assert_eq!(entry.get("id").unwrap().as_str(), Some(id.as_str()));
        let rollup = entry.get("rollup").unwrap();
        assert_eq!(rollup.get("table_scans").unwrap().as_u64(), Some(1));
        assert!(rollup.get("derived").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn session_batch_jobs_validate_shape() {
        let service = AuditService::new();
        let id = service
            .register_table(&Json::parse(&register_request()).unwrap())
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert!(matches!(
            service.session_batch_jobs("nope", &Json::object(vec![])),
            Err(ServeError::UnknownTable(_))
        ));
        assert!(service
            .session_batch_jobs(&id, &Json::object(vec![]))
            .is_err());
        assert!(service
            .session_batch_jobs(&id, &Json::object(vec![("jobs", Json::Array(vec![]))]))
            .is_err());
        let (session, jobs) = service
            .session_batch_jobs(
                &id,
                &Json::object(vec![(
                    "jobs",
                    Json::Array(vec![
                        Json::object(vec![("op", "audit".into()), ("k", 1u64.into())]),
                        Json::object(vec![
                            ("op", "search".into()),
                            ("k", 1u64.into()),
                            ("c", 0.9.into()),
                        ]),
                    ]),
                )]),
            )
            .unwrap();
        assert_eq!(jobs.len(), 2);
        // Jobs run clean against the session; results carry the handle id.
        for job in &jobs {
            let out = service.run_session_job(&id, &session, job);
            assert!(out.get("error").is_none(), "{out}");
            assert_eq!(out.get("id").unwrap().as_str(), Some(id.as_str()));
        }
        // A bad job embeds its error instead of failing the batch.
        let out =
            service.run_session_job(&id, &session, &Json::object(vec![("op", "search".into())]));
        assert!(out.get("error").is_some(), "{out}");
    }

    #[test]
    fn run_job_embeds_errors() {
        let service = AuditService::new();
        let out = service.run_job(&Json::object(vec![("op", "audit".into())]));
        assert!(out.get("error").is_some(), "{out}");
        let ok = service.run_job(&Json::parse(&audit_request()).unwrap());
        assert!(ok.get("error").is_none(), "{ok}");
        assert_eq!(ok.get("op").unwrap().as_str(), Some("audit"));
    }
}
