//! The server's metric surface: every `/metrics` series in one place.
//!
//! [`ServeMetrics`] wraps one process-wide [`MetricsRegistry`] and
//! pre-registers every family the server exports, so a fresh server scrapes
//! a complete (all-zero) exposition before the first request. Two kinds of
//! series live here:
//!
//! * **Live-recorded** — HTTP request counts/latency, reactor queue wait,
//!   response bytes, slow requests, and batch scheduler counters are
//!   recorded on the request path as they happen.
//! * **Scrape-synced** — engine-layer sources (roll-up scan/derive micros,
//!   MINIMIZE1 build time, WAL latencies) keep their own cumulative
//!   counters; [`ServeMetrics::sync`] mirrors them into registry counters
//!   with [`Counter::record_total`], which never moves backwards even when
//!   a source is reset (WAL checkpoint) or evicted (LRU pools).
//!
//! Metric names are documented for operators in `docs/OPERATIONS.md`.

use std::sync::Arc;

use wcbk_core::sched::ScheduleOutcome;
use wcbk_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::service::{AuditService, MetricTotals, MODEL_OPS};

/// Maps an HTTP status to its class label (`2xx`/`3xx`/`4xx`/`5xx`).
pub fn status_class(status: u16) -> &'static str {
    match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// All `/metrics` series, pre-registered on one shared registry.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    /// Reactor parse-complete → worker-dispatch wait.
    pub queue_wait: Arc<Histogram>,
    response_bytes: Arc<Counter>,
    slow_requests: Arc<Counter>,
    sched_steals: Arc<Counter>,
    sched_speculated: Arc<Counter>,
    sched_abandoned: Arc<Counter>,
    search_scan_micros: Arc<Counter>,
    search_derive_micros: Arc<Counter>,
    search_derived: Arc<Counter>,
    search_table_scans: Arc<Counter>,
    minimize1_build_micros: Arc<Counter>,
    engine_saturated: Arc<Counter>,
    wal_appends: Arc<Counter>,
    wal_append_micros: Arc<Counter>,
    wal_fsync_micros: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_micros: Arc<Counter>,
    sessions_count: Arc<Gauge>,
    sessions_groups: Arc<Gauge>,
    sessions_peak: Arc<Gauge>,
    minimize1_groups: Arc<Gauge>,
    minimize1_peak: Arc<Gauge>,
    /// One counter per (model, op) pair, indexed
    /// `[ModelId::index()][op]` with ops ordered as [`MODEL_OPS`].
    model_requests: Vec<Arc<Counter>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Registers every family the server exports (zero-valued until traffic
    /// or a sync populates them).
    pub fn new() -> Self {
        let r = MetricsRegistry::new();
        // Touch the labelled HTTP families once so `# TYPE` lines exist on
        // a cold scrape; per-endpoint series appear as endpoints are hit.
        r.counter(
            "wcbk_http_requests_total",
            "HTTP requests served, by endpoint and status class.",
        );
        r.histogram(
            "wcbk_http_request_micros",
            "End-to-end request latency (parse + queue wait + handler), by endpoint.",
        );
        Self {
            queue_wait: r.histogram(
                "wcbk_http_queue_wait_micros",
                "Reactor wait between a request parsing completely and a worker picking it up.",
            ),
            response_bytes: r.counter(
                "wcbk_http_response_bytes_total",
                "Response body and header bytes handed to the reactor for writing.",
            ),
            slow_requests: r.counter(
                "wcbk_http_slow_requests_total",
                "Requests whose total latency met or exceeded --slow-request-ms.",
            ),
            sched_steals: r.counter(
                "wcbk_sched_steals_total",
                "Batch scheduler: nodes taken from a sibling worker's deque.",
            ),
            sched_speculated: r.counter(
                "wcbk_sched_speculated_total",
                "Batch scheduler: evaluations started speculatively.",
            ),
            sched_abandoned: r.counter(
                "wcbk_sched_abandoned_total",
                "Batch scheduler: speculative claims abandoned before evaluating.",
            ),
            search_scan_micros: r.counter(
                "wcbk_search_scan_micros_total",
                "Cumulative wall time of roll-up bottom table scans.",
            ),
            search_derive_micros: r.counter(
                "wcbk_search_derive_micros_total",
                "Cumulative wall time of roll-up node-table derivations.",
            ),
            search_derived: r.counter(
                "wcbk_search_derived_total",
                "Node tables derived by roll-up (cheapest-ancestor fold).",
            ),
            search_table_scans: r.counter(
                "wcbk_search_table_scans_total",
                "Full bottom scans performed by roll-up evaluators.",
            ),
            minimize1_build_micros: r.counter(
                "wcbk_minimize1_build_micros_total",
                "Cumulative wall time building MINIMIZE1 tables and bucket costs.",
            ),
            engine_saturated: r.counter(
                "wcbk_engine_saturated_total",
                "Saturated evaluations (k + 1 >= d_min): disclosure 1 with no MINIMIZE1 lookup.",
            ),
            wal_appends: r.counter(
                "wcbk_store_wal_appends_total",
                "Durable-store WAL appends (never reset by checkpoints).",
            ),
            wal_append_micros: r.counter(
                "wcbk_store_wal_append_micros_total",
                "Cumulative wall time of WAL frame writes.",
            ),
            wal_fsync_micros: r.counter(
                "wcbk_store_wal_fsync_micros_total",
                "Cumulative wall time of WAL fsync (sync_data) calls.",
            ),
            checkpoints: r.counter(
                "wcbk_store_checkpoints_total",
                "Durable-store checkpoints taken.",
            ),
            checkpoint_micros: r.counter(
                "wcbk_store_checkpoint_micros_total",
                "Cumulative wall time writing checkpoints.",
            ),
            sessions_count: r.gauge_with(
                "wcbk_pool_entries",
                "Entries resident in an LRU pool.",
                &[("pool", "sessions")],
            ),
            sessions_groups: r.gauge_with(
                "wcbk_pool_groups",
                "Retained group weight of an LRU pool.",
                &[("pool", "sessions")],
            ),
            sessions_peak: r.gauge_with(
                "wcbk_pool_peak_groups",
                "High-water mark of an LRU pool's retained group weight.",
                &[("pool", "sessions")],
            ),
            minimize1_groups: r.gauge_with(
                "wcbk_pool_groups",
                "Retained group weight of an LRU pool.",
                &[("pool", "minimize1")],
            ),
            minimize1_peak: r.gauge_with(
                "wcbk_pool_peak_groups",
                "High-water mark of an LRU pool's retained group weight.",
                &[("pool", "minimize1")],
            ),
            // Pre-register every (model, op) series so a cold scrape shows
            // the full adversary-model matrix at zero.
            model_requests: wcbk_anonymize::MODEL_IDS
                .iter()
                .flat_map(|m| {
                    MODEL_OPS.iter().map(|op| {
                        r.counter_with(
                            "wcbk_model_requests_total",
                            "Requests answered per adversary model and operation.",
                            &[("model", m.name()), ("op", op)],
                        )
                    })
                })
                .collect(),
            registry: r,
        }
    }

    /// Records one finished HTTP request: count (by endpoint and status
    /// class), end-to-end latency, and response bytes.
    pub fn record_http(&self, endpoint: &'static str, status: u16, micros: u64, bytes: u64) {
        self.registry
            .counter_with(
                "wcbk_http_requests_total",
                "HTTP requests served, by endpoint and status class.",
                &[("endpoint", endpoint), ("class", status_class(status))],
            )
            .inc();
        self.registry
            .histogram_with(
                "wcbk_http_request_micros",
                "End-to-end request latency (parse + queue wait + handler), by endpoint.",
                &[("endpoint", endpoint)],
            )
            .record(micros);
        self.response_bytes.add(bytes);
    }

    /// Counts one request past the `--slow-request-ms` threshold.
    pub fn record_slow(&self) {
        self.slow_requests.inc();
    }

    /// Folds one batch scheduler run's counters in.
    pub fn record_sched(&self, outcome: &ScheduleOutcome) {
        self.sched_steals.add(outcome.steals as u64);
        self.sched_speculated.add(outcome.speculated as u64);
        self.sched_abandoned.add(outcome.abandoned as u64);
    }

    /// Mirrors the engine/store-layer cumulative sources into the registry.
    /// Called at scrape time; safe against source resets and evictions
    /// because counters only move up ([`Counter::record_total`]).
    pub fn sync(&self, service: &AuditService) {
        let t: MetricTotals = service.metric_totals();
        self.search_scan_micros.record_total(t.scan_micros);
        self.search_derive_micros.record_total(t.derive_micros);
        self.search_derived.record_total(t.derived);
        self.search_table_scans.record_total(t.table_scans);
        self.minimize1_build_micros
            .record_total(t.minimize1_build_micros);
        self.engine_saturated.record_total(t.engine_saturated);
        self.sessions_count.set(t.session_count);
        self.sessions_groups.set(t.session_groups);
        self.sessions_peak.record_max(t.session_peak_groups);
        self.minimize1_groups.set(t.minimize1_groups);
        self.minimize1_peak.record_max(t.minimize1_peak_groups);
        for (m, ops) in t.model_requests.iter().enumerate() {
            for (op, &count) in ops.iter().enumerate() {
                self.model_requests[m * MODEL_OPS.len() + op].record_total(count);
            }
        }
        if let Some(s) = t.store {
            self.wal_appends.record_total(s.wal_appends);
            self.wal_append_micros.record_total(s.wal_append_micros);
            self.wal_fsync_micros.record_total(s.wal_fsync_micros);
            self.checkpoints.record_total(s.checkpoints);
            self.checkpoint_micros.record_total(s.checkpoint_micros);
        }
    }

    /// Syncs, then renders the full Prometheus text exposition.
    pub fn render(&self, service: &AuditService) -> String {
        self.sync(service);
        self.registry.render()
    }
}
