//! # wcbk-serve — the batch/streaming disclosure-audit service
//!
//! PRs 1–3 made the disclosure machinery shareable (`Send + Sync` engine,
//! one-scan roll-up evaluation, a work-stealing whole-lattice scheduler);
//! this crate puts a network front-end on it, turning one-shot CLI runs
//! into a long-lived service: **many tables, one shared engine**, the
//! natural shape for sequential-release workloads where overlapping tables
//! are re-audited as data accretes.
//!
//! Everything is `std`-only — hand-rolled HTTP/1.1 ([`http`]) and JSON
//! ([`json`]) — because the build environment has no registry access.
//!
//! ## Endpoints
//!
//! The primary surface is the **dataset-handle resource model**: register a
//! table once (one scan builds the shared roll-up evaluator), then audit it
//! forever by handle — no re-parse, no re-scan.
//!
//! | endpoint | does |
//! |---|---|
//! | `POST /tables` | register CSV/rows + hierarchies → content-fingerprint handle (idempotent) |
//! | `GET /tables/{id}` | handle metadata + cumulative roll-up counters |
//! | `DELETE /tables/{id}` | drop the handle |
//! | `POST /tables/{id}/audit` | max disclosure + (c,k) verdict against the registered evaluator |
//! | `POST /tables/{id}/search` | minimal safe generalizations, scan-free |
//! | `POST /tables/{id}/batch` | many (c,k)/config jobs over one evaluator, streamed NDJSON |
//! | `POST /tables/{id}/release` | record a node's buckets into the sequential-release history |
//! | `POST /tables/{id}/composition` | worst-case disclosure over the union of all releases |
//! | `GET /tables/{id}/history` | the recorded release history (the composition audit trail) |
//! | `POST /audit` | one-shot: register → run → drop (bit-identical to `wcbk audit`) |
//! | `POST /search` | one-shot: register → run → drop (honors `threads`/`memo_cap`) |
//! | `POST /batch` | many tables fanned over the work-stealing scheduler, streamed back one NDJSON line per completed table |
//! | `GET /stats` | engine cache + roll-up + per-session + server counters |
//! | `GET /metrics` | Prometheus text exposition of every [`metrics`] series |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful shutdown (in-flight work finishes) |
//!
//! ## Observability
//!
//! Every request carries a **trace id** (client-supplied `X-Request-Id` or
//! generated), echoed on the response and stamped on the structured JSON
//! access log (`wcbk serve --log-json`; `--slow-request-ms N` always logs
//! offenders). Latency decomposes into contiguous phases — parse, reactor
//! queue wait, compute — surfaced three ways: aggregated in [`metrics`]
//! (scraped at `GET /metrics`), summarized in `/stats`, and per-request via
//! `"profile": true` on audit/search bodies, whose `profile` object reports
//! phase micros summing exactly to `total_micros`. See
//! `docs/OPERATIONS.md` for the full metrics glossary and the
//! slow-request runbook.
//!
//! The session store and the one MINIMIZE1 cache every `k` shares sit
//! under group-weighted LRU budgets ([`ServiceLimits`]; `wcbk serve
//! --engine-cache-cap/--session-budget`), so a long-lived
//! server is memory-bounded: an evicted handle answers a clean 404 and can
//! simply be re-registered.
//!
//! With a durable catalog attached (`wcbk serve --data-dir DIR`, backed by
//! [`wcbk_store::DatasetStore`]) the story strengthens: registrations and
//! releases are persisted write-ahead **before** they are acknowledged, the
//! server replays its catalog on boot, and an evicted or restart-forgotten
//! handle is lazily rebuilt from disk on first touch instead of 404ing —
//! with bit-identical answers, and still exactly one table scan per handle
//! per process. `DELETE /tables/{id}` becomes the one true deletion
//! (removed from disk too). See [`persist`] for the payload format.
//!
//! Results are bit-identical to `wcbk audit` / `wcbk search`: same table
//! construction, same engine code, and `f64`s serialized with shortest
//! round-trip formatting.
//!
//! Connections are served by a **readiness-based reactor** ([`poll`],
//! [`server`]): every socket is nonblocking, one thread multiplexes all of
//! them, and CPU-bound work runs on a bounded worker pool — so thousands
//! of idle keep-alive clients cost ~0 threads, slow clients are reaped by
//! deadline instead of pinning a worker, and `POST /tables` accepts
//! `Transfer-Encoding: chunked` CSV uploads decoded incrementally off the
//! wire. Admission is one connection cap (`max_connections`, by default
//! `workers + 64`): past it, a new connection gets an immediate `503` with
//! `Retry-After`.
//!
//! ```no_run
//! use wcbk_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! let handle = server.handle(); // .shutdown() from any thread
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod http;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod poll;
pub mod server;
pub mod service;

pub use json::{Json, JsonError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{AuditService, ServeError, ServiceLimits};
