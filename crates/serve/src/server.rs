//! The HTTP front-end: a readiness-based connection reactor over one shared
//! [`AuditService`] and a bounded CPU worker pool.
//!
//! * **Evented I/O** — every socket is nonblocking. One reactor thread (the
//!   caller of [`Server::run`]) multiplexes all connections with
//!   [`crate::poll`]: it accepts, parses requests incrementally
//!   ([`RequestParser`]), flushes response bytes as sockets become
//!   writable, and parks when nothing is ready. A connection is a small
//!   state machine (reading → dispatched → writing → idle keep-alive), so
//!   thousands of mostly-idle keep-alive clients cost a few hundred bytes
//!   each — not a thread.
//! * **Workers never touch sockets** — CPU-bound service work runs on
//!   `workers` pool threads. A worker receives a fully parsed request,
//!   renders the response into memory (`ConnWriter`), and hands the bytes
//!   back to the reactor (`Completion`); the reactor alone writes to the
//!   socket. Connections never block a worker; workers never block on a
//!   socket. Streaming batches work the same way: each NDJSON line becomes
//!   one completion, flushed by write-readiness.
//! * **Admission** — one connection cap: up to `max_connections` open
//!   connections (`0` resolves to `workers + 64`), each dispatching to the
//!   worker queue as soon as a request parses; past the cap a new
//!   connection gets an immediate `503` (with `Retry-After`).
//! * **Deadlines** — the reactor reaps slow clients without spending a
//!   worker on them: headers must complete within `read_timeout` of the
//!   first request byte (slowloris), body and response writes must keep
//!   making progress, and idle keep-alive connections are reaped after
//!   `idle_timeout`. Reaped connections are closed silently and counted in
//!   `/stats`.
//! * **Graceful shutdown** — `POST /shutdown` (or
//!   [`ServerHandle::shutdown`]) stops accepting, closes idle connections
//!   immediately, gives partially-read requests a short grace period, and
//!   lets every dispatched request — including a streaming batch — run to
//!   completion before [`Server::run`] returns.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wcbk_core::sched::{evaluate_work_stealing, MonotoneDag};
use wcbk_obs::{next_trace_id, sanitize_trace_id};
use wcbk_store::DatasetStore;

use crate::http::{
    write_json, write_json_with, write_response_with, ChunkedWriter, HttpError, Request,
    RequestParser,
};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::poll::{fd_of, Fd, Interest, Poller, Waker};
use crate::service::{AuditService, CsvUpload, ServeError, ServiceLimits};

/// Bytes read from a socket per reactor pass over a readable connection.
const READ_CHUNK: usize = 64 * 1024;
/// A worker's response buffer auto-flushes to the reactor past this size.
const FLUSH_THRESHOLD: usize = 256 * 1024;
/// Hard cap on un-flushed response bytes buffered for one connection; a
/// client that stops reading its (streaming) response is cut off here
/// rather than ballooning memory.
const MAX_PENDING_OUT: usize = 32 * 1024 * 1024;
/// How long a partially-read request may linger once shutdown begins.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);
/// Pause on persistent `accept` errors (EMFILE under fd exhaustion) so the
/// reactor doesn't busy-spin while workers release descriptors.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);
/// Connections admitted beyond the worker count when `max_connections` is
/// `0`.
const DEFAULT_EXTRA_CONNECTIONS: usize = 64;

/// Server knobs; `Default` gives a loopback server with
/// hardware-parallelism workers and a `workers + 64` connection cap.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads running service work (`0` = all cores).
    pub workers: usize,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Slow-client deadline: headers must complete within this of the first
    /// request byte, and body bytes and response writes must keep
    /// progressing. `None` disables the bound.
    pub read_timeout: Option<Duration>,
    /// Connection cap, beyond which new connections are answered 503 at
    /// accept. `0` resolves at bind to `workers + 64`.
    pub max_connections: usize,
    /// Idle keep-alive connections are reaped after this. `None` keeps them
    /// forever (until `max_connections` pushes back).
    pub idle_timeout: Option<Duration>,
    /// Memory budgets for the engine registry and the session store
    /// (`Default`: unbounded — the one-shot behavior).
    pub limits: ServiceLimits,
    /// Durable catalog directory (`wcbk serve --data-dir`). `Some` makes
    /// registrations and releases crash-safe: the WAL is replayed at bind,
    /// known handles resume serving (lazily rebuilt on first touch), and
    /// `DELETE` deletes durably. `None` keeps the classic in-memory server.
    pub data_dir: Option<PathBuf>,
    /// Emit one structured JSON access-log line per request to stdout
    /// (`wcbk serve --log-json`).
    pub log_json: bool,
    /// Requests whose end-to-end latency meets or exceeds this many
    /// milliseconds are logged (in the access-log format) even without
    /// `log_json`, and counted in `wcbk_http_slow_requests_total`.
    pub slow_request_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            max_body: 64 * 1024 * 1024,
            read_timeout: Some(Duration::from_secs(5)),
            max_connections: 0,
            idle_timeout: Some(Duration::from_secs(60)),
            limits: ServiceLimits::default(),
            data_dir: None,
            log_json: false,
            slow_request_ms: None,
        }
    }
}

/// Counters the server adds to `/stats` next to the service's.
#[derive(Default)]
struct ServerCounters {
    requests: AtomicU64,
    rejected: AtomicU64,
    open: AtomicU64,
    peak: AtomicU64,
    reaped_idle: AtomicU64,
    reaped_slow: AtomicU64,
    wakeups: AtomicU64,
    /// Σ reactor queue wait (parse-complete → worker pickup), micros.
    queue_wait_micros: AtomicU64,
    /// Requests that went through the worker queue (the divisor for the
    /// mean queue wait).
    dispatched: AtomicU64,
}

/// A parsed request handed from the reactor to the worker pool.
struct Job {
    conn: u64,
    request: Request,
    /// Set by the reactor when the connection dies, so the worker aborts
    /// (streamed) work nobody will read.
    dead: Arc<AtomicBool>,
    /// A streamed CSV upload decoded off the wire, ready to finalize.
    upload: Option<CsvUpload>,
    /// Client-supplied `X-Request-Id` (sanitized) or a generated id; echoed
    /// on the response and stamped on every log line for this request.
    trace_id: String,
    /// First request byte → parse complete, micros.
    parse_micros: u64,
    /// When parsing completed — the queue-wait clock, read by the worker.
    queued_at: Instant,
}

/// Bytes (or the end-of-response marker) a worker hands back to the
/// reactor for socket flushing.
enum Completion {
    Data(Vec<u8>),
    End { keep_alive: bool },
}

/// State shared by the reactor, the workers, and every handle.
struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    completions: Mutex<Vec<(u64, Completion)>>,
    waker: Waker,
    shutdown: AtomicBool,
    /// Set once the reactor has drained every connection; workers exit when
    /// this is set and the job queue is empty.
    drained: AtomicBool,
    counters: ServerCounters,
    local_addr: SocketAddr,
    workers: usize,
    max_body: usize,
    read_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    /// The resolved connection cap (never `0`).
    max_connections: usize,
    started: Instant,
    /// The `/metrics` registry plus every pre-registered series.
    metrics: ServeMetrics,
    log_json: bool,
    slow_request_ms: Option<u64>,
}

impl Shared {
    /// Initiates graceful shutdown: flag it, wake parked workers, and poke
    /// the reactor so it observes the flag immediately.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.ready.notify_all();
        self.waker.wake();
    }
}

/// Locks a mutex, recovering from poisoning: none of the shared queues has
/// an invariant a panicked holder can break, and giving up the lock forever
/// would turn one handler panic into a full-server outage.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn push_completion(shared: &Shared, conn: u64, completion: Completion) {
    lock(&shared.completions).push((conn, completion));
}

/// A clonable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins graceful shutdown (idempotent): in-flight and queued requests
    /// finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound listener plus the shared service — see the module docs.
pub struct Server {
    listener: TcpListener,
    poller: Poller,
    service: Arc<AuditService>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and materializes the shared state. The server
    /// does not serve until [`run`](Self::run).
    pub fn bind(config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (poller, waker) = Poller::new()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            counters: ServerCounters::default(),
            local_addr,
            workers,
            max_body: config.max_body,
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            max_connections: match config.max_connections {
                0 => workers + DEFAULT_EXTRA_CONNECTIONS,
                cap => cap,
            },
            started: Instant::now(),
            metrics: ServeMetrics::new(),
            log_json: config.log_json,
            slow_request_ms: config.slow_request_ms,
        });
        // Open (and replay) the durable catalog before serving: a corrupt
        // store fails the bind loudly instead of 500ing every request.
        let service = match &config.data_dir {
            Some(dir) => {
                let store = DatasetStore::open(dir)?;
                AuditService::with_store(config.limits, Arc::new(store))
            }
            None => AuditService::with_limits(config.limits),
        };
        Ok(Self {
            listener,
            poller,
            service: Arc::new(service),
            shared,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A remote control valid for the server's whole life.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared audit service (tests inspect its stats directly).
    pub fn service(&self) -> Arc<AuditService> {
        Arc::clone(&self.service)
    }

    /// Serves until graceful shutdown completes. The calling thread runs
    /// the reactor; workers run on scoped threads.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        let service = &self.service;
        let mut reactor = Reactor {
            shared,
            service,
            listener: Some(self.listener),
            poller: self.poller,
            conns: HashMap::new(),
            next_id: 0,
            shutdown_seen: false,
            shutdown_at: Instant::now(),
            accept_backoff_until: None,
            open: 0,
        };
        std::thread::scope(|scope| {
            for _ in 0..shared.workers {
                scope.spawn(move || worker_loop(shared, service));
            }
            reactor.run();
            shared.drained.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
        });
        Ok(())
    }
}

/// Where a connection's state machine currently stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Parsing request bytes (or idle between keep-alive requests).
    Reading,
    /// A request is on the worker pool; response bytes arrive as
    /// completions.
    Dispatched,
    /// Flushing the last bytes, then close.
    Closing,
}

/// Which deadline fired, for the reap counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    Idle,
    Slow,
    Grace,
}

/// One connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Response bytes not yet written; `out_pos` marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    dead: Arc<AtomicBool>,
    /// A synthetic connection that only delivers a 503 (not counted open).
    is_reject: bool,
    read_eof: bool,
    /// When the current request's first byte arrived — the whole-headers
    /// deadline anchors here, so trickling headers can't evade it.
    first_byte_at: Option<Instant>,
    /// Last observed progress (bytes read or written).
    last_progress: Instant,
    /// When the connection last went idle between requests.
    idle_since: Instant,
    /// An in-flight streamed CSV upload being decoded as bytes arrive.
    upload: Option<CsvUpload>,
}

/// Poll-set key for the listener (connection ids count up from zero).
const LISTENER_KEY: u64 = u64::MAX;

/// The reactor: owns every connection and the listener, multiplexed by one
/// [`Poller`].
struct Reactor<'a> {
    shared: &'a Shared,
    service: &'a AuditService,
    listener: Option<TcpListener>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shutdown_seen: bool,
    shutdown_at: Instant,
    accept_backoff_until: Option<Instant>,
    /// Admitted (non-reject) connections currently open.
    open: u64,
}

impl Reactor<'_> {
    fn run(&mut self) {
        loop {
            self.shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            self.drain_completions();
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.shutdown_seen {
                self.enter_shutdown();
            }
            if self.shutdown_seen && self.conns.is_empty() {
                return;
            }

            let now = Instant::now();
            let accept_paused = self.accept_backoff_until.is_some_and(|t| now < t);
            if !accept_paused {
                self.accept_backoff_until = None;
            }
            let mut entries: Vec<(Fd, Interest)> = Vec::with_capacity(self.conns.len() + 1);
            let mut keys: Vec<u64> = Vec::with_capacity(self.conns.len() + 1);
            if !accept_paused {
                if let Some(listener) = &self.listener {
                    entries.push((fd_of(listener), Interest::READ));
                    keys.push(LISTENER_KEY);
                }
            }
            let mut wake_at: Option<Instant> = self.accept_backoff_until;
            for (&id, conn) in &self.conns {
                entries.push((
                    fd_of(&conn.stream),
                    Interest {
                        readable: conn.state == ConnState::Reading && !conn.read_eof,
                        writable: conn.out_pos < conn.out.len(),
                    },
                ));
                keys.push(id);
                if let Some((at, _)) = self.conn_deadline(conn) {
                    if wake_at.is_none_or(|w| at < w) {
                        wake_at = Some(at);
                    }
                }
            }
            let timeout = wake_at.map(|at| at.saturating_duration_since(now));
            let ready = match self.poller.wait(&entries, timeout) {
                Ok((ready, _woke)) => ready,
                Err(_) => {
                    // A failed poll (resource exhaustion) must not busy-spin.
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            for (i, &key) in keys.iter().enumerate() {
                if !ready[i].any() {
                    continue;
                }
                if key == LISTENER_KEY {
                    self.do_accept();
                    continue;
                }
                if !self.conns.contains_key(&key) {
                    continue; // closed earlier this pass
                }
                if ready[i].error {
                    self.close_conn(key);
                    continue;
                }
                if ready[i].writable {
                    self.flush_conn(key);
                }
                if ready[i].readable && self.conns.contains_key(&key) {
                    self.read_conn(key);
                }
            }
            self.reap_deadlines();
        }
    }

    /// Applies every completion the workers queued since the last pass.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *lock(&self.shared.completions));
        for (id, completion) in done {
            match completion {
                Completion::Data(bytes) => self.append_output(id, &bytes),
                Completion::End { keep_alive } => self.finish_request(id, keep_alive),
            }
        }
    }

    /// First observation of the shutdown flag: stop accepting, close idle
    /// connections, and start the grace clock for partially-read ones.
    fn enter_shutdown(&mut self) {
        self.shutdown_seen = true;
        self.shutdown_at = Instant::now();
        self.listener = None;
        // Mid-request connections get SHUTDOWN_GRACE (see `conn_deadline`)
        // to finish or be cut.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::Reading && c.parser.is_idle() && c.out_pos >= c.out.len()
            })
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close_conn(id);
        }
    }

    /// The soonest deadline (if any) that should reap this connection.
    fn conn_deadline(&self, conn: &Conn) -> Option<(Instant, DeadlineKind)> {
        let mut best: Option<(Instant, DeadlineKind)> = None;
        let push = |at: Instant, kind: DeadlineKind, best: &mut Option<(Instant, DeadlineKind)>| {
            if best.is_none_or(|(b, _)| at < b) {
                *best = Some((at, kind));
            }
        };
        // A response (or a 503) the peer won't read: write-stall deadline.
        if conn.out_pos < conn.out.len() {
            if let Some(rt) = self.shared.read_timeout {
                push(conn.last_progress + rt, DeadlineKind::Slow, &mut best);
            }
        }
        if conn.state == ConnState::Reading {
            if conn.parser.is_idle() {
                if conn.out_pos >= conn.out.len() {
                    if let Some(it) = self.shared.idle_timeout {
                        push(conn.idle_since + it, DeadlineKind::Idle, &mut best);
                    }
                }
            } else {
                if let Some(rt) = self.shared.read_timeout {
                    if conn.parser.head_received() {
                        // Body: progress-based.
                        push(conn.last_progress + rt, DeadlineKind::Slow, &mut best);
                    } else if let Some(first) = conn.first_byte_at {
                        // Headers: absolute from the first byte, so a
                        // byte-at-a-time slowloris cannot reset it.
                        push(first + rt, DeadlineKind::Slow, &mut best);
                    }
                }
                if self.shutdown_seen {
                    push(
                        self.shutdown_at + SHUTDOWN_GRACE,
                        DeadlineKind::Grace,
                        &mut best,
                    );
                }
            }
        }
        if self.shutdown_seen && conn.is_reject {
            push(
                self.shutdown_at + SHUTDOWN_GRACE,
                DeadlineKind::Grace,
                &mut best,
            );
        }
        best
    }

    /// Closes every connection whose deadline has passed.
    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(u64, DeadlineKind)> = self
            .conns
            .iter()
            .filter_map(|(&id, conn)| {
                self.conn_deadline(conn)
                    .filter(|&(at, _)| at <= now)
                    .map(|(_, kind)| (id, kind))
            })
            .collect();
        for (id, kind) in expired {
            match kind {
                DeadlineKind::Idle => {
                    self.shared
                        .counters
                        .reaped_idle
                        .fetch_add(1, Ordering::Relaxed);
                }
                DeadlineKind::Slow => {
                    self.shared
                        .counters
                        .reaped_slow
                        .fetch_add(1, Ordering::Relaxed);
                }
                DeadlineKind::Grace => {}
            }
            self.close_conn(id);
        }
    }

    /// Accepts until the listener would block.
    fn do_accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.admit(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Admission control: past `max_connections` open connections, a new
    /// one gets the 503.
    fn admit(&mut self, stream: TcpStream) {
        if self.open as usize >= self.shared.max_connections {
            self.reject(stream);
            return;
        }
        let now = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        self.open += 1;
        self.shared
            .counters
            .open
            .store(self.open, Ordering::Relaxed);
        self.shared
            .counters
            .peak
            .fetch_max(self.open, Ordering::Relaxed);
        self.conns.insert(
            id,
            Conn {
                stream,
                parser: RequestParser::new(self.shared.max_body),
                out: Vec::new(),
                out_pos: 0,
                state: ConnState::Reading,
                dead: Arc::new(AtomicBool::new(false)),
                is_reject: false,
                read_eof: false,
                first_byte_at: None,
                last_progress: now,
                idle_since: now,
                upload: None,
            },
        );
    }

    /// Registers a synthetic connection whose only job is to deliver the
    /// 503 (poll-driven, so a slow rejectee can't stall the reactor).
    fn reject(&mut self, stream: TcpStream) {
        self.shared
            .counters
            .rejected
            .fetch_add(1, Ordering::Relaxed);
        let body = Json::object(vec![("error", "server is at capacity".into())]).to_string();
        let out = format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let now = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        self.conns.insert(
            id,
            Conn {
                stream,
                parser: RequestParser::new(0),
                out,
                out_pos: 0,
                state: ConnState::Closing,
                dead: Arc::new(AtomicBool::new(false)),
                is_reject: true,
                read_eof: false,
                first_byte_at: None,
                last_progress: now,
                idle_since: now,
                upload: None,
            },
        );
        self.flush_conn(id);
    }

    /// Removes a connection, freeing its slot under the cap.
    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        conn.dead.store(true, Ordering::SeqCst);
        if !conn.is_reject {
            self.open -= 1;
            self.shared
                .counters
                .open
                .store(self.open, Ordering::Relaxed);
        }
    }

    fn submit(&self, job: Job) {
        lock(&self.shared.jobs).push_back(job);
        self.shared.ready.notify_one();
    }

    /// One nonblocking read; level-triggered polling re-reports leftover
    /// kernel bytes, so a single chunk per pass keeps the loop fair.
    fn read_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.state != ConnState::Reading || conn.read_eof {
            return;
        }
        let mut buf = [0u8; READ_CHUNK];
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_eof = true;
                if conn.parser.is_idle() {
                    if conn.out_pos >= conn.out.len() {
                        self.close_conn(id);
                    } else {
                        // Finish flushing the previous response, then close.
                        conn.state = ConnState::Closing;
                    }
                } else {
                    // EOF mid-request: it can never complete.
                    self.close_conn(id);
                }
            }
            Ok(n) => {
                let now = Instant::now();
                if conn.parser.is_idle() {
                    conn.first_byte_at = Some(now);
                }
                conn.last_progress = now;
                conn.parser.push(&buf[..n]);
                self.advance_parser(id);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => self.close_conn(id),
        }
    }

    /// Drives the request parser after new bytes (or after a response, for
    /// pipelined requests), dispatching at most one request.
    fn advance_parser(&mut self, id: u64) {
        enum Outcome {
            Wait,
            Dispatch(Box<Job>),
            Respond(u16, String),
            Close,
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.state != ConnState::Reading {
            return;
        }
        let mut interim = false;
        let outcome = match conn.parser.advance() {
            Ok(Some(mut request)) => {
                let parse_micros = conn
                    .first_byte_at
                    .take()
                    .map_or(0, |first| first.elapsed().as_micros() as u64);
                let trace_id = request
                    .header("x-request-id")
                    .and_then(sanitize_trace_id)
                    .map(str::to_owned)
                    .unwrap_or_else(next_trace_id);
                let mut upload = conn.upload.take();
                if let Some(u) = upload.as_mut() {
                    // Residual decoded bytes from the completing advance.
                    let tail = conn.parser.take_body();
                    u.push(&tail);
                } else if is_csv_upload(&request) {
                    // Small upload that arrived fully buffered: route it
                    // through the same incremental path for one code path.
                    let mut u = CsvUpload::new(&request.path);
                    u.push(&request.body);
                    request.body = Vec::new();
                    upload = Some(u);
                }
                if let Some(u) = upload.as_mut() {
                    u.finish();
                }
                self.shared
                    .counters
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                Outcome::Dispatch(Box::new(Job {
                    conn: id,
                    request,
                    dead: Arc::clone(&conn.dead),
                    upload,
                    trace_id,
                    parse_micros,
                    queued_at: Instant::now(),
                }))
            }
            Ok(None) => {
                if conn.parser.take_continue() {
                    // The head passed the body-size check: invite the body
                    // the client is holding back until it hears from us.
                    conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                    interim = true;
                }
                if conn.upload.is_none() {
                    if let Some(head) = conn.parser.head() {
                        if is_csv_upload(head) {
                            let upload = CsvUpload::new(&head.path);
                            conn.parser.stream_body();
                            conn.upload = Some(upload);
                        }
                    }
                }
                if let Some(u) = conn.upload.as_mut() {
                    let bytes = conn.parser.take_body();
                    if !bytes.is_empty() {
                        u.push(&bytes);
                    }
                }
                Outcome::Wait
            }
            Err(HttpError::TooLarge { declared, limit }) => Outcome::Respond(
                413,
                format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            ),
            Err(HttpError::Malformed(message)) => Outcome::Respond(400, message),
            Err(e @ HttpError::ExpectationFailed(_)) => Outcome::Respond(417, e.to_string()),
            Err(HttpError::Io(_)) => Outcome::Close,
        };
        match outcome {
            Outcome::Wait if interim => self.flush_conn(id),
            Outcome::Wait => {}
            Outcome::Dispatch(job) => {
                let conn = self.conns.get_mut(&id).expect("conn parsed a request");
                conn.state = ConnState::Dispatched;
                self.submit(*job);
            }
            Outcome::Respond(status, message) => {
                // HTTP-level errors are answered by the reactor itself — no
                // worker needed — and close the connection.
                self.service.count_bad_request();
                let body = Json::object(vec![("error", message.into())]);
                let mut bytes = Vec::new();
                let _ = write_json(&mut bytes, status, &body, false);
                let conn = self.conns.get_mut(&id).expect("conn hit a parse error");
                if conn.out_pos > 0 {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                conn.out.extend_from_slice(&bytes);
                conn.state = ConnState::Closing;
                self.flush_conn(id);
            }
            Outcome::Close => self.close_conn(id),
        }
    }

    /// Appends worker-produced response bytes and flushes opportunistically.
    fn append_output(&mut self, id: u64, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.out_pos > 0 {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        conn.out.extend_from_slice(bytes);
        if conn.out.len() > MAX_PENDING_OUT {
            // The peer has stopped reading a response this large; cut it
            // off rather than buffering without bound.
            self.shared
                .counters
                .reaped_slow
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(id);
            return;
        }
        self.flush_conn(id);
    }

    /// A worker finished one request: back to keep-alive reading (serving
    /// any pipelined request already buffered) or flush-and-close.
    fn finish_request(&mut self, id: u64, keep_alive: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let keep = keep_alive
            && !self.shutdown_seen
            && !conn.read_eof
            && !conn.dead.load(Ordering::Relaxed);
        if keep {
            let now = Instant::now();
            conn.state = ConnState::Reading;
            conn.idle_since = now;
            conn.last_progress = now;
            self.flush_conn(id);
            if self.conns.contains_key(&id) {
                self.advance_parser(id);
            }
        } else {
            conn.state = ConnState::Closing;
            self.flush_conn(id);
        }
    }

    /// Writes as much pending output as the socket accepts; closes the
    /// connection when a `Closing` state finishes flushing.
    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut failed = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            self.close_conn(id);
            return;
        }
        let conn = self.conns.get_mut(&id).expect("conn still open");
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.state == ConnState::Closing {
                self.close_conn(id);
            }
        }
    }
}

/// Pops jobs until the reactor has drained and no work remains.
fn worker_loop(shared: &Shared, service: &AuditService) {
    loop {
        let job = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if shared.drained.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = shared
                    .ready
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let conn = job.conn;
        // Panic isolation: a bug while serving one request must not take
        // the worker — let alone the pool — down with it. The reactor is
        // told the request ended so the connection is closed, not leaked.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_job(shared, service, job)
        }));
        if caught.is_err() {
            eprintln!("wcbk-serve: request handler panicked; connection dropped");
            push_completion(shared, conn, Completion::End { keep_alive: false });
            shared.waker.wake();
        }
    }
}

/// Runs one request on a worker thread, rendering the response through a
/// [`ConnWriter`] back to the reactor.
fn serve_job(shared: &Shared, service: &AuditService, job: Job) {
    let Job {
        conn,
        request,
        dead,
        upload,
        trace_id,
        parse_micros,
        queued_at,
    } = job;
    let queue_wait_micros = queued_at.elapsed().as_micros() as u64;
    shared.metrics.queue_wait.record(queue_wait_micros);
    shared
        .counters
        .queue_wait_micros
        .fetch_add(queue_wait_micros, Ordering::Relaxed);
    shared.counters.dispatched.fetch_add(1, Ordering::Relaxed);
    let shutdown_after = request.method == "POST" && request.path == "/shutdown";
    let keep_alive =
        request.keep_alive() && !shutdown_after && !shared.shutdown.load(Ordering::SeqCst);
    let started = Instant::now();
    let mut writer = ConnWriter {
        shared,
        conn,
        dead: &dead,
        buf: Vec::new(),
        written: 0,
    };
    let phases = Phases {
        trace_id: &trace_id,
        parse_micros,
        queue_wait_micros,
    };
    let result = match upload {
        Some(upload) => {
            let (status, body) = match service.register_upload(upload) {
                Ok(out) => (200, out),
                Err(e) => bad_request(service, e),
            };
            write_json_with(
                &mut writer,
                status,
                &body,
                keep_alive,
                &[("X-Request-Id", &trace_id)],
            )
            .map(|()| (status, "/tables"))
        }
        None => respond(shared, service, &mut writer, &request, keep_alive, &phases),
    };
    let flushed = writer.flush().is_ok();
    let bytes = writer.written;
    let total_micros = parse_micros + queue_wait_micros + started.elapsed().as_micros() as u64;
    if let Ok((status, endpoint)) = result {
        shared
            .metrics
            .record_http(endpoint, status, total_micros, bytes);
        let slow = shared
            .slow_request_ms
            .is_some_and(|ms| total_micros >= ms.saturating_mul(1000));
        if slow {
            shared.metrics.record_slow();
        }
        if shared.log_json || slow {
            let ts_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            let line = Json::object(vec![
                ("ts_ms", ts_ms.into()),
                ("trace_id", trace_id.as_str().into()),
                ("method", request.method.as_str().into()),
                ("path", request.path.as_str().into()),
                ("endpoint", endpoint.into()),
                ("status", u64::from(status).into()),
                ("bytes", bytes.into()),
                ("total_micros", total_micros.into()),
                ("parse_micros", parse_micros.into()),
                ("queue_wait_micros", queue_wait_micros.into()),
                ("slow", slow.into()),
            ]);
            println!("{line}");
        }
    }
    push_completion(
        shared,
        conn,
        Completion::End {
            keep_alive: keep_alive && result.is_ok() && flushed,
        },
    );
    shared.waker.wake();
    if shutdown_after {
        shared.begin_shutdown();
    }
}

/// The transport-side request phases a worker threads through `respond`:
/// the trace id (echoed as `X-Request-Id`) and the parse/queue-wait timings
/// that complete a handler's `"profile"` object.
struct Phases<'a> {
    trace_id: &'a str,
    parse_micros: u64,
    queue_wait_micros: u64,
}

/// Completes a handler-produced `"profile"` object with the transport
/// phases. `total_micros` is parse + queue-wait + compute by construction,
/// so the reported phases always sum exactly to the reported total.
fn finish_profile(body: &mut Json, phases: &Phases<'_>) {
    let Json::Object(pairs) = body else { return };
    let Some((_, Json::Object(profile))) = pairs.iter_mut().find(|(k, _)| k == "profile") else {
        return;
    };
    let compute = profile
        .iter()
        .find(|(k, _)| k == "compute_micros")
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or(0);
    profile.push(("parse_micros".to_owned(), phases.parse_micros.into()));
    profile.push((
        "queue_wait_micros".to_owned(),
        phases.queue_wait_micros.into(),
    ));
    profile.push((
        "total_micros".to_owned(),
        (phases.parse_micros + phases.queue_wait_micros + compute).into(),
    ));
}

/// Whether a request head is a wire CSV upload (`POST /tables` with a
/// `text/csv` body; parameters ride in the query string). JSON-body
/// registration is untouched.
fn is_csv_upload(head: &Request) -> bool {
    head.method == "POST"
        && (head.path == "/tables" || head.path.starts_with("/tables?"))
        && head
            .header("content-type")
            .is_some_and(|ct| ct.to_ascii_lowercase().contains("text/csv"))
}

/// A worker's response sink: buffers locally, handing finished byte runs to
/// the reactor as [`Completion::Data`]. Never blocks; reports the peer
/// dead (broken pipe) so streamed batches cancel instead of computing for
/// nobody.
struct ConnWriter<'a> {
    shared: &'a Shared,
    conn: u64,
    dead: &'a AtomicBool,
    buf: Vec<u8>,
    /// Total bytes accepted (headers + body), for the access log and
    /// `wcbk_http_response_bytes_total`.
    written: u64,
}

impl Write for ConnWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.written += data.len() as u64;
        self.buf.extend_from_slice(data);
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        if !self.buf.is_empty() {
            let bytes = std::mem::take(&mut self.buf);
            push_completion(self.shared, self.conn, Completion::Data(bytes));
            self.shared.waker.wake();
        }
        Ok(())
    }
}

/// Routes one request and writes its response, returning the status and
/// the endpoint label recorded in `/metrics`.
fn respond<W: Write>(
    shared: &Shared,
    service: &AuditService,
    writer: &mut W,
    request: &Request,
    keep_alive: bool,
    phases: &Phases<'_>,
) -> std::io::Result<(u16, &'static str)> {
    let trace_headers = [("X-Request-Id", phases.trace_id)];
    // Everything except /batch (which streams) and /metrics (plain text)
    // resolves to a status + endpoint label + JSON body.
    let (status, endpoint, mut body): (u16, &'static str, Json) =
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => (
                200,
                "/healthz",
                Json::object(vec![
                    ("status", "ok".into()),
                    (
                        "uptime_ms",
                        (shared.started.elapsed().as_millis() as u64).into(),
                    ),
                    (
                        "shutting_down",
                        shared.shutdown.load(Ordering::SeqCst).into(),
                    ),
                ]),
            ),
            ("GET", "/metrics") => {
                let text = shared.metrics.render(service);
                write_response_with(
                    writer,
                    200,
                    "text/plain; version=0.0.4",
                    text.as_bytes(),
                    keep_alive,
                    &trace_headers,
                )?;
                return Ok((200, "/metrics"));
            }
            ("GET", "/stats") => {
                let mut sections = service.stats();
                let c = &shared.counters;
                sections.push((
                    "server",
                    Json::object(vec![
                        ("requests", c.requests.load(Ordering::Relaxed).into()),
                        ("rejected_503", c.rejected.load(Ordering::Relaxed).into()),
                        ("workers", shared.workers.into()),
                        ("max_connections", shared.max_connections.into()),
                        ("open_connections", c.open.load(Ordering::Relaxed).into()),
                        ("peak_connections", c.peak.load(Ordering::Relaxed).into()),
                        ("reaped_idle", c.reaped_idle.load(Ordering::Relaxed).into()),
                        ("reaped_slow", c.reaped_slow.load(Ordering::Relaxed).into()),
                        ("reactor_wakeups", c.wakeups.load(Ordering::Relaxed).into()),
                        (
                            "queue_wait_micros",
                            c.queue_wait_micros.load(Ordering::Relaxed).into(),
                        ),
                        ("dispatched", c.dispatched.load(Ordering::Relaxed).into()),
                        (
                            "uptime_ms",
                            (shared.started.elapsed().as_millis() as u64).into(),
                        ),
                    ]),
                ));
                (
                    200,
                    "/stats",
                    Json::Object(
                        sections
                            .into_iter()
                            .map(|(k, v)| (k.to_owned(), v))
                            .collect(),
                    ),
                )
            }
            ("POST", "/shutdown") => (200, "/shutdown", Json::object(vec![("ok", true.into())])),
            ("POST", "/audit") => match parse_body(&request.body).and_then(|b| service.audit(&b)) {
                Ok(out) => (200, "/audit", out),
                Err(e) => with_endpoint(bad_request(service, e), "/audit"),
            },
            ("POST", "/search") => match parse_body(&request.body).and_then(|b| service.search(&b))
            {
                Ok(out) => (200, "/search", out),
                Err(e) => with_endpoint(bad_request(service, e), "/search"),
            },
            ("POST", "/batch") => {
                return handle_batch(shared, service, writer, &request.body, keep_alive, phases)
                    .map(|status| (status, "/batch"))
            }
            ("POST", "/tables") => {
                match parse_body(&request.body).and_then(|b| service.register_table(&b)) {
                    Ok(out) => (200, "/tables", out),
                    Err(e) => with_endpoint(bad_request(service, e), "/tables"),
                }
            }
            (method, path) if path.starts_with("/tables/") => match route_table(method, path) {
                TableRoute::Info(id) => match service.table_info(id) {
                    Ok(out) => (200, "/tables/{id}", out),
                    Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}"),
                },
                TableRoute::Drop(id) => match service.drop_table(id) {
                    Ok(out) => (200, "/tables/{id}", out),
                    Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}"),
                },
                TableRoute::Audit(id) => {
                    match parse_body(&request.body).and_then(|b| service.session_audit(id, &b)) {
                        Ok(out) => (200, "/tables/{id}/audit", out),
                        Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}/audit"),
                    }
                }
                TableRoute::Search(id) => {
                    match parse_body(&request.body).and_then(|b| service.session_search(id, &b)) {
                        Ok(out) => (200, "/tables/{id}/search", out),
                        Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}/search"),
                    }
                }
                TableRoute::Release(id) => {
                    match parse_body(&request.body).and_then(|b| service.session_release(id, &b)) {
                        Ok(out) => (200, "/tables/{id}/release", out),
                        Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}/release"),
                    }
                }
                TableRoute::Composition(id) => {
                    match parse_body(&request.body)
                        .and_then(|b| service.session_composition(id, &b))
                    {
                        Ok(out) => (200, "/tables/{id}/composition", out),
                        Err(e) => {
                            with_endpoint(bad_request(service, e), "/tables/{id}/composition")
                        }
                    }
                }
                TableRoute::History(id) => match service.table_history(id) {
                    Ok(out) => (200, "/tables/{id}/history", out),
                    Err(e) => with_endpoint(bad_request(service, e), "/tables/{id}/history"),
                },
                TableRoute::Batch(id) => {
                    return handle_session_batch(
                        shared,
                        service,
                        writer,
                        id,
                        &request.body,
                        keep_alive,
                        phases,
                    )
                    .map(|status| (status, "/tables/{id}/batch"))
                }
                TableRoute::NotFound => (
                    404,
                    "other",
                    Json::object(vec![("error", "no such endpoint".into())]),
                ),
                TableRoute::MethodNotAllowed => (
                    405,
                    "other",
                    Json::object(vec![("error", "method not allowed".into())]),
                ),
            },
            // DELETE is only meaningful on /tables/{id} (handled above): on any
            // other path it stays 405, like every other unsupported method.
            ("GET" | "POST", _) => (
                404,
                "other",
                Json::object(vec![("error", "no such endpoint".into())]),
            ),
            _ => (
                405,
                "other",
                Json::object(vec![("error", "method not allowed".into())]),
            ),
        };
    finish_profile(&mut body, phases);
    write_json_with(writer, status, &body, keep_alive, &trace_headers)?;
    Ok((status, endpoint))
}

/// Tags a handler rejection with its endpoint label.
fn with_endpoint((status, body): (u16, Json), endpoint: &'static str) -> (u16, &'static str, Json) {
    (status, endpoint, body)
}

/// A parsed `/tables/…` request target.
enum TableRoute<'a> {
    Info(&'a str),
    Drop(&'a str),
    Audit(&'a str),
    Search(&'a str),
    Release(&'a str),
    Composition(&'a str),
    History(&'a str),
    Batch(&'a str),
    NotFound,
    MethodNotAllowed,
}

/// Resolves method + `/tables/{id}[/action]` to a route. Unknown actions
/// are 404; known targets with the wrong method are 405.
fn route_table<'a>(method: &str, path: &'a str) -> TableRoute<'a> {
    let rest = &path["/tables/".len()..];
    if rest.is_empty() {
        return TableRoute::NotFound;
    }
    match rest.split_once('/') {
        None => match method {
            "GET" => TableRoute::Info(rest),
            "DELETE" => TableRoute::Drop(rest),
            _ => TableRoute::MethodNotAllowed,
        },
        Some((id, action)) if !id.is_empty() => match (method, action) {
            ("POST", "audit") => TableRoute::Audit(id),
            ("POST", "search") => TableRoute::Search(id),
            ("POST", "release") => TableRoute::Release(id),
            ("POST", "composition") => TableRoute::Composition(id),
            ("GET", "history") => TableRoute::History(id),
            ("POST", "batch") => TableRoute::Batch(id),
            (_, "audit" | "search" | "release" | "composition" | "history" | "batch") => {
                TableRoute::MethodNotAllowed
            }
            _ => TableRoute::NotFound,
        },
        Some(_) => TableRoute::NotFound,
    }
}

/// Counts and renders a handler rejection: invalid requests are 400,
/// unknown/evicted table handles are 404, durable-store failures are 500
/// (the request was fine; the server couldn't honor it — not counted as a
/// bad request).
fn bad_request(service: &AuditService, e: ServeError) -> (u16, Json) {
    let status = match &e {
        ServeError::BadRequest(_) => {
            service.count_bad_request();
            400
        }
        ServeError::UnknownTable(_) => 404,
        ServeError::Internal(_) => 500,
    };
    (status, Json::object(vec![("error", e.to_string().into())]))
}

fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// Parses the per-request `threads` override for a batch, clamped to
/// `[1, workers]` (the default fan-out).
fn batch_threads(shared: &Shared, b: &Json) -> Result<usize, ServeError> {
    match b.get("threads").map(|t| t.as_u64()) {
        None => Ok(shared.workers),
        Some(Some(n)) => Ok((n as usize).clamp(1, shared.workers)),
        Some(None) => Err(ServeError::BadRequest(
            "\"threads\" must be a non-negative integer".into(),
        )),
    }
}

/// `POST /batch`: validate, then stream one NDJSON line per table as the
/// work-stealing scheduler completes them, and a final summary line.
fn handle_batch<W: Write>(
    shared: &Shared,
    service: &AuditService,
    writer: &mut W,
    body: &[u8],
    keep_alive: bool,
    phases: &Phases<'_>,
) -> std::io::Result<u16> {
    let parsed = parse_body(body).and_then(|b| {
        let threads = batch_threads(shared, &b)?;
        service.batch_jobs(&b).map(|jobs| (jobs, threads))
    });
    let (jobs, threads) = match parsed {
        Ok(x) => x,
        Err(e) => {
            let (status, body) = bad_request(service, e);
            write_json_with(
                writer,
                status,
                &body,
                keep_alive,
                &[("X-Request-Id", phases.trace_id)],
            )?;
            return Ok(status);
        }
    };
    stream_jobs(
        shared,
        writer,
        keep_alive,
        phases,
        threads,
        jobs.len(),
        |i| service.run_job(&jobs[i]),
    )?;
    Ok(200)
}

/// `POST /tables/{id}/batch`: many (c,k)/config jobs fanned over the
/// scheduler against **one registered evaluator** — no CSV parsing, no
/// table scan, just memo-served histograms and cached MINIMIZE1 tables.
fn handle_session_batch<W: Write>(
    shared: &Shared,
    service: &AuditService,
    writer: &mut W,
    id: &str,
    body: &[u8],
    keep_alive: bool,
    phases: &Phases<'_>,
) -> std::io::Result<u16> {
    let parsed = parse_body(body).and_then(|b| {
        let threads = batch_threads(shared, &b)?;
        service
            .session_batch_jobs(id, &b)
            .map(|(session, jobs)| (session, jobs, threads))
    });
    let (session, jobs, threads) = match parsed {
        Ok(x) => x,
        Err(e) => {
            let (status, body) = bad_request(service, e);
            write_json_with(
                writer,
                status,
                &body,
                keep_alive,
                &[("X-Request-Id", phases.trace_id)],
            )?;
            return Ok(status);
        }
    };
    stream_jobs(
        shared,
        writer,
        keep_alive,
        phases,
        threads,
        jobs.len(),
        |i| service.run_session_job(id, &session, &jobs[i]),
    )?;
    Ok(200)
}

/// The shared batch streamer: fan `n` jobs over the work-stealing scheduler
/// and chunk one NDJSON line per completed job (in completion order) plus a
/// summary line. Each chunk flushes through the writer, so every line
/// reaches the reactor (and the client) as it completes.
fn stream_jobs<W, F>(
    shared: &Shared,
    writer: &mut W,
    keep_alive: bool,
    phases: &Phases<'_>,
    threads: usize,
    n: usize,
    run: F,
) -> std::io::Result<()>
where
    W: Write,
    F: Fn(usize) -> Json + Sync,
{
    let mut out = ChunkedWriter::new_with(
        &mut *writer,
        200,
        "application/x-ndjson",
        keep_alive,
        &[("X-Request-Id", phases.trace_id)],
    )?;
    let (tx, rx) = mpsc::channel::<(usize, Json)>();
    let mut write_failure: Option<std::io::Error> = None;
    // Set when the client is gone, so the scheduler stops burning CPU on
    // tables nobody will read.
    let cancelled = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sched = scope.spawn(|| {
            let tx = Mutex::new(tx);
            // An edgeless DAG: every table is a source, so the scheduler is
            // pure work-stealing fan-out; verdicts are irrelevant (no
            // up-sets to prune) and errors cannot occur.
            let dag = MonotoneDag::new(vec![Vec::new(); n]);
            let outcome = evaluate_work_stealing(&dag, threads, false, |i| {
                if !cancelled.load(Ordering::Relaxed) {
                    let result = run(i);
                    let _ = tx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .send((i, result));
                }
                Ok::<bool, std::convert::Infallible>(false)
            });
            // `tx` drops here; the receive loop below then terminates.
            outcome
        });
        for (index, result) in rx.iter() {
            if write_failure.is_some() {
                continue; // drain so the scheduler thread can finish
            }
            let mut line = vec![("index".to_owned(), Json::from(index))];
            match result {
                Json::Object(pairs) => line.extend(pairs),
                other => line.push(("result".to_owned(), other)),
            }
            let mut text = Json::Object(line).to_string();
            text.push('\n');
            if let Err(e) = out.chunk(text.as_bytes()) {
                write_failure = Some(e);
                cancelled.store(true, Ordering::Relaxed);
            }
        }
        if let Ok(Ok(outcome)) = sched.join() {
            shared.metrics.record_sched(&outcome);
        }
    });
    if let Some(e) = write_failure {
        return Err(e);
    }
    let mut summary = Json::object(vec![("done", true.into()), ("tables", n.into())]).to_string();
    summary.push('\n');
    out.chunk(summary.as_bytes())?;
    out.finish()
}
