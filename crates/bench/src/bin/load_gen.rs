//! `load_gen` — closed-loop load generator for `wcbk serve`.
//!
//! Drives `--connections` persistent connections against a running server,
//! each posting `--requests` `/batch` calls of `--tables` synthetic Adult
//! tables (alternating `audit` and `search` jobs), reads the streamed
//! NDJSON responses, and reports throughput plus latency percentiles into
//! `results/BENCH_serve.json` so successive PRs can track the serving
//! trajectory.
//!
//! With `--handles`, a second phase measures the **dataset-handle** path on
//! the same re-audit workload: every table is registered once via
//! `POST /tables` (one scan each), then the same connections fan
//! (c,k)-audit/search jobs over `POST /tables/{id}/batch` — no CSV upload,
//! no re-parse, no re-scan. The handle-vs-oneshot throughput ratio lands in
//! the report, and `--min-handle-ratio` turns it into a CI gate.
//!
//! Closed loop: each connection issues its next batch only after fully
//! consuming the previous response, so offered load adapts to the server
//! (this measures capacity, not queueing collapse).
//!
//! With `--conn-scale N`, a third phase measures **connection scaling** on
//! the evented server: the same fixed total request rate of cheap handle
//! audits is offered first over 8 connections, then spread across `N`
//! keep-alive connections (optionally with `--slowloris M` stalled
//! connections trickling partial headers alongside). On a reactor, idle
//! keep-alive connections cost ~0, so p99 at `N` connections should stay
//! close to p99 at 8; `--max-p99-ratio` turns that into a CI gate. (The
//! phase is a *paced open loop* — a closed loop's per-connection latency
//! trivially scales with the connection count and would measure nothing.)
//!
//! Exits non-zero when any request fails, any table errors, throughput
//! falls below `--min-throughput` tables/sec, the handle ratio falls
//! below `--min-handle-ratio`, or the conn-scale p99 ratio exceeds
//! `--max-p99-ratio` — making it usable directly as the CI `serve-smoke`
//! gate.
//!
//! Run: `cargo run --release -p wcbk-bench --bin load_gen -- \
//!       [--addr HOST:PORT] [--connections N] [--requests N] [--tables N] \
//!       [--rows N] [--out FILE] [--min-throughput F] [--handles] \
//!       [--min-handle-ratio F] [--conn-scale N] [--slowloris N] \
//!       [--max-p99-ratio F] [--shutdown] [--wait-ms N]`

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wcbk_bench::{small_adult, HarnessError};
use wcbk_serve::http::client::Client;
use wcbk_serve::json::Json;

struct Config {
    addr: String,
    connections: usize,
    requests: usize,
    tables: usize,
    rows: usize,
    out: String,
    min_throughput: f64,
    handles: bool,
    min_handle_ratio: f64,
    conn_scale: usize,
    slowloris: usize,
    max_p99_ratio: f64,
    shutdown: bool,
    wait_ms: u64,
}

fn parse_args(args: &[String]) -> Result<Config, HarnessError> {
    let mut config = Config {
        addr: "127.0.0.1:8080".to_owned(),
        connections: 8,
        requests: 4,
        tables: 32,
        rows: 500,
        out: "results/BENCH_serve.json".to_owned(),
        min_throughput: 0.0,
        handles: false,
        min_handle_ratio: 0.0,
        conn_scale: 0,
        slowloris: 0,
        max_p99_ratio: 0.0,
        shutdown: false,
        wait_ms: 15_000,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, HarnessError> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value").into())
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?.clone(),
            "--connections" => config.connections = value()?.parse()?,
            "--requests" => config.requests = value()?.parse()?,
            "--tables" => config.tables = value()?.parse()?,
            "--rows" => config.rows = value()?.parse()?,
            "--out" => config.out = value()?.clone(),
            "--min-throughput" => config.min_throughput = value()?.parse()?,
            "--handles" => config.handles = true,
            "--min-handle-ratio" => config.min_handle_ratio = value()?.parse()?,
            "--conn-scale" => config.conn_scale = value()?.parse()?,
            "--slowloris" => config.slowloris = value()?.parse()?,
            "--max-p99-ratio" => config.max_p99_ratio = value()?.parse()?,
            "--shutdown" => config.shutdown = true,
            "--wait-ms" => config.wait_ms = value()?.parse()?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if config.connections == 0 || config.requests == 0 || config.tables == 0 {
        return Err("--connections/--requests/--tables must be positive".into());
    }
    Ok(config)
}

/// Synthesizes batch job `i`: a distinct small Adult table (row count varies
/// with `i`, so tables differ while sharing histogram shapes — the
/// cross-request cache case), alternating audit and search ops.
fn build_job(i: usize, base_rows: usize) -> Result<Json, HarnessError> {
    let table = small_adult(base_rows + i);
    let mut csv = Vec::new();
    wcbk_table::csv::write_table(&mut csv, &table)?;
    let csv = String::from_utf8(csv).map_err(|_| "non-UTF-8 CSV")?;
    let job = if i % 2 == 0 {
        Json::object(vec![
            ("op", "audit".into()),
            ("csv", csv.into()),
            ("sensitive", "Occupation".into()),
            ("qi", Json::Array(vec!["Age".into(), "Gender".into()])),
            ("k", 3u64.into()),
            ("c", 0.8.into()),
        ])
    } else {
        Json::object(vec![
            ("op", "search".into()),
            ("csv", csv.into()),
            ("sensitive", "Occupation".into()),
            ("qi", Json::Array(vec!["Age".into(), "Gender".into()])),
            (
                "hierarchy",
                Json::object(vec![("Age", Json::Array(vec![5u64.into(), 10u64.into()]))]),
            ),
            ("k", 3u64.into()),
            ("c", 0.8.into()),
            ("threads", 2u64.into()),
        ])
    };
    Ok(job)
}

/// Polls `/healthz` until the server answers or the budget runs out.
fn await_healthy(addr: &str, budget: Duration) -> Result<(), HarnessError> {
    let deadline = Instant::now() + budget;
    loop {
        if let Ok(mut client) = Client::connect(addr, Some(Duration::from_secs(2))) {
            if let Ok(response) = client.get("/healthz") {
                if response.status == 200 {
                    return Ok(());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("server at {addr} not healthy within {budget:?}").into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One measured closed-loop phase.
struct Phase {
    /// Batches that completed cleanly (== samples recorded).
    batches: usize,
    wall_ms: f64,
    /// Per-batch latencies, sorted ascending.
    samples: Vec<f64>,
    failures: Vec<String>,
}

/// The closed loop: `connections` workers × `requests` posts each, the
/// target chosen per request by `target(worker, request)` → (path, body).
/// Every response must stream `tables + 1` NDJSON lines (results + summary)
/// with no embedded errors.
fn drive<F>(config: &Config, target: F) -> Phase
where
    F: Fn(usize, usize) -> (String, String) + Sync,
{
    let samples: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let target = &target;
        for worker in 0..config.connections {
            let samples = &samples;
            let failures = &failures;
            scope.spawn(move || {
                let fail = |message: String| {
                    failures
                        .lock()
                        .expect("failure list poisoned")
                        .push(format!("connection {worker}: {message}"));
                };
                let mut client = match Client::connect(&config.addr, Some(Duration::from_secs(120)))
                {
                    Ok(c) => c,
                    Err(e) => return fail(format!("connect: {e}")),
                };
                for request in 0..config.requests {
                    let (path, body) = target(worker, request);
                    let sent = Instant::now();
                    let response = match client.post(&path, &body) {
                        Ok(r) => r,
                        Err(e) => return fail(format!("request {request}: {e}")),
                    };
                    let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                    if response.status != 200 {
                        return fail(format!("request {request}: HTTP {}", response.status));
                    }
                    let lines = match response.ndjson() {
                        Ok(lines) => lines,
                        Err(e) => return fail(format!("request {request}: {e}")),
                    };
                    if lines.len() != config.tables + 1 {
                        return fail(format!(
                            "request {request}: {} lines, expected {}",
                            lines.len(),
                            config.tables + 1
                        ));
                    }
                    for line in &lines[..config.tables] {
                        if let Some(error) = line.get("error").and_then(Json::as_str) {
                            return fail(format!("request {request}: table error: {error}"));
                        }
                    }
                    samples
                        .lock()
                        .expect("sample list poisoned")
                        .push(elapsed_ms);
                }
            });
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let failures = failures.into_inner().expect("failure list poisoned");
    for f in &failures {
        eprintln!("FAILURE: {f}");
    }
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Phase {
        batches: samples.len(),
        wall_ms,
        samples,
        failures,
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[rank]
}

/// Estimates quantiles of the server-side `wcbk_http_request_micros`
/// histogram from a Prometheus `/metrics` exposition. Bucket counts are
/// summed across endpoint labels (cumulative buckets stay cumulative under
/// addition), then each quantile is linearly interpolated inside its
/// bucket — the same estimate `histogram_quantile()` would give. Returns
/// `(p50, p90, p99)` in milliseconds, or `None` if the series is absent
/// or empty.
fn scrape_server_quantiles(exposition: &str) -> Option<(f64, f64, f64)> {
    let mut buckets: Vec<(f64, f64)> = Vec::new(); // (upper bound µs, cumulative count)
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("wcbk_http_request_micros_bucket{") else {
            continue;
        };
        let parsed = (|| {
            let le_start = rest.find("le=\"")? + 4;
            let le_end = le_start + rest[le_start..].find('"')?;
            let le = match &rest[le_start..le_end] {
                "+Inf" => f64::INFINITY,
                bound => bound.parse().ok()?,
            };
            let count: f64 = rest.rsplit_once(' ')?.1.parse().ok()?;
            Some((le, count))
        })();
        if let Some((le, count)) = parsed {
            match buckets.iter_mut().find(|(bound, _)| *bound == le) {
                Some((_, total)) => *total += count,
                None => buckets.push((le, count)),
            }
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map(|&(_, count)| count)?;
    if total <= 0.0 {
        return None;
    }
    let quantile = |q: f64| -> f64 {
        let rank = q * total;
        let mut previous = (0.0, 0.0);
        for &(bound, cumulative) in &buckets {
            if cumulative >= rank {
                if bound.is_infinite() {
                    return previous.0 / 1e3;
                }
                let in_bucket = cumulative - previous.1;
                let fraction = if in_bucket > 0.0 {
                    (rank - previous.1) / in_bucket
                } else {
                    1.0
                };
                return (previous.0 + (bound - previous.0) * fraction) / 1e3;
            }
            previous = (bound, cumulative);
        }
        previous.0 / 1e3
    };
    Some((quantile(0.50), quantile(0.90), quantile(0.99)))
}

/// Baseline connection count the conn-scale phase compares against.
const SCALE_BASELINE_CONNS: usize = 8;
/// Total requests offered per conn-scale measurement (same at both counts).
const SCALE_TOTAL_REQUESTS: usize = 768;
/// Aggregate offered rate (requests/sec) across all connections — well
/// under the capacity of a warm handle audit, so queueing reflects the
/// connection count, not saturation.
const SCALE_RATE_PER_SEC: f64 = 160.0;

/// One paced open-loop measurement.
struct ScalePhase {
    samples: Vec<f64>,
    wall_ms: f64,
    failures: Vec<String>,
}

/// Offers `SCALE_TOTAL_REQUESTS` posts of `body` to `path` at a fixed
/// aggregate `SCALE_RATE_PER_SEC`, spread evenly over `connections`
/// keep-alive connections (send times are scheduled on the clock, not on
/// the previous response — an open loop). Returns sorted latencies.
fn drive_open_loop(addr: &str, path: &str, body: &str, connections: usize) -> ScalePhase {
    let samples: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..connections {
            let samples = &samples;
            let failures = &failures;
            scope.spawn(move || {
                let fail = |message: String| {
                    failures
                        .lock()
                        .expect("failure list poisoned")
                        .push(format!("scale connection {worker}: {message}"));
                };
                let count = SCALE_TOTAL_REQUESTS / connections
                    + usize::from(worker < SCALE_TOTAL_REQUESTS % connections);
                let mut client = match Client::connect(addr, Some(Duration::from_secs(120))) {
                    Ok(c) => c,
                    Err(e) => return fail(format!("connect: {e}")),
                };
                for i in 0..count {
                    // Worker w fires at t0 + (w + i*connections)/rate: the
                    // aggregate arrival process is a steady rate/sec comb
                    // regardless of how many connections share it.
                    let due = started
                        + Duration::from_secs_f64(
                            (worker + i * connections) as f64 / SCALE_RATE_PER_SEC,
                        );
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    match client.post(path, body) {
                        Ok(r) if r.status == 200 => {
                            let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                            samples
                                .lock()
                                .expect("sample list poisoned")
                                .push(elapsed_ms);
                        }
                        Ok(r) => return fail(format!("request {i}: HTTP {}", r.status)),
                        Err(e) => return fail(format!("request {i}: {e}")),
                    }
                }
            });
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let failures = failures.into_inner().expect("failure list poisoned");
    for f in &failures {
        eprintln!("FAILURE: {f}");
    }
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ScalePhase {
        samples,
        wall_ms,
        failures,
    }
}

/// The conn-scale phase: registers one handle, measures p99 of the same
/// offered load over `SCALE_BASELINE_CONNS` and then `config.conn_scale`
/// connections (with `config.slowloris` stalled connections trickling
/// partial headers alongside the scaled run), and reports the ratio.
/// Returns `(report_section, ratio, failure_count)`.
fn run_conn_scale(config: &Config) -> Result<(Json, f64, usize), HarnessError> {
    use std::io::Write as _;

    // One small handle; its audits are warm after the first few, so each
    // request is cheap and the measurement isolates connection overhead.
    let table = small_adult(200);
    let mut csv = Vec::new();
    wcbk_table::csv::write_table(&mut csv, &table)?;
    let register = Json::object(vec![
        (
            "csv",
            String::from_utf8(csv).map_err(|_| "non-UTF-8 CSV")?.into(),
        ),
        ("sensitive", "Occupation".into()),
        ("qi", Json::Array(vec!["Age".into(), "Gender".into()])),
    ]);
    let mut client = Client::connect(&config.addr, Some(Duration::from_secs(120)))?;
    let response = client.post("/tables", &register.to_string())?;
    if response.status != 200 {
        return Err(format!("conn-scale register: HTTP {}", response.status).into());
    }
    let id = response
        .json()?
        .get("id")
        .and_then(Json::as_str)
        .ok_or("register response lacks an id")?
        .to_owned();
    let path = format!("/tables/{id}/audit");
    let body = Json::object(vec![("k", 3u64.into()), ("c", 0.8.into())]).to_string();
    // Warm the memo so neither measurement pays the first-audit scan.
    for _ in 0..4 {
        let r = client.post(&path, &body)?;
        if r.status != 200 {
            return Err(format!("conn-scale warmup: HTTP {}", r.status).into());
        }
    }
    drop(client);

    eprintln!(
        "conn-scale: {} requests at {:.0}/s over {} connections…",
        SCALE_TOTAL_REQUESTS, SCALE_RATE_PER_SEC, SCALE_BASELINE_CONNS
    );
    let baseline = drive_open_loop(&config.addr, &path, &body, SCALE_BASELINE_CONNS);

    // The scaled run, with stalled header-tricklers riding alongside: on
    // the evented server they occupy reactor entries, never workers.
    let tricklers: Vec<std::net::TcpStream> = (0..config.slowloris)
        .filter_map(|_| {
            let mut s = std::net::TcpStream::connect(&config.addr).ok()?;
            s.write_all(b"POST /audit HT").ok()?;
            Some(s)
        })
        .collect();
    eprintln!(
        "conn-scale: same load over {} connections (+{} slowloris)…",
        config.conn_scale,
        tricklers.len()
    );
    let scaled = drive_open_loop(&config.addr, &path, &body, config.conn_scale);
    drop(tricklers);

    let p99_base = percentile(&baseline.samples, 0.99);
    let p99_scaled = percentile(&scaled.samples, 0.99);
    // Sub-millisecond baselines make the ratio a noise amplifier; floor
    // the denominator at 1 ms so the gate measures regressions, not timer
    // jitter.
    let ratio = p99_scaled / p99_base.max(1.0);
    let failures = baseline.failures.len()
        + scaled.failures.len()
        + (baseline.samples.len() != SCALE_TOTAL_REQUESTS) as usize
        + (scaled.samples.len() != SCALE_TOTAL_REQUESTS) as usize;
    let section = Json::object(vec![
        ("baseline_connections", SCALE_BASELINE_CONNS.into()),
        ("scaled_connections", config.conn_scale.into()),
        ("slowloris", config.slowloris.into()),
        ("requests_per_run", SCALE_TOTAL_REQUESTS.into()),
        ("offered_rate_per_sec", SCALE_RATE_PER_SEC.into()),
        (
            "baseline",
            Json::object(vec![
                ("p50", percentile(&baseline.samples, 0.50).into()),
                ("p99", p99_base.into()),
                ("wall_ms", baseline.wall_ms.into()),
            ]),
        ),
        (
            "scaled",
            Json::object(vec![
                ("p50", percentile(&scaled.samples, 0.50).into()),
                ("p99", p99_scaled.into()),
                ("wall_ms", scaled.wall_ms.into()),
            ]),
        ),
        ("p99_ratio", ratio.into()),
        ("failures", failures.into()),
    ]);
    eprintln!(
        "conn-scale: p99 {p99_base:.2} ms @ {SCALE_BASELINE_CONNS} conns -> {p99_scaled:.2} ms @ {} conns ({ratio:.2}x)",
        config.conn_scale
    );
    Ok((section, ratio, failures))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, HarnessError> {
    let config = parse_args(args)?;
    eprintln!(
        "load_gen: {} connections x {} requests x {} tables (rows >= {}) against {}",
        config.connections, config.requests, config.tables, config.rows, config.addr
    );

    eprintln!("building workload…");
    let jobs: Vec<Json> = (0..config.tables)
        .map(|i| build_job(i, config.rows))
        .collect::<Result<_, _>>()?;
    let batch = Json::object(vec![("tables", Json::Array(jobs))]).to_string();

    eprintln!("waiting for /healthz…");
    await_healthy(&config.addr, Duration::from_millis(config.wait_ms))?;

    // Phase 1: the one-shot workload (every job carries its CSV).
    let oneshot = drive(&config, |_, _| ("/batch".to_owned(), batch.clone()));
    let batches = oneshot.batches;
    let tables_done = batches * config.tables;
    let wall_ms = oneshot.wall_ms;
    let tables_per_sec = tables_done as f64 / (wall_ms / 1e3);
    let samples = oneshot.samples;
    let mean = if batches == 0 {
        0.0
    } else {
        samples.iter().sum::<f64>() / batches as f64
    };

    // Phase 2 (--handles): register every table once, then fan the same
    // job mix over /tables/{id}/batch — the re-audit workload with zero
    // parsing and zero scans.
    let mut handle_section = Json::Null;
    let mut handle_failures = 0usize;
    let mut handle_ratio: Option<f64> = None;
    if config.handles {
        eprintln!("registering {} handles…", config.tables);
        // The registration client lives in its own block: an idle
        // keep-alive connection would otherwise pin a server worker (up to
        // the read timeout) for the whole measured phase.
        let ids: Vec<String> = {
            let mut register = Client::connect(&config.addr, Some(Duration::from_secs(120)))?;
            let mut ids = Vec::with_capacity(config.tables);
            for i in 0..config.tables {
                let mut job = build_job(i, config.rows)?;
                if let Json::Object(pairs) = &mut job {
                    pairs.retain(|(k, _)| {
                        matches!(k.as_str(), "csv" | "sensitive" | "qi" | "hierarchy")
                    });
                    // Every handle gets the Age interval hierarchy, so
                    // handle-phase search jobs run the same lattices the
                    // one-shot search jobs do (build_job only attaches it
                    // to odd, search-op tables).
                    if !pairs.iter().any(|(k, _)| k == "hierarchy") {
                        pairs.push((
                            "hierarchy".to_owned(),
                            Json::object(vec![(
                                "Age",
                                Json::Array(vec![5u64.into(), 10u64.into()]),
                            )]),
                        ));
                    }
                }
                let response = register.post("/tables", &job.to_string())?;
                if response.status != 200 {
                    return Err(format!("register {i}: HTTP {}", response.status).into());
                }
                let id = response
                    .json()?
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("register response lacks an id")?
                    .to_owned();
                ids.push(id);
            }
            ids
        };
        // The handle-batch job list: the one-shot ops with (c, k) varied
        // across jobs, so a batch exercises several engines and lattice
        // verdicts instead of answering one warm lookup 32 times. (Re-audit
        // workloads are warm-cache by design in BOTH phases — the one-shot
        // loop re-posts the same tables too — so the ratio isolates what
        // the handle path removes: per-job parse + scan + evaluator build.)
        let jobs: Vec<Json> = (0..config.tables)
            .map(|i| {
                let k = 2 + (i % 3) as u64;
                let c = 0.7 + 0.1 * (i % 3) as f64;
                if i % 2 == 0 {
                    Json::object(vec![
                        ("op", "audit".into()),
                        ("k", k.into()),
                        ("c", c.into()),
                    ])
                } else {
                    Json::object(vec![
                        ("op", "search".into()),
                        ("k", k.into()),
                        ("c", c.into()),
                        ("threads", 2u64.into()),
                    ])
                }
            })
            .collect();
        let handle_body = Json::object(vec![("jobs", Json::Array(jobs))]).to_string();
        let ids = &ids;
        let handle_body = &handle_body;
        let phase = drive(&config, move |worker, request| {
            let id = &ids[(worker + request) % ids.len()];
            (format!("/tables/{id}/batch"), handle_body.clone())
        });
        let handle_jobs = phase.batches * config.tables;
        let jobs_per_sec = handle_jobs as f64 / (phase.wall_ms / 1e3);
        let ratio = if tables_per_sec > 0.0 {
            jobs_per_sec / tables_per_sec
        } else {
            0.0
        };
        handle_failures =
            phase.failures.len() + (phase.batches != config.connections * config.requests) as usize;
        handle_ratio = Some(ratio);
        handle_section = Json::object(vec![
            ("registered", config.tables.into()),
            ("batches", phase.batches.into()),
            ("jobs", handle_jobs.into()),
            ("wall_ms", phase.wall_ms.into()),
            ("jobs_per_sec", jobs_per_sec.into()),
            ("p50", percentile(&phase.samples, 0.50).into()),
            ("p99", percentile(&phase.samples, 0.99).into()),
            ("ratio_vs_oneshot", ratio.into()),
            ("failures", phase.failures.len().into()),
        ]);
        eprintln!(
            "handles: {handle_jobs} jobs in {:.0} ms ({jobs_per_sec:.1} jobs/s; {ratio:.2}x one-shot)",
            phase.wall_ms
        );
    }
    let failures = oneshot.failures;

    // Phase 3 (--conn-scale): the same offered load over few vs many
    // keep-alive connections; on the evented server the p99s should match.
    let mut scale_section = Json::Null;
    let mut scale_failures = 0usize;
    let mut scale_ratio: Option<f64> = None;
    if config.conn_scale > 0 {
        let (section, ratio, phase_failures) = run_conn_scale(&config)?;
        scale_section = section;
        scale_failures = phase_failures;
        scale_ratio = Some(ratio);
    }

    // Server-side counters after the run (best effort): /stats for cache
    // and admission numbers, /metrics for the server's own view of request
    // latency — scraped from the `wcbk_http_request_micros` histogram so
    // the committed report carries both sides of every percentile.
    let mut cache_hits = Json::Null;
    let mut cache_hit_rate = Json::Null;
    let mut rejected = Json::Null;
    let mut server_quantiles: Option<(f64, f64, f64)> = None;
    if let Ok(mut client) = Client::connect(&config.addr, Some(Duration::from_secs(5))) {
        if let Ok(stats) = client.get("/stats").and_then(|r| r.json()) {
            let engine = stats.get("engine_cache");
            cache_hits = engine
                .and_then(|e| e.get("hits"))
                .cloned()
                .unwrap_or(Json::Null);
            cache_hit_rate = engine
                .and_then(|e| e.get("hit_rate"))
                .cloned()
                .unwrap_or(Json::Null);
            rejected = stats
                .get("server")
                .and_then(|s| s.get("rejected_503"))
                .cloned()
                .unwrap_or(Json::Null);
        }
        if let Ok(metrics) = client.get("/metrics") {
            server_quantiles = scrape_server_quantiles(&metrics.body);
        }
    }
    let quantile_json = |pick: fn((f64, f64, f64)) -> f64| {
        server_quantiles.map_or(Json::Null, |qs| pick(qs).into())
    };
    if config.shutdown {
        eprintln!("requesting graceful shutdown…");
        let mut client = Client::connect(&config.addr, Some(Duration::from_secs(10)))?;
        let response = client.post("/shutdown", "{}")?;
        if response.status != 200 {
            return Err(format!("shutdown returned HTTP {}", response.status).into());
        }
    }

    let report = Json::object(vec![
        (
            "workload",
            Json::object(vec![
                ("connections", config.connections.into()),
                ("requests_per_connection", config.requests.into()),
                ("tables_per_batch", config.tables.into()),
                ("rows_base", config.rows.into()),
                // Total rows across the batch's distinct tables (table i
                // holds rows_base + i rows) — scales with --rows so the
                // committed report says how much data the run pushed.
                (
                    "rows_total",
                    (config.tables * config.rows + config.tables * (config.tables - 1) / 2).into(),
                ),
                ("ops", "audit/search alternating".into()),
            ]),
        ),
        (
            "throughput",
            Json::object(vec![
                ("batches", batches.into()),
                ("tables", tables_done.into()),
                ("wall_ms", wall_ms.into()),
                ("tables_per_sec", tables_per_sec.into()),
                ("batches_per_sec", (batches as f64 / (wall_ms / 1e3)).into()),
            ]),
        ),
        (
            "latency_ms",
            Json::object(vec![
                ("p50", percentile(&samples, 0.50).into()),
                ("p90", percentile(&samples, 0.90).into()),
                ("p99", percentile(&samples, 0.99).into()),
                ("max", samples.last().copied().unwrap_or(0.0).into()),
                ("mean", mean.into()),
            ]),
        ),
        ("handles", handle_section),
        ("conn_scale", scale_section),
        (
            "server",
            Json::object(vec![
                ("engine_cache_hits", cache_hits),
                ("engine_cache_hit_rate", cache_hit_rate),
                ("rejected_503", rejected),
                // Server-side request latency (all endpoints, full process
                // lifetime) — bucket-interpolated from /metrics, so
                // coarser than the exact client-side percentiles above
                // but free of client scheduling noise.
                ("latency_ms_p50", quantile_json(|(p50, _, _)| p50)),
                ("latency_ms_p90", quantile_json(|(_, p90, _)| p90)),
                ("latency_ms_p99", quantile_json(|(_, _, p99)| p99)),
            ]),
        ),
        ("failures", failures.len().into()),
    ]);
    if let Some(dir) = std::path::Path::new(&config.out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&config.out, format!("{report}\n"))?;
    eprintln!(
        "done: {batches} batches, {tables_done} tables in {wall_ms:.0} ms \
         ({tables_per_sec:.1} tables/s; p50 {:.1} ms, p99 {:.1} ms) -> {}",
        percentile(&samples, 0.50),
        percentile(&samples, 0.99),
        config.out
    );

    let expected_batches = config.connections * config.requests;
    if !failures.is_empty() || batches != expected_batches {
        eprintln!(
            "load_gen FAILED: {} failures, {batches}/{expected_batches} batches completed",
            failures.len()
        );
        return Ok(false);
    }
    if tables_per_sec < config.min_throughput {
        eprintln!(
            "load_gen FAILED: {tables_per_sec:.2} tables/s below the {} floor",
            config.min_throughput
        );
        return Ok(false);
    }
    if handle_failures > 0 {
        eprintln!("load_gen FAILED: {handle_failures} handle-phase failures");
        return Ok(false);
    }
    if let Some(ratio) = handle_ratio {
        if ratio < config.min_handle_ratio {
            eprintln!(
                "load_gen FAILED: handle ratio {ratio:.2}x below the {:.2}x floor",
                config.min_handle_ratio
            );
            return Ok(false);
        }
    }
    if scale_failures > 0 {
        eprintln!("load_gen FAILED: {scale_failures} conn-scale failures");
        return Ok(false);
    }
    if let Some(ratio) = scale_ratio {
        if config.max_p99_ratio > 0.0 && ratio > config.max_p99_ratio {
            eprintln!(
                "load_gen FAILED: conn-scale p99 ratio {ratio:.2}x above the {:.2}x ceiling",
                config.max_p99_ratio
            );
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_defaults() {
        let c = parse_args(&[]).unwrap();
        assert_eq!(c.connections, 8);
        assert_eq!(c.tables, 32);
        assert!(!c.shutdown);
        assert!(!c.handles);
        assert_eq!(c.min_handle_ratio, 0.0);
        assert_eq!(c.conn_scale, 0);
        assert_eq!(c.slowloris, 0);
        assert_eq!(c.max_p99_ratio, 0.0);
        let c = parse_args(&[
            "--handles".into(),
            "--min-handle-ratio".into(),
            "2.5".into(),
            "--conn-scale".into(),
            "128".into(),
            "--slowloris".into(),
            "16".into(),
            "--max-p99-ratio".into(),
            "8.0".into(),
        ])
        .unwrap();
        assert!(c.handles);
        assert!((c.min_handle_ratio - 2.5).abs() < 1e-12);
        assert_eq!(c.conn_scale, 128);
        assert_eq!(c.slowloris, 16);
        assert!((c.max_p99_ratio - 8.0).abs() < 1e-12);
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:9",
            "--connections",
            "2",
            "--requests",
            "3",
            "--tables",
            "4",
            "--rows",
            "50",
            "--out",
            "/tmp/x.json",
            "--min-throughput",
            "1.5",
            "--shutdown",
            "--wait-ms",
            "100",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let c = parse_args(&args).unwrap();
        assert_eq!(c.addr, "127.0.0.1:9");
        assert_eq!(c.connections, 2);
        assert_eq!(c.requests, 3);
        assert_eq!(c.tables, 4);
        assert_eq!(c.rows, 50);
        assert!(c.shutdown);
        assert!((c.min_throughput - 1.5).abs() < 1e-12);
        assert!(parse_args(&["--connections".into(), "0".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
        assert!(parse_args(&["--rows".into()]).is_err());
    }

    #[test]
    fn jobs_alternate_ops_over_distinct_tables() {
        let a = build_job(0, 40).unwrap();
        let b = build_job(1, 40).unwrap();
        assert_eq!(a.get("op").and_then(Json::as_str), Some("audit"));
        assert_eq!(b.get("op").and_then(Json::as_str), Some("search"));
        assert_ne!(
            a.get("csv").and_then(Json::as_str),
            b.get("csv").and_then(Json::as_str)
        );
        assert!(b.get("hierarchy").is_some());
    }

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// End-to-end: boot a real server in-process, run the closed loop
    /// against it, and check the report it writes.
    #[test]
    fn drives_a_live_server_end_to_end() {
        let server = wcbk_serve::Server::bind(&wcbk_serve::ServerConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run());

        let out = std::env::temp_dir().join("wcbk_load_gen_test.json");
        let args: Vec<String> = [
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "2",
            "--tables",
            "3",
            "--rows",
            "40",
            "--out",
            out.to_str().unwrap(),
            "--min-throughput",
            "0.0001",
            "--handles",
            "--min-handle-ratio",
            "0.0001",
            "--conn-scale",
            "16",
            "--max-p99-ratio",
            "10000",
            "--shutdown",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        assert!(run(&args).unwrap(), "load_gen reported failure");
        join.join().unwrap().unwrap();

        let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            report
                .get("throughput")
                .and_then(|t| t.get("batches"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            report
                .get("throughput")
                .and_then(|t| t.get("tables"))
                .and_then(Json::as_u64),
            Some(12)
        );
        assert_eq!(report.get("failures").and_then(Json::as_u64), Some(0));
        // rows_total scales with --rows: 3 tables of 40, 41, 42 rows.
        assert_eq!(
            report
                .get("workload")
                .and_then(|w| w.get("rows_total"))
                .and_then(Json::as_u64),
            Some(123)
        );
        assert!(
            report
                .get("latency_ms")
                .and_then(|l| l.get("p50"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        // The handle phase ran: 3 handles registered, 4 batches × 3 jobs,
        // a positive throughput ratio, zero failures.
        let handles = report.get("handles").unwrap();
        assert_eq!(handles.get("registered").and_then(Json::as_u64), Some(3));
        assert_eq!(handles.get("jobs").and_then(Json::as_u64), Some(12));
        assert!(
            handles
                .get("ratio_vs_oneshot")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(handles.get("failures").and_then(Json::as_u64), Some(0));
        // The conn-scale phase ran: both runs completed at the offered
        // rate with a finite p99 ratio and no failures.
        let scale = report.get("conn_scale").unwrap();
        assert_eq!(
            scale.get("scaled_connections").and_then(Json::as_u64),
            Some(16)
        );
        assert_eq!(scale.get("failures").and_then(Json::as_u64), Some(0));
        assert!(scale.get("p99_ratio").and_then(Json::as_f64).unwrap() > 0.0);
        // The server-side percentiles were scraped from /metrics and sit
        // next to the client-side numbers.
        let server = report.get("server").unwrap();
        for key in ["latency_ms_p50", "latency_ms_p90", "latency_ms_p99"] {
            assert!(
                server.get(key).and_then(Json::as_f64).unwrap() > 0.0,
                "{key} in {server}"
            );
        }
        assert!(
            server.get("latency_ms_p50").and_then(Json::as_f64)
                <= server.get("latency_ms_p99").and_then(Json::as_f64)
        );
    }

    #[test]
    fn server_quantiles_interpolate_and_merge_labels() {
        // Two endpoint labels over bounds 100/1000/+Inf µs; merged counts
        // are 8 ≤ 100µs, 2 in (100, 1000]. p50 falls inside the first
        // bucket, p99 inside the second.
        let exposition = "\
# TYPE wcbk_http_request_micros histogram
wcbk_http_request_micros_bucket{endpoint=\"/audit\",le=\"100\"} 5
wcbk_http_request_micros_bucket{endpoint=\"/audit\",le=\"1000\"} 6
wcbk_http_request_micros_bucket{endpoint=\"/audit\",le=\"+Inf\"} 6
wcbk_http_request_micros_bucket{endpoint=\"/search\",le=\"100\"} 3
wcbk_http_request_micros_bucket{endpoint=\"/search\",le=\"1000\"} 4
wcbk_http_request_micros_bucket{endpoint=\"/search\",le=\"+Inf\"} 4
wcbk_http_request_micros_sum{endpoint=\"/audit\"} 900
wcbk_http_request_micros_count{endpoint=\"/audit\"} 6
";
        let (p50, p90, p99) = scrape_server_quantiles(exposition).unwrap();
        assert!((p50 - 0.0625).abs() < 1e-9, "p50 {p50}");
        assert!((p90 - 0.55).abs() < 1e-9, "p90 {p90}");
        assert!(p99 > p90 && p99 <= 1.0, "p99 {p99}");
        // No histogram lines → no estimate; zero traffic → no estimate.
        assert!(scrape_server_quantiles("# nothing here\n").is_none());
        assert!(scrape_server_quantiles(
            "wcbk_http_request_micros_bucket{endpoint=\"/audit\",le=\"+Inf\"} 0\n"
        )
        .is_none());
    }
}
