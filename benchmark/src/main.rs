//! The `wcbk serve` benchmark. One run spawns the server binary, drives one
//! seeded workload against it over HTTP for a fixed time, checks every
//! answer, and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced in-process replay (`--trace 1`) as the last line of
//! standard output. See `benchmark/README.md`.

mod check;
mod drive;
mod inputs;
mod server;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{ConnLog, Sample};
use inputs::{Dataset, Op, Rng, Sizes};
use server::{Scrape, Server};
use stats::{median, percentile, Metric};
use trace::{Layers, Replay};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_mean", "ms"),
    ("op_ms_p90", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// the workload never calls the layer).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.http.parse_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.render_us", "us"),
    ("serve.persist.encode_us", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("table.csv_decode_us", "us"),
    ("table.csv_decode_mb_per_s", "MB/s"),
    ("table.dict_encode_us", "us"),
    ("hierarchy.fingerprint_us", "us"),
    ("hierarchy.scan_us", "us"),
    ("hierarchy.scan_rows_per_s", "rows/s"),
    ("hierarchy.derive_us", "us"),
    ("hierarchy.memo_hit_ratio", "ratio"),
    ("core.minimize1.builds", "count"),
    ("core.minimize1.build_us", "us"),
    ("core.engine.hit_ratio", "ratio"),
    ("core.minimize2_us", "us"),
    ("core.disclosure_set_us", "us"),
    ("core.sched.steals", "count"),
    ("core.sched.wasted_ratio", "ratio"),
    ("adversary.distribution.bound_us", "us"),
    ("adversary.minimality.bound_us", "us"),
    ("adversary.sequential.bound_us", "us"),
    ("anonymize.exact_bucketize_us", "us"),
    ("anonymize.audit_us", "us"),
    ("anonymize.search_us", "us"),
    ("anonymize.search.nodes_evaluated", "count"),
    ("anonymize.release_us", "us"),
    ("anonymize.composition_us", "us"),
    ("store.register_us", "us"),
    ("store.append_release_us", "us"),
    ("store.fsync_us", "us"),
    ("store.checkpoint_us", "us"),
    ("store.write_amplification", "ratio"),
    ("trace.unattributed_share.register", "ratio"),
    ("trace.unattributed_share.delete", "ratio"),
    ("trace.unattributed_share.oneshot_audit", "ratio"),
    ("trace.unattributed_share.oneshot_search", "ratio"),
    ("trace.unattributed_share.handle_audit", "ratio"),
    ("trace.unattributed_share.handle_search", "ratio"),
    ("trace.unattributed_share.release", "ratio"),
    ("trace.unattributed_share.composition", "ratio"),
];

/// Endpoints and the suffix of their `trace.unattributed_share.*` metric.
const ENDPOINTS: [(&str, &str); 8] = [
    ("/tables", "register"),
    ("/tables/{id}", "delete"),
    ("/audit", "oneshot_audit"),
    ("/search", "oneshot_search"),
    ("/tables/{id}/audit", "handle_audit"),
    ("/tables/{id}/search", "handle_search"),
    ("/tables/{id}/release", "release"),
    ("/tables/{id}/composition", "composition"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, Error> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny) = (1u64, 10.0, false, false);
    let (mut server, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *inputs::WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse()?,
            "--seconds" => seconds = value()?.parse()?,
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            "--server" => server = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        server: server.ok_or("--server is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Ops that bring the server, untimed during set-up, to the state steady
/// traffic keeps it in. Only `handles` has such state: the first touch of
/// every handle fills each per-k engine and each handle's lazy exact
/// grouping and roll-up memo. `ingest` and `oneshot` start from a booted
/// server, since each of their requests registers a table of its own.
fn warmup(workload: &str, sizes: Sizes) -> Vec<Op> {
    if workload != "handles" {
        return Vec::new();
    }
    (0..sizes.tables)
        .flat_map(|handle| {
            (1..=inputs::MAX_K).flat_map(move |k| {
                [
                    Op::Audit {
                        handle,
                        k,
                        c: 0.9,
                        model: wcbk_adversary::ModelId::Conjunction,
                    },
                    Op::Search { handle, k, c: 0.5 },
                ]
            })
        })
        .collect()
}

/// Set-up repetitions per run; `setup_s` is their median. A handles set-up
/// takes about a second, a boot a few milliseconds.
fn setup_reps(workload: &str) -> usize {
    if workload == "handles" {
        3
    } else {
        9
    }
}

/// Boots a server and brings it to the state timed ops start from.
fn set_up(
    args: &Args,
    dir: &std::path::Path,
    datasets: &[Dataset],
    warm: &[Op],
) -> Result<(Server, Vec<String>), Error> {
    let server = Server::spawn(&args.server, dir)?;
    let mut client = server.connect()?;
    let mut ids = Vec::new();
    if args.workload == "handles" {
        for table in 0..datasets.len() {
            let op = Op::Register { table };
            let reply = drive::exchange(&mut client, &op.request(datasets, &[]))?;
            drive::check_shape(&op, &reply, datasets)?;
            ids.push(datasets[table].id.clone());
        }
    }
    for op in warm {
        let reply = drive::exchange(&mut client, &op.request(datasets, &ids))?;
        drive::check_shape(op, &reply, datasets)?;
        if let Op::Register { table } = op {
            drive::expect_ok(&drive::exchange(
                &mut client,
                &inputs::delete_request(&datasets[*table].id),
            )?)?;
        }
    }
    Ok((server, ids))
}

/// What the timed HTTP phase measured.
struct HttpRun {
    setup_s: f64,
    peak_rss_mb: f64,
    wall_s: f64,
    logs: Vec<ConnLog>,
    before: Scrape,
    after: Scrape,
}

fn http_run(
    args: &Args,
    dir: &std::path::Path,
    datasets: &[Dataset],
    seqs: &[Vec<Op>],
    warm: &[Op],
    rng: &Rng,
    seconds: f64,
) -> Result<HttpRun, Error> {
    let reps = if args.tiny {
        1
    } else {
        setup_reps(args.workload)
    };
    let mut setup_times = Vec::new();
    let mut ready = None;
    for rep in 0..reps {
        let started = Instant::now();
        let (server, ids) = set_up(args, dir, datasets, warm)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if rep + 1 == reps {
            ready = Some((server, ids));
        } else {
            server.stop()?;
        }
    }
    let (server, ids) = ready.expect("at least one set-up");
    let before = server.scrape()?;
    let sample_every = if args.workload == "oneshot" { 16 } else { 8 };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(conn, seq)| {
                let (addr, ids) = (&server.addr, &ids);
                scope.spawn(move || {
                    drive::run_connection(
                        addr,
                        conn,
                        seq,
                        datasets,
                        ids,
                        deadline,
                        rng,
                        sample_every,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = server.scrape()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;
    Ok(HttpRun {
        setup_s: median(&setup_times),
        peak_rss_mb,
        wall_s,
        logs,
        before,
        after,
    })
}

fn samples(run: &HttpRun) -> Vec<Sample> {
    run.logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect()
}

fn end_to_end(run: &HttpRun) -> Vec<Metric> {
    let samples = samples(run);
    let mut ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    ms.sort_by(f64::total_cmp);
    if stats::samples_beyond(ms.len(), 0.9) < 10 {
        eprintln!(
            "benchmark: warning: {} samples leave fewer than ten beyond p90",
            ms.len()
        );
    }
    let values = [
        run.setup_s,
        run.peak_rss_mb,
        samples.len() as f64 / run.wall_s,
        ms.iter().sum::<f64>() / ms.len() as f64,
        percentile(&ms, 0.9),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Server-side mean latency per endpoint over the timed phase, in µs.
fn server_mean_us(run: &HttpRun, endpoint: &str) -> f64 {
    let labels = format!("endpoint=\"{endpoint}\"");
    let d = |name: &str| run.after.value(name, &labels) - run.before.value(name, &labels);
    let n = d("wcbk_http_request_micros_count");
    if n > 0.0 {
        d("wcbk_http_request_micros_sum") / n
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(run: &HttpRun, replay: &Replay) -> Vec<Metric> {
    let layers = Layers::of(&replay.tracer);
    let (b, a) = (&run.before, &run.after);
    let metric = |name: &str| a.value(name, "") - b.value(name, "");
    let stat = |path: &[&str]| a.stat(path) - b.stat(path);
    let requests = samples(run).len() as f64;
    let warm_audit = if layers.by_name.contains_key("anonymize.audit_warm") {
        layers.mean_us("anonymize.audit_warm")
    } else {
        layers.mean_us("anonymize.audit")
    };
    let bucketize = if replay.first_audits.is_empty() {
        0.0
    } else {
        replay.first_audits.iter().map(|(f, w)| f - w).sum::<f64>()
            / replay.first_audits.len() as f64
    };
    let s = &replay.search;
    let mut values: Vec<f64> = vec![
        layers.mean_us("serve.http.parse"),
        layers.mean_us("serve.json.parse"),
        layers.mean_us("serve.json.render"),
        layers.mean_us("serve.persist.encode"),
        server::quantile_delta(b, a, "wcbk_http_queue_wait_micros", 0.5),
        layers.mean_us("table.csv_decode"),
        ratio(
            replay.csv_bytes as f64 / 1e6,
            layers.total_s("table.csv_decode"),
        ),
        layers.mean_us("table.dict_encode"),
        layers.mean_us("hierarchy.fingerprint"),
        layers.mean_us("hierarchy.scan"),
        ratio(replay.scan_rows as f64, layers.total_s("hierarchy.scan")),
        ratio(s.derive_micros as f64, s.derived as f64),
        ratio(s.memo_hits as f64, (s.memo_hits + s.derived) as f64),
        ratio(stat(&["engine_cache", "misses"]), requests),
        ratio(metric("wcbk_minimize1_build_micros_total"), requests),
        ratio(
            stat(&["engine_cache", "hits"]),
            stat(&["engine_cache", "hits"]) + stat(&["engine_cache", "misses"]),
        ),
        layers.mean_us("core.minimize2"),
        layers.mean_us("core.disclosure_set"),
        ratio(replay.sched.steals as f64, replay.sched.runs as f64),
        ratio(replay.sched.wasted as f64, replay.sched.speculated as f64),
        layers.mean_us("adversary.distribution.bound"),
        layers.mean_us("adversary.minimality.bound"),
        layers.mean_us("adversary.sequential.bound"),
        bucketize,
        warm_audit,
        layers.mean_us("anonymize.search"),
        ratio(s.nodes_evaluated as f64, s.searches as f64),
        layers.mean_us("anonymize.release"),
        layers.mean_us("anonymize.composition"),
        layers.mean_us("store.register"),
        layers.mean_us("store.append_release"),
        ratio(
            metric("wcbk_store_wal_fsync_micros_total"),
            metric("wcbk_store_wal_appends_total"),
        ),
        ratio(
            metric("wcbk_store_checkpoint_micros_total"),
            metric("wcbk_store_checkpoints_total"),
        ),
        ratio(
            replay.store_bytes as f64,
            replay.registered_csv_bytes as f64,
        ),
    ];
    for (endpoint, _) in ENDPOINTS {
        let share = match layers.by_endpoint.get(endpoint) {
            Some(&(ns, n)) if n > 0 => {
                let server = server_mean_us(run, endpoint);
                if server > 0.0 {
                    1.0 - ns as f64 / n as f64 / 1e3 / server
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        values.push(share);
    }
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// A human-readable summary on stderr.
fn report(run: &HttpRun, mismatches: &[String]) {
    let all = samples(run);
    for (endpoint, _) in ENDPOINTS {
        let mut ms: Vec<f64> = all
            .iter()
            .filter(|s| s.endpoint == endpoint)
            .map(|s| s.ms)
            .collect();
        if ms.is_empty() {
            continue;
        }
        ms.sort_by(f64::total_cmp);
        eprintln!(
            "benchmark: {endpoint:<26} n={:<6} p50={:.3} ms p90={:.3} ms p99={:.3} ms server mean={:.3} ms",
            ms.len(),
            percentile(&ms, 0.5),
            percentile(&ms, 0.9),
            percentile(&ms, 0.99),
            server_mean_us(run, endpoint) / 1e3,
        );
    }
    let per_k_peak = run
        .after
        .stats
        .get("engine_cache")
        .and_then(|e| e.get("per_k"))
        .and_then(wcbk_serve::Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| e.get("peak_groups").and_then(wcbk_serve::Json::as_f64))
        .fold(0.0, f64::max);
    eprintln!(
        "benchmark: minimize1 peak groups {} (largest per-k engine {per_k_peak}, cap {}), \
         engine cache hit rate {:.4}",
        run.after
            .value("wcbk_pool_peak_groups", "pool=\"minimize1\""),
        server::ENGINE_CACHE_CAP,
        run.after.stat(&["engine_cache", "hit_rate"]),
    );
    for log in &run.logs {
        for (index, reason) in log.failures.iter().take(5) {
            eprintln!("benchmark: FAILED op {index}: {reason}");
        }
    }
    for m in mismatches.iter().take(5) {
        eprintln!("benchmark: MISMATCH {m}");
    }
}

fn run(args: &Args) -> Result<bool, Error> {
    let sizes = inputs::sizes(args.workload, args.tiny);
    let tag = inputs::WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .expect("validated") as u64;
    let rng = Rng::new(args.seed).fork(tag + 1);
    let generated = Instant::now();
    // Two generator threads, matching the machine the numbers were taken on.
    let datasets: Vec<Dataset> = std::thread::scope(|scope| {
        let generate = |half: usize| {
            let rng = &rng;
            scope.spawn(move || {
                (half..sizes.tables)
                    .step_by(2)
                    .map(|i| {
                        let seed = rng.fork(0xDA7A + i as u64).next_u64();
                        (i, inputs::dataset(args.workload, sizes.rows, seed))
                    })
                    .collect::<Vec<_>>()
            })
        };
        let (even, odd) = (generate(0), generate(1));
        let mut all: Vec<(usize, Dataset)> = even.join().expect("generator panicked");
        all.extend(odd.join().expect("generator panicked"));
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, d)| d).collect()
    });
    let seqs: Vec<Vec<Op>> = (0..sizes.connections)
        .map(|conn| inputs::sequence(args.workload, sizes, &rng, conn))
        .collect();
    let warm = warmup(args.workload, sizes);
    eprintln!(
        "benchmark: {} seed {}: {} tables x {} rows generated in {:.2} s",
        args.workload,
        args.seed,
        sizes.tables,
        sizes.rows,
        generated.elapsed().as_secs_f64()
    );

    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = (|| {
        // A traced run splits its time between the HTTP phase, which gives
        // the server counters, and the in-process replay.
        let http_seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let run = http_run(args, &dir, &datasets, &seqs, &warm, &rng, http_seconds)?;
        let mismatches = check::verify(args.workload, &datasets, &seqs, &run.logs);
        report(&run, &mismatches);
        let metrics = if args.trace {
            let replay = trace::replay(
                args.workload,
                &datasets,
                &seqs,
                &warm,
                args.seconds / 2.0,
                &dir,
            )?;
            let spans = args
                .work_dir
                .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            replay.tracer.write_tsv(&spans)?;
            eprintln!("benchmark: spans written to {}", spans.display());
            per_layer(&run, &replay)
        } else {
            end_to_end(&run)
        };
        let attempted: usize = run.logs.iter().map(|l| l.executed).sum();
        let failed = run.logs.iter().map(|l| l.failures.len()).sum::<usize>() + mismatches.len();
        let correct = failed == 0;
        assert!(metrics.iter().all(|m| stats::valid_name(m.name)));
        println!(
            "{}",
            stats::result_line(correct, attempted as u64, failed as u64, &metrics)
        );
        Ok::<bool, Error>(correct)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the program reports are exactly the ones
    /// `BENCHMARK.json` declares, in name and unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = wcbk_serve::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(wcbk_serve::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(wcbk_serve::Json::as_str)
                            .unwrap()
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(wcbk_serve::Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(wcbk_serve::Json::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, inputs::WORKLOADS);
    }

    #[test]
    fn every_endpoint_has_an_unattributed_share_metric() {
        for (_, suffix) in ENDPOINTS {
            let name = format!("trace.unattributed_share.{suffix}");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
