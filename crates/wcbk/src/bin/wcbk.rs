//! `wcbk` — command-line worst-case disclosure auditing.
//!
//! ```text
//! wcbk audit <csv> --sensitive COL [--qi COL[,COL...]] [--k N] [--c F] [--model M] [--no-header]
//! wcbk search <csv> --sensitive COL --qi COL[,COL...] --c F [--k N] [--model M]
//!             [--hierarchy COL:W1,W2,...]... [--parallel] [--threads N]
//!             [--memo-cap N] [--scan-threads N]
//! wcbk anatomize <csv> --sensitive COL --l N [--seed N] [--k N]
//! wcbk generate-adult [--rows N] [--seed N] [--out FILE]
//! wcbk serve [--addr HOST:PORT] [--workers N] [--max-connections N]
//!            [--idle-timeout-ms N]
//!            [--engine-cache-cap N] [--engine-budget N] [--session-budget N]
//!            [--data-dir DIR] [--log-json] [--slow-request-ms N]
//! wcbk table add <csv> --addr HOST:PORT --sensitive COL [--qi ...] [--hierarchy ...] [--memo-cap N]
//! wcbk table audit|search <id> --addr HOST:PORT [--k N] [--c F] [--model M] [--threads N]
//! wcbk table release <id> --addr HOST:PORT --node L1,L2,... [--model M]
//! wcbk table composition|history|info|rm <id> --addr HOST:PORT [--model M]
//! ```
//!
//! **Exit codes:** `0` success (and, for `audit`/`search` with a `--c`
//! threshold, a safe verdict), `1` usage or runtime error, `2` the audit
//! found the table **not** (c,k)-safe / the search found **no** safe
//! generalization — so scripts and CI can branch on safety without parsing
//! stdout.
//!
//! `audit` loads a CSV, buckets it by the (exact) quasi-identifier columns,
//! and prints the maximum-disclosure curve, the worst-case attacker, a
//! (c,k)-safety verdict, and the disclosure engine's cache statistics.
//! `search` finds all ⪯-minimal (c,k)-safe generalizations on the
//! quasi-identifiers; each QI gets a suppression hierarchy unless a
//! `--hierarchy COL:W1,W2,...` flag (repeatable) requests a numeric interval
//! hierarchy with the given widths, like the library path —
//! `--parallel`/`--threads N` spread the lattice search over worker threads
//! sharing one engine cache through the work-stealing whole-lattice
//! scheduler, `--memo-cap N` bounds the roll-up evaluator's memo for
//! deep lattices, and `--scan-threads N` spreads the evaluator's one
//! chunked bottom scan over N workers (`0`/default: all cores; bit-neutral
//! either way).
//! `--model M` (audit, search, and the `table` verbs) swaps the adversary's
//! background-knowledge language: `conjunction` (the paper's `L^k_basic`
//! implications — the default, byte-identical to omitting the flag),
//! `distribution` (worst-case distribution knowledge), `minimality`
//! (minimality/utility-aware attack), or `sequential` (linkage-aware
//! sequential release; its composition audits price the common refinement
//! of the release history instead of the union of buckets).
//! `anatomize` publishes with the Anatomy algorithm instead and audits the
//! result. `generate-adult` writes the synthetic Adult benchmark table.
//! `serve` runs the `wcbk-serve` HTTP audit service (one-shot `/audit`,
//! `/search`, `/batch` plus the dataset-handle `/tables` resources, and
//! `/stats`, `/healthz`, `/shutdown`) on one shared engine until a graceful
//! shutdown is requested; `--max-connections N` caps open connections
//! (past it a new one gets `503`; default `workers + 64`),
//! `--idle-timeout-ms N` reaps idle keep-alive connections (default 60 s),
//! `--engine-cache-cap`/`--engine-budget`/
//! `--session-budget` bound its memory under long-lived diverse traffic,
//! and `--data-dir DIR` attaches the durable catalog: registrations and
//! releases are WAL-persisted before they are acknowledged, and a
//! restarted server resumes serving every acknowledged handle with
//! bit-identical answers.
//! `table` drives the handle resources of a **running** server: `add`
//! registers a CSV once (idempotent content fingerprint), `audit`/`search`
//! re-audit by handle without re-uploading, `release`/`composition` run the
//! sequential-release monitor, `history` prints the recorded release trail,
//! `info`/`rm` inspect and drop. Audit and search verdicts map to exit
//! code 2 exactly like the local verbs.

use std::io::BufReader;
use std::process::ExitCode;

use wcbk::anonymize::anatomize;
use wcbk::core::{is_ck_safe, max_disclosure, negation_max_disclosure, Bucketization};
use wcbk::prelude::*;
use wcbk::table::csv::TableDecoder;
use wcbk::table::{Attribute, AttributeKind, Schema};

/// What a completed command decided, mapped onto the process exit code:
/// scripts branch on safety without parsing stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Success; for audit/search with `--c`, the table/search was safe.
    Ok,
    /// The audit found the table unsafe, or the search found no safe
    /// generalization — exit code 2 (distinct from errors' 1).
    Unsafe,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Verdict::Ok) => ExitCode::SUCCESS,
        Ok(Verdict::Unsafe) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  wcbk audit <csv> --sensitive COL [--qi COL[,COL...]] [--k N] [--c F] [--model M] [--no-header]
  wcbk search <csv> --sensitive COL --qi COL[,COL...] --c F [--k N] [--model M]
              [--hierarchy COL:W1,W2,...]... [--parallel] [--threads N]
              [--memo-cap N] [--scan-threads N]
  wcbk anatomize <csv> --sensitive COL --l N [--seed N] [--k N]
  wcbk generate-adult [--rows N] [--seed N] [--out FILE]
  wcbk serve [--addr HOST:PORT] [--workers N] [--max-connections N]
             [--idle-timeout-ms N]
             [--engine-cache-cap N] [--engine-budget N] [--session-budget N]
             [--data-dir DIR] [--log-json] [--slow-request-ms N]
  wcbk table add <csv> --addr HOST:PORT --sensitive COL [--qi COL[,COL...]]
             [--hierarchy COL:W1,W2,...]... [--memo-cap N] [--no-header]
  wcbk table audit <id> --addr HOST:PORT [--k N] [--c F] [--model M]
  wcbk table search <id> --addr HOST:PORT --c F [--k N] [--model M] [--threads N]
  wcbk table release <id> --addr HOST:PORT --node L1,L2,... [--model M]
  wcbk table composition <id> --addr HOST:PORT [--k N] [--c F] [--model M]
  wcbk table history|info|rm <id> --addr HOST:PORT

adversary models (--model M): conjunction (default), distribution,
minimality, sequential

exit codes: 0 ok/safe, 1 error, 2 unsafe verdict (audit with --c, or a
search that found no safe generalization)";

/// Parsed command-line options (flat; validated per subcommand).
#[derive(Debug, Default, Clone, PartialEq)]
struct Options {
    positional: Vec<String>,
    sensitive: Option<String>,
    qi: Vec<String>,
    /// `--hierarchy COL:W1,W2,...` interval-hierarchy specs, repeatable;
    /// unlisted QI columns get suppression hierarchies.
    hierarchies: Vec<(String, Vec<u64>)>,
    k: usize,
    c: Option<f64>,
    l: Option<usize>,
    rows: usize,
    seed: u64,
    out: Option<String>,
    header: bool,
    /// Worker threads for the lattice search: `None` = sequential,
    /// `Some(0)` = all cores, `Some(n)` = exactly `n`.
    threads: Option<usize>,
    /// Adversary model for audit/search/composition (`--model`; the
    /// paper's conjunction language by default).
    model: ModelId,
    /// Worker threads for the evaluator's one bottom scan: `None` = all
    /// cores (the scan is bit-neutral, so this only affects throughput).
    scan_threads: Option<usize>,
    /// Group budget for the roll-up evaluator's memo (`None` = unbounded).
    memo_cap: Option<usize>,
    /// `serve` / `table`: listen address / server address.
    addr: Option<String>,
    /// `serve`: worker thread count (`None`/0 = all cores).
    workers: Option<usize>,
    /// `serve`: connection cap, 503 past it (`0`/absent = workers + 64).
    max_connections: Option<usize>,
    /// `serve`: idle keep-alive reap deadline in milliseconds (`0` = never
    /// reap idle connections).
    idle_timeout_ms: Option<u64>,
    /// `serve`: per-engine MINIMIZE1 cache budget (groups).
    engine_cache_cap: Option<u64>,
    /// `serve`: total engine-registry budget (groups across engines).
    engine_budget: Option<u64>,
    /// `serve`: session-store budget (Σ bottom groups across handles).
    session_budget: Option<u64>,
    /// `serve`: durable catalog directory (crash-safe handles).
    data_dir: Option<String>,
    /// `serve`: emit one JSON access-log line per request to stdout.
    log_json: bool,
    /// `serve`: always log requests at or past this many milliseconds.
    slow_request_ms: Option<u64>,
    /// `table release`: the lattice node to record (one level per qi).
    node: Option<Vec<u64>>,
}

/// Hand-rolled flag parser (the sanctioned dependency set has no CLI crate).
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        k: 3,
        rows: 45_222,
        seed: 20_070_419,
        header: true,
        ..Default::default()
    };
    let mut it = args.iter().peekable();
    let need_value =
        |name: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("flag {name} needs a value")),
        };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sensitive" => opts.sensitive = Some(need_value("--sensitive", &mut it)?),
            "--qi" => {
                let v = need_value("--qi", &mut it)?;
                opts.qi = v.split(',').map(|s| s.trim().to_owned()).collect();
            }
            "--hierarchy" => {
                let v = need_value("--hierarchy", &mut it)?;
                let (col, widths) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--hierarchy wants COL:W1,W2,..., got {v:?}"))?;
                let widths = widths
                    .split(',')
                    .map(|w| w.trim().parse::<u64>())
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|e| format!("--hierarchy {col}: {e}"))?;
                let col = col.trim().to_owned();
                if opts.hierarchies.iter().any(|(name, _)| *name == col) {
                    return Err(format!("--hierarchy {col}: given twice"));
                }
                opts.hierarchies.push((col, widths));
            }
            "--k" => {
                opts.k = need_value("--k", &mut it)?
                    .parse()
                    .map_err(|e| format!("--k: {e}"))?
            }
            "--c" => {
                opts.c = Some(
                    need_value("--c", &mut it)?
                        .parse()
                        .map_err(|e| format!("--c: {e}"))?,
                )
            }
            "--l" => {
                opts.l = Some(
                    need_value("--l", &mut it)?
                        .parse()
                        .map_err(|e| format!("--l: {e}"))?,
                )
            }
            "--rows" => {
                opts.rows = need_value("--rows", &mut it)?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--seed" => {
                opts.seed = need_value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => opts.out = Some(need_value("--out", &mut it)?),
            "--no-header" => opts.header = false,
            "--parallel" => opts.threads = Some(0),
            "--threads" => {
                opts.threads = Some(
                    need_value("--threads", &mut it)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--model" => {
                opts.model = need_value("--model", &mut it)?
                    .parse()
                    .map_err(|e| format!("--model: {e}"))?
            }
            "--scan-threads" => {
                opts.scan_threads = Some(
                    need_value("--scan-threads", &mut it)?
                        .parse()
                        .map_err(|e| format!("--scan-threads: {e}"))?,
                )
            }
            "--memo-cap" => {
                opts.memo_cap = Some(
                    need_value("--memo-cap", &mut it)?
                        .parse()
                        .map_err(|e| format!("--memo-cap: {e}"))?,
                )
            }
            "--addr" => opts.addr = Some(need_value("--addr", &mut it)?),
            "--workers" => {
                opts.workers = Some(
                    need_value("--workers", &mut it)?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--max-connections" => {
                opts.max_connections = Some(
                    need_value("--max-connections", &mut it)?
                        .parse()
                        .map_err(|e| format!("--max-connections: {e}"))?,
                )
            }
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = Some(
                    need_value("--idle-timeout-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("--idle-timeout-ms: {e}"))?,
                )
            }
            "--engine-cache-cap" => {
                opts.engine_cache_cap = Some(
                    need_value("--engine-cache-cap", &mut it)?
                        .parse()
                        .map_err(|e| format!("--engine-cache-cap: {e}"))?,
                )
            }
            "--engine-budget" => {
                opts.engine_budget = Some(
                    need_value("--engine-budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("--engine-budget: {e}"))?,
                )
            }
            "--session-budget" => {
                opts.session_budget = Some(
                    need_value("--session-budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("--session-budget: {e}"))?,
                )
            }
            "--data-dir" => opts.data_dir = Some(need_value("--data-dir", &mut it)?),
            "--log-json" => opts.log_json = true,
            "--slow-request-ms" => {
                opts.slow_request_ms = Some(
                    need_value("--slow-request-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("--slow-request-ms: {e}"))?,
                )
            }
            "--node" => {
                let v = need_value("--node", &mut it)?;
                opts.node = Some(
                    v.split(',')
                        .map(|l| l.trim().parse::<u64>())
                        .collect::<Result<Vec<u64>, _>>()
                        .map_err(|e| format!("--node: {e}"))?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<Verdict, Box<dyn std::error::Error>> {
    let opts = parse_args(args)?;
    match opts.positional.first().map(String::as_str) {
        Some("audit") => audit(&opts),
        Some("search") => search_cmd(&opts),
        Some("anatomize") => anatomize_cmd(&opts),
        Some("generate-adult") => generate_adult(&opts),
        Some("serve") => serve_cmd(&opts),
        Some("table") => table_cmd(&opts),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => Err("missing command".into()),
    }
}

/// Loads a CSV, inferring schema roles from the flags: the `--sensitive`
/// column is sensitive, `--qi` columns are quasi-identifiers, everything
/// else insensitive.
fn load(opts: &Options) -> Result<Table, Box<dyn std::error::Error>> {
    let path = opts
        .positional
        .get(1)
        .ok_or("missing <csv> path argument")?;
    let sensitive = opts
        .sensitive
        .as_deref()
        .ok_or("--sensitive COL is required")?;
    let mut reader = BufReader::new(std::fs::File::open(path)?);

    // Name the columns from the header (or synthesize col0..colN names).
    let schema_of = |first: &[&str], _line| -> Result<Schema, Box<dyn std::error::Error>> {
        let names: Vec<String> = if opts.header {
            first.iter().map(|s| s.trim().to_owned()).collect()
        } else {
            (0..first.len()).map(|i| format!("col{i}")).collect()
        };
        let attributes: Vec<Attribute> = names
            .iter()
            .map(|n| {
                let kind = if n == sensitive {
                    AttributeKind::Sensitive
                } else if opts.qi.contains(n) {
                    AttributeKind::QuasiIdentifier
                } else {
                    AttributeKind::Insensitive
                };
                Attribute::new(n.clone(), kind)
            })
            .collect();
        Ok(Schema::new(attributes)?)
    };
    let mut decoder = if opts.header {
        TableDecoder::new(schema_of)
    } else {
        TableDecoder::headerless(schema_of)
    };
    decoder.decode_reader(&mut reader)?;
    Ok(decoder.into_table().ok_or("empty CSV file")?)
}

/// Prints the disclosure report; returns the safety verdict when a `--c`
/// threshold was given (`None` otherwise).
fn report(
    b: &Bucketization,
    k_max: usize,
    c: Option<f64>,
) -> Result<Option<bool>, Box<dyn std::error::Error>> {
    println!(
        "buckets: {}   tuples: {}   sensitive domain: {}",
        b.n_buckets(),
        b.n_tuples(),
        b.domain_size()
    );
    println!("\n  k   implications   negated-atoms");
    for k in 0..=k_max {
        let imp = max_disclosure(b, k)?;
        let neg = negation_max_disclosure(b, k)?;
        println!("{k:>3}   {:>12.6}   {:>13.6}", imp.value, neg.value);
    }
    // The engine-backed pass at k_max: same value, but exercises and
    // reports the shared MINIMIZE1 cache.
    let engine = DisclosureEngine::new(k_max);
    let worst = engine.max_disclosure(b)?;
    println!("\nworst-case attacker at k={k_max}:");
    println!("  predicts  {}", worst.witness.consequent);
    println!("  knowing   {}", worst.witness.knowledge());
    let mut verdict = None;
    if let Some(c) = c {
        let safe = is_ck_safe(b, c, k_max)?;
        println!(
            "\n({c},{k_max})-safety: {}",
            if safe { "SAFE" } else { "NOT SAFE" }
        );
        verdict = Some(safe);
    }
    print_cache_stats(engine.stats());
    Ok(verdict)
}

fn print_cache_stats(stats: CacheStats) {
    println!(
        "\nengine cache: {} hits / {} misses / {} entries ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.entries,
        100.0 * stats.hit_rate()
    );
}

fn audit(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let table = load(opts)?;
    let qi_cols: Vec<usize> = opts
        .qi
        .iter()
        .map(|n| table.schema().index_of(n))
        .collect::<Result<_, _>>()?;
    let b = if qi_cols.is_empty() {
        Bucketization::from_grouping(&table, |_| 0u8)?
    } else {
        Bucketization::from_grouping(&table, |t| {
            qi_cols
                .iter()
                .map(|&col| table.column(col).code(t.index()))
                .collect::<Vec<u32>>()
        })?
    };
    println!("== wcbk audit ==");
    if opts.model != ModelId::Conjunction {
        return model_audit(&b, opts);
    }
    let verdict = report(&b, opts.k, opts.c)?;
    Ok(match verdict {
        Some(false) => Verdict::Unsafe,
        _ => Verdict::Ok,
    })
}

/// Audits under a non-conjunction adversary model: the model's worst-case
/// bound at `--k`, its witness, and a verdict when `--c` was given.
fn model_audit(b: &Bucketization, opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let set = HistogramSet::from_bucketization(b);
    let model = opts
        .model
        .resolve(std::sync::Arc::new(DisclosureEngine::new(opts.k)));
    let value = model.max_disclosure(&set)?;
    let witness = model.witness(&set)?;
    println!(
        "buckets: {}   tuples: {}   sensitive domain: {}",
        b.n_buckets(),
        b.n_tuples(),
        b.domain_size()
    );
    println!("\nadversary model: {} (k = {})", model.name(), opts.k);
    println!("max disclosure: {value:.6}");
    println!("  predicts  {}", witness.predicts);
    for line in &witness.knowing {
        println!("  knowing   {line}");
    }
    let mut verdict = Verdict::Ok;
    if let Some(c) = opts.c {
        let safe = value < c;
        println!(
            "\n({c},{})-safety under {}: {}",
            opts.k,
            model.name(),
            if safe { "SAFE" } else { "NOT SAFE" }
        );
        if !safe {
            verdict = Verdict::Unsafe;
        }
    }
    Ok(verdict)
}

/// `wcbk search`: minimal (c,k)-safe generalizations over suppression
/// hierarchies on the quasi-identifier columns, sequential or parallel.
fn search_cmd(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let table = load(opts)?;
    let c = opts.c.ok_or("--c F is required for search")?;
    if opts.qi.is_empty() {
        return Err("--qi COL[,COL...] is required for search".into());
    }
    for (col, _) in &opts.hierarchies {
        if !opts.qi.contains(col) {
            return Err(format!("--hierarchy {col}: not a --qi column").into());
        }
    }
    let dims = opts
        .qi
        .iter()
        .map(|n| {
            let col = table.schema().index_of(n)?;
            let dict = table.column(col).dictionary();
            let hierarchy = match opts.hierarchies.iter().find(|(name, _)| name == n) {
                Some((_, widths)) => Hierarchy::intervals(n, dict, widths)?,
                None => Hierarchy::suppression(n, dict),
            };
            Ok((col, hierarchy))
        })
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;
    let lattice = GeneralizationLattice::new(dims)?;

    // Register → run → drop over the dataset-handle API: the session owns
    // the one-scan evaluator and the engine registry, and its search is
    // bit-identical to `find_minimal_safe_with` (pinned by the
    // session-equivalence tests).
    let session = DatasetSession::with_options(
        table,
        lattice,
        SessionOptions {
            memo_capacity: opts.memo_cap,
            engines: None,
            scan_threads: opts.scan_threads.unwrap_or(0),
        },
    )?;
    // The conjunction default keeps the classic criterion; any other
    // `--model` searches through the plugin criterion (same monotone
    // pruning, the model's bound).
    let engine = session.engine(opts.k);
    let criterion: Box<dyn PrivacyCriterion> = if opts.model == ModelId::Conjunction {
        Box::new(CkSafetyCriterion::with_engine(c, engine.clone())?)
    } else {
        Box::new(ModelSafetyCriterion::new(
            c,
            opts.model.resolve(engine.clone()),
        )?)
    };
    // The session search resolves 0 → all cores and degenerates to the
    // sequential search at 1 thread, so dispatch is unconditional.
    let config = SearchConfig {
        threads: opts.threads.unwrap_or(1),
        memo_capacity: opts.memo_cap,
        scan_threads: opts.scan_threads.unwrap_or(0),
        model: opts.model,
    };
    let effective = config.effective_threads();
    let started = std::time::Instant::now();
    let outcome = session.search(&criterion, &config)?.outcome;
    let elapsed = started.elapsed();
    println!(
        "== wcbk search ({} over {} lattice nodes) ==",
        criterion.name(),
        session.lattice().n_nodes()
    );
    let schedule = if effective == 1 {
        "sequential"
    } else {
        "work-stealing"
    };
    println!(
        "threads: {effective} ({schedule})   evaluated: {}   satisfied: {}   elapsed: {elapsed:.2?}",
        outcome.evaluated, outcome.satisfied
    );
    let verdict = if outcome.minimal_nodes.is_empty() {
        println!("no safe generalization exists (even full suppression fails)");
        Verdict::Unsafe
    } else {
        println!("minimal safe nodes (levels over {:?}):", opts.qi);
        for node in &outcome.minimal_nodes {
            println!("  {node}");
        }
        Verdict::Ok
    };
    print_cache_stats(engine.stats());
    Ok(verdict)
}

fn anatomize_cmd(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let table = load(opts)?;
    let l = opts.l.ok_or("--l N is required for anatomize")?;
    let outcome = anatomize(&table, l, opts.seed)?;
    println!("== wcbk anatomize (l = {l}) ==");
    println!("residue tuples absorbed: {}", outcome.residue);
    // Anatomize publishes regardless of the verdict; the safety line is
    // informational, so (unlike audit/search) it does not set exit code 2.
    report(&outcome.bucketization, opts.k, opts.c)?;
    Ok(Verdict::Ok)
}

fn generate_adult(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let table = wcbk::datagen::adult::synthetic_adult(wcbk::datagen::adult::AdultConfig {
        n_rows: opts.rows,
        seed: opts.seed,
    });
    match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            wcbk::table::csv::write_table(file, &table)?;
            eprintln!("wrote {} rows to {path}", table.n_rows());
        }
        None => {
            let stdout = std::io::stdout();
            wcbk::table::csv::write_table(stdout.lock(), &table)?;
        }
    }
    Ok(Verdict::Ok)
}

/// `wcbk serve`: run the HTTP audit service until graceful shutdown
/// (`POST /shutdown`, or the process being signalled away).
fn serve_cmd(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    let config = wcbk::serve::ServerConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        workers: opts.workers.unwrap_or(0),
        max_connections: opts.max_connections.unwrap_or(0),
        idle_timeout: match opts.idle_timeout_ms {
            None => wcbk::serve::ServerConfig::default().idle_timeout,
            Some(0) => None,
            Some(ms) => Some(std::time::Duration::from_millis(ms)),
        },
        limits: ServiceLimits {
            engine_cache_cap: opts.engine_cache_cap,
            engine_budget: opts.engine_budget,
            session_budget: opts.session_budget,
        },
        data_dir: opts.data_dir.clone().map(std::path::PathBuf::from),
        log_json: opts.log_json,
        slow_request_ms: opts.slow_request_ms,
        ..wcbk::serve::ServerConfig::default()
    };
    let server = wcbk::serve::Server::bind(&config)?;
    if let Some(dir) = &config.data_dir {
        eprintln!("wcbk serve: durable catalog at {}", dir.display());
    }
    eprintln!(
        "wcbk serve: listening on http://{} (endpoints: /tables /tables/{{id}}/audit|search|batch|release|composition|history /audit /search /batch /stats /metrics /healthz /shutdown)",
        server.local_addr()
    );
    server.run()?;
    eprintln!("wcbk serve: drained and shut down");
    Ok(Verdict::Ok)
}

/// `wcbk table <add|audit|search|release|composition|history|info|rm>`:
/// drive the dataset-handle resources of a **running** server.
fn table_cmd(opts: &Options) -> Result<Verdict, Box<dyn std::error::Error>> {
    use wcbk::serve::http::client::Client;
    use wcbk::serve::Json;

    let action = opts
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("table needs an action: add|audit|search|release|composition|history|info|rm")?;
    let addr = opts.addr.as_deref().ok_or("--addr HOST:PORT is required")?;
    let mut client = Client::connect(addr, Some(std::time::Duration::from_secs(120)))?;

    let response = match action {
        "add" => {
            let path = opts.positional.get(2).ok_or("table add needs <csv>")?;
            let sensitive = opts
                .sensitive
                .as_deref()
                .ok_or("--sensitive COL is required")?;
            let csv = std::fs::read_to_string(path)?;
            let csv = if opts.header {
                csv
            } else {
                // Synthesize col0..colN names, mirroring `load`.
                let cols = csv
                    .lines()
                    .next()
                    .ok_or("empty CSV file")?
                    .split(',')
                    .count();
                let header: Vec<String> = (0..cols).map(|i| format!("col{i}")).collect();
                format!("{}\n{csv}", header.join(","))
            };
            let mut body = vec![
                ("csv".to_owned(), Json::from(csv.as_str())),
                ("sensitive".to_owned(), sensitive.into()),
                (
                    "qi".to_owned(),
                    Json::Array(opts.qi.iter().map(|q| q.as_str().into()).collect()),
                ),
            ];
            if !opts.hierarchies.is_empty() {
                body.push((
                    "hierarchy".to_owned(),
                    Json::Object(
                        opts.hierarchies
                            .iter()
                            .map(|(col, widths)| {
                                (
                                    col.clone(),
                                    Json::Array(widths.iter().map(|&w| w.into()).collect()),
                                )
                            })
                            .collect(),
                    ),
                ));
            }
            if let Some(cap) = opts.memo_cap {
                body.push(("memo_cap".to_owned(), cap.into()));
            }
            client.post("/tables", &Json::Object(body).to_string())?
        }
        "audit" | "search" | "composition" => {
            let id = opts.positional.get(2).ok_or("table needs <id>")?;
            let mut body: Vec<(String, Json)> = vec![("k".to_owned(), opts.k.into())];
            if let Some(c) = opts.c {
                body.push(("c".to_owned(), c.into()));
            }
            if opts.model != ModelId::Conjunction {
                body.push(("model".to_owned(), opts.model.name().into()));
            }
            if action == "search" {
                if let Some(threads) = opts.threads {
                    body.push(("threads".to_owned(), threads.into()));
                }
            }
            client.post(
                &format!("/tables/{id}/{action}"),
                &Json::Object(body).to_string(),
            )?
        }
        "release" => {
            let id = opts.positional.get(2).ok_or("table release needs <id>")?;
            let node = opts
                .node
                .as_ref()
                .ok_or("table release needs --node L1,L2,...")?;
            let mut fields = vec![(
                "node",
                Json::Array(node.iter().map(|&l| l.into()).collect()),
            )];
            if opts.model != ModelId::Conjunction {
                fields.push(("model", opts.model.name().into()));
            }
            let body = Json::object(fields);
            client.post(&format!("/tables/{id}/release"), &body.to_string())?
        }
        "history" => {
            let id = opts.positional.get(2).ok_or("table history needs <id>")?;
            client.get(&format!("/tables/{id}/history"))?
        }
        "info" => {
            let id = opts.positional.get(2).ok_or("table info needs <id>")?;
            client.get(&format!("/tables/{id}"))?
        }
        "rm" => {
            let id = opts.positional.get(2).ok_or("table rm needs <id>")?;
            client.send_raw(
                format!("DELETE /tables/{id} HTTP/1.1\r\nHost: wcbk\r\n\r\n").as_bytes(),
            )?;
            client.read_response()?
        }
        other => return Err(format!("unknown table action {other:?}").into()),
    };

    println!("{}", response.body.trim_end());
    if response.status != 200 {
        return Err(format!("server answered HTTP {}", response.status).into());
    }
    // Audit/search/composition verdicts drive the exit code like the local
    // verbs: a "safe": false in the response exits 2.
    let body = Json::parse(&response.body)?;
    Ok(match body.get("safe").map(|s| s.as_bool()) {
        Some(Some(false)) => Verdict::Unsafe,
        _ => Verdict::Ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parses_audit_flags() {
        let o = parse_args(&s(&[
            "audit",
            "data.csv",
            "--sensitive",
            "Disease",
            "--qi",
            "Zip, Age",
            "--k",
            "5",
            "--c",
            "0.7",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["audit", "data.csv"]);
        assert_eq!(o.sensitive.as_deref(), Some("Disease"));
        assert_eq!(o.qi, vec!["Zip", "Age"]);
        assert_eq!(o.k, 5);
        assert_eq!(o.c, Some(0.7));
        assert!(o.header);
    }

    #[test]
    fn defaults_applied() {
        let o = parse_args(&s(&["generate-adult"])).unwrap();
        assert_eq!(o.rows, 45_222);
        assert_eq!(o.seed, 20_070_419);
        assert_eq!(o.k, 3);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse_args(&s(&["audit", "--frobnicate"])).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse_args(&s(&["audit", "--k"])).is_err());
        // A following flag is not a value.
        assert!(parse_args(&s(&["audit", "--sensitive", "--qi", "Zip"])).is_err());
    }

    #[test]
    fn no_header_flag() {
        let o = parse_args(&s(&["audit", "x.csv", "--no-header"])).unwrap();
        assert!(!o.header);
    }

    #[test]
    fn parallel_and_threads_flags() {
        let o = parse_args(&s(&["search", "x.csv", "--parallel"])).unwrap();
        assert_eq!(o.threads, Some(0));
        let o = parse_args(&s(&["search", "x.csv", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        let o = parse_args(&s(&["search", "x.csv"])).unwrap();
        assert_eq!(o.threads, None);
        assert!(parse_args(&s(&["search", "--threads", "lots"])).is_err());
    }

    #[test]
    fn memo_cap_flag() {
        let o = parse_args(&s(&["search", "x.csv"])).unwrap();
        assert_eq!(o.memo_cap, None);
        let o = parse_args(&s(&["search", "x.csv", "--memo-cap", "32"])).unwrap();
        assert_eq!(o.memo_cap, Some(32));
        assert!(parse_args(&s(&["search", "--memo-cap", "many"])).is_err());
    }

    #[test]
    fn model_flag_parses() {
        let o = parse_args(&s(&["audit", "x.csv"])).unwrap();
        assert_eq!(o.model, ModelId::Conjunction);
        for (name, id) in [
            ("conjunction", ModelId::Conjunction),
            ("distribution", ModelId::Distribution),
            ("minimality", ModelId::Minimality),
            ("sequential", ModelId::Sequential),
        ] {
            let o = parse_args(&s(&["audit", "x.csv", "--model", name])).unwrap();
            assert_eq!(o.model, id);
        }
        assert!(parse_args(&s(&["audit", "--model", "bogus"])).is_err());
        assert!(parse_args(&s(&["audit", "--model"])).is_err());
    }

    /// `--model` drives real audits and searches: a non-conjunction bound
    /// maps onto the same exit-code contract as the classic path.
    #[test]
    fn model_audit_and_search_end_to_end() {
        let dir = std::env::temp_dir().join("wcbk_cli_model");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();

        // Exact-QI singleton buckets: the distribution adversary pins every
        // tuple's value → NOT SAFE at c = 0.5.
        let unsafe_audit = s(&[
            "audit",
            path,
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--k",
            "1",
            "--c",
            "0.5",
            "--model",
            "distribution",
        ]);
        assert_eq!(run(&unsafe_audit).unwrap(), Verdict::Unsafe);
        // One 50/50 bucket under the minimality attacker at k=0 → SAFE.
        let safe_audit = s(&[
            "audit",
            path,
            "--sensitive",
            "Disease",
            "--k",
            "0",
            "--c",
            "0.9",
            "--model",
            "minimality",
        ]);
        assert_eq!(run(&safe_audit).unwrap(), Verdict::Ok);
        // Searching under the model criterion still finds safe nodes.
        let search = s(&[
            "search",
            path,
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--c",
            "0.9",
            "--k",
            "0",
            "--model",
            "minimality",
        ]);
        assert_eq!(run(&search).unwrap(), Verdict::Ok);
    }

    #[test]
    fn search_with_schedule_end_to_end() {
        let dir = std::env::temp_dir().join("wcbk_cli_schedule");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n",
        )
        .unwrap();
        // One thread runs the sequential search, two the work-stealing one.
        for threads in ["1", "2"] {
            let args = s(&[
                "search",
                path.to_str().unwrap(),
                "--sensitive",
                "Disease",
                "--qi",
                "Age,Sex",
                "--c",
                "0.9",
                "--k",
                "1",
                "--threads",
                threads,
                "--memo-cap",
                "2",
            ]);
            run(&args).unwrap_or_else(|e| panic!("--threads {threads}: {e}"));
        }
    }

    #[test]
    fn hierarchy_flag_parses_and_repeats() {
        let o = parse_args(&s(&[
            "search",
            "x.csv",
            "--hierarchy",
            "Age:5,10,20",
            "--hierarchy",
            "Zip: 100",
        ]))
        .unwrap();
        assert_eq!(
            o.hierarchies,
            vec![
                ("Age".to_owned(), vec![5, 10, 20]),
                ("Zip".to_owned(), vec![100]),
            ]
        );
        assert!(parse_args(&s(&["search", "--hierarchy", "Age"])).is_err());
        assert!(parse_args(&s(&["search", "--hierarchy", "Age:five"])).is_err());
        assert!(parse_args(&s(&["search", "--hierarchy", "Age:"])).is_err());
        // The same column twice is ambiguous, not first-wins.
        assert!(parse_args(&s(&[
            "search",
            "--hierarchy",
            "Age:5",
            "--hierarchy",
            "Age:10,20"
        ]))
        .is_err());
    }

    #[test]
    fn search_with_interval_hierarchy_end_to_end() {
        // A tiny CSV with a numeric Age column: the interval hierarchy must
        // produce a deeper lattice than plain suppression and still search.
        let dir = std::env::temp_dir().join("wcbk_cli_hierarchy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n",
        )
        .unwrap();
        let args = s(&[
            "search",
            path.to_str().unwrap(),
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--c",
            "0.9",
            "--k",
            "1",
            "--hierarchy",
            "Age:4,8",
        ]);
        run(&args).unwrap();
        // A hierarchy spec naming a non-QI column is rejected.
        let bad = s(&[
            "search",
            path.to_str().unwrap(),
            "--sensitive",
            "Disease",
            "--qi",
            "Sex",
            "--c",
            "0.9",
            "--hierarchy",
            "Age:4,8",
        ]);
        assert!(run(&bad).is_err());
    }

    #[test]
    fn run_rejects_unknown_command() {
        assert!(run(&s(&["transmogrify"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let o = parse_args(&s(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--max-connections",
            "256",
            "--idle-timeout-ms",
            "30000",
        ]))
        .unwrap();
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.workers, Some(2));
        assert_eq!(o.max_connections, Some(256));
        assert_eq!(o.idle_timeout_ms, Some(30_000));
        assert!(parse_args(&s(&["serve", "--workers", "many"])).is_err());
        assert_eq!(
            parse_args(&s(&["serve", "--queue-depth", "8"])),
            Err("unknown flag --queue-depth".to_owned())
        );
        assert!(parse_args(&s(&["serve", "--max-connections", "lots"])).is_err());
        assert!(parse_args(&s(&["serve", "--idle-timeout-ms"])).is_err());
    }

    #[test]
    fn serve_observability_flags_parse() {
        let o = parse_args(&s(&["serve", "--log-json", "--slow-request-ms", "250"])).unwrap();
        assert!(o.log_json);
        assert_eq!(o.slow_request_ms, Some(250));
        let o = parse_args(&s(&["serve"])).unwrap();
        assert!(!o.log_json);
        assert_eq!(o.slow_request_ms, None);
        assert!(parse_args(&s(&["serve", "--slow-request-ms"])).is_err());
        assert!(parse_args(&s(&["serve", "--slow-request-ms", "fast"])).is_err());
    }

    #[test]
    fn serve_budget_and_table_flags_parse() {
        let o = parse_args(&s(&[
            "serve",
            "--engine-cache-cap",
            "4096",
            "--engine-budget",
            "65536",
            "--session-budget",
            "100000",
        ]))
        .unwrap();
        assert_eq!(o.engine_cache_cap, Some(4096));
        assert_eq!(o.engine_budget, Some(65536));
        assert_eq!(o.session_budget, Some(100_000));
        assert!(parse_args(&s(&["serve", "--engine-budget", "lots"])).is_err());

        let o = parse_args(&s(&[
            "table",
            "release",
            "abc",
            "--addr",
            "127.0.0.1:1",
            "--node",
            "1, 2,0",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["table", "release", "abc"]);
        assert_eq!(o.node, Some(vec![1, 2, 0]));
        assert!(parse_args(&s(&["table", "release", "x", "--node", "one"])).is_err());
    }

    /// End-to-end `wcbk table` against an in-process server: add is
    /// idempotent, audit/search/release/composition run by handle, rm
    /// makes the handle 404.
    #[test]
    fn table_verbs_drive_a_live_server() {
        let server = wcbk::serve::Server::bind(&wcbk::serve::ServerConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let join = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join("wcbk_cli_table");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();

        let add = |_label: &str| {
            s(&[
                "table",
                "add",
                path,
                "--addr",
                &addr,
                "--sensitive",
                "Disease",
                "--qi",
                "Age,Sex",
            ])
        };
        assert_eq!(run(&add("first")).unwrap(), Verdict::Ok);
        assert_eq!(run(&add("again")).unwrap(), Verdict::Ok);

        // The handle is the content fingerprint: recompute it like the
        // server does to address the audit.
        let table = {
            let o = parse_args(&add("local")).unwrap();
            let mut o2 = o.clone();
            o2.positional = vec!["audit".into(), path.into()];
            load(&o2).unwrap()
        };
        let dims: Vec<(usize, Hierarchy)> = ["Age", "Sex"]
            .iter()
            .map(|n| {
                let col = table.schema().index_of(n).unwrap();
                (
                    col,
                    Hierarchy::suppression(*n, table.column(col).dictionary()),
                )
            })
            .collect();
        let lattice = GeneralizationLattice::new(dims).unwrap();
        let id = format!(
            "{:016x}",
            wcbk::prelude::dataset_fingerprint(&table, &lattice)
        );

        // Safe audit at k=0, c=0.9 (one big 50/50 bucket is impossible here:
        // exact QI gives singletons, so this is NOT safe → exit 2).
        let unsafe_audit = s(&[
            "table", "audit", &id, "--addr", &addr, "--k", "1", "--c", "0.5",
        ]);
        assert_eq!(run(&unsafe_audit).unwrap(), Verdict::Unsafe);

        // Search at k=0, c=0.9 finds safe generalizations → exit ok.
        let search = s(&[
            "table",
            "search",
            &id,
            "--addr",
            &addr,
            "--k",
            "0",
            "--c",
            "0.9",
            "--threads",
            "2",
        ]);
        assert_eq!(run(&search).unwrap(), Verdict::Ok);

        // Release the top node, then audit the composition.
        let release = s(&["table", "release", &id, "--addr", &addr, "--node", "1,1"]);
        assert_eq!(run(&release).unwrap(), Verdict::Ok);
        let composition = s(&[
            "table",
            "composition",
            &id,
            "--addr",
            &addr,
            "--k",
            "0",
            "--c",
            "0.9",
        ]);
        assert_eq!(run(&composition).unwrap(), Verdict::Ok);

        // Info works; rm drops; audit afterwards is an HTTP 404 → error.
        assert_eq!(
            run(&s(&["table", "info", &id, "--addr", &addr])).unwrap(),
            Verdict::Ok
        );
        assert_eq!(
            run(&s(&["table", "rm", &id, "--addr", &addr])).unwrap(),
            Verdict::Ok
        );
        assert!(run(&unsafe_audit).is_err());

        // Unknown action and missing --addr are usage errors.
        assert!(run(&s(&["table", "frobnicate", &id, "--addr", &addr])).is_err());
        assert!(run(&s(&["table", "info", &id])).is_err());

        // Shut the server down.
        let mut client = wcbk::serve::http::client::Client::connect(
            &addr,
            Some(std::time::Duration::from_secs(5)),
        )
        .unwrap();
        client.post("/shutdown", "{}").unwrap();
        join.join().unwrap().unwrap();
    }

    /// The distinct exit path: audit/search return `Verdict::Unsafe` (exit
    /// code 2) on unsafe verdicts, `Verdict::Ok` otherwise.
    #[test]
    fn audit_and_search_verdicts_drive_exit_codes() {
        let dir = std::env::temp_dir().join("wcbk_cli_verdict");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(
            &path,
            "Age,Sex,Disease\n21,M,Flu\n23,F,Flu\n27,M,Cold\n29,F,Cold\n33,M,Flu\n35,F,Cold\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();

        // Exact-QI audit: singleton buckets disclose fully → NOT SAFE.
        let unsafe_audit = s(&[
            "audit",
            path,
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--k",
            "1",
            "--c",
            "0.5",
        ]);
        assert_eq!(run(&unsafe_audit).unwrap(), Verdict::Unsafe);
        // One big bucket at k=0: half Flu, half Cold → SAFE at c = 0.9.
        let safe_audit = s(&[
            "audit",
            path,
            "--sensitive",
            "Disease",
            "--k",
            "0",
            "--c",
            "0.9",
        ]);
        assert_eq!(run(&safe_audit).unwrap(), Verdict::Ok);
        // No --c: nothing to verdict on.
        let no_c = s(&["audit", path, "--sensitive", "Disease", "--k", "1"]);
        assert_eq!(run(&no_c).unwrap(), Verdict::Ok);

        // A satisfiable search succeeds, an unsatisfiable one exits Unsafe.
        // (k = 0: with a two-value sensitive domain, a single implication
        // already forces full disclosure, so k ≥ 1 is never satisfiable.)
        let safe_search = s(&[
            "search",
            path,
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--c",
            "0.9",
            "--k",
            "0",
        ]);
        assert_eq!(run(&safe_search).unwrap(), Verdict::Ok);
        let hopeless_search = s(&[
            "search",
            path,
            "--sensitive",
            "Disease",
            "--qi",
            "Age,Sex",
            "--c",
            "0.4",
            "--k",
            "0",
        ]);
        assert_eq!(run(&hopeless_search).unwrap(), Verdict::Unsafe);
    }
}
