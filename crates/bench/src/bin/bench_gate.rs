//! `bench_gate` — CI perf-regression gate over `bench_report` output.
//!
//! Gates a freshly measured `bench_report` run on its own **in-run ratios
//! between variants** — both sides of every ratio were measured in the same
//! run on the same machine, so absolute runner speed cancels out and no
//! committed ns/node baseline can go stale or trip on a slow runner. Fails
//! (exit 1) when any ratio falls below its floor, printing a markdown table
//! (optionally appended to a file — point `--summary` at
//! `$GITHUB_STEP_SUMMARY` to surface it in the CI job summary).
//!
//! Gated in-run ratios (speedup = slower variant ns/node ÷ faster), each
//! against a fixed floor:
//! * `sweep` — roll-up evaluator vs the legacy per-node scan on the
//!   unpruned sweep, floored by [`MIN_ROLLUP`];
//! * `search` — the same pair on the pruned search, same floor;
//! * `parallel` — the work-stealing search at the run's thread count vs the
//!   sequential roll-up search (`search.rollup_ns_per_node`), floored by
//!   [`MIN_STEAL`].
//!
//! The JSON is the fixed shape `bench_report` emits; values are pulled with
//! a purpose-built extractor rather than a JSON dependency (the sanctioned
//! dependency set has none).
//!
//! Run: `cargo run --release -p wcbk-bench --bin bench_gate -- \
//!       /tmp/bench_new.json [--summary FILE]`
//!
//! A second mode, `--scale <candidate.json>`, gates the `bench_report
//! --scale` output on its own **in-run** speedups (machine-independent by
//! construction — both sides of each ratio were measured in the same run):
//! the chunked kernel must beat the row-at-a-time reference scan by
//! [`MIN_KERNEL`] on one thread and by [`MIN_PARALLEL`] at the run's thread
//! count, and CSV ingest through the borrowed-field decoder must beat the
//! record-at-a-time adapters by [`MIN_INGEST`]. No baseline file is needed.

use std::process::ExitCode;

use wcbk_bench::HarnessError;

/// Floor on the roll-up evaluator's in-run speedup over the legacy
/// per-node scan, on both the sweep and the pruned search: one scan plus
/// derivations must stay well ahead of a scan per node.
const MIN_ROLLUP: f64 = 2.0;

/// Floor on the work-stealing search's in-run speedup over the sequential
/// search: stealing may not be more than ~1.5× slower than the baseline it
/// parallelizes, even on a runner with fewer cores than threads.
const MIN_STEAL: f64 = 0.67;

/// Floor on the chunked scan kernel's in-run speedup over the row-at-a-time
/// reference scan at one thread.
const MIN_KERNEL: f64 = 1.3;

/// Floor on the chunked scan kernel's in-run speedup over the reference
/// scan at the run's `--scan-threads`.
const MIN_PARALLEL: f64 = 1.5;

/// Floor on `bench_report --scale`'s in-run CSV ingest speedup: the
/// borrowed-field decoder over the record-at-a-time adapters. Both share
/// the tokenizer and the dictionary, so the ratio prices the per-field
/// `String`s and per-record `Vec` the decoder avoids (1.36–1.79× measured
/// on 1M Adult rows on a shared 2-core VM).
const MIN_INGEST: f64 = 1.2;

/// Extracts `"key": <number>` from within `"section": { … }` of a
/// `bench_report` JSON document.
fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec_tag = format!("\"{section}\"");
    let sec_start = json.find(&sec_tag)?;
    let body_start = json[sec_start..].find('{')? + sec_start + 1;
    let body_end = json[body_start..].find('}')? + body_start;
    let body = &json[body_start..body_end];
    let key_tag = format!("\"{key}\"");
    let key_start = body.find(&key_tag)?;
    let after_colon = body[key_start..].find(':')? + key_start + 1;
    let number: String = body[after_colon..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    number.parse().ok()
}

/// In-run speedup of the faster variant over the slower one:
/// `slower ns/node ÷ faster ns/node` (infinite when the faster side
/// measured zero — nothing to gate against).
fn speedup(slower_ns: f64, faster_ns: f64) -> f64 {
    if faster_ns > 0.0 {
        slower_ns / faster_ns
    } else {
        f64::INFINITY
    }
}

/// A gated row: label, measured in-run speedup, floor.
type Row = (&'static str, f64, f64);

/// `--scale` mode: the bottom-scan and ingest speedups `bench_report
/// --scale` records directly.
fn scale_rows(candidate: &str) -> Result<Vec<Row>, HarnessError> {
    [
        (
            "bottom_scan",
            "kernel_speedup",
            "chunked kernel vs reference (1 thread)",
            MIN_KERNEL,
        ),
        (
            "bottom_scan",
            "parallel_speedup",
            "chunked kernel vs reference (parallel)",
            MIN_PARALLEL,
        ),
        (
            "ingest",
            "speedup",
            "CSV ingest: decoder vs record adapters",
            MIN_INGEST,
        ),
    ]
    .into_iter()
    .map(|(section, key, label, floor)| {
        let speedup = extract(candidate, section, key)
            .ok_or_else(|| format!("candidate is missing {section}.{key}"))?;
        Ok((label, speedup, floor))
    })
    .collect()
}

/// Lattice-search mode: speedups derived from the ns/node pairs.
fn search_rows(candidate: &str) -> Result<Vec<Row>, HarnessError> {
    let ns = |section: &str, key: &str| -> Result<f64, HarnessError> {
        extract(candidate, section, key)
            .ok_or_else(|| format!("candidate is missing {section}.{key}").into())
    };
    Ok(vec![
        (
            "sweep: rollup vs legacy",
            speedup(
                ns("sweep", "legacy_ns_per_node")?,
                ns("sweep", "rollup_ns_per_node")?,
            ),
            MIN_ROLLUP,
        ),
        (
            "pruned search: rollup vs legacy",
            speedup(
                ns("search", "legacy_ns_per_node")?,
                ns("search", "rollup_ns_per_node")?,
            ),
            MIN_ROLLUP,
        ),
        (
            "parallel: steal vs sequential",
            speedup(
                ns("search", "rollup_ns_per_node")?,
                ns("parallel", "steal_ns_per_node")?,
            ),
            MIN_STEAL,
        ),
    ])
}

/// Gates a `bench_report` (or, with `--scale`, `bench_report --scale`)
/// JSON file: prints the markdown table, appends it to `--summary FILE`
/// when given, and returns whether every ratio met its floor.
fn run(args: &[String]) -> Result<bool, HarnessError> {
    let mut raw: Vec<String> = args.to_vec();
    let scale = match raw.iter().position(|a| a == "--scale") {
        Some(pos) => {
            raw.remove(pos);
            true
        }
        None => false,
    };
    let summary_path = match raw.iter().position(|a| a == "--summary") {
        Some(pos) => {
            let path = raw.get(pos + 1).ok_or("--summary needs a value")?.clone();
            raw.drain(pos..=pos + 1);
            Some(path)
        }
        None => None,
    };
    let [candidate_path] = raw.as_slice() else {
        return Err("usage: bench_gate [--scale] <candidate.json> [--summary FILE]".into());
    };
    let candidate = std::fs::read_to_string(candidate_path)
        .map_err(|e| format!("reading candidate {candidate_path}: {e}"))?;
    let (title, rows) = if scale {
        (
            "## scale-gate: bottom-scan and ingest in-run speedups",
            scale_rows(&candidate)?,
        )
    } else {
        (
            "## bench-gate: lattice-search in-run variant speedups",
            search_rows(&candidate)?,
        )
    };

    let mut table =
        format!("{title}\n\n| metric | speedup | floor | status |\n|---|---:|---:|:---:|\n");
    let mut ok = true;
    for (label, speedup, floor) in &rows {
        // `>=` so a NaN speedup fails too.
        let passed = speedup >= floor;
        ok &= passed;
        table.push_str(&format!(
            "| {} | {:.2}x | {:.2}x | {} |\n",
            label,
            speedup,
            floor,
            if passed { "pass" } else { "**FAIL**" }
        ));
        if !passed {
            eprintln!("REGRESSION: {label} speedup {speedup:.2}x below the {floor:.2}x floor");
        }
    }
    println!("{table}");
    if let Some(path) = summary_path {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening summary {path}: {e}"))?;
        writeln!(f, "{table}")?;
    }
    Ok(ok)
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

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "workload": { "rows": 5000, "lattice_nodes": 72, "c": 0.8, "k": 3 },
  "sweep": { "nodes_evaluated": 72, "legacy_ns_per_node": 624134, "rollup_ns_per_node": 109300, "speedup": 5.71 },
  "search": { "nodes_evaluated": 63, "minimal_nodes": 5, "legacy_ms": 38.932, "rollup_ms": 7.303, "legacy_ns_per_node": 617968, "rollup_ns_per_node": 115915, "speedup": 5.33 },
  "parallel": { "threads": 4, "steal_ms": 2.0, "steal_ns_per_node": 31746, "steal_speedup_vs_sequential": 3.65 },
  "rollup": { "table_scans": 1, "derived_nodes": 71, "bottom_groups": 980 },
  "engine_cache": { "hits": 1093, "misses": 267, "entries": 267, "hit_rate": 0.8037 }
}"#;

    #[test]
    fn extracts_scoped_keys() {
        assert_eq!(
            extract(SAMPLE, "sweep", "rollup_ns_per_node"),
            Some(109300.0)
        );
        assert_eq!(
            extract(SAMPLE, "search", "rollup_ns_per_node"),
            Some(115915.0)
        );
        assert_eq!(
            extract(SAMPLE, "parallel", "steal_ns_per_node"),
            Some(31746.0)
        );
        assert_eq!(extract(SAMPLE, "search", "rollup_ms"), Some(7.303));
        assert_eq!(extract(SAMPLE, "engine_cache", "hit_rate"), Some(0.8037));
        // Keys do not leak across section boundaries.
        assert_eq!(extract(SAMPLE, "rollup", "rollup_ns_per_node"), None);
        assert_eq!(extract(SAMPLE, "nonexistent", "speedup"), None);
    }

    #[test]
    fn speedup_is_slower_over_faster_and_guards_zero() {
        assert!((speedup(100.0, 50.0) - 2.0).abs() < 1e-12);
        assert!(speedup(100.0, 0.0).is_infinite());
    }

    #[test]
    fn run_gates_on_in_run_ratios() {
        let dir = std::env::temp_dir().join("wcbk_bench_gate");
        std::fs::create_dir_all(&dir).unwrap();
        let cand = dir.join("cand.json");
        std::fs::write(&cand, SAMPLE).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            [cand.to_str().unwrap()]
                .iter()
                .map(|s| (*s).to_owned())
                .chain(extra.iter().map(|s| (*s).to_owned()))
                .collect()
        };
        // Sample speedups: sweep 5.71x, search 5.33x, steal-vs-sequential
        // 3.65x.
        assert!(run(&args(&[])).unwrap(), "healthy ratios pass the floors");

        // Roll-up regressed to parity with the legacy scan: fails the floor.
        let regressed = SAMPLE.replace(
            "\"rollup_ns_per_node\": 115915",
            "\"rollup_ns_per_node\": 617968",
        );
        std::fs::write(&cand, regressed).unwrap();
        assert!(!run(&args(&[])).unwrap(), "parity must fail MIN_ROLLUP");
        // Exactly at the floor (617968 / 308984 = 2.0x) passes.
        let at_floor = SAMPLE.replace(
            "\"rollup_ns_per_node\": 115915",
            "\"rollup_ns_per_node\": 308984",
        );
        std::fs::write(&cand, at_floor).unwrap();
        assert!(run(&args(&[])).unwrap(), "the floor itself passes");

        // Stealing collapsing to ~1.7x slower than the sequential search
        // (115915 / 200000 = 0.58x) fails its floor.
        let slow_steal = SAMPLE.replace(
            "\"steal_ns_per_node\": 31746",
            "\"steal_ns_per_node\": 200000",
        );
        std::fs::write(&cand, slow_steal).unwrap();
        assert!(!run(&args(&[])).unwrap(), "slow stealing must fail");

        // A summary file gets the markdown appended.
        std::fs::write(&cand, SAMPLE).unwrap();
        let summary = dir.join("summary.md");
        let _ = std::fs::remove_file(&summary);
        assert!(run(&args(&["--summary", summary.to_str().unwrap()])).unwrap());
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("bench-gate"), "{text}");
        assert!(text.contains("| sweep: rollup vs legacy |"), "{text}");
    }

    const SCALE_SAMPLE: &str = r#"{
  "workload": { "rows": 1000000, "lattice_nodes": 72, "bottom_groups": 4153, "scan_threads": 4 },
  "bottom_scan": { "reference_ms": 55.0, "kernel_ms": 12.2, "parallel_ms": 14.8, "reference_rows_per_s": 18155209, "kernel_rows_per_s": 82273263, "parallel_rows_per_s": 67354663, "kernel_speedup": 4.53, "parallel_speedup": 3.71 },
  "ingest": { "csv_mb": 44.0, "adapter_ms": 800.0, "decoder_ms": 350.0, "adapter_rows_per_s": 1250000, "decoder_rows_per_s": 2857143, "speedup": 2.29 },
  "ingest_unique": { "csv_mb": 56.0, "adapter_ms": 2500.0, "decoder_ms": 1600.0, "adapter_rows_per_s": 400000, "decoder_rows_per_s": 625000, "speedup": 1.56 }
}"#;

    #[test]
    fn scale_gate_checks_in_run_speedup_floors() {
        let dir = std::env::temp_dir().join("wcbk_bench_gate_scale");
        std::fs::create_dir_all(&dir).unwrap();
        let cand = dir.join("scale.json");
        std::fs::write(&cand, SCALE_SAMPLE).unwrap();
        let args = |extra: &[&str]| -> Vec<String> {
            ["--scale", cand.to_str().unwrap()]
                .iter()
                .map(|s| (*s).to_owned())
                .chain(extra.iter().map(|s| (*s).to_owned()))
                .collect()
        };
        assert!(run(&args(&[])).unwrap(), "healthy speedups pass the floors");

        // Each scan ratio just under its floor fails; at its floor passes.
        for (healthy, below, at) in [
            (
                "\"kernel_speedup\": 4.53",
                "\"kernel_speedup\": 1.29",
                "\"kernel_speedup\": 1.3",
            ),
            (
                "\"parallel_speedup\": 3.71",
                "\"parallel_speedup\": 1.49",
                "\"parallel_speedup\": 1.5",
            ),
        ] {
            std::fs::write(&cand, SCALE_SAMPLE.replace(healthy, below)).unwrap();
            assert!(!run(&args(&[])).unwrap(), "{below} must fail");
            std::fs::write(&cand, SCALE_SAMPLE.replace(healthy, at)).unwrap();
            assert!(run(&args(&[])).unwrap(), "{at} must pass");
        }

        // An ingest regression to parity with the adapters fails.
        let slow_ingest = SCALE_SAMPLE.replace("\"speedup\": 2.29", "\"speedup\": 1.0");
        std::fs::write(&cand, slow_ingest).unwrap();
        assert!(!run(&args(&[])).unwrap(), "ingest parity must fail");
        let at_floor =
            SCALE_SAMPLE.replace("\"speedup\": 2.29", &format!("\"speedup\": {MIN_INGEST}"));
        std::fs::write(&cand, at_floor).unwrap();
        assert!(run(&args(&[])).unwrap(), "the floor itself passes");

        // A candidate without the ingest section cannot be gated.
        let no_ingest: String = SCALE_SAMPLE
            .lines()
            .filter(|l| !l.contains("\"ingest\""))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&cand, no_ingest).unwrap();
        let err = run(&args(&[])).unwrap_err();
        assert!(err.to_string().contains("ingest.speedup"), "{err}");

        // A kernel regression to parity with the reference scan fails.
        let regressed = SCALE_SAMPLE
            .replace("\"kernel_speedup\": 4.53", "\"kernel_speedup\": 1.0")
            .replace("\"parallel_speedup\": 3.71", "\"parallel_speedup\": 1.0");
        std::fs::write(&cand, regressed).unwrap();
        assert!(!run(&args(&[])).unwrap(), "parity must fail the gate");

        // The summary file gets the scale table appended.
        std::fs::write(&cand, SCALE_SAMPLE).unwrap();
        let summary = dir.join("summary.md");
        let _ = std::fs::remove_file(&summary);
        assert!(run(&args(&["--summary", summary.to_str().unwrap()])).unwrap());
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("scale-gate"), "{text}");
    }

    #[test]
    fn missing_candidate_metric_is_fatal() {
        let dir = std::env::temp_dir().join("wcbk_bench_gate_missing");
        std::fs::create_dir_all(&dir).unwrap();
        let cand = dir.join("cand.json");
        // A candidate without the parallel section cannot be gated.
        let truncated = SAMPLE
            .lines()
            .filter(|l| !l.contains("\"parallel\""))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&cand, truncated).unwrap();
        let args = vec![cand.to_str().unwrap().to_owned()];
        let err = run(&args).unwrap_err();
        assert!(
            err.to_string().contains("parallel.steal_ns_per_node"),
            "unexpected error: {err}"
        );
    }
}
