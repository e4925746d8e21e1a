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
//! Gated in-run ratios (speedup = slower variant ns/node ÷ faster):
//! * `sweep` — roll-up evaluator vs the legacy per-node scan on the
//!   unpruned sweep, floored by `--min-rollup` (default 2.0×);
//! * `search` — the same pair on the pruned search, same floor;
//! * `parallel` — work-stealing vs level-synchronous schedule, floored by
//!   `--min-steal` (default 0.67×: stealing may not be more than ~1.5×
//!   slower than level-sync in the same run).
//!
//! The JSON is the fixed shape `bench_report` emits; values are pulled with
//! a purpose-built extractor rather than a JSON dependency (the sanctioned
//! dependency set has none).
//!
//! Run: `cargo run --release -p wcbk-bench --bin bench_gate -- \
//!       /tmp/bench_new.json [--min-rollup F] [--min-steal F] \
//!       [--summary FILE]`
//!
//! A second mode, `--scale <candidate.json>`, gates the `bench_report
//! --scale` output on its own **in-run** speedups (machine-independent by
//! construction — both sides of each ratio were measured in the same run):
//! the chunked kernel must beat the row-at-a-time reference scan by
//! `--min-kernel` (default 1.2×) on one thread and by `--min-parallel`
//! (default 1.5×) at the run's thread count, and CSV ingest through the
//! borrowed-field decoder must beat the record-at-a-time adapters by
//! [`MIN_INGEST`]. No baseline file is needed.

use std::process::ExitCode;

use wcbk_bench::HarnessError;

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

/// `--scale` mode: gate `bench_report --scale` output on its own in-run
/// speedups. Both sides of each ratio came from the same run on the same
/// machine, so the floors hold anywhere the kernel is genuinely faster —
/// no committed baseline to go stale.
fn run_scale(args: &[String]) -> Result<bool, HarnessError> {
    let mut raw: Vec<String> = args.to_vec();
    let mut take_flag = |name: &str| -> Result<Option<String>, HarnessError> {
        match raw.iter().position(|a| a == name) {
            Some(pos) => {
                let value = raw
                    .get(pos + 1)
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .clone();
                raw.drain(pos..=pos + 1);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    };
    let min_kernel: f64 = take_flag("--min-kernel")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1.2);
    let min_parallel: f64 = take_flag("--min-parallel")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1.5);
    let summary_path = take_flag("--summary")?;
    let [candidate_path] = raw.as_slice() else {
        return Err("usage: bench_gate --scale <candidate.json> \
                    [--min-kernel F] [--min-parallel F] [--summary FILE]"
            .into());
    };
    let candidate = std::fs::read_to_string(candidate_path)
        .map_err(|e| format!("reading candidate {candidate_path}: {e}"))?;

    let mut rows: Vec<(String, f64, f64, bool)> = Vec::new();
    for (section, key, label, floor) in [
        (
            "bottom_scan",
            "kernel_speedup",
            "chunked kernel vs reference (1 thread)",
            min_kernel,
        ),
        (
            "bottom_scan",
            "parallel_speedup",
            "chunked kernel vs reference (parallel)",
            min_parallel,
        ),
        (
            "ingest",
            "speedup",
            "CSV ingest: decoder vs record adapters",
            MIN_INGEST,
        ),
    ] {
        let speedup = extract(&candidate, section, key)
            .ok_or_else(|| format!("candidate is missing {section}.{key}"))?;
        rows.push((label.to_owned(), speedup, floor, speedup >= floor));
    }

    let mut table = String::from("## scale-gate: bottom-scan and ingest in-run speedups\n\n");
    table.push_str("| metric | speedup | floor | status |\n|---|---:|---:|:---:|\n");
    for (label, speedup, floor, passed) in &rows {
        table.push_str(&format!(
            "| {} | {:.2}x | {:.2}x | {} |\n",
            label,
            speedup,
            floor,
            if *passed { "pass" } else { "**FAIL**" }
        ));
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
    let mut ok = true;
    for (label, speedup, floor, passed) in &rows {
        if !passed {
            ok = false;
            eprintln!("REGRESSION: {label} speedup {speedup:.2}x below the {floor:.2}x floor");
        }
    }
    Ok(ok)
}

fn run(args: &[String]) -> Result<bool, HarnessError> {
    let mut raw: Vec<String> = args.to_vec();
    if let Some(pos) = raw.iter().position(|a| a == "--scale") {
        raw.remove(pos);
        return run_scale(&raw);
    }
    let mut take_flag = |name: &str| -> Result<Option<String>, HarnessError> {
        match raw.iter().position(|a| a == name) {
            Some(pos) => {
                let value = raw
                    .get(pos + 1)
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .clone();
                raw.drain(pos..=pos + 1);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    };
    let min_rollup: f64 = take_flag("--min-rollup")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2.0);
    let min_steal: f64 = take_flag("--min-steal")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0.67);
    let summary_path = take_flag("--summary")?;
    let [candidate_path] = raw.as_slice() else {
        return Err("usage: bench_gate <candidate.json> \
                    [--min-rollup F] [--min-steal F] [--summary FILE]"
            .into());
    };
    let candidate = std::fs::read_to_string(candidate_path)
        .map_err(|e| format!("reading candidate {candidate_path}: {e}"))?;

    // (label, measured in-run speedup, floor, verdict)
    let mut rows: Vec<(String, f64, f64, bool)> = Vec::new();
    for (section, label) in [
        ("sweep", "sweep: rollup vs legacy"),
        ("search", "pruned search: rollup vs legacy"),
    ] {
        let legacy = extract(&candidate, section, "legacy_ns_per_node")
            .ok_or_else(|| format!("candidate is missing {section}.legacy_ns_per_node"))?;
        let rollup = extract(&candidate, section, "rollup_ns_per_node")
            .ok_or_else(|| format!("candidate is missing {section}.rollup_ns_per_node"))?;
        let s = speedup(legacy, rollup);
        rows.push((label.to_owned(), s, min_rollup, s >= min_rollup));
    }
    let level = extract(&candidate, "parallel", "level_ns_per_node")
        .ok_or("candidate is missing parallel.level_ns_per_node")?;
    let steal = extract(&candidate, "parallel", "steal_ns_per_node")
        .ok_or("candidate is missing parallel.steal_ns_per_node")?;
    let s = speedup(level, steal);
    rows.push((
        "parallel: steal vs level".to_owned(),
        s,
        min_steal,
        s >= min_steal,
    ));

    let mut table = String::from("## bench-gate: lattice-search in-run variant speedups\n\n");
    table.push_str("| metric | speedup | floor | status |\n|---|---:|---:|:---:|\n");
    for (label, speedup, floor, passed) in &rows {
        table.push_str(&format!(
            "| {} | {:.2}x | {:.2}x | {} |\n",
            label,
            speedup,
            floor,
            if *passed { "pass" } else { "**FAIL**" }
        ));
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
    let mut ok = true;
    for (label, speedup, floor, passed) in &rows {
        if !passed {
            ok = false;
            eprintln!("REGRESSION: {label} speedup {speedup:.2}x below the {floor:.2}x floor");
        }
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
  "parallel": { "threads": 4, "level_ms": 2.5, "steal_ms": 2.0, "level_ns_per_node": 39683, "steal_ns_per_node": 31746, "steal_speedup_vs_level": 1.25 },
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
        // Sample speedups: sweep 5.71x, search 5.33x, steal-vs-level 1.25x.
        assert!(run(&args(&[])).unwrap(), "healthy ratios pass the defaults");

        // Roll-up regressed to parity with the legacy scan: fails the floor.
        let regressed = SAMPLE.replace(
            "\"rollup_ns_per_node\": 115915",
            "\"rollup_ns_per_node\": 617968",
        );
        std::fs::write(&cand, regressed).unwrap();
        assert!(!run(&args(&[])).unwrap(), "parity must fail --min-rollup");
        assert!(
            run(&args(&["--min-rollup", "1.0"])).unwrap(),
            "parity passes a 1.0x floor"
        );

        // Stealing collapsing to 2x slower than level-sync fails its floor.
        let slow_steal = SAMPLE.replace(
            "\"steal_ns_per_node\": 31746",
            "\"steal_ns_per_node\": 79366",
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
        assert!(
            run(&args(&[])).unwrap(),
            "healthy speedups pass the defaults"
        );
        assert!(
            run(&args(&["--min-kernel", "1.5", "--min-parallel", "3.0"])).unwrap(),
            "acceptance floors pass on the committed numbers"
        );
        assert!(
            !run(&args(&["--min-parallel", "5.0"])).unwrap(),
            "a floor above the measured speedup fails"
        );

        // An ingest regression to parity with the adapters fails, however
        // loose the other floors.
        let slow_ingest = SCALE_SAMPLE.replace("\"speedup\": 2.29", "\"speedup\": 1.0");
        std::fs::write(&cand, slow_ingest).unwrap();
        assert!(
            !run(&args(&["--min-kernel", "0", "--min-parallel", "0"])).unwrap(),
            "ingest parity must fail"
        );
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
            err.to_string().contains("level_ns_per_node"),
            "unexpected error: {err}"
        );
    }
}
