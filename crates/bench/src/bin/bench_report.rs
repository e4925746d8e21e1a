//! `bench_report` — machine-readable perf trajectory for the lattice search.
//!
//! Runs the lattice-search benchmark on a datagen Adult-style workload,
//! comparing the legacy per-node `bucketize` path against the one-scan
//! roll-up pipeline **and** the level-synchronous parallel schedule against
//! the work-stealing one (both at 4 threads), verifies that every variant
//! agrees node-for-node, and writes JSON to `results/BENCH_search.json`
//! (nodes evaluated, wall time, ns/node, cache hit rate, speedups) so
//! successive PRs can track the trend and CI's `bench-gate` job can fail on
//! regressions (see the `bench_gate` bin).
//!
//! Run: `cargo run --release -p wcbk-bench --bin bench_report \
//!       [n_rows] [c] [k] [--out FILE]`
//!
//! A second mode, `--scale [n_rows]` (default 1 000 000), benchmarks the
//! **bottom scan itself** at scale: the row-at-a-time reference scan vs the
//! chunked columnar kernel at 1 thread vs `--scan-threads` (default 4)
//! threads, asserts all three agree node-for-node across the whole lattice,
//! and writes rows/s plus in-run speedups to `results/BENCH_scale.json`
//! (gated by `bench_gate --scale` in CI). The same mode times **CSV
//! ingest** of the table's CSV text: the borrowed-field
//! `TableDecoder` → `push_fields` path against the record-at-a-time
//! `RecordSplitter::next_record` + `push_row` adapters, both fed 64 KiB
//! pieces as a wire upload arrives, asserting the two tables are `==`.
//! It does so twice: on the Adult table (`ingest`, few distinct values per
//! column) and on the same table with a unique-valued `Id` column in front
//! (`ingest_unique`, where every row adds a dictionary entry).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wcbk_anonymize::search::{
    find_minimal_safe, find_minimal_safe_rescan, find_minimal_safe_with, sweep_all,
    sweep_all_rescan, Schedule, SearchConfig,
};
use wcbk_anonymize::CkSafetyCriterion;
use wcbk_bench::{small_adult, HarnessError};
use wcbk_hierarchy::adult::adult_lattice;
use wcbk_hierarchy::{NodeEvaluator, ScanOptions};
use wcbk_table::csv::{write_table, RecordSplitter, TableDecoder};
use wcbk_table::{Attribute, AttributeKind, ChunkedTableBuilder, Schema, Table, TableError};

/// Piece size the ingest benchmark pushes, as a streamed upload arrives.
const INGEST_PIECE: usize = 64 * 1024;

/// Medians over a few repetitions to keep single-run noise out of the
/// committed trajectory.
const REPS: usize = 5;

fn median_time<T>(mut run: impl FnMut() -> T) -> (Duration, T) {
    let mut samples: Vec<Duration> = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let out = run();
        samples.push(start.elapsed());
        last = Some(out);
    }
    samples.sort();
    (samples[REPS / 2], last.expect("REPS > 0"))
}

fn ns_per_node(elapsed: Duration, nodes: usize) -> f64 {
    elapsed.as_nanos() as f64 / nodes.max(1) as f64
}

/// Ingest through the record-at-a-time adapters: one `Vec<String>` per
/// record, trimmed into `push_row`.
fn ingest_adapter(csv: &[u8], schema: &Schema) -> Result<Table, HarnessError> {
    let mut splitter = RecordSplitter::new();
    let mut builder = ChunkedTableBuilder::new(schema.clone());
    let mut header = true;
    let mut consume = |record: Vec<String>| -> Result<(), TableError> {
        if std::mem::take(&mut header) {
            return Ok(());
        }
        let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
        builder.push_row(&trimmed).map(drop)
    };
    for piece in csv.chunks(INGEST_PIECE) {
        splitter.push(piece);
        while let Some(record) = splitter.next_record()? {
            consume(record)?;
        }
    }
    if let Some(record) = splitter.finish()? {
        consume(record)?;
    }
    Ok(builder.build())
}

/// Ingest through the borrowed-field tokenizer into `push_fields`.
fn ingest_decoder(csv: &[u8], schema: &Schema) -> Result<Table, HarnessError> {
    let mut decoder = TableDecoder::new(|_: &[&str], _| Ok::<_, TableError>(schema.clone()));
    for piece in csv.chunks(INGEST_PIECE) {
        decoder.push(piece);
        decoder.decode(false)?;
    }
    decoder.decode(true)?;
    Ok(decoder.into_table().ok_or("csv has no header")?)
}

/// Times CSV ingest of `table` both ways, asserts both rebuild it exactly,
/// and renders the JSON section body.
fn ingest_section(table: &Table) -> Result<(String, f64), HarnessError> {
    let mut csv = Vec::new();
    write_table(&mut csv, table)?;
    let schema = table.schema();
    eprintln!(
        "CSV ingest ({:.1} MB, {} columns), record-at-a-time adapters…",
        csv.len() as f64 / 1e6,
        schema.arity()
    );
    let (adapter_time, adapter_table) = median_time(|| ingest_adapter(&csv, schema));
    eprintln!("CSV ingest, borrowed-field decoder…");
    let (decoder_time, decoder_table) = median_time(|| ingest_decoder(&csv, schema));
    let (adapter_table, decoder_table) = (adapter_table?, decoder_table?);
    assert!(
        decoder_table == adapter_table,
        "the decoder and the adapters built different tables"
    );
    assert!(decoder_table == *table, "CSV ingest did not round-trip");
    let rows_per_s = |t: Duration| table.n_rows() as f64 / t.as_secs_f64();
    let speedup = rows_per_s(decoder_time) / rows_per_s(adapter_time);
    let body = format!(
        "{{ \"csv_mb\": {:.1}, \"adapter_ms\": {:.3}, \"decoder_ms\": {:.3}, \
\"adapter_rows_per_s\": {:.0}, \"decoder_rows_per_s\": {:.0}, \"speedup\": {speedup:.2} }}",
        csv.len() as f64 / 1e6,
        adapter_time.as_secs_f64() * 1e3,
        decoder_time.as_secs_f64() * 1e3,
        rows_per_s(adapter_time),
        rows_per_s(decoder_time),
    );
    Ok((body, speedup))
}

/// `table` with a unique-valued `Id` column in front.
fn with_unique_ids(table: &Table) -> Result<Table, TableError> {
    let mut attributes = vec![Attribute::new("Id", AttributeKind::Insensitive)];
    attributes.extend(table.schema().attributes().iter().cloned());
    let mut builder = ChunkedTableBuilder::new(Schema::new(attributes)?);
    for row in 0..table.n_rows() {
        let mut fields = vec![format!("id-{row:08}")];
        fields.extend(table.row(row));
        builder.push_row(&fields)?;
    }
    Ok(builder.build())
}

/// `--scale` mode: the million-row bottom-scan benchmark. Times the
/// construction scan of the shared evaluator three ways — the pre-kernel
/// row-at-a-time reference, the chunked columnar kernel on one thread, and
/// the kernel across `threads` workers — asserts all three produce
/// node-for-node identical histograms across the whole lattice, and writes
/// `results/BENCH_scale.json` with rows/s plus the two in-run speedups the
/// CI `scale-gate` job checks.
fn run_scale(n_rows: usize, threads: usize, out_path: &str) -> Result<(), HarnessError> {
    eprintln!("generating synthetic Adult ({n_rows} rows)…");
    let table = small_adult(n_rows);
    let lattice = Arc::new(adult_lattice(&table)?);
    let n_nodes = lattice.n_nodes();

    let build = |scan: ScanOptions| {
        NodeEvaluator::shared_with_scan(&table, Arc::clone(&lattice), None, scan).unwrap()
    };
    eprintln!("bottom scan, row-at-a-time reference…");
    let (reference_time, reference_eval) = median_time(|| {
        build(ScanOptions {
            reference: true,
            ..ScanOptions::default()
        })
    });
    eprintln!("bottom scan, chunked kernel, 1 thread…");
    let (kernel_time, kernel_eval) = median_time(|| {
        build(ScanOptions {
            threads: 1,
            ..ScanOptions::default()
        })
    });
    eprintln!("bottom scan, chunked kernel, {threads} threads…");
    let (parallel_time, parallel_eval) = median_time(|| {
        build(ScanOptions {
            threads,
            ..ScanOptions::default()
        })
    });

    // Equivalence gate: every lattice node's histograms identical across
    // all three scans (first-occurrence group order and all).
    eprintln!("verifying node-for-node equivalence across {n_nodes} nodes…");
    for node in lattice.nodes() {
        let want = reference_eval.histograms(&node)?;
        for (eval, label) in [(&kernel_eval, "kernel"), (&parallel_eval, "parallel")] {
            let got = eval.histograms(&node)?;
            assert_eq!(
                got.n_buckets(),
                want.n_buckets(),
                "{label} scan diverged from reference at node {node}"
            );
            assert_eq!(
                got.histograms(),
                want.histograms(),
                "{label} scan diverged from reference at node {node}"
            );
        }
    }
    let bottom_groups = reference_eval.stats().bottom_groups;
    drop((reference_eval, kernel_eval, parallel_eval));

    let (ingest, ingest_speedup) = ingest_section(&table)?;
    let (ingest_unique, unique_speedup) = ingest_section(&with_unique_ids(&table)?)?;

    let rows_per_s = |t: Duration| n_rows as f64 / t.as_secs_f64();
    let kernel_speedup = rows_per_s(kernel_time) / rows_per_s(reference_time);
    let parallel_speedup = rows_per_s(parallel_time) / rows_per_s(reference_time);

    let json = format!(
        "{{\n  \"workload\": {{ \"rows\": {n_rows}, \"lattice_nodes\": {n_nodes}, \"bottom_groups\": {bottom_groups}, \"scan_threads\": {threads} }},\n  \
           \"bottom_scan\": {{ \"reference_ms\": {:.3}, \"kernel_ms\": {:.3}, \"parallel_ms\": {:.3}, \
\"reference_rows_per_s\": {:.0}, \"kernel_rows_per_s\": {:.0}, \"parallel_rows_per_s\": {:.0}, \
\"kernel_speedup\": {:.2}, \"parallel_speedup\": {:.2} }},\n  \
           \"ingest\": {ingest},\n  \
           \"ingest_unique\": {ingest_unique}\n}}\n",
        reference_time.as_secs_f64() * 1e3,
        kernel_time.as_secs_f64() * 1e3,
        parallel_time.as_secs_f64() * 1e3,
        rows_per_s(reference_time),
        rows_per_s(kernel_time),
        rows_per_s(parallel_time),
        kernel_speedup,
        parallel_speedup,
    );
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out_path, &json)?;
    println!("{json}");
    eprintln!(
        "kernel speedup {kernel_speedup:.2}x, parallel speedup {parallel_speedup:.2}x, \
         ingest speedup {ingest_speedup:.2}x (unique ids {unique_speedup:.2}x) — wrote {out_path}"
    );
    Ok(())
}

fn main() -> Result<(), HarnessError> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let scale = match raw.iter().position(|a| a == "--scale") {
        Some(pos) => {
            raw.remove(pos);
            true
        }
        None => false,
    };
    let scan_threads: usize = match raw.iter().position(|a| a == "--scan-threads") {
        Some(pos) => {
            let value = raw
                .get(pos + 1)
                .ok_or("--scan-threads needs a value")?
                .clone();
            raw.drain(pos..=pos + 1);
            value.parse()?
        }
        None => 4,
    };
    let out_path = match raw.iter().position(|a| a == "--out") {
        Some(pos) => {
            let value = raw.get(pos + 1).ok_or("--out needs a value")?.clone();
            raw.drain(pos..=pos + 1);
            value
        }
        None if scale => "results/BENCH_scale.json".to_owned(),
        None => "results/BENCH_search.json".to_owned(),
    };
    if scale {
        let n_rows: usize = raw
            .first()
            .map(|s| s.parse())
            .transpose()?
            .unwrap_or(1_000_000);
        return run_scale(n_rows, scan_threads.max(1), &out_path);
    }
    let mut args = raw.into_iter();
    let n_rows: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(5_000);
    let c: f64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(0.8);
    let k: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(3);

    eprintln!("generating synthetic Adult ({n_rows} rows)…");
    let table = small_adult(n_rows);
    let lattice = adult_lattice(&table)?;
    let n_nodes = lattice.n_nodes();

    // Exhaustive sweep: every node evaluated on both pipelines, so ns/node is
    // directly comparable (the pruned search's node set depends on verdicts).
    eprintln!("sweeping {n_nodes} nodes via legacy per-node bucketize…");
    let (legacy_sweep, legacy_verdicts) = median_time(|| {
        sweep_all_rescan(&table, &lattice, &CkSafetyCriterion::new(c, k).unwrap()).unwrap()
    });
    eprintln!("sweeping {n_nodes} nodes via one-scan roll-up…");
    let (rollup_sweep, rollup_verdicts) = median_time(|| {
        sweep_all(&table, &lattice, &CkSafetyCriterion::new(c, k).unwrap()).unwrap()
    });
    assert_eq!(
        legacy_verdicts, rollup_verdicts,
        "roll-up sweep diverged from the legacy sweep"
    );

    // The pruned search, both pipelines, same equivalence gate.
    eprintln!("pruned search via legacy path…");
    let (legacy_search, legacy_outcome) = median_time(|| {
        find_minimal_safe_rescan(&table, &lattice, &CkSafetyCriterion::new(c, k).unwrap()).unwrap()
    });
    eprintln!("pruned search via roll-up path…");
    let criterion = CkSafetyCriterion::new(c, k).unwrap();
    let (rollup_search, rollup_outcome) =
        median_time(|| find_minimal_safe(&table, &lattice, &criterion).unwrap());
    assert_eq!(
        legacy_outcome, rollup_outcome,
        "roll-up search diverged from the legacy search"
    );
    let cache = criterion.engine_stats();

    // Level-synchronous vs work-stealing parallel schedules at a fixed
    // thread count, both pinned to the sequential outcome.
    let par_threads = 4usize;
    eprintln!("pruned search, level-synchronous schedule ({par_threads} threads)…");
    let level_criterion = CkSafetyCriterion::new(c, k).unwrap();
    let level_cfg = SearchConfig {
        threads: par_threads,
        schedule: Schedule::LevelSync,
        ..Default::default()
    };
    let (level_search, level_outcome) = median_time(|| {
        find_minimal_safe_with(&table, &lattice, &level_criterion, &level_cfg).unwrap()
    });
    assert_eq!(
        rollup_outcome, level_outcome,
        "level-synchronous search diverged from the sequential search"
    );
    eprintln!("pruned search, work-stealing schedule ({par_threads} threads)…");
    let steal_criterion = CkSafetyCriterion::new(c, k).unwrap();
    let steal_cfg = SearchConfig {
        threads: par_threads,
        schedule: Schedule::WorkStealing,
        ..Default::default()
    };
    let (steal_search, steal_outcome) = median_time(|| {
        find_minimal_safe_with(&table, &lattice, &steal_criterion, &steal_cfg).unwrap()
    });
    assert_eq!(
        rollup_outcome, steal_outcome,
        "work-stealing search diverged from the sequential search"
    );

    // Roll-up internals for the record: scans and derivations.
    let eval = NodeEvaluator::new(&table, &lattice)?;
    for node in lattice.nodes() {
        eval.histograms(&node)?;
    }
    let rollup_stats = eval.stats();

    let sweep_speedup = ns_per_node(legacy_sweep, n_nodes) / ns_per_node(rollup_sweep, n_nodes);
    let search_speedup = ns_per_node(legacy_search, legacy_outcome.evaluated)
        / ns_per_node(rollup_search, rollup_outcome.evaluated);
    let steal_speedup_vs_level = ns_per_node(level_search, level_outcome.evaluated)
        / ns_per_node(steal_search, steal_outcome.evaluated);

    let json = format!(
        "{{\n  \"workload\": {{ \"rows\": {n_rows}, \"lattice_nodes\": {n_nodes}, \"c\": {c}, \"k\": {k} }},\n  \
           \"sweep\": {{ \"nodes_evaluated\": {n_nodes}, \"legacy_ns_per_node\": {:.0}, \"rollup_ns_per_node\": {:.0}, \"speedup\": {:.2} }},\n  \
           \"search\": {{ \"nodes_evaluated\": {}, \"minimal_nodes\": {}, \"legacy_ms\": {:.3}, \"rollup_ms\": {:.3}, \"legacy_ns_per_node\": {:.0}, \"rollup_ns_per_node\": {:.0}, \"speedup\": {:.2} }},\n  \
           \"parallel\": {{ \"threads\": {par_threads}, \"level_ms\": {:.3}, \"steal_ms\": {:.3}, \"level_ns_per_node\": {:.0}, \"steal_ns_per_node\": {:.0}, \"steal_speedup_vs_level\": {:.2} }},\n  \
           \"rollup\": {{ \"table_scans\": {}, \"derived_nodes\": {}, \"bottom_groups\": {} }},\n  \
           \"engine_cache\": {{ \"hits\": {}, \"misses\": {}, \"entries\": {}, \"hit_rate\": {:.4} }}\n}}\n",
        ns_per_node(legacy_sweep, n_nodes),
        ns_per_node(rollup_sweep, n_nodes),
        sweep_speedup,
        rollup_outcome.evaluated,
        rollup_outcome.minimal_nodes.len(),
        legacy_search.as_secs_f64() * 1e3,
        rollup_search.as_secs_f64() * 1e3,
        ns_per_node(legacy_search, legacy_outcome.evaluated),
        ns_per_node(rollup_search, rollup_outcome.evaluated),
        search_speedup,
        level_search.as_secs_f64() * 1e3,
        steal_search.as_secs_f64() * 1e3,
        ns_per_node(level_search, level_outcome.evaluated),
        ns_per_node(steal_search, steal_outcome.evaluated),
        steal_speedup_vs_level,
        rollup_stats.table_scans,
        rollup_stats.derived,
        rollup_stats.bottom_groups,
        cache.hits,
        cache.misses,
        cache.entries,
        cache.hit_rate(),
    );

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out_path, &json)?;
    println!("{json}");
    eprintln!(
        "sweep speedup {:.2}x, search speedup {:.2}x, steal vs level {:.2}x — wrote {out_path}",
        sweep_speedup, search_speedup, steal_speedup_vs_level
    );
    Ok(())
}
