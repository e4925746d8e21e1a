//! E6 — Section 3.4 demonstration: find all ⪯-minimal (c,k)-safe
//! generalizations of the Adult lattice, compare against the k-anonymity and
//! ℓ-diversity baselines, and report utility of the chosen nodes.
//!
//! Run: `cargo run --release -p wcbk-bench --bin safe_search [n_rows] [c] [k]`

use wcbk_anonymize::search::{search, SearchConfig};
use wcbk_anonymize::utility::{average_class_size, discernibility};
use wcbk_anonymize::{
    CkSafetyCriterion, EntropyLDiversity, KAnonymity, PrivacyCriterion, UtilityMetric,
};
use wcbk_bench::{print_aligned, write_csv, HarnessError};
use wcbk_core::DisclosureEngine;
use wcbk_datagen::adult::{synthetic_adult, AdultConfig};
use wcbk_hierarchy::adult::adult_lattice;

fn main() -> Result<(), HarnessError> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` (0 = all cores) selects the parallel search path.
    let threads: usize = match raw.iter().position(|a| a == "--threads") {
        Some(pos) => {
            let value = raw.get(pos + 1).ok_or("--threads needs a value")?.parse()?;
            raw.drain(pos..=pos + 1);
            value
        }
        None => 1,
    };
    let mut args = raw.into_iter();
    let n_rows: usize = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10_000);
    let c: f64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(0.75);
    let k: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(3);

    eprintln!("generating synthetic Adult ({n_rows} rows)…");
    let table = synthetic_adult(AdultConfig {
        n_rows,
        ..Default::default()
    });
    let lattice = adult_lattice(&table)?;

    println!("== minimal safe generalizations on the 72-node Adult lattice ==\n");
    let header = ["criterion", "minimal nodes", "evaluated", "satisfied"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    let report = |name: String,
                  outcome: wcbk_anonymize::SearchOutcome,
                  rows: &mut Vec<Vec<String>>,
                  csv_rows: &mut Vec<Vec<String>>| {
        let nodes = outcome
            .minimal_nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            name.clone(),
            if nodes.is_empty() {
                "(none)".into()
            } else {
                nodes.clone()
            },
            outcome.evaluated.to_string(),
            outcome.satisfied.to_string(),
        ]);
        csv_rows.push(vec![
            name,
            nodes,
            outcome.evaluated.to_string(),
            outcome.satisfied.to_string(),
        ]);
    };

    let engine = std::sync::Arc::new(DisclosureEngine::new(k));
    let ck = CkSafetyCriterion::with_engine(c, engine.clone())?;
    if threads != 1 {
        eprintln!("parallel search with {threads} threads (0 = all cores)…");
    }
    // Resolves 0 → all cores and degenerates to sequential at 1 thread.
    let config = SearchConfig::with_threads(threads);
    let outcome = search(&table, &lattice, &ck, &config)?.outcome;
    let stats = engine.stats();
    report(ck.name(), outcome, &mut rows, &mut csv_rows);
    eprintln!(
        "(c,k)-safety engine cache: {} hits / {} misses / {} entries ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.entries,
        100.0 * stats.hit_rate()
    );

    // The same criterion through real Incognito (apriori subset join):
    // identical minimal nodes, different evaluation budget.
    let ck_inc = CkSafetyCriterion::new(c, k)?;
    let inc = wcbk_anonymize::incognito(&table, &lattice, &ck_inc, &config)?;
    report(
        format!("{} [incognito]", ck_inc.name()),
        wcbk_anonymize::SearchOutcome {
            minimal_nodes: inc.minimal_nodes.clone(),
            evaluated: inc.evaluated,
            satisfied: 0,
        },
        &mut rows,
        &mut csv_rows,
    );
    eprintln!(
        "incognito per-size (size, candidates, evaluated): {:?}",
        inc.per_size
    );

    let sequential = SearchConfig::with_threads(1);
    let ka = KAnonymity::new(50);
    let outcome = search(&table, &lattice, &ka, &sequential)?.outcome;
    report(ka.name(), outcome, &mut rows, &mut csv_rows);

    let el = EntropyLDiversity::new(4.0)?;
    let outcome = search(&table, &lattice, &el, &sequential)?.outcome;
    report(el.name(), outcome, &mut rows, &mut csv_rows);

    print_aligned(&mut std::io::stdout(), &header, &rows)?;
    let path = write_csv("results/safe_search.csv", &header, &csv_rows)?;
    eprintln!("\nwrote {}", path.display());

    println!("\n== utility-ranked (c,k)-safe publication ==");
    let engine = std::sync::Arc::new(DisclosureEngine::new(k));
    let ck = CkSafetyCriterion::with_engine(c, engine.clone())?;
    match wcbk_anonymize::anonymize(
        &table,
        &lattice,
        &ck,
        UtilityMetric::Discernibility,
        &config,
    ) {
        Ok(outcome) => {
            let audit = outcome.audit(k)?;
            println!("chosen node:      {}", outcome.node);
            println!("buckets:          {}", outcome.bucketization.n_buckets());
            println!(
                "discernibility:   {}",
                discernibility(&outcome.bucketization)
            );
            println!(
                "avg class size:   {:.2}",
                average_class_size(&outcome.bucketization)
            );
            println!("max disclosure:   {:.6} (< c = {c})", audit.value);
        }
        Err(e) => println!("no safe node: {e}"),
    }
    Ok(())
}
