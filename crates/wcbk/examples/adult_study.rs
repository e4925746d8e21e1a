//! The paper's Section 4 case study, scaled for a quick run.
//!
//! Generates a synthetic Adult table (the dataset substitution documented in
//! DESIGN.md §5), anonymizes it over the 72-node generalization lattice,
//! reproduces the Figure 5 disclosure curves on the paper's anonymization,
//! and finds the minimal (c,k)-safe publication ranked by utility.
//!
//! Run: `cargo run --release --example adult_study [n_rows]`

use wcbk::anonymize::utility::{average_class_size, discernibility};
use wcbk::anonymize::{anonymize, CkSafetyCriterion, UtilityMetric};
use wcbk::core::negation_max_disclosure;
use wcbk::datagen::adult::{synthetic_adult, AdultConfig};
use wcbk::hierarchy::adult::{adult_lattice, figure5_node};
use wcbk::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_rows: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10_000);

    println!("generating synthetic Adult ({n_rows} rows)…");
    let table = synthetic_adult(AdultConfig {
        n_rows,
        ..Default::default()
    });
    println!(
        "  {} tuples, {} occupations (sensitive), QIs: Age, Marital-Status, Race, Gender",
        table.n_rows(),
        table.sensitive_cardinality()
    );

    let lattice = adult_lattice(&table)?;
    println!(
        "  lattice: {} nodes, height {}",
        lattice.n_nodes(),
        lattice.max_height()
    );

    println!("\n== Figure 5 anonymization: Age -> 20-year intervals, rest suppressed ==");
    let b = lattice.bucketize(&table, &figure5_node())?;
    println!(
        "  {} buckets; k=0 disclosure {:.4}",
        b.n_buckets(),
        b.max_frequency_ratio()
    );
    println!("  k   implications  negations");
    for k in (0..=12).step_by(2) {
        let imp = max_disclosure(&b, k)?.value;
        let neg = negation_max_disclosure(&b, k)?.value;
        println!("  {k:>2}  {imp:>12.4}  {neg:>9.4}");
    }

    println!("\n== Minimal (c,k)-safe publication via lattice search ==");
    let (c, k) = (0.75, 3);
    let engine = std::sync::Arc::new(DisclosureEngine::new(k));
    let criterion = CkSafetyCriterion::with_engine(c, engine.clone())?;
    match anonymize(
        &table,
        &lattice,
        &criterion,
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(1),
    ) {
        Ok(outcome) => {
            let audit = outcome.audit(k)?;
            println!("  criterion:       ({c},{k})-safety");
            println!("  minimal nodes:   {}", outcome.minimal_nodes.len());
            println!("  chosen node:     {} (best discernibility)", outcome.node);
            println!("  buckets:         {}", outcome.bucketization.n_buckets());
            println!(
                "  avg class size:  {:.1}",
                average_class_size(&outcome.bucketization)
            );
            println!(
                "  discernibility:  {}",
                discernibility(&outcome.bucketization)
            );
            println!("  max disclosure:  {:.4} < {c}", audit.value);
            println!("  criterion evals: {}", outcome.evaluated);
            let (hits, misses) = engine.cache_stats();
            println!("  histogram cache: {hits} hits / {misses} misses");
        }
        Err(e) => println!("  no safe publication: {e}"),
    }
    Ok(())
}
