//! Comparing publication strategies under the worst-case lens.
//!
//! Publishes the same table four ways — full-domain generalization (lattice
//! search), Anatomy, Anatomy + data swapping, and full suppression — and
//! audits each with the (c,k)-safety machinery plus utility metrics. Also
//! demonstrates the future-work extensions: probabilistic background
//! knowledge (Jeffrey conditioning) and cost-based disclosure.
//!
//! Run: `cargo run --release --example sanitizer_comparison`

use wcbk::anonymize::utility::{average_class_size, discernibility};
use wcbk::anonymize::{anonymize, CkSafetyCriterion, UtilityMetric};
use wcbk::core::partial_order::merge_all;
use wcbk::datagen::adult::{synthetic_adult, AdultConfig};
use wcbk::hierarchy::adult::adult_lattice;
use wcbk::prelude::*;
use wcbk::worlds::soft::SoftPosterior;

fn audit_row(name: &str, b: &Bucketization, k: usize) -> Result<(), Box<dyn std::error::Error>> {
    let d = max_disclosure(b, k)?;
    println!(
        "{name:<28} {:>8} {:>12.4} {:>16} {:>10.1}",
        b.n_buckets(),
        d.value,
        discernibility(b),
        average_class_size(b),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 3;
    let table = synthetic_adult(AdultConfig {
        n_rows: 6_000,
        ..Default::default()
    });
    println!(
        "table: {} rows, {} occupations; auditing at k = {k}\n",
        table.n_rows(),
        table.sensitive_cardinality()
    );
    println!(
        "{:<28} {:>8} {:>12} {:>16} {:>10}",
        "strategy", "buckets", "disclosure", "discernibility", "avg class"
    );

    // 1. Full-domain generalization chosen by lattice search.
    let lattice = adult_lattice(&table)?;
    let criterion = CkSafetyCriterion::new(0.8, k)?;
    let lattice_pub = anonymize(
        &table,
        &lattice,
        &criterion,
        UtilityMetric::Discernibility,
        &SearchConfig::with_threads(1),
    )?;
    audit_row("lattice (0.8,3)-safe", &lattice_pub.bucketization, k)?;

    // 2. Anatomy with l = 4 (if eligible).
    match anatomize(&table, 4, 7) {
        Ok(outcome) => audit_row("anatomy l=4", &outcome.bucketization, k)?,
        Err(e) => println!("anatomy l=4: not applicable ({e})"),
    }

    // 3. Anatomy + 20% data swapping (future-work sanitizer).
    if let Ok(outcome) = anatomize(&table, 4, 7) {
        let swapped = swap_sanitize(&outcome.bucketization, 0.2, 99)?;
        audit_row("anatomy + 20% swap", &swapped.bucketization, k)?;
        println!(
            "{:<28} (swapped values displaced: {} of {})",
            "",
            swapped.displaced,
            table.n_rows()
        );
    }

    // 4. Full suppression (the top of the lattice).
    let all = Bucketization::from_grouping(&table, |_| 0u8)?;
    let top = merge_all(&all)?;
    audit_row("full suppression", &top, k)?;

    // --- future-work extensions on a small excerpt ---
    println!("\n== probabilistic background knowledge (Jeffrey conditioning) ==");
    let hospital = wcbk::table::datasets::hospital_table();
    let buckets =
        Bucketization::from_grouping(&hospital, wcbk::table::datasets::hospital_bucket_of)?;
    let space = WorldSpace::new(
        buckets
            .to_parts()
            .into_iter()
            .map(|(m, v)| BucketSpec::new(m, v))
            .collect(),
    )?;
    let posterior = SoftPosterior::new(&space, 100_000)?;
    let phi = wcbk::logic::parser::parse_knowledge(
        "t[Hannah]=Flu -> t[Charlie]=Flu",
        &wcbk::logic::parser::SymbolTable::from_table(&hospital, "Name")?,
    )?
    .to_formula();
    for confidence in [0.0, 0.5, 0.9, 1.0] {
        let mut p = posterior.clone();
        p.update(&phi, confidence)?;
        let (risk, _) = p.disclosure_risk(&space).expect("non-empty space");
        println!("  attacker believes phi with p={confidence:<4}: disclosure risk {risk:.4}");
    }

    println!("\n== cost-based disclosure (negation language) ==");
    let mut costs = vec![1.0; hospital.sensitive_cardinality()];
    costs[hospital.sensitive_code("Ovarian Cancer").unwrap().index()] = 10.0;
    let costs = CostVector::new(costs)?;
    for k in 0..=2usize {
        let plain = negation_max_disclosure(&buckets, k)?;
        let weighted = cost_negation_max_disclosure(&buckets, k, &costs)?;
        println!(
            "  k={k}: unweighted {:.3} (predicts {}), 10x-ovarian {:.3} (predicts {})",
            plain.value,
            hospital
                .sensitive_column()
                .dictionary()
                .resolve(plain.predicted.0),
            weighted.value,
            hospital
                .sensitive_column()
                .dictionary()
                .resolve(weighted.predicted.0),
        );
    }
    Ok(())
}
