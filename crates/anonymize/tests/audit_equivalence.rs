//! Audits read the scan's bottom histograms and fetch only the persons a
//! witness names; they must answer exactly like the materialized
//! exact-quasi-identifier grouping. Over a deterministic family of small
//! tables and every `k` in `0..=8`, `DatasetSession::audit` is compared with
//! `DisclosureEngine::max_disclosure` on `lattice.bucketize(bottom)` — value
//! and `r_min` bits, witness atoms, bucket/tuple/domain counts and the
//! verdict — and `audit_model` with each model's bound over
//! `HistogramSet::from_bucketization`. Edge shapes are pinned by name: no
//! quasi-identifiers, a sensitive domain past the dense-tally limit, a
//! signature wider than 128 bits (the re-bucketizing fallback) and the
//! one-scan contract under repeated audits.

use wcbk_anonymize::{DatasetSession, MODEL_IDS};
use wcbk_core::{Bucketization, CkSafety, DisclosureEngine, HistogramSet};
use wcbk_hierarchy::{GeneralizationLattice, Hierarchy};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder};

/// A small deterministic generator (xorshift64*), so the table family is
/// fixed without a seeded-RNG dependency.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A table whose rows are quasi-identifier values followed by one
/// sensitive value.
fn table(rows: &[Vec<u64>]) -> Table {
    let qi_cols = rows[0].len() - 1;
    let mut attributes: Vec<Attribute> = (0..qi_cols)
        .map(|d| Attribute::new(format!("Q{d}"), AttributeKind::QuasiIdentifier))
        .collect();
    attributes.push(Attribute::new("S", AttributeKind::Sensitive));
    let mut builder = TableBuilder::new(Schema::new(attributes).unwrap());
    for row in rows {
        let fields: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        builder.push_row(&fields).unwrap();
    }
    builder.build()
}

fn random_rows(
    g: &mut Gen,
    n: usize,
    qi_cols: usize,
    qi_values: u64,
    domain: u64,
) -> Vec<Vec<u64>> {
    (0..n)
        .map(|_| {
            let mut row: Vec<u64> = (0..qi_cols).map(|_| g.below(qi_values)).collect();
            // Skewed sensitive values, so buckets mix repeated and distinct
            // values and witnesses spread atoms over several persons.
            row.push(g.below(domain).min(g.below(domain)));
            row
        })
        .collect()
}

/// Suppression on even dimensions, intervals on odd ones.
fn lattice(table: &Table) -> GeneralizationLattice {
    let qi_cols = table.schema().arity() - 1;
    let dims = (0..qi_cols)
        .map(|d| {
            let dict = table.column(d).dictionary();
            let h = if d % 2 == 1 {
                Hierarchy::intervals(format!("Q{d}"), dict, &[2]).unwrap()
            } else {
                Hierarchy::suppression(format!("Q{d}"), dict)
            };
            (d, h)
        })
        .collect();
    GeneralizationLattice::new(dims).unwrap()
}

fn session(table: Table, lattice: GeneralizationLattice) -> DatasetSession {
    DatasetSession::new(table, lattice).unwrap()
}

/// Every session audit and model audit at `k in 0..=8` equals the
/// materialized-grouping oracle.
fn assert_audits_match(label: &str, s: &DatasetSession) {
    let lattice = s.lattice();
    let exact: Bucketization = lattice.bucketize(s.table(), &lattice.bottom()).unwrap();
    let set = HistogramSet::from_bucketization(&exact);
    for k in 0..=8 {
        let engine = DisclosureEngine::new(k);
        let want = engine.max_disclosure(&exact).unwrap();
        for c in [None, Some(want.value), Some(0.5), Some(1.0)] {
            let got = s.audit(c, k).unwrap();
            let at = format!("{label} k={k} c={c:?}");
            assert_eq!(got.disclosure.value.to_bits(), want.value.to_bits(), "{at}");
            assert_eq!(got.disclosure.r_min.to_bits(), want.r_min.to_bits(), "{at}");
            assert_eq!(got.disclosure.witness, want.witness, "{at}");
            assert_eq!(got.disclosure.k, k, "{at}");
            assert_eq!(got.buckets, exact.n_buckets(), "{at}");
            assert_eq!(got.tuples, exact.n_tuples(), "{at}");
            assert_eq!(got.domain, exact.domain_size(), "{at}");
            let verdict = c.map(|c| {
                CkSafety::new(c, k)
                    .unwrap()
                    .is_safe_set(&engine, &set)
                    .unwrap()
            });
            assert_eq!(got.safe, verdict, "{at}");
        }
        for model in MODEL_IDS {
            let at = format!("{label} k={k} model={model}");
            let resolved = model.resolve(std::sync::Arc::new(DisclosureEngine::new(k)));
            let got = s.audit_model(model, Some(0.5), k).unwrap();
            let value = resolved.max_disclosure(&set).unwrap();
            assert_eq!(got.value.to_bits(), value.to_bits(), "{at}");
            let (bound, witness) = resolved.witness(&set).unwrap();
            assert_eq!(bound.to_bits(), value.to_bits(), "{at}");
            assert_eq!(got.witness, witness, "{at}");
            assert_eq!(got.safe, Some(value < 0.5), "{at}");
            assert_eq!(got.buckets, set.n_buckets(), "{at}");
            assert_eq!(got.tuples, set.n_tuples(), "{at}");
            assert_eq!(got.domain, set.domain_size(), "{at}");
        }
    }
}

#[test]
fn audits_match_the_materialized_grouping_on_a_table_family() {
    let mut g = Gen(0x9E37_79B9_7F4A_7C15);
    for case in 0..60 {
        let qi_cols = 1 + case % 3;
        let n = 1 + g.below(48) as usize;
        let qi_values = 1 + g.below(6);
        let domain = 1 + g.below(6);
        let t = table(&random_rows(&mut g, n, qi_cols, qi_values, domain));
        let l = lattice(&t);
        let s = session(t, l);
        assert!(s.has_evaluator());
        assert_audits_match(&format!("case {case}"), &s);
    }
}

#[test]
fn no_quasi_identifiers_audit_one_bucket() {
    let mut g = Gen(7);
    let t = table(&random_rows(&mut g, 30, 0, 1, 5));
    let s = session(t, GeneralizationLattice::new(Vec::new()).unwrap());
    assert_eq!(s.audit(None, 2).unwrap().buckets, 1);
    assert_audits_match("no qi", &s);
}

#[test]
fn sensitive_domains_past_the_dense_tally_limit() {
    let mut g = Gen(11);
    let t = table(&random_rows(&mut g, 400, 2, 4, 90));
    assert!(
        t.sensitive_cardinality() > 64,
        "{}",
        t.sensitive_cardinality()
    );
    let l = lattice(&t);
    assert_audits_match("wide domain", &session(t, l));
}

/// 17 quasi-identifiers with 256 values each need 136 signature bits: the
/// session has no evaluator and bucketizes per audit, retaining nothing.
#[test]
fn signatures_past_128_bits_fall_back_to_bucketizing() {
    let rows: Vec<Vec<u64>> = (0..300u64)
        .map(|r| {
            let mut row: Vec<u64> = (0..17u64).map(|d| (r * (2 * d + 1) + d) % 256).collect();
            row.push(r % 3);
            row
        })
        .collect();
    let t = table(&rows);
    let l = lattice(&t);
    let s = session(t, l);
    assert!(!s.has_evaluator());
    assert!(s.rollup_stats().is_none());
    assert_audits_match("wide signature", &s);
}

#[test]
fn repeated_audits_keep_the_one_scan() {
    let mut g = Gen(5);
    let t = table(&random_rows(&mut g, 200, 3, 5, 4));
    let l = lattice(&t);
    let s = session(t, l);
    for k in 0..=8 {
        s.audit(Some(0.9), k).unwrap();
        for model in MODEL_IDS {
            s.audit_model(model, None, k).unwrap();
        }
    }
    assert_eq!(s.rollup_stats().unwrap().table_scans, 1);
}
