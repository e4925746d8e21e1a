//! The Anatomy bucketization algorithm [Xiao & Tao, VLDB 2006].
//!
//! The paper (Related Work): "Anatomy is a recently proposed anonymization
//! technique that corresponds exactly to the notion of bucketization that we
//! use in this paper." Anatomy builds an ℓ-diverse bucketization *directly* —
//! no generalization lattice — by repeatedly drawing one tuple from each of
//! the ℓ currently-largest sensitive-value groups:
//!
//! 1. hash tuples into groups by sensitive value;
//! 2. while ≥ ℓ groups are non-empty, emit a bucket containing one tuple
//!    from each of the ℓ largest groups (ties broken deterministically);
//! 3. residue: each leftover tuple (at most ℓ−1, all with distinct values)
//!    joins an existing bucket that does not yet contain its value.
//!
//! The result satisfies **distinct ℓ-diversity** whenever the table is
//! *eligible*: no sensitive value occurs in more than `n/ℓ` tuples. Combined
//! with `wcbk-core`, this gives a second publication strategy to audit with
//! (c,k)-safety and compare against lattice search on utility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wcbk_core::{Bucket, Bucketization};
use wcbk_table::{SValue, Table, TupleId};

use crate::AnonymizeError;

/// The outcome of anatomizing a table.
#[derive(Debug, Clone)]
pub struct AnatomyOutcome {
    /// The ℓ-diverse bucketization.
    pub bucketization: Bucketization,
    /// The diversity parameter used.
    pub l: usize,
    /// Number of residue tuples absorbed into enlarged buckets.
    pub residue: usize,
}

/// Checks Anatomy eligibility: every sensitive value occurs at most `n/ℓ`
/// times (Xiao & Tao, Theorem 1 precondition).
pub fn is_eligible(table: &Table, l: usize) -> bool {
    if l == 0 || table.n_rows() == 0 {
        return false;
    }
    let mut counts = vec![0usize; table.sensitive_cardinality()];
    for t in table.tuple_ids() {
        counts[table.sensitive_value(t).index()] += 1;
    }
    let n = table.n_rows();
    counts.iter().all(|&c| c * l <= n)
}

/// Runs Anatomy on `table` with diversity `l`; tuple draws within a value
/// group are seeded-random (the algorithm's correctness does not depend on
/// the order, only the *published permutation* is random, but a seed keeps
/// experiments reproducible).
pub fn anatomize(table: &Table, l: usize, seed: u64) -> Result<AnatomyOutcome, AnonymizeError> {
    if l < 2 {
        return Err(AnonymizeError::InvalidParameter(format!(
            "anatomy needs l >= 2, got {l}"
        )));
    }
    if !is_eligible(table, l) {
        return Err(AnonymizeError::InvalidParameter(format!(
            "table is not eligible for {l}-diversity: some sensitive value \
             occurs more than n/{l} times"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Group tuples by sensitive value; shuffle each group once so draws are
    // random but O(1) (pop from the back).
    let mut groups: Vec<Vec<TupleId>> = vec![Vec::new(); table.sensitive_cardinality()];
    for t in table.tuple_ids() {
        groups[table.sensitive_value(t).index()].push(t);
    }
    for g in groups.iter_mut() {
        for i in (1..g.len()).rev() {
            let j = rng.gen_range(0..=i);
            g.swap(i, j);
        }
    }

    let mut buckets: Vec<(Vec<TupleId>, Vec<SValue>)> = Vec::new();
    loop {
        // Indices of the l largest non-empty groups (value code breaks ties
        // for determinism).
        let mut order: Vec<usize> = (0..groups.len())
            .filter(|&v| !groups[v].is_empty())
            .collect();
        if order.len() < l {
            break;
        }
        order.sort_by_key(|&v| (std::cmp::Reverse(groups[v].len()), v));
        let chosen = &order[..l];
        let mut members = Vec::with_capacity(l);
        let mut values = Vec::with_capacity(l);
        for &v in chosen {
            let t = groups[v].pop().expect("group was non-empty");
            members.push(t);
            values.push(SValue(v as u32));
        }
        buckets.push((members, values));
    }

    // Residue: at most l-1 leftover values, each with at most one tuple
    // under eligibility (more generally: assign every leftover tuple to a
    // bucket currently missing its value, preferring the smallest bucket so
    // residues spread instead of stacking).
    let mut residue = 0usize;
    for (v, group) in groups.iter_mut().enumerate() {
        while let Some(t) = group.pop() {
            let value = SValue(v as u32);
            let target = buckets
                .iter_mut()
                .filter(|(_, values)| !values.contains(&value))
                .min_by_key(|(members, _)| members.len())
                .ok_or_else(|| {
                    AnonymizeError::InvalidParameter(
                        "residue assignment failed: no bucket without the value \
                         (table violates the eligibility invariant)"
                            .to_owned(),
                    )
                })?;
            target.0.push(t);
            target.1.push(value);
            residue += 1;
        }
    }

    let domain = table.sensitive_cardinality() as u32;
    let buckets: Vec<Bucket> = buckets
        .into_iter()
        .map(|(members, values)| Bucket::new(members, &values))
        .collect();
    let bucketization = Bucketization::from_buckets(buckets, domain)?;
    Ok(AnatomyOutcome {
        bucketization,
        l,
        residue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{DistinctLDiversity, PrivacyCriterion};
    use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};

    fn table_with(values: &[&str]) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Id", AttributeKind::Insensitive),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (i, v) in values.iter().enumerate() {
            b.push_row(&[format!("p{i}"), (*v).to_owned()]).unwrap();
        }
        b.build()
    }

    #[test]
    fn eligibility_check() {
        let t = table_with(&["a", "a", "b", "c"]);
        assert!(is_eligible(&t, 2)); // max count 2 <= 4/2
        assert!(!is_eligible(&t, 3)); // 2 > 4/3
        assert!(!is_eligible(&t, 0));
    }

    #[test]
    fn produces_distinct_l_diverse_buckets() {
        let t = table_with(&["a", "a", "a", "b", "b", "c", "c", "d", "e"]);
        let out = anatomize(&t, 3, 7).unwrap();
        let histograms = wcbk_core::HistogramSet::from_bucketization(&out.bucketization);
        assert!(DistinctLDiversity::new(3)
            .is_satisfied_hist(&histograms)
            .unwrap());
        // Every bucket has size l or l+1 (residue absorption).
        for bucket in out.bucketization.buckets() {
            let n = bucket.n() as usize;
            assert!(n == 3 || n == 4, "bucket size {n}");
            // Distinct values within the bucket.
            assert_eq!(bucket.histogram().distinct(), n);
        }
        // Partition covers every tuple exactly once.
        assert_eq!(out.bucketization.n_tuples() as usize, t.n_rows());
    }

    #[test]
    fn ineligible_table_rejected() {
        let t = table_with(&["a", "a", "a", "b"]);
        assert!(matches!(
            anatomize(&t, 2, 0),
            Err(AnonymizeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn l_below_two_rejected() {
        let t = table_with(&["a", "b"]);
        assert!(anatomize(&t, 1, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let t = table_with(&["a", "a", "b", "b", "c", "c", "d", "d"]);
        let x = anatomize(&t, 2, 5).unwrap();
        let y = anatomize(&t, 2, 5).unwrap();
        assert_eq!(x.bucketization, y.bucketization);
        let z = anatomize(&t, 2, 6).unwrap();
        // Same histogram structure even if membership differs.
        assert_eq!(z.bucketization.n_buckets(), x.bucketization.n_buckets());
    }

    #[test]
    fn anatomy_bounds_k0_disclosure_by_one_over_l() {
        // Distinct values in buckets of size l: top ratio <= 1/l... buckets
        // may grow to l+1 with residue, giving 1/(l+1) < ratio <= 1/l; the
        // k=0 disclosure is therefore at most 1/l.
        let t = table_with(&["a", "a", "a", "b", "b", "c", "c", "d", "e", "f", "f", "g"]);
        let out = anatomize(&t, 3, 11).unwrap();
        let d0 = wcbk_core::max_disclosure(&out.bucketization, 0)
            .unwrap()
            .value;
        assert!(d0 <= 1.0 / 3.0 + 1e-12, "k=0 disclosure {d0}");
        // But background knowledge still defeats it (the paper's point):
        let d2 = wcbk_core::max_disclosure(&out.bucketization, 2)
            .unwrap()
            .value;
        assert!((d2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residue_counted() {
        // 7 tuples, l=2: three buckets of 2 plus one residue tuple.
        let t = table_with(&["a", "a", "b", "b", "c", "c", "d"]);
        let out = anatomize(&t, 2, 3).unwrap();
        assert_eq!(out.residue, 1);
        assert_eq!(out.bucketization.n_tuples(), 7);
    }
}
