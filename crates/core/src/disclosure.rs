//! Maximum disclosure (Definition 6) in polynomial time, with witnesses.

use wcbk_logic::{Atom, Knowledge, SimpleImplication};
use wcbk_table::{SValue, TupleId};

use crate::minimize1::minimize1_profile;
use crate::minimize2::BucketAllocation;
use crate::{Bucketization, CoreError, DisclosureEngine, SensitiveHistogram};

/// A worst-case attacker: `k` simple implications `A_i → A` sharing the
/// consequent `A` (the Theorem 9 normal form), reconstructed from the DP.
///
/// The number of *distinct* antecedents can be less than `k` when the
/// optimum pads with atoms beyond a bucket's distinct values (ruling out a
/// value that does not occur adds nothing); `L^k` permits repeating a
/// conjunct, so the witness still lies in `L^k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisclosureWitness {
    /// The consequent atom `A = (t_p[S] = s)` whose probability is maximized.
    pub consequent: Atom,
    /// The antecedent atoms `A_i`, each forming the implication `A_i → A`.
    pub antecedents: Vec<Atom>,
}

impl DisclosureWitness {
    /// The witness as a formula of `L^k_basic`.
    pub fn knowledge(&self) -> Knowledge {
        Knowledge::from_simple(
            self.antecedents
                .iter()
                .map(|&a| SimpleImplication::new(a, self.consequent)),
        )
    }

    /// Number of (distinct) implications in the witness.
    pub fn k(&self) -> usize {
        self.antecedents.len()
    }
}

/// The result of a maximum-disclosure computation.
#[derive(Debug, Clone)]
pub struct DisclosureResult {
    /// `max_{t,s,φ∈L^k} Pr(t[S]=s | B ∧ φ)` — the maximum disclosure.
    pub value: f64,
    /// The minimized Formula (1); `value = 1 / (1 + r_min)`.
    pub r_min: f64,
    /// The attacker power bound `k` used.
    pub k: usize,
    /// A worst-case attacker achieving `value`.
    pub witness: DisclosureWitness,
}

/// Computes the maximum disclosure of `bucketization` with respect to
/// `L^k_basic` in `O(|B|·k³)` time (Theorems 9 + Lemma 12 + Algorithms 1–2),
/// through a private [`DisclosureEngine`]. Errors with
/// [`CoreError::WitnessTooLarge`] past [`MAX_WITNESS_ATOMS`].
///
/// ```
/// use wcbk_core::{max_disclosure, Bucketization};
/// use wcbk_table::datasets::{hospital_bucket_of, hospital_table};
///
/// let table = hospital_table();
/// let buckets = Bucketization::from_grouping(&table, hospital_bucket_of)?;
/// // One basic implication pushes the Figure 3 worst case to 2/3.
/// let report = max_disclosure(&buckets, 1)?;
/// assert!((report.value - 2.0 / 3.0).abs() < 1e-12);
/// // The witness is a real attacker: k implications sharing a consequent.
/// assert_eq!(report.witness.k(), 1);
/// # Ok::<(), wcbk_core::CoreError>(())
/// ```
pub fn max_disclosure(
    bucketization: &Bucketization,
    k: usize,
) -> Result<DisclosureResult, CoreError> {
    DisclosureEngine::new(k).max_disclosure(bucketization)
}

/// The most atoms a witness may size a MINIMIZE1 profile table by. Such a
/// table over `c` atoms holds `(c+2)(c+1)²` f64s: about 136 MB at 256.
pub const MAX_WITNESS_ATOMS: usize = 256;

/// Refuses, before any DP, a witness whose profile tables could outgrow
/// [`MAX_WITNESS_ATOMS`]. A bucket holds at most `k+1` witness atoms, and
/// [`minimize1_profile`] sizes its table by fewer than the bucket's `d_b`
/// distinct values, so no table exceeds `min(k+1, d_max − 1)` atoms.
pub(crate) fn check_witness_size<'h>(
    histograms: impl IntoIterator<Item = &'h SensitiveHistogram>,
    k: usize,
) -> Result<(), CoreError> {
    let d_max = histograms.into_iter().map(|h| h.distinct()).max();
    let atoms = k
        .saturating_add(1)
        .min(d_max.unwrap_or(0).saturating_sub(1));
    if atoms > MAX_WITNESS_ATOMS {
        return Err(CoreError::WitnessTooLarge {
            atoms,
            limit: MAX_WITNESS_ATOMS,
        });
    }
    Ok(())
}

/// Reconstructs the Lemma 12 witness atoms from a MINIMIZE2 allocation.
///
/// The witness is a function of the per-bucket histograms plus the persons
/// it names: for each allocated bucket, its first `profile.len()` members
/// (at most `k+1` buckets, Lemma 12). `histogram_of(b)` is bucket `b`'s
/// histogram; `members` answers every `(bucket, n)` request at once with
/// that bucket's first `n` members, in request order — so a caller holding
/// no tuple-level grouping can fetch just those persons in one pass.
///
/// Each allocated bucket's profile is [`minimize1_profile`] at that
/// bucket's own atom count `c`, held in space sized by the bucket's
/// distinct values however large `c` is. On a saturated set (`k + 1 ≥
/// d_min`) the allocation is the closed form of
/// [`DisclosureEngine::allocation_set`]: the host bucket carries `d − 1`
/// antecedents or all `k`, and a person's atoms past its `d` values pad
/// with the domain's spare values only until those run out, so the
/// witness costs no time in `k` beyond the profile.
pub(crate) fn build_witness<'t>(
    histogram_of: impl Fn(usize) -> &'t SensitiveHistogram,
    domain_size: u32,
    allocation: &[BucketAllocation],
    members: impl FnOnce(&[(usize, usize)]) -> Vec<Vec<TupleId>>,
) -> DisclosureWitness {
    let profiles: Vec<Vec<usize>> = allocation
        .iter()
        .map(|alloc| {
            // Saturates only at `k = usize::MAX`, where the atom cut off
            // would have been a pad past the domain's spare values.
            let atom_count = alloc
                .atoms
                .saturating_add(usize::from(alloc.has_consequent));
            minimize1_profile(histogram_of(alloc.bucket), atom_count)
                .expect("allocation chose a feasible bucket load")
        })
        .collect();
    let requests: Vec<(usize, usize)> = allocation
        .iter()
        .zip(&profiles)
        .map(|(alloc, profile)| (alloc.bucket, profile.len()))
        .collect();
    let persons = members(&requests);
    debug_assert_eq!(persons.len(), requests.len());
    let mut consequent: Option<Atom> = None;
    let mut antecedents: Vec<Atom> = Vec::new();
    for ((alloc, profile), persons) in allocation.iter().zip(&profiles).zip(&persons) {
        let hist = histogram_of(alloc.bucket);
        let d = hist.distinct();
        let mut spare = spare_values(hist, domain_size);
        for (pi, &ki) in profile.iter().enumerate() {
            let person = persons[pi];
            // Ranks beyond the distinct values pad with out-of-bucket
            // domain values (their negations hold vacuously), and stop
            // once the domain has none left to spare.
            let in_bucket = (0..ki.min(d)).map(|rank| hist.value_at(rank).expect("rank < d"));
            let pads = spare.by_ref().take(ki.saturating_sub(d));
            for (rank, value) in in_bucket.chain(pads).enumerate() {
                let atom = Atom::new(person, value);
                if alloc.has_consequent && pi == 0 && rank == 0 {
                    consequent = Some(atom);
                } else {
                    antecedents.push(atom);
                }
            }
        }
    }
    let consequent = consequent.expect("exactly one allocation hosts the consequent");
    DisclosureWitness {
        consequent,
        antecedents,
    }
}

/// The member source of a materialized bucketization: each requested
/// bucket's leading members.
pub(crate) fn leading_members(
    bucketization: &Bucketization,
    requests: &[(usize, usize)],
) -> Vec<Vec<TupleId>> {
    requests
        .iter()
        .map(|&(b, n)| bucketization.bucket(b).members()[..n].to_vec())
        .collect()
}

/// Domain values that do not occur in `hist`, in code order.
fn spare_values(hist: &SensitiveHistogram, domain_size: u32) -> impl Iterator<Item = SValue> + '_ {
    let present: std::collections::HashSet<SValue> = hist.values_desc().iter().copied().collect();
    (0..domain_size)
        .map(SValue)
        .filter(move |v| !present.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};
    use wcbk_worlds::inference::atom_probability_given;
    use wcbk_worlds::{BucketSpec, WorldSpace};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    fn to_space(b: &Bucketization) -> WorldSpace {
        WorldSpace::new(
            b.to_parts()
                .into_iter()
                .map(|(m, v)| BucketSpec::new(m, v))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn k0_is_max_frequency_ratio() {
        let b = figure3();
        let r = max_disclosure(&b, 0).unwrap();
        assert!((r.value - 0.4).abs() < 1e-12);
        assert!(r.witness.antecedents.is_empty());
    }

    #[test]
    fn k1_on_figure3_is_two_thirds_not_ten_nineteenths() {
        // The paper's prose claims 10/19; its own framework yields 2/3 via
        // the negation-equivalent implication within the male bucket. See
        // DESIGN.md ("errata").
        let b = figure3();
        let r = max_disclosure(&b, 1).unwrap();
        assert!((r.value - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disclosure_is_monotone_in_k_and_reaches_one() {
        let b = figure3();
        let mut prev = 0.0;
        for k in 0..=6 {
            let r = max_disclosure(&b, k).unwrap();
            assert!(r.value >= prev - 1e-15, "k={k}");
            prev = r.value;
        }
        // Male bucket has 3 distinct values: k = 2 negations suffice for 1.
        assert!((max_disclosure(&b, 2).unwrap().value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn witness_achieves_dp_value_exactly() {
        let b = figure3();
        let space = to_space(&b);
        for k in 0..=4 {
            let r = max_disclosure(&b, k).unwrap();
            let w = &r.witness;
            let p = atom_probability_given(&space, w.consequent, &w.knowledge())
                .unwrap()
                .expect("witness knowledge is consistent with B");
            assert!(
                (p.to_f64() - r.value).abs() < 1e-9,
                "k={k}: witness {} vs dp {}",
                p.to_f64(),
                r.value
            );
        }
    }

    #[test]
    fn witness_k_is_bounded_by_k() {
        let b = figure3();
        for k in 0..=6 {
            let r = max_disclosure(&b, k).unwrap();
            assert!(r.witness.k() <= k, "k={k}");
        }
    }

    #[test]
    fn witness_consequent_is_most_frequent_value_of_its_bucket() {
        let b = figure3();
        let r = max_disclosure(&b, 2).unwrap();
        let w = &r.witness;
        let bi = b.bucket_of(w.consequent.person).unwrap();
        assert_eq!(
            b.bucket(bi).histogram().value_at(0),
            Some(w.consequent.value)
        );
    }

    #[test]
    fn single_bucket_uniform_values() {
        // One bucket {0,1,2,3}: k=0 → 1/4; k=1 → 1/3; k=2 → 1/2; k=3 → 1.
        let table = {
            use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};
            let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
            let mut tb = TableBuilder::new(schema);
            for v in ["a", "b", "c", "d"] {
                tb.push_row(&[v]).unwrap();
            }
            tb.build()
        };
        let b = Bucketization::from_grouping(&table, |_| ()).unwrap();
        for (k, expected) in [(0, 0.25), (1, 1.0 / 3.0), (2, 0.5), (3, 1.0)] {
            let r = max_disclosure(&b, k).unwrap();
            assert!((r.value - expected).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn witness_atoms_reference_real_persons() {
        let b = figure3();
        let r = max_disclosure(&b, 3).unwrap();
        for atom in std::iter::once(&r.witness.consequent).chain(&r.witness.antecedents) {
            assert!(atom.person.index() < 10);
            assert!(b.bucket_of(atom.person).is_some());
        }
        // Antecedents are distinct atoms and none equals the consequent.
        let mut set = std::collections::HashSet::new();
        for a in &r.witness.antecedents {
            assert!(set.insert(*a), "duplicate antecedent {a}");
            assert_ne!(*a, r.witness.consequent);
        }
    }

    #[test]
    fn padded_witness_still_achieves_value() {
        // Bucket of two identical values forces padding beyond d=1 for k=2:
        // the DP reaches certainty already at k=0; witnesses stay valid.
        let table = {
            use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};
            let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
            let mut tb = TableBuilder::new(schema);
            tb.push_row(&["x"]).unwrap();
            tb.push_row(&["x"]).unwrap();
            tb.build()
        };
        let b = Bucketization::from_grouping(&table, |_| ()).unwrap();
        let r = max_disclosure(&b, 2).unwrap();
        assert_eq!(r.value, 1.0);
        let space = to_space(&b);
        let p = atom_probability_given(&space, r.witness.consequent, &r.witness.knowledge())
            .unwrap()
            .unwrap();
        assert_eq!(p.to_f64(), 1.0);
    }

    #[test]
    fn tuple_of_ten_distinct_values_needs_nine_implications() {
        let table = {
            use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};
            let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
            let mut tb = TableBuilder::new(schema);
            for i in 0..10 {
                tb.push_row(&[format!("v{i}")]).unwrap();
            }
            tb.build()
        };
        let b = Bucketization::from_grouping(&table, |_| ()).unwrap();
        for k in 0..9 {
            assert!(max_disclosure(&b, k).unwrap().value < 1.0, "k={k}");
        }
        assert!((max_disclosure(&b, 9).unwrap().value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bucketization_cannot_be_built() {
        let table = hospital_table();
        assert!(matches!(
            Bucketization::from_partition(&table, &[]),
            Err(CoreError::EmptyBucketization)
        ));
    }
}
