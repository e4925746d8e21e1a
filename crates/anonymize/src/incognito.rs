//! The Incognito algorithm [LeFevre, DeWitt, Ramakrishnan, SIGMOD 2005],
//! generalized to any ⪯-monotone privacy criterion.
//!
//! The paper's Section 3.4: "we can modify the Incognito algorithm, which
//! finds all the ⪯-minimal k-anonymous bucketizations, by simply replacing
//! the check for k-anonymity with the check for (c,k)-safety". This module
//! is that modification, done properly: the apriori-style iteration over
//! quasi-identifier **subsets**, not just the monotone BFS over the full
//! lattice.
//!
//! The load-bearing observation: grouping by a *subset* `Q' ⊆ Q` of the
//! quasi-identifiers (at the same levels) yields a **coarser** bucketization
//! than grouping by `Q`. For any criterion that is preserved by coarsening
//! (Theorem 14 for (c,k)-safety; classical for k-anonymity and ℓ-diversity)
//! the contrapositive prunes: *if a level vector already fails on a subset,
//! every extension of it to more attributes fails too.* Incognito therefore
//! computes the safe level-vectors subset-by-subset, of increasing size,
//! joining the size-`i−1` results to generate size-`i` candidates, and only
//! evaluates candidates that survive the join — typically far fewer
//! evaluations than the plain breadth-first search over the full lattice.

use std::collections::{HashMap, HashSet};

use wcbk_core::sched::{MonotoneDag, NodeResolution};
use wcbk_hierarchy::{GenNode, GeneralizationLattice};
use wcbk_table::Table;

use crate::search::{drain, evaluator, require_monotone, SearchConfig, Source};
use crate::{AnonymizeError, PrivacyCriterion};

/// Statistics and results of an Incognito run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncognitoOutcome {
    /// All ⪯-minimal safe nodes of the **full** lattice (same contract as
    /// [`crate::search::search`]).
    pub minimal_nodes: Vec<GenNode>,
    /// Criterion evaluations actually performed, across all subsets.
    pub evaluated: usize,
    /// Per-subset-size candidate counts `(size, candidates, evaluated)` —
    /// the quantity Incognito's join is meant to shrink.
    pub per_size: Vec<(usize, usize, usize)>,
}

/// Runs generalized Incognito over the lattice's quasi-identifier subsets.
///
/// The apriori join is inherently sequential across subset sizes, but each
/// subset's surviving candidates form a monotone-pruned DAG of their own.
/// At one thread it is drained in height order; at more it goes through
/// `wcbk_core::sched`'s whole-DAG work-stealing scheduler (candidates
/// become runnable as their last in-set predecessor resolves; idle workers
/// speculate). Either way the outcome — minimal nodes, per-size evaluation
/// counts, first-error semantics — is identical to the sequential run's.
///
/// Subset pruning is only sound for a
/// [`monotone`](PrivacyCriterion::monotone) criterion; any other is
/// rejected with [`AnonymizeError::InvalidParameter`].
pub fn incognito<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<IncognitoOutcome, AnonymizeError> {
    require_monotone(criterion, "Incognito")?;
    let threads = config.effective_threads();
    let n_dims = lattice.n_dims();
    // One table scan up front; every subset projection is evaluated from
    // rolled-up histograms. Signature-overflow tables fall back to
    // per-candidate `bucketize_subset` scans.
    let evaluator = evaluator(table, lattice, config)?;
    let source = Source {
        table,
        lattice,
        evaluator: evaluator.as_ref(),
    };
    let mut evaluated_total = 0usize;
    let mut per_size = Vec::with_capacity(n_dims);
    // safe[subset-bitmask] = set of level vectors (over that subset's dims,
    // ascending dim order) that satisfy the criterion.
    let mut safe: HashMap<u32, HashSet<Vec<usize>>> = HashMap::new();
    safe.insert(0, HashSet::from([Vec::new()]));

    for size in 1..=n_dims {
        let mut candidates_this_size = 0usize;
        let mut evaluated_this_size = 0usize;
        for mask in subsets_of_size(n_dims, size) {
            let dims = mask_dims(mask);
            // Apriori join: a vector is a candidate iff each of its
            // (size-1)-subset projections was safe.
            let candidates = generate_candidates(lattice, mask, &dims, &safe);
            candidates_this_size += candidates.len();

            // Monotone-pruned drain restricted to the candidate set: a
            // candidate with a safe in-set predecessor is safe unseen.
            // (Predecessors outside the candidate set are unsafe — their
            // projections failed — so only in-set ones grant safety or gate
            // evaluation.)
            // Height-major visit order; the sort is stable, so candidates of
            // one height keep their join order.
            let mut order = candidates;
            order.sort_by_key(|v| v.iter().sum::<usize>());
            let index: HashMap<&Vec<usize>, u32> = order
                .iter()
                .enumerate()
                .map(|(i, v)| (v, i as u32))
                .collect();
            let preds: Vec<Vec<u32>> = order
                .iter()
                .map(|v| {
                    predecessors(v)
                        .iter()
                        .filter_map(|p| index.get(p).copied())
                        .collect()
                })
                .collect();
            let outcome = drain(&MonotoneDag::new(preds), threads, |i| {
                criterion.is_satisfied_hist(&source.subset_histograms(&dims, &order[i])?)
            })?;
            evaluated_this_size += outcome.evaluated;
            let subset_safe: HashSet<Vec<usize>> = order
                .iter()
                .zip(&outcome.resolutions)
                .filter(|(_, r)| **r != NodeResolution::EvaluatedUnsafe)
                .map(|(v, _)| v.clone())
                .collect();
            safe.insert(mask, subset_safe);
        }
        evaluated_total += evaluated_this_size;
        per_size.push((size, candidates_this_size, evaluated_this_size));
    }

    // The full-subset safe set; minimal elements are those with no safe
    // immediate predecessor.
    let full_mask = if n_dims == 32 {
        u32::MAX
    } else {
        (1u32 << n_dims) - 1
    };
    let full_safe = safe.remove(&full_mask).unwrap_or_default();
    let mut minimal_nodes: Vec<GenNode> = full_safe
        .iter()
        .filter(|v| predecessors(v).into_iter().all(|p| !full_safe.contains(&p)))
        .map(|v| GenNode(v.clone()))
        .collect();
    minimal_nodes.sort();
    Ok(IncognitoOutcome {
        minimal_nodes,
        evaluated: evaluated_total,
        per_size,
    })
}

/// All bitmasks over `n` dims with exactly `size` bits set, ascending.
fn subsets_of_size(n: usize, size: usize) -> Vec<u32> {
    (0u32..(1 << n))
        .filter(|m| m.count_ones() as usize == size)
        .collect()
}

/// The dim indices of a bitmask, ascending.
fn mask_dims(mask: u32) -> Vec<usize> {
    (0..32).filter(|&d| mask & (1 << d) != 0).collect()
}

/// Candidate level vectors for `mask`: the apriori join of its
/// (size−1)-subset safe sets.
fn generate_candidates(
    lattice: &GeneralizationLattice,
    mask: u32,
    dims: &[usize],
    safe: &HashMap<u32, HashSet<Vec<usize>>>,
) -> Vec<Vec<usize>> {
    // Seed from the subset missing the last dim, extended by every level of
    // the last dim; then filter through the remaining (size-1)-subsets.
    let last = *dims.last().expect("subsets are non-empty");
    let seed_mask = mask & !(1 << last);
    let empty = HashSet::new();
    let seeds = safe.get(&seed_mask).unwrap_or(&empty);
    let n_levels = lattice.hierarchy(last).n_levels();
    let mut out = Vec::new();
    for seed in seeds {
        'level: for level in 0..n_levels {
            let mut v = seed.clone();
            v.push(level);
            // Check the other (size-1)-subset projections.
            for (drop_pos, &drop_dim) in dims.iter().enumerate() {
                if drop_dim == last {
                    continue;
                }
                let sub_mask = mask & !(1 << drop_dim);
                let mut proj = v.clone();
                proj.remove(drop_pos);
                match safe.get(&sub_mask) {
                    Some(set) if set.contains(&proj) => {}
                    _ => continue 'level,
                }
            }
            out.push(v);
        }
    }
    out
}

/// Immediate predecessors of a level vector (one coordinate, one level down).
fn predecessors(v: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for (i, &level) in v.iter().enumerate() {
        if level > 0 {
            let mut p = v.to_vec();
            p[i] = level - 1;
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{CkSafetyCriterion, DistinctLDiversity, KAnonymity};
    use crate::search::search;
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

    fn lattice(table: &Table) -> GeneralizationLattice {
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let sex = table.column(3).dictionary().clone();
        GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap()
    }

    fn sorted(mut nodes: Vec<GenNode>) -> Vec<GenNode> {
        nodes.sort();
        nodes
    }

    fn sequential() -> SearchConfig {
        SearchConfig::with_threads(1)
    }

    /// The sequential lattice search's minimal nodes, sorted.
    fn bfs<C: PrivacyCriterion>(t: &Table, l: &GeneralizationLattice, c: &C) -> Vec<GenNode> {
        sorted(
            search(t, l, c, &sequential())
                .unwrap()
                .outcome
                .minimal_nodes,
        )
    }

    #[test]
    fn incognito_matches_bfs_for_k_anonymity() {
        let t = hospital_table();
        let l = lattice(&t);
        for k in [2u64, 3, 5, 10, 11] {
            let inc = incognito(&t, &l, &KAnonymity::new(k), &sequential()).unwrap();
            assert_eq!(
                inc.minimal_nodes,
                bfs(&t, &l, &KAnonymity::new(k)),
                "k={k} mismatch"
            );
        }
    }

    #[test]
    fn incognito_matches_bfs_for_ck_safety() {
        let t = hospital_table();
        let l = lattice(&t);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2), (0.45, 0)] {
            let criterion = CkSafetyCriterion::new(c, k).unwrap();
            let inc = incognito(&t, &l, &criterion, &sequential()).unwrap();
            assert_eq!(
                inc.minimal_nodes,
                bfs(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()),
                "(c,k)=({c},{k}) mismatch"
            );
        }
    }

    #[test]
    fn incognito_matches_bfs_for_l_diversity() {
        let t = hospital_table();
        let l = lattice(&t);
        for ell in [2usize, 3, 4, 6] {
            let inc = incognito(&t, &l, &DistinctLDiversity::new(ell), &sequential()).unwrap();
            let want = bfs(&t, &l, &DistinctLDiversity::new(ell));
            assert_eq!(inc.minimal_nodes, want, "l={ell}");
        }
    }

    #[test]
    fn subset_pruning_reduces_candidates() {
        // With an unsatisfiable criterion, size-1 subsets all fail and no
        // larger candidates are ever generated.
        let t = hospital_table();
        let l = lattice(&t);
        let inc = incognito(&t, &l, &KAnonymity::new(11), &sequential()).unwrap();
        assert!(inc.minimal_nodes.is_empty());
        let size2_candidates = inc.per_size[1].1;
        assert_eq!(size2_candidates, 0, "join should have emptied level 2");
    }

    #[test]
    fn per_size_accounting_is_consistent() {
        let t = hospital_table();
        let l = lattice(&t);
        let inc = incognito(&t, &l, &KAnonymity::new(5), &sequential()).unwrap();
        assert_eq!(inc.per_size.len(), 3);
        let total: usize = inc.per_size.iter().map(|&(_, _, e)| e).sum();
        assert_eq!(total, inc.evaluated);
        for &(size, candidates, evaluated) in &inc.per_size {
            assert!(evaluated <= candidates, "size {size}");
        }
    }

    #[test]
    fn helpers_behave() {
        assert_eq!(subsets_of_size(3, 2), vec![0b011, 0b101, 0b110]);
        assert_eq!(mask_dims(0b101), vec![0, 2]);
        assert_eq!(predecessors(&[1, 0, 2]), vec![vec![0, 0, 2], vec![1, 0, 1]]);
        assert!(predecessors(&[0, 0]).is_empty());
    }
}
