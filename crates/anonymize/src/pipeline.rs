//! End-to-end anonymization: search, rank, report.

use wcbk_core::{max_disclosure, Bucketization, DisclosureResult};
use wcbk_hierarchy::{GenNode, GeneralizationLattice};
use wcbk_table::Table;

use crate::search::{search, SearchConfig};
use crate::utility::pick_best;
use crate::{AnonymizeError, PrivacyCriterion, UtilityMetric};

/// The result of [`anonymize`]: the chosen generalization and its audit.
#[derive(Debug)]
pub struct AnonymizationOutcome {
    /// The chosen (utility-best among ⪯-minimal safe) lattice node.
    pub node: GenNode,
    /// The bucketization it induces.
    pub bucketization: Bucketization,
    /// All minimal safe nodes found (the chosen one included).
    pub minimal_nodes: Vec<GenNode>,
    /// Criterion evaluations spent by the search.
    pub evaluated: usize,
    /// Utility score of the chosen node (lower is better).
    pub utility_score: f64,
}

impl AnonymizationOutcome {
    /// Audits the outcome with a maximum-disclosure report at power `k`.
    pub fn audit(&self, k: usize) -> Result<DisclosureResult, AnonymizeError> {
        Ok(max_disclosure(&self.bucketization, k)?)
    }
}

/// Finds all ⪯-minimal safe generalizations of `table` under `criterion`
/// (the lattice search as `config` sets it up), then returns the best one
/// according to `metric`. The search outcome does not depend on the
/// thread count, so neither does the chosen node.
///
/// Errors with [`AnonymizeError::NoSafeNode`] when not even the top of the
/// lattice satisfies the criterion.
pub fn anonymize<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    metric: UtilityMetric,
    config: &SearchConfig,
) -> Result<AnonymizationOutcome, AnonymizeError> {
    let outcome = search(table, lattice, criterion, config)?.outcome;
    let node = pick_best(metric, lattice, table, &outcome.minimal_nodes)?
        .ok_or(AnonymizeError::NoSafeNode)?;
    let bucketization = lattice.bucketize(table, &node)?;
    let utility_score = metric.score(lattice, table, &node)?;
    Ok(AnonymizationOutcome {
        node,
        bucketization,
        minimal_nodes: outcome.minimal_nodes,
        evaluated: outcome.evaluated,
        utility_score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{CkSafetyCriterion, KAnonymity};
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

    fn setup() -> (Table, GeneralizationLattice) {
        let t = hospital_table();
        let zip = t.column(1).dictionary().clone();
        let age = t.column(2).dictionary().clone();
        let sex = t.column(3).dictionary().clone();
        let l = GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap();
        (t, l)
    }

    /// The sequential search, ranked by `metric`.
    fn run<C: PrivacyCriterion>(
        t: &Table,
        l: &GeneralizationLattice,
        criterion: &C,
        metric: UtilityMetric,
    ) -> Result<AnonymizationOutcome, AnonymizeError> {
        anonymize(t, l, criterion, metric, &SearchConfig::with_threads(1))
    }

    #[test]
    fn anonymize_with_k_anonymity() {
        let (t, l) = setup();
        let outcome = run(&t, &l, &KAnonymity::new(5), UtilityMetric::Discernibility).unwrap();
        assert!(outcome.bucketization.min_bucket_size() >= 5);
        assert!(outcome.minimal_nodes.contains(&outcome.node));
        // The chosen node must truly be 5-anonymous and minimal.
        for p in l.predecessors(&outcome.node) {
            let pb = l.bucketize(&t, &p).unwrap();
            assert!(pb.min_bucket_size() < 5, "predecessor {p} also safe");
        }
    }

    #[test]
    fn anonymize_with_ck_safety_and_audit() {
        let (t, l) = setup();
        let criterion = CkSafetyCriterion::new(0.7, 1).unwrap();
        let outcome = run(&t, &l, &criterion, UtilityMetric::Height).unwrap();
        let audit = outcome.audit(1).unwrap();
        assert!(audit.value < 0.7, "audit {} >= c", audit.value);
        // The witness knowledge must have at most k implications.
        assert!(audit.witness.k() <= 1);
    }

    #[test]
    fn impossible_criterion_errors() {
        let (t, l) = setup();
        let err = run(&t, &l, &KAnonymity::new(11), UtilityMetric::Discernibility).unwrap_err();
        assert!(matches!(err, AnonymizeError::NoSafeNode));
    }

    #[test]
    fn stricter_criteria_push_higher_in_lattice() {
        let (t, l) = setup();
        let loose = run(&t, &l, &KAnonymity::new(2), UtilityMetric::Height)
            .unwrap()
            .node;
        let strict = run(&t, &l, &KAnonymity::new(10), UtilityMetric::Height)
            .unwrap()
            .node;
        assert!(loose.height() <= strict.height());
    }
}
