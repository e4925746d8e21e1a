//! The paper's `L_k` conjunction language behind the [`AdversaryModel`]
//! trait — the reference implementation every other model is measured
//! against.

use std::sync::Arc;

use wcbk_core::minimize1::minimize1_profile;
use wcbk_core::minimize2::{minimize2, BucketCosts};
use wcbk_core::{CoreError, DisclosureEngine, HistogramSet};

use crate::{AdversaryModel, ModelWitness};

/// Worst-case disclosure under conjunctions of `k` basic implications,
/// computed by the MINIMIZE1/2 dynamic programs through the shared
/// [`DisclosureEngine`] cache.
///
/// The bound is **bit-identical** to `engine.max_disclosure_value_set` —
/// this type adds no arithmetic of its own, so routing audits through the
/// trait cannot perturb any pinned value.
pub struct ConjunctionModel {
    engine: Arc<DisclosureEngine>,
}

impl ConjunctionModel {
    /// Wraps a shared engine; `k` is the engine's attacker power.
    pub fn new(engine: Arc<DisclosureEngine>) -> Self {
        Self { engine }
    }
}

impl AdversaryModel for ConjunctionModel {
    fn name(&self) -> &'static str {
        "conjunction"
    }

    fn k(&self) -> usize {
        self.engine.k()
    }

    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError> {
        self.engine.max_disclosure_value_set(set)
    }

    fn witness(&self, set: &HistogramSet) -> Result<ModelWitness, CoreError> {
        allocation_witness(&self.engine, set)
    }
}

/// Reconstructs the optimal MINIMIZE2 atom allocation and renders it as a
/// bucket-level witness: which bucket hosts the predicted (modal) value and
/// how the `k` implications are spread over the buckets' rarest values.
///
/// Shared by [`ConjunctionModel`] and [`crate::SequentialModel`], whose
/// per-release language is the same.
pub(crate) fn allocation_witness(
    engine: &DisclosureEngine,
    set: &HistogramSet,
) -> Result<ModelWitness, CoreError> {
    if set.n_buckets() == 0 {
        return Err(CoreError::EmptyBucketization);
    }
    let k = engine.k();
    let costs: Vec<BucketCosts> = set.histograms().iter().map(|h| engine.costs(h)).collect();
    let result = minimize2(&costs, k);
    let host = result
        .allocation
        .iter()
        .find(|a| a.has_consequent)
        .map(|a| a.bucket)
        .unwrap_or(0);
    let hist = &set.histograms()[host];
    let modal = hist.value_at(0).expect("buckets are non-empty");
    let predicts = format!(
        "bucket {host}: t[S] = {modal} (modal value, {} of {} tuples)",
        hist.frequency(0),
        hist.n()
    );
    let mut knowing = Vec::new();
    for alloc in &result.allocation {
        if alloc.atoms == 0 {
            continue;
        }
        // The DP only allocates atoms where MINIMIZE1 is feasible, so the
        // profile reconstruction cannot fail; the profile is sized by the
        // bucket's distinct values, not by the atom count.
        let profile = minimize1_profile(&set.histograms()[alloc.bucket], alloc.atoms)
            .expect("optimal allocation is feasible");
        let spread: Vec<String> = profile.iter().map(|c| c.to_string()).collect();
        knowing.push(format!(
            "bucket {}: {} implication(s) ruling out rare values, {} per person",
            alloc.bucket,
            alloc.atoms,
            spread.join("+")
        ));
    }
    if knowing.is_empty() {
        knowing.push("no background knowledge (k = 0)".to_string());
    }
    Ok(ModelWitness { predicts, knowing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::figure3_set;

    /// Figure 3 pinned values: k = 0 → 0.4, k = 1 → 2/3.
    #[test]
    fn figure3_pinned_values() {
        let set = figure3_set();
        let m0 = ConjunctionModel::new(Arc::new(DisclosureEngine::new(0)));
        assert!((m0.max_disclosure(&set).unwrap() - 0.4).abs() < 1e-15);
        let m1 = ConjunctionModel::new(Arc::new(DisclosureEngine::new(1)));
        assert!((m1.max_disclosure(&set).unwrap() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn bound_is_bit_identical_to_engine() {
        let set = figure3_set();
        for k in 0..5 {
            let engine = Arc::new(DisclosureEngine::new(k));
            let model = ConjunctionModel::new(Arc::clone(&engine));
            let via_trait = model.max_disclosure(&set).unwrap();
            let direct = engine.max_disclosure_value_set(&set).unwrap();
            assert_eq!(via_trait.to_bits(), direct.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn witness_names_host_bucket_and_spends_all_atoms() {
        let set = figure3_set();
        let model = ConjunctionModel::new(Arc::new(DisclosureEngine::new(1)));
        let w = model.witness(&set).unwrap();
        assert!(w.predicts.contains("t[S]"), "{}", w.predicts);
        let spent: usize = w
            .knowing
            .iter()
            .filter_map(|s| {
                s.split("bucket ")
                    .nth(1)
                    .and_then(|rest| rest.split(": ").nth(1))
                    .and_then(|rest| rest.split(' ').next())
                    .and_then(|n| n.parse::<usize>().ok())
            })
            .sum();
        assert_eq!(spent, 1, "{:?}", w.knowing);
    }

    #[test]
    fn k0_witness_has_no_knowledge_clause() {
        let set = figure3_set();
        let model = ConjunctionModel::new(Arc::new(DisclosureEngine::new(0)));
        let w = model.witness(&set).unwrap();
        assert_eq!(w.knowing, vec!["no background knowledge (k = 0)"]);
    }

    #[test]
    fn witness_is_deterministic() {
        let set = figure3_set();
        let model = ConjunctionModel::new(Arc::new(DisclosureEngine::new(2)));
        assert_eq!(model.witness(&set).unwrap(), model.witness(&set).unwrap());
    }
}
