//! The paper's `L_k` conjunction language behind the [`AdversaryModel`]
//! trait — the reference implementation every other model is measured
//! against, and the engine-backed model the `sequential` id resolves to.

use std::sync::Arc;

use wcbk_core::minimize1::minimize1_profile;
use wcbk_core::{CkSafety, CoreError, DisclosureEngine, HistogramSet};

use crate::{modal_prediction, AdversaryModel, CompositionStyle, ModelId, ModelWitness};

/// Worst-case disclosure under conjunctions of `k` basic implications,
/// computed by the MINIMIZE1/2 dynamic programs through the shared
/// [`DisclosureEngine`] cache.
///
/// The bound is **bit-identical** to `engine.max_disclosure_value_set` —
/// this type adds no arithmetic of its own, so routing audits through the
/// trait cannot perturb any pinned value. It carries the [`ModelId`] it was
/// resolved for: [`ModelId::Conjunction`] composes releases as a union of
/// buckets, [`ModelId::Sequential`] by common refinement.
pub struct ConjunctionModel {
    id: ModelId,
    engine: Arc<DisclosureEngine>,
}

impl ConjunctionModel {
    /// The conjunction model over a shared engine; `k` is the engine's
    /// attacker power.
    pub fn new(engine: Arc<DisclosureEngine>) -> Self {
        Self::resolved(ModelId::Conjunction, engine)
    }

    /// The engine-backed model under the id `id` resolves.
    pub(crate) fn resolved(id: ModelId, engine: Arc<DisclosureEngine>) -> Self {
        debug_assert!(matches!(id, ModelId::Conjunction | ModelId::Sequential));
        Self { id, engine }
    }
}

impl AdversaryModel for ConjunctionModel {
    fn name(&self) -> &'static str {
        self.id.name()
    }

    fn k(&self) -> usize {
        self.engine.k()
    }

    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError> {
        self.engine.max_disclosure_value_set(set)
    }

    /// The ratio-first check of [`CkSafety::is_safe_set`]: a set whose
    /// frequency ratio already reaches `c` is unsafe without MINIMIZE2.
    fn is_safe(&self, set: &HistogramSet, c: f64) -> Result<bool, CoreError> {
        CkSafety::new(c, self.k())?.is_safe_set(&self.engine, set)
    }

    /// One MINIMIZE2 pass yields the bound and the optimal atom allocation,
    /// rendered as a bucket-level witness: which bucket hosts the predicted
    /// (modal) value and how the `k` implications are spread over the
    /// buckets' rarest values. Errors with [`CoreError::WitnessTooLarge`]
    /// where the allocation could need a profile table past the witness
    /// limit.
    fn witness(&self, set: &HistogramSet) -> Result<(f64, ModelWitness), CoreError> {
        let result = self.engine.allocation_set(set)?;
        let host = result
            .allocation
            .iter()
            .find(|a| a.has_consequent)
            .map(|a| a.bucket)
            .unwrap_or(0);
        let predicts = modal_prediction(host, &set.histograms()[host]);
        let mut knowing = Vec::new();
        for alloc in &result.allocation {
            if alloc.atoms == 0 {
                continue;
            }
            // The DP only allocates atoms where MINIMIZE1 is feasible, so
            // the profile reconstruction cannot fail; the profile is sized
            // by the bucket's distinct values, not by the atom count.
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
        Ok((result.value(), ModelWitness { predicts, knowing }))
    }

    fn composition(&self) -> CompositionStyle {
        match self.id {
            ModelId::Sequential => CompositionStyle::CommonRefinement,
            _ => CompositionStyle::UnionOfBuckets,
        }
    }
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
        let (_, w) = model.witness(&set).unwrap();
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
        let (_, w) = model.witness(&set).unwrap();
        assert_eq!(w.knowing, vec!["no background knowledge (k = 0)"]);
    }

    #[test]
    fn witness_is_deterministic() {
        let set = figure3_set();
        let model = ConjunctionModel::new(Arc::new(DisclosureEngine::new(2)));
        assert_eq!(model.witness(&set).unwrap(), model.witness(&set).unwrap());
    }
}
