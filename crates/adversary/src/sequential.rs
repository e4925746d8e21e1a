//! Linkage-aware sequential release, after Riboni et al., "Preserving
//! Privacy in Sequential Data Release against Background Knowledge
//! Attacks" (arXiv 1010.0924): [`ModelId::Sequential`] resolves to the
//! engine-backed [`ConjunctionModel`](crate::ConjunctionModel) under
//! [`CompositionStyle::CommonRefinement`]. These tests pin that a single
//! release bounds like the conjunction language and that the refinement
//! the session layer computes is priced through the shared engine.

mod tests {
    use std::sync::Arc;

    use wcbk_core::{DisclosureEngine, HistogramSet};

    use crate::tests::figure3_set;
    use crate::{CompositionStyle, ModelId};

    /// Per-release, the sequential adversary is exactly the conjunction
    /// adversary — only composition differs.
    #[test]
    fn single_release_matches_conjunction_bitwise() {
        let set = figure3_set();
        for k in 0..5 {
            let engine = Arc::new(DisclosureEngine::new(k));
            let seq = ModelId::Sequential.resolve(Arc::clone(&engine));
            let conj = ModelId::Conjunction.resolve(Arc::clone(&engine));
            assert_eq!(
                seq.max_disclosure(&set).unwrap().to_bits(),
                conj.max_disclosure(&set).unwrap().to_bits()
            );
            assert_eq!(seq.witness(&set).unwrap(), conj.witness(&set).unwrap());
            assert_eq!(seq.name(), "sequential");
        }
    }

    #[test]
    fn advertises_common_refinement() {
        let model = ModelId::Sequential.resolve(Arc::new(DisclosureEngine::new(1)));
        assert_eq!(model.composition(), CompositionStyle::CommonRefinement);
    }

    /// The motivating example from arXiv 1010.0924 §1, transplanted to the
    /// Figure 3 population: two releases that are individually safe can be
    /// jointly disclosive once tuples are linked. Release A groups by sex
    /// (buckets of 5), release B groups by age band; their common
    /// refinement has a singleton cell, which discloses fully at any k.
    #[test]
    fn refinement_is_more_disclosive_than_either_release() {
        use wcbk_core::SensitiveHistogram;
        use wcbk_table::SValue;

        // Ten tuples t0..t9 with diseases
        //   t0=d0 t1=d0 t2=d1 t3=d1 t4=d2   t5=d1 t6=d1 t7=d2 t8=d2 t9=d0.
        let engine = Arc::new(DisclosureEngine::new(1));
        let model = ModelId::Sequential.resolve(Arc::clone(&engine));
        // Release A: {t0..t4} and {t5..t9} — each bucket shape (2,2,1).
        let a = HistogramSet::new(
            vec![
                SensitiveHistogram::from_counts([
                    (SValue(0), 2u64),
                    (SValue(1), 2),
                    (SValue(2), 1),
                ]),
                SensitiveHistogram::from_counts([
                    (SValue(0), 1u64),
                    (SValue(1), 2),
                    (SValue(2), 2),
                ]),
            ],
            3,
        )
        .unwrap();
        // Release B: {t0,t5,t6,t7,t8} and {t1,t2,t3,t4,t9} — also (2,2,1).
        let b = HistogramSet::new(
            vec![
                SensitiveHistogram::from_counts([
                    (SValue(0), 1u64),
                    (SValue(1), 2),
                    (SValue(2), 2),
                ]),
                SensitiveHistogram::from_counts([
                    (SValue(0), 2u64),
                    (SValue(1), 2),
                    (SValue(2), 1),
                ]),
            ],
            3,
        )
        .unwrap();
        // Common refinement: {t0}, {t1..t4}, {t5..t8}, {t9} — two
        // singleton cells.
        let refined = HistogramSet::new(
            vec![
                SensitiveHistogram::from_counts([(SValue(0), 1u64)]),
                SensitiveHistogram::from_counts([
                    (SValue(0), 1u64),
                    (SValue(1), 2),
                    (SValue(2), 1),
                ]),
                SensitiveHistogram::from_counts([(SValue(1), 2u64), (SValue(2), 2)]),
                SensitiveHistogram::from_counts([(SValue(0), 1u64)]),
            ],
            3,
        )
        .unwrap();
        let va = model.max_disclosure(&a).unwrap();
        let vb = model.max_disclosure(&b).unwrap();
        let vr = model.max_disclosure(&refined).unwrap();
        assert!(va < 1.0 && vb < 1.0, "per-release bounds: {va}, {vb}");
        assert!((vr - 1.0).abs() < 1e-15, "refined bound: {vr}");
    }
}
