//! Property-based validation of the core algorithms against independent
//! oracles: the exact random-worlds engine, the paper-faithful recursion,
//! and structural invariants (monotonicity, bounds, witness fidelity).

use proptest::prelude::*;

use wcbk_core::minimize1::{
    brute_force_profiles, minimize1_profile, minimize1_values, paper_recursion, Minimize1Table,
};
use wcbk_core::minimize2::{minimize2, BucketCosts};
use wcbk_core::partial_order::{merge_buckets, refines};
use wcbk_core::{
    max_disclosure, negation_max_disclosure, Bucket, Bucketization, DisclosureEngine, HistogramSet,
    SensitiveHistogram,
};
use wcbk_table::{SValue, TupleId};
use wcbk_worlds::inference::atom_probability_given;
use wcbk_worlds::{BucketSpec, WorldSpace};

/// Strategy: a bucket's raw sensitive values (1..=6 tuples over codes 0..4).
fn bucket_values() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..4, 1..=6)
}

/// Strategy: 1..=4 buckets.
fn bucketization() -> impl Strategy<Value = Bucketization> {
    prop::collection::vec(bucket_values(), 1..=4).prop_map(from_groups)
}

/// Strategy: 1..=12 buckets, each holding codes 0..7 once plus 0..=4
/// more tuples over codes 0..3 — few enough distinct histograms (eleven)
/// that most buckets repeat an earlier key, and 7 distinct values per
/// bucket, so every `k ≤ 5` is below saturation and runs the DP.
fn repetitive_bucketization() -> impl Strategy<Value = Bucketization> {
    let bucket =
        prop::collection::vec(0u32..3, 0..=4).prop_map(|extra| (0..7).chain(extra).collect());
    prop::collection::vec(bucket, 1..=12).prop_map(from_groups)
}

/// Strategy: 1..=40 buckets, each with 1..=14 distinct values counted
/// 1..=500 times, over a 14-value domain.
fn realistic_set() -> impl Strategy<Value = HistogramSet> {
    let bucket = prop::collection::vec(1u64..=500, 1..=14).prop_map(|counts| {
        SensitiveHistogram::from_counts(
            counts
                .into_iter()
                .enumerate()
                .map(|(v, c)| (SValue(v as u32), c)),
        )
    });
    prop::collection::vec(bucket, 1..=40)
        .prop_map(|buckets| HistogramSet::new(buckets, 14).unwrap())
}

/// One bucket per group of raw sensitive values, tuple ids numbered in
/// order, over a domain of at least 4 values.
fn from_groups(groups: Vec<Vec<u32>>) -> Bucketization {
    let domain = groups.iter().flatten().map(|&v| v + 1).fold(4, u32::max);
    let mut next = 0u32;
    let buckets: Vec<Bucket> = groups
        .into_iter()
        .map(|vals| {
            let members: Vec<TupleId> = (0..vals.len())
                .map(|_| {
                    let t = TupleId(next);
                    next += 1;
                    t
                })
                .collect();
            let values: Vec<SValue> = vals.into_iter().map(SValue).collect();
            Bucket::new(members, &values)
        })
        .collect();
    Bucketization::from_buckets(buckets, domain).unwrap()
}

fn space_of(b: &Bucketization) -> WorldSpace {
    WorldSpace::new(
        b.to_parts()
            .into_iter()
            .map(|(m, v)| BucketSpec::new(m, v))
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(k³) table agrees with the paper's Algorithm 1 recursion and
    /// with brute force over profiles, for every c.
    #[test]
    fn minimize1_three_implementations_agree(vals in bucket_values(), kmax in 1usize..=6) {
        let values: Vec<SValue> = vals.iter().copied().map(SValue).collect();
        let hist = SensitiveHistogram::from_values(&values);
        let table = Minimize1Table::build(&hist, kmax);
        for c in 0..=kmax {
            let paper = if c == 0 { 1.0 } else { paper_recursion(&hist, 0, c, c) };
            let brute = brute_force_profiles(&hist, c);
            let dp = table.m1(c);
            if paper.is_finite() {
                prop_assert!((dp - paper).abs() < 1e-12, "c={c}: dp {dp} vs paper {paper}");
                prop_assert!((dp - brute).abs() < 1e-12, "c={c}: dp {dp} vs brute {brute}");
            } else {
                prop_assert!(!dp.is_finite());
            }
        }
    }

    /// At realistic bucket sizes the bucket-sized value path equals the
    /// k-sized table bit for bit, and a table sized by the atom count
    /// reconstructs the same profile as the k-sized one.
    #[test]
    fn bucket_sized_minimize1_matches_full_table(
        counts in prop::collection::vec(1u64..=1000, 1..=20),
        k in 0usize..=24,
    ) {
        let hist = SensitiveHistogram::from_counts(
            counts.iter().enumerate().map(|(v, &c)| (SValue(v as u32), c)),
        );
        let full = Minimize1Table::build(&hist, k + 1);
        let values = minimize1_values(&hist, k + 1);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&values), bits(full.values()));
        for c in 0..=k + 1 {
            prop_assert_eq!(Minimize1Table::build(&hist, c).profile(c), full.profile(c), "c={}", c);
            prop_assert_eq!(minimize1_profile(&hist, c), full.profile(c), "c={}", c);
        }
    }

    /// MINIMIZE1 values are prefix-stable in `kmax`, bit for bit — what
    /// lets one cache entry, built for the largest `k` asked, serve every
    /// smaller `k`.
    #[test]
    fn minimize1_values_are_prefix_stable(
        counts in prop::collection::vec(1u64..=1000, 1..=24),
        k2 in 1usize..=64,
        k1_seed in 0usize..64,
    ) {
        let hist = SensitiveHistogram::from_counts(
            counts.iter().enumerate().map(|(v, &c)| (SValue(v as u32), c)),
        );
        let k1 = k1_seed % k2;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let longer = bits(&minimize1_values(&hist, k2));
        prop_assert_eq!(bits(&minimize1_values(&hist, k1)), longer[..=k1].to_vec(), "k1={} k2={}", k1, k2);
    }

    /// The bucket-sized witness profile equals the `c`-sized table's, past
    /// `d_b` as well as below it.
    #[test]
    fn bucket_sized_profile_matches_full_table(
        counts in prop::collection::vec(1u64..=6, 1..=8),
        c in 0usize..=64,
    ) {
        let hist = SensitiveHistogram::from_counts(
            counts.iter().enumerate().map(|(v, &n)| (SValue(v as u32), n)),
        );
        prop_assert_eq!(minimize1_profile(&hist, c), Minimize1Table::build(&hist, c).profile(c), "c={}", c);
    }

    /// Lemma 12 closed form == true minimum probability: check the DP's m1
    /// against exhaustive enumeration over *all* atom sets via the exact
    /// engine (single bucket, small sizes).
    #[test]
    fn minimize1_matches_exact_atom_search(vals in prop::collection::vec(0u32..3, 1..=5), k in 1usize..=2) {
        let values: Vec<SValue> = vals.iter().copied().map(SValue).collect();
        let hist = SensitiveHistogram::from_values(&values);
        let table = Minimize1Table::build(&hist, k);
        let members: Vec<TupleId> = (0..values.len() as u32).map(TupleId).collect();
        let space = WorldSpace::new(vec![BucketSpec::new(members.clone(), values.clone())]).unwrap();

        // Enumerate all k-multisets of atoms (person, value in domain 0..3)
        // and find the minimum Pr(∧ ¬atom).
        let mut atoms = Vec::new();
        for &m in &members {
            for v in 0..3u32 {
                atoms.push(wcbk_logic::Atom::new(m, SValue(v)));
            }
        }
        let mut min_p = f64::INFINITY;
        let idx: Vec<usize> = (0..atoms.len()).collect();
        // k <= 2: enumerate singles or pairs (with repetition harmless).
        if k == 1 {
            for &i in &idx {
                let f = wcbk_logic::Formula::not(wcbk_logic::Formula::Atom(atoms[i]));
                let p = space.probability(&f).unwrap().to_f64();
                min_p = min_p.min(p);
            }
        } else {
            for &i in &idx {
                for &j in &idx {
                    if j < i { continue; }
                    let f = wcbk_logic::Formula::and([
                        wcbk_logic::Formula::not(wcbk_logic::Formula::Atom(atoms[i])),
                        wcbk_logic::Formula::not(wcbk_logic::Formula::Atom(atoms[j])),
                    ]);
                    let p = space.probability(&f).unwrap().to_f64();
                    min_p = min_p.min(p);
                }
            }
        }
        // Atoms with out-of-bucket values give ¬atom probability 1; the DP
        // assumes the attacker uses only useful atoms — it must match the
        // true minimum (k distinct atoms exist whenever the check below
        // passes; with a 1-tuple bucket and k=2 the pair (i,i) is allowed
        // by the enumeration so the comparison stays valid).
        let dp = table.m1(k);
        prop_assert!((dp - min_p).abs() < 1e-9, "dp {dp} vs exact {min_p}");
    }

    /// Maximum disclosure is within bounds, monotone in k, and its witness
    /// evaluates to exactly the claimed value under exact inference.
    #[test]
    fn dp_invariants_and_witness_fidelity(b in bucketization()) {
        let space = space_of(&b);
        let base = b.max_frequency_ratio();
        let mut prev = 0.0f64;
        for k in 0..=3usize {
            let report = max_disclosure(&b, k).unwrap();
            prop_assert!(report.value >= base - 1e-12);
            prop_assert!(report.value <= 1.0 + 1e-12);
            prop_assert!(report.value >= prev - 1e-12);
            prev = report.value;

            let exact = atom_probability_given(
                &space,
                report.witness.consequent,
                &report.witness.knowledge(),
            ).unwrap().expect("witness consistent");
            prop_assert!(
                (exact.to_f64() - report.value).abs() < 1e-9,
                "k={k}: witness {} vs dp {}", exact.to_f64(), report.value
            );
        }
    }

    /// Theorem 14: merging any two buckets never increases max disclosure.
    #[test]
    fn merging_never_increases_disclosure(b in bucketization(), i in 0usize..4, j in 0usize..4, k in 0usize..=3) {
        prop_assume!(b.n_buckets() >= 2);
        let i = i % b.n_buckets();
        let j = j % b.n_buckets();
        prop_assume!(i != j);
        let merged = merge_buckets(&b, i, j).unwrap();
        let fine = max_disclosure(&b, k).unwrap().value;
        let coarse = max_disclosure(&merged, k).unwrap().value;
        prop_assert!(coarse <= fine + 1e-12);
        prop_assert!(refines(&b, &merged));
    }

    /// Negation worst case: the closed form is correct and dominated by the
    /// implication worst case.
    #[test]
    fn negation_dominated_and_bounded(b in bucketization(), k in 0usize..=4) {
        let neg = negation_max_disclosure(&b, k).unwrap();
        let imp = max_disclosure(&b, k).unwrap();
        prop_assert!(neg.value <= imp.value + 1e-12);
        prop_assert!(neg.value >= b.max_frequency_ratio() - 1e-12);
        prop_assert!(neg.value <= 1.0 + 1e-12);
        // Its knowledge encodes exactly min(k, d-1) negations.
        let bucket_hist = b.bucket(neg.bucket).histogram();
        prop_assert_eq!(neg.ruled_out.len(), k.min(bucket_hist.distinct() - 1));
    }

    /// Cost-weighted negation worst case: the closed form equals brute
    /// force over all ≤k-subsets of negated atoms evaluated exactly under
    /// the cost weighting.
    #[test]
    fn cost_negation_matches_exhaustive(
        b in bucketization(),
        k in 0usize..=2,
        raw_costs in prop::collection::vec(0u8..=4, 4),
    ) {
        use wcbk_core::{cost_negation_max_disclosure, CostVector};
        use wcbk_logic::language::{all_atoms, for_each_subset_up_to};
        use wcbk_logic::{BasicImplication, Knowledge};
        use wcbk_worlds::inference::cost_disclosure_risk;

        let costs_f: Vec<f64> = raw_costs.iter().map(|&c| c as f64).collect();
        prop_assume!(costs_f.iter().any(|&c| c > 0.0));
        let costs = CostVector::new(costs_f.clone()).unwrap();
        let closed = cost_negation_max_disclosure(&b, k, &costs).unwrap();

        let space = space_of(&b);
        let persons = space.persons();
        let values = space.value_universe();
        let atoms = all_atoms(&persons, &values);
        let mut best = 0.0f64;
        for_each_subset_up_to(&atoms, k, true, |negated| {
            let knowledge = Knowledge::from_implications(negated.iter().map(|a| {
                let witness = values
                    .iter()
                    .copied()
                    .find(|&w| w != a.value)
                    .unwrap_or(SValue(a.value.0 + 1));
                BasicImplication::negated_atom(a.person, a.value, witness).unwrap()
            }));
            if let Some((v, _)) = cost_disclosure_risk(&space, &knowledge, &costs_f).unwrap() {
                if v > best {
                    best = v;
                }
            }
        });
        prop_assert!(
            (closed.value - best).abs() < 1e-9,
            "closed {} vs exhaustive {} (k={k}, costs {:?})",
            closed.value, best, costs_f
        );
    }

    /// Histogram invariants: sorted descending, prefix sums consistent.
    #[test]
    fn histogram_invariants(vals in prop::collection::vec(0u32..8, 1..=20)) {
        let values: Vec<SValue> = vals.iter().copied().map(SValue).collect();
        let h = SensitiveHistogram::from_values(&values);
        prop_assert_eq!(h.n() as usize, vals.len());
        let counts = h.counts_desc();
        prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        prop_assert_eq!(counts.iter().sum::<u64>(), h.n());
        for j in 0..=h.distinct() {
            prop_assert_eq!(h.top_sum(j), counts[..j].iter().sum::<u64>());
        }
        prop_assert!(h.entropy() >= -1e-12);
        prop_assert!(h.entropy() <= (h.distinct() as f64).ln() + 1e-12);
    }

    /// The histogram-set path looks each distinct key up once; on buckets
    /// that mostly repeat keys it must still give the per-bucket path's
    /// value, bit for bit, and the same cache traffic.
    #[test]
    fn set_path_equals_bucketization_path(b in repetitive_bucketization(), k in 0usize..=5) {
        let per_bucket = DisclosureEngine::new(k);
        let per_key = DisclosureEngine::new(k);
        let set = HistogramSet::from_bucketization(&b);
        for _ in 0..2 {
            let costs: Vec<BucketCosts> =
                b.buckets().iter().map(|x| per_bucket.costs(x.histogram())).collect();
            let want = 1.0 / (1.0 + minimize2(&costs, k).r_min);
            let got = per_key.max_disclosure_value_set(&set).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(got.to_bits(), max_disclosure(&b, k).unwrap().value.to_bits());
            prop_assert_eq!(per_key.cache_stats(), per_bucket.cache_stats());
        }
        prop_assert_eq!(per_key.stats().saturated, 0);
    }

    /// The engine equals the DP over every bucket's MINIMIZE1 values at
    /// realistic sizes, saturated (`k + 1 ≥ d_min`) or not: value bits,
    /// `r_min` bits and the allocation a witness is built from.
    #[test]
    fn engine_equals_the_dp_at_realistic_sizes(set in realistic_set(), k_seed in 0usize..=31) {
        let d_max = set.histograms().iter().map(SensitiveHistogram::distinct).max().unwrap();
        let k = k_seed % (2 * d_max + 4);
        let costs: Vec<BucketCosts> = set
            .histograms()
            .iter()
            .map(|h| BucketCosts::new(minimize1_values(h, k + 1), h.frequency(0), h.n()))
            .collect();
        let want = minimize2(&costs, k);
        let engine = DisclosureEngine::new(k);
        let got = engine.allocation_set(&set).unwrap();
        prop_assert_eq!(got.r_min.to_bits(), want.r_min.to_bits(), "k={}", k);
        prop_assert_eq!(&got.allocation, &want.allocation, "k={}", k);
        let value = engine.max_disclosure_value_set(&set).unwrap();
        prop_assert_eq!(value.to_bits(), want.value().to_bits(), "k={}", k);
        let saturated = k + 1 >= set.min_distinct();
        prop_assert_eq!(engine.stats().saturated, if saturated { 2 } else { 0 });
    }
}
