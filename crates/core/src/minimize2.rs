//! MINIMIZE2 — distributing the `k+1` atoms across buckets
//! (Section 3.3.3, Algorithm 2).
//!
//! Formula (1) to minimize is `Pr(¬A ∧ ∧_{i∈[k]} ¬A_i | B) / Pr(A | B)`.
//! Because per-bucket permutations are independent, if `c_b` of the atoms
//! fall in bucket `b` and the consequent `A` falls in bucket `j`, the value
//! factorizes as
//!
//! ```text
//!   (n_j / n_j(s⁰_j)) · MINIMIZE1(j, c_j + 1) · ∏_{b ≠ j} MINIMIZE1(b, c_b)
//! ```
//!
//! (Section 3.3.2 shows the optimal `A` is the bucket's most frequent value:
//! one of the minimizing `c_j + 1` atoms mentions `s⁰_j` by Lemma 12, and
//! choosing it as `A` simultaneously maximizes the denominator `Pr(A|B)`.)
//!
//! ### Saturation
//!
//! `MINIMIZE1(b, c) = +0` exactly when `c ≥ d_b`, the bucket's distinct
//! value count. Hosting `A` behind `d_b − 1` atoms in a bucket with
//! `d_b ≤ k + 1` therefore makes Formula (1) zero, so `r_min = +0` and the
//! disclosure is exactly 1 when `k + 1 ≥ d_min`. Below that every cell the
//! DP reads is positive (only a product underflowing to `0.0` could reach
//! zero). [`DisclosureEngine`](crate::DisclosureEngine) prices a saturated
//! set from `d_min` alone and rebuilds the allocation this DP's tie-break
//! takes there: `A` in the **last** bucket `i*` with `d ≤ k + 1`, behind
//! `d_{i*} − 1` atoms (all `k` when `i*` is the last bucket), and the
//! remaining atoms placed by `place_antecedents` over the buckets after
//! `i*`. Each of those has `d > k + 1`, so the DP only ever runs below
//! saturation.
//!
//! ### Errata relative to the paper's pseudocode
//!
//! Algorithm 2 as printed has two defects, corrected here and documented in
//! `DESIGN.md`:
//!
//! 1. its base case (`i = |B|`) returns `rmin` (initialized `∞`)
//!    unconditionally — every value would be `∞`. The intended base case
//!    returns `1` when no atoms remain **and** `A` has been placed, else `∞`;
//! 2. the text invokes `MINIMIZE2(0, k, true)` while the parameter block says
//!    `a` is *initially false*; with `a = true` the consequent would never be
//!    placed. The correct initial flag is `a = false` (`A` not yet placed).

use std::borrow::Borrow;

/// Per-bucket inputs to the cross-bucket DP.
#[derive(Debug, Clone)]
pub struct BucketCosts {
    /// `m1[c]` for `c = 0..=k+1` (the MINIMIZE1 values).
    pub m1: Vec<f64>,
    /// `n_b / n_b(s⁰_b)` = `1 / Pr(A | B)` for the bucket's best consequent.
    pub rho: f64,
}

impl BucketCosts {
    /// Costs from a bucket's MINIMIZE1 values and its histogram ratio.
    pub fn new(m1: Vec<f64>, top_frequency: u64, n: u64) -> Self {
        debug_assert!(top_frequency > 0 && n >= top_frequency);
        Self {
            m1,
            rho: n as f64 / top_frequency as f64,
        }
    }
}

/// Where the witness atoms land, per bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketAllocation {
    /// Bucket index.
    pub bucket: usize,
    /// Number of antecedent atoms placed in this bucket.
    pub atoms: usize,
    /// Whether the consequent atom `A` lives in this bucket.
    pub has_consequent: bool,
}

/// Result of the cross-bucket minimization.
#[derive(Debug, Clone)]
pub struct Minimize2Result {
    /// The minimum of Formula (1) over all placements, `r_min ∈ [0, ∞)`.
    pub r_min: f64,
    /// A minimizing allocation (buckets with `atoms = 0` and no consequent
    /// are omitted).
    pub allocation: Vec<BucketAllocation>,
}

impl Minimize2Result {
    /// The maximum disclosure `1 / (1 + r_min)`.
    pub fn value(&self) -> f64 {
        to_disclosure(self.r_min)
    }
}

/// The maximum disclosure for a minimized Formula (1) value.
#[inline]
pub(crate) fn to_disclosure(r_min: f64) -> f64 {
    1.0 / (1.0 + r_min)
}

/// Runs the corrected Algorithm 2 over `buckets` with `k` antecedent atoms.
///
/// `buckets[b].m1` must cover `c = 0..=k+1`. Runs in `O(|B| · k²)` time and
/// `O(|B| · k)` space (the suffix table is kept for reconstruction).
///
/// Generic over owned or borrowed costs (`&[BucketCosts]`,
/// `&[&BucketCosts]`, …) so callers holding cached entries — the
/// [`DisclosureEngine`](crate::DisclosureEngine) hot path — need not clone a
/// `BucketCosts` per bucket per evaluation.
pub fn minimize2<B: Borrow<BucketCosts>>(buckets: &[B], k: usize) -> Minimize2Result {
    let suffix = SuffixTable::build(buckets, k);
    let r_min = suffix.get(0, k, false);
    let allocation = suffix.reconstruct(buckets, k, false);
    Minimize2Result { r_min, allocation }
}

/// The allocation [`minimize2`]'s reconstruction takes over `buckets` for
/// `atoms` antecedent atoms once `A` is placed in an earlier bucket — its
/// walk from `S(i, atoms, placed)` on, over a slice of the buckets. Each
/// suffix-table cell depends only on later buckets and fewer atoms, so a
/// table over the slice sized by `atoms` holds the same bits as the full
/// table's cells there, and the walk makes the same choices. Bucket
/// indices are relative to the slice.
pub(crate) fn place_antecedents<B: Borrow<BucketCosts>>(
    buckets: &[B],
    atoms: usize,
) -> Vec<BucketAllocation> {
    SuffixTable::build(buckets, atoms).reconstruct(buckets, atoms, true)
}

/// `r_min` alone, by the same recurrence as [`SuffixTable`] but keeping only
/// two rows: `O(k)` space instead of `O(|B| · k)`, for callers that need no
/// witness. Bit-identical to `minimize2(buckets, k).r_min`.
pub(crate) fn minimize2_value<B: Borrow<BucketCosts>>(buckets: &[B], k: usize) -> f64 {
    let mut next = base_row(k);
    let mut row = vec![f64::INFINITY; row_width(k)];
    for b in buckets.iter().rev() {
        step(b.borrow(), &next, &mut row, k);
        std::mem::swap(&mut next, &mut row);
    }
    next[2 * k]
}

/// Cells per DP row: `(k+1)` remaining-atom counts × the `placed` flag,
/// laid out as `h * 2 + placed`.
fn row_width(k: usize) -> usize {
    (k + 1) * 2
}

/// The row past the last bucket — the corrected base case: only "all atoms
/// used and A placed" costs 1, everything else is infeasible.
fn base_row(k: usize) -> Vec<f64> {
    let mut row = vec![f64::INFINITY; row_width(k)];
    row[1] = 1.0;
    row
}

/// One bucket's step of the suffix DP: fills `row` = `S(i, ·, ·)` from
/// `next` = `S(i+1, ·, ·)`. For each cell it tries every split `c` of the
/// remaining atoms and, when `A` is still unplaced, the option of hosting it
/// here.
fn step(b: &BucketCosts, next: &[f64], row: &mut [f64], k: usize) {
    for h in 0..=k {
        for placed in [false, true] {
            let mut best = f64::INFINITY;
            for c in 0..=h {
                // A not in this bucket.
                let skip = b.m1[c] * next[(h - c) * 2 + usize::from(placed)];
                if skip < best {
                    best = skip;
                }
                // A in this bucket (only if not placed earlier).
                if !placed {
                    let host = b.m1[c + 1] * b.rho * next[(h - c) * 2 + 1];
                    if host < best {
                        best = host;
                    }
                }
            }
            row[h * 2 + usize::from(placed)] = best;
        }
    }
}

/// The suffix DP `S(i, h, placed)`: minimum cost of buckets `i..`, given `h`
/// atoms remain to place and `placed` says whether `A` was already placed in
/// a bucket `< i`.
///
/// This is Algorithm 2's memo table (flag sense inverted to "already
/// placed"), kept whole so [`minimize2`] can walk it back to an allocation.
struct SuffixTable {
    n_buckets: usize,
    k: usize,
    /// `s[(i, h, a)]`, dimensions `(n_buckets+1) × (k+1) × 2`.
    s: Vec<f64>,
}

impl SuffixTable {
    /// Builds the table bottom-up from the last bucket.
    fn build<B: Borrow<BucketCosts>>(buckets: &[B], k: usize) -> Self {
        let n_buckets = buckets.len();
        let width = row_width(k);
        let mut s = vec![f64::INFINITY; (n_buckets + 1) * width];
        s[n_buckets * width..].copy_from_slice(&base_row(k));
        for i in (0..n_buckets).rev() {
            let (head, next) = s.split_at_mut((i + 1) * width);
            step(
                buckets[i].borrow(),
                &next[..width],
                &mut head[i * width..],
                k,
            );
        }
        Self { n_buckets, k, s }
    }

    /// Looks up `S(i, h, placed)`.
    #[inline]
    fn get(&self, i: usize, h: usize, placed: bool) -> f64 {
        self.s[i * row_width(self.k) + h * 2 + usize::from(placed)]
    }

    /// Walks the table from `S(0, h, placed)` to recover a minimizing
    /// allocation.
    fn reconstruct<B: Borrow<BucketCosts>>(
        &self,
        buckets: &[B],
        mut h: usize,
        mut placed: bool,
    ) -> Vec<BucketAllocation> {
        let mut out = Vec::new();
        for (i, entry) in buckets.iter().enumerate().take(self.n_buckets) {
            let b: &BucketCosts = entry.borrow();
            let here = self.get(i, h, placed);
            if !here.is_finite() {
                break; // infeasible (cannot happen for valid inputs)
            }
            let mut chosen: Option<(usize, bool)> = None;
            'search: for c in 0..=h {
                let skip = b.m1[c] * self.get(i + 1, h - c, placed);
                if skip == here {
                    chosen = Some((c, false));
                    break 'search;
                }
                if !placed {
                    let host = b.m1[c + 1] * b.rho * self.get(i + 1, h - c, true);
                    if host == here {
                        chosen = Some((c, true));
                        break 'search;
                    }
                }
            }
            let (c, hosts) = chosen.expect("a transition produced the stored optimum");
            if c > 0 || hosts {
                out.push(BucketAllocation {
                    bucket: i,
                    atoms: c,
                    has_consequent: hosts,
                });
            }
            h -= c;
            if hosts {
                placed = true;
            }
        }
        out
    }
}

/// Exhaustive reference: enumerate every split of `k` atoms over buckets and
/// every consequent bucket. Exponential in `|B|` — tests only.
pub fn brute_force(buckets: &[BucketCosts], k: usize) -> f64 {
    fn rec(buckets: &[BucketCosts], i: usize, h: usize, placed: bool) -> f64 {
        if i == buckets.len() {
            return if h == 0 && placed { 1.0 } else { f64::INFINITY };
        }
        let mut best = f64::INFINITY;
        for c in 0..=h {
            let tail = rec(buckets, i + 1, h - c, placed);
            let v = buckets[i].m1[c] * tail;
            if v < best {
                best = v;
            }
            if !placed {
                let tail = rec(buckets, i + 1, h - c, true);
                let v = buckets[i].m1[c + 1] * buckets[i].rho * tail;
                if v < best {
                    best = v;
                }
            }
        }
        best
    }
    rec(buckets, 0, k, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize1::minimize1_values;
    use crate::SensitiveHistogram;
    use proptest::prelude::*;
    use wcbk_table::SValue;

    fn costs(vals: &[u32], kmax: usize) -> BucketCosts {
        let v: Vec<SValue> = vals.iter().map(|&x| SValue(x)).collect();
        let h = SensitiveHistogram::from_values(&v);
        BucketCosts::new(minimize1_values(&h, kmax), h.frequency(0), h.n())
    }

    /// Figure 3: male {0,0,1,1,2}, female {0,0,3,4,5}.
    fn figure3(k: usize) -> Vec<BucketCosts> {
        vec![
            costs(&[0, 0, 1, 1, 2], k + 1),
            costs(&[0, 0, 3, 4, 5], k + 1),
        ]
    }

    #[test]
    fn k0_reduces_to_top_frequency() {
        // r_min = min_b (n_b - f0)/f0; disclosure = f0/n = 2/5 for both.
        let r = minimize2(&figure3(0), 0);
        assert!((r.r_min - 1.5).abs() < 1e-12); // (5-2)/2
        let disclosure = 1.0 / (1.0 + r.r_min);
        assert!((disclosure - 0.4).abs() < 1e-12);
    }

    #[test]
    fn k1_on_figure3_gives_two_thirds() {
        // Same-bucket negation-style implication: m1(2)·rho = (1/5)(5/2) = 1/2,
        // beating the cross-bucket 9/10. Disclosure = 1/(1+1/2) = 2/3.
        let r = minimize2(&figure3(1), 1);
        assert!((r.r_min - 0.5).abs() < 1e-12);
        assert!((1.0 / (1.0 + r.r_min) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cross_bucket_value_is_candidate() {
        // The paper's worked example: A in bucket 0, one atom in bucket 1:
        // m1_b1(1)·[m1_b0(1)·rho_0] = (3/5)·(3/5)·(5/2) = 9/10 → 10/19.
        // Confirm by excluding same-bucket options: restrict bucket 0's m1
        // so 2 atoms there are impossible.
        let mut b = figure3(1);
        b[0].m1[2] = f64::INFINITY;
        b[1].m1[2] = f64::INFINITY;
        let r = minimize2(&b, 1);
        assert!((r.r_min - 0.9).abs() < 1e-12);
        assert!((1.0 / (1.0 + r.r_min) - 10.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_style_cases() {
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0, 0, 1], vec![2, 3]],
            vec![vec![0, 0, 0], vec![1, 2], vec![3, 3, 4, 5]],
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![5, 5, 5]],
        ];
        for bucket_vals in cases {
            for k in 0..=4usize {
                let buckets: Vec<BucketCosts> =
                    bucket_vals.iter().map(|v| costs(v, k + 1)).collect();
                let dp = minimize2(&buckets, k).r_min;
                let bf = brute_force(&buckets, k);
                assert!(
                    (dp - bf).abs() < 1e-12 || (!dp.is_finite() && !bf.is_finite()),
                    "buckets {bucket_vals:?} k={k}: dp={dp} bf={bf}"
                );
            }
        }
    }

    #[test]
    fn allocation_is_consistent_and_reproduces_value() {
        let buckets = figure3(3);
        let r = minimize2(&buckets, 3);
        let total_atoms: usize = r.allocation.iter().map(|a| a.atoms).sum();
        assert_eq!(total_atoms, 3);
        assert_eq!(r.allocation.iter().filter(|a| a.has_consequent).count(), 1);
        // Recompute the product from the allocation.
        let mut v = 1.0;
        for a in &r.allocation {
            let b = &buckets[a.bucket];
            if a.has_consequent {
                v *= b.m1[a.atoms + 1] * b.rho;
            } else {
                v *= b.m1[a.atoms];
            }
        }
        assert!((v - r.r_min).abs() < 1e-12);
    }

    #[test]
    fn single_bucket_all_values_equal_discloses_immediately() {
        let buckets = vec![costs(&[4, 4, 4], 1)];
        let r = minimize2(&buckets, 0);
        // m1(1) = 0, rho = 1 → r_min = 0 → disclosure 1.
        assert_eq!(r.r_min, 0.0);
        assert_eq!(1.0 / (1.0 + r.r_min), 1.0);
    }

    #[test]
    fn r_min_is_monotone_nonincreasing_in_k() {
        let mut prev = f64::INFINITY;
        for k in 0..=6 {
            let r = minimize2(&figure3(k), k).r_min;
            assert!(r <= prev + 1e-15, "k={k}");
            prev = r;
        }
    }

    /// Every descending count vector with 1..=4 distinct values, each count
    /// in 1..=3 (34 histogram keys).
    fn small_keys() -> Vec<Vec<u64>> {
        let mut keys: Vec<Vec<u64>> = vec![vec![]];
        let mut all = Vec::new();
        for _ in 0..4 {
            keys = keys
                .iter()
                .flat_map(|key| {
                    let cap = key.last().copied().unwrap_or(3);
                    (1..=cap).map(move |c| {
                        let mut next = key.clone();
                        next.push(c);
                        next
                    })
                })
                .collect();
            all.extend(keys.iter().cloned());
        }
        all
    }

    /// Bucket sequences over `n` costs: every ordered sequence of up to 3
    /// (so every ordering of small inputs) and every multiset of 4, as an
    /// index list.
    fn sequences(n: usize) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = Vec::new();
        let mut layer: Vec<Vec<usize>> = vec![vec![]];
        for _ in 0..3 {
            layer = layer
                .iter()
                .flat_map(|seq| {
                    (0..n).map(move |i| {
                        let mut next = seq.clone();
                        next.push(i);
                        next
                    })
                })
                .collect();
            out.extend(layer.iter().cloned());
        }
        for seq in &layer {
            if seq.windows(2).all(|w| w[0] <= w[1]) {
                out.extend((seq[2]..n).map(|i| [&seq[..], &[i]].concat()));
            }
        }
        out
    }

    /// The rolling-row value DP equals the suffix table's `r_min` bit for
    /// bit, on up to 4 buckets drawn from the small keys, at every `k ≤ 6`.
    #[test]
    fn rolling_value_equals_suffix_table_exhaustively() {
        let keys = small_keys();
        assert_eq!(keys.len(), 34);
        let sequences = sequences(keys.len());
        // 34 + 34² + 34³ ordered, C(37, 4) multisets of 4.
        assert_eq!(sequences.len(), 34 + 34 * 34 + 34 * 34 * 34 + 66_045);
        for k in 0..=6usize {
            let costs: Vec<BucketCosts> = keys
                .iter()
                .map(|key| {
                    let h = SensitiveHistogram::from_counts(
                        key.iter().enumerate().map(|(v, &c)| (SValue(v as u32), c)),
                    );
                    BucketCosts::new(minimize1_values(&h, k + 1), h.frequency(0), h.n())
                })
                .collect();
            for seq in &sequences {
                let buckets: Vec<&BucketCosts> = seq.iter().map(|&i| &costs[i]).collect();
                let want = minimize2(&buckets, k).r_min;
                let got = minimize2_value(&buckets, k);
                assert_eq!(got.to_bits(), want.to_bits(), "k={k} buckets {seq:?}");
            }
        }
    }

    /// The engine's closed form on saturated sets (`k + 1 ≥ d_min`) equals
    /// the DP over every bucket's MINIMIZE1 values, exhaustively on up to
    /// 4 buckets drawn from the small keys at every `k ≤ 7`: value bits,
    /// `r_min` bits and allocation. Below saturation the engine runs the
    /// DP itself, so those cases are checked too.
    #[test]
    fn saturated_closed_form_equals_the_dp_exhaustively() {
        let keys = small_keys();
        let histograms: Vec<SensitiveHistogram> = keys
            .iter()
            .map(|key| {
                SensitiveHistogram::from_counts(
                    key.iter().enumerate().map(|(v, &c)| (SValue(v as u32), c)),
                )
            })
            .collect();
        let sequences = sequences(keys.len());
        let sets: Vec<crate::HistogramSet> = sequences
            .iter()
            .map(|seq| {
                let buckets = seq.iter().map(|&i| histograms[i].clone()).collect();
                crate::HistogramSet::new(buckets, 4).unwrap()
            })
            .collect();
        let registry = crate::EngineRegistry::new();
        let mut saturated = 0;
        for k in 0..=7usize {
            let costs: Vec<BucketCosts> = histograms
                .iter()
                .map(|h| BucketCosts::new(minimize1_values(h, k + 1), h.frequency(0), h.n()))
                .collect();
            let engine = registry.engine(k);
            for (set, seq) in sets.iter().zip(&sequences) {
                let buckets: Vec<&BucketCosts> = seq.iter().map(|&i| &costs[i]).collect();
                let want = minimize2(&buckets, k);
                let got = engine.allocation_set(set).unwrap();
                assert_eq!(got.r_min.to_bits(), want.r_min.to_bits(), "k={k} {seq:?}");
                assert_eq!(got.allocation, want.allocation, "k={k} {seq:?}");
                let value = engine.max_disclosure_value_set(set).unwrap();
                assert_eq!(value.to_bits(), want.value().to_bits(), "k={k} {seq:?}");
                saturated += usize::from(k + 1 >= set.min_distinct());
            }
        }
        assert_eq!(registry.stats().saturated, 2 * saturated as u64);
        assert!(saturated > sets.len(), "{saturated} saturated cases");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Realistic sizes, arbitrary costs: infinite and zero cells (whose
        /// products with infinity are NaN), ties and `rho ≥ 1`.
        #[test]
        fn rolling_value_equals_suffix_table_on_arbitrary_costs(
            k in 0usize..=9,
            cells in prop::collection::vec((0u32..=12, 1u32..=40), 1..=300),
        ) {
            let width = k + 2;
            let buckets: Vec<BucketCosts> = cells
                .chunks(width)
                .map(|chunk| {
                    let cell = |i: usize| {
                        let (v, _) = chunk[i % chunk.len()];
                        match v {
                            0 => f64::INFINITY,
                            11 => 0.0,
                            12 => 1.0,
                            _ => f64::from(v) / 10.0,
                        }
                    };
                    BucketCosts {
                        m1: (0..width).map(cell).collect(),
                        rho: f64::from(chunk[0].1) / 4.0,
                    }
                })
                .collect();
            let want = minimize2(&buckets, k).r_min;
            let got = minimize2_value(&buckets, k);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "k={} buckets={}", k, buckets.len());
        }
    }

    #[test]
    fn suffix_table_exposes_consistent_entries() {
        let buckets = figure3(2);
        let s = SuffixTable::build(&buckets, 2);
        assert_eq!(s.n_buckets, 2);
        // Full problem at (0, k, false).
        assert!((s.get(0, 2, false) - minimize2(&buckets, 2).r_min).abs() < 1e-15);
        // Base cases.
        assert_eq!(s.get(2, 0, true), 1.0);
        assert!(!s.get(2, 0, false).is_finite());
        assert!(!s.get(2, 1, true).is_finite());
    }
}
