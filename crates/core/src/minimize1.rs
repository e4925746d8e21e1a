//! MINIMIZE1 — minimizing `Pr(∧_{i∈[k]} ¬A_i | B)` within one bucket
//! (Section 3.3.1, Algorithm 1, Lemma 12).
//!
//! A set of `k` atoms inside bucket `b` is characterized by a *profile*
//! `(l, k_0 ≥ k_1 ≥ … ≥ k_{l-1})`: `l` distinct persons, the `i`-th carrying
//! `k_i` atoms. Lemma 12 says the minimum over all atom choices for a fixed
//! profile is attained by giving person `i` the `k_i` **most frequent**
//! values, yielding the closed form
//!
//! ```text
//!   ∏_{i∈[l]} (n_b − i − Σ_{j∈[k_i]} n_b(s^j_b)) / (n_b − i)
//! ```
//!
//! (each factor clamped at 0 — a non-positive numerator means the conjunction
//! of negations is impossible, i.e. certain disclosure). MINIMIZE1 then
//! minimizes over profiles.
//!
//! Three implementations are provided:
//!
//! * [`paper_recursion`] — a direct transcription of Algorithm 1 (exponential
//!   without memoization; used as a cross-check and in the benches that
//!   demonstrate why memoization matters);
//! * [`Minimize1Table`] — an `O(k³)`-time/-space dynamic program over states
//!   `(i, cap, r)` using the refactored recurrence
//!   `h(i,cap,r) = min( h(i,cap−1,r), factor(i,cap)·h(i+1,cap,r−cap) )`,
//!   which shaves the `O(k)` inner loop of the memoized Algorithm 1. It is
//!   kept for profile (witness) reconstruction;
//! * [`minimize1_values`] — the same recurrence, one person row at a time,
//!   over only `kb = min(k, d_b)` atoms and `kb` persons: the `m1` vector
//!   alone, which is all MINIMIZE2 reads.

use crate::SensitiveHistogram;

/// The Lemma 12 per-person factor: the conditional probability that the
/// `i`-th constrained person avoids the top `c` values, given the previous
/// `i` constrained persons avoided their (superset) targets.
///
/// Returns 0 when the person cannot avoid them (certain disclosure branch)
/// and `None` when `i ≥ n_b` (no `i`-th person exists).
#[inline]
pub fn factor(hist: &SensitiveHistogram, i: usize, c: usize) -> Option<f64> {
    let n = hist.n();
    if (i as u64) >= n {
        return None;
    }
    let avail = n - i as u64;
    let blocked = hist.top_sum(c);
    let free = (n as i128) - (i as i128) - (blocked as i128);
    if free <= 0 {
        Some(0.0)
    } else {
        Some(free as f64 / avail as f64)
    }
}

/// Direct transcription of the paper's Algorithm 1 (plus the implicit
/// feasibility guard `i < n_b`). Exponential in `k` — test/bench use only.
///
/// `MINIMIZE1(b, i, k̂_i, k̂)`: `i` is the next person index, `k̂_i` bounds
/// `k_i` (descending profiles), `k̂` is the number of unplaced atoms.
pub fn paper_recursion(hist: &SensitiveHistogram, i: usize, cap_i: usize, khat: usize) -> f64 {
    if khat == 0 {
        return 1.0;
    }
    let mut pmin = f64::INFINITY;
    for k_i in 1..=cap_i.min(khat) {
        let Some(f) = factor(hist, i, k_i) else {
            // No i-th person: no profile with this many persons exists.
            break;
        };
        let p = f * paper_recursion(hist, i + 1, k_i, khat - k_i);
        pmin = pmin.min(p);
    }
    pmin
}

/// The memoized MINIMIZE1 tables for one bucket: `m1(c)` for `c = 0..=kmax`.
///
/// `m1(c)` is the minimum of `Pr(∧_{i∈[c]} ¬A_i | B)` over all `c`-atom sets
/// within the bucket. The table also supports reconstructing a minimizing
/// profile ([`Minimize1Table::profile`]), from which the witness atoms of
/// Lemma 12 follow.
#[derive(Debug, Clone)]
pub struct Minimize1Table {
    kmax: usize,
    n: u64,
    /// `h[(i, cap, r)]` with dimensions `(kmax+2) × (kmax+1) × (kmax+1)`.
    h: Vec<f64>,
    /// `m1[c] = h(0, c, c)`.
    m1: Vec<f64>,
}

impl Minimize1Table {
    /// Builds the DP table for `hist`, supporting up to `kmax` atoms.
    pub fn build(hist: &SensitiveHistogram, kmax: usize) -> Self {
        Self::build_from(hist, 0, kmax)
    }

    /// The table over persons `first..`: its row `i` holds
    /// `h(first + i, ·, ·)`, exact on every cell with `i + r ≤ kmax`.
    fn build_from(hist: &SensitiveHistogram, first: usize, kmax: usize) -> Self {
        let row_len = (kmax + 1) * (kmax + 1); // (cap, r) ∈ 0..=kmax × 0..=kmax
        let border = border_row(kmax);
        // Persons i ∈ 0..=kmax+1; row kmax+1 keeps its borders (no person).
        let mut h = Vec::with_capacity((kmax + 2) * row_len);
        for _ in 0..kmax + 2 {
            h.extend_from_slice(&border);
        }
        // Fill persons from the back: h(i, ·, ·) depends on h(i+1, ·, ·).
        for i in (0..=kmax).rev() {
            let (head, tail) = h.split_at_mut((i + 1) * row_len);
            step(
                hist,
                first + i,
                &tail[..row_len],
                &mut head[i * row_len..],
                kmax,
            );
        }
        let m1 = (0..=kmax).map(|c| h[c * (kmax + 2)]).collect();
        Self {
            kmax,
            n: hist.n(),
            h,
            m1,
        }
    }

    #[inline]
    fn idx(&self, i: usize, cap: usize, r: usize) -> usize {
        (i * (self.kmax + 1) + cap) * (self.kmax + 1) + r
    }

    /// `m1(c)`: the minimized probability for `c` atoms in this bucket.
    #[inline]
    pub fn m1(&self, c: usize) -> f64 {
        self.m1[c]
    }

    /// The whole `m1` vector, indices `0..=kmax`.
    pub fn values(&self) -> &[f64] {
        &self.m1
    }

    /// Largest supported atom count.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// Reconstructs a minimizing profile `k_0 ≥ k_1 ≥ …` for `c` atoms, or
    /// `None` if `m1(c)` is infeasible (`∞`). Ties prefer smaller `k_i`
    /// (spreading atoms over more persons), which keeps witness atoms within
    /// the bucket's distinct values whenever possible.
    pub fn profile(&self, c: usize) -> Option<Vec<usize>> {
        if c == 0 {
            return Some(Vec::new());
        }
        if !self.m1[c].is_finite() {
            return None;
        }
        let mut out = Vec::new();
        self.walk(c, c, &mut out);
        debug_assert!((out.len() as u64) <= self.n);
        Some(out)
    }

    /// Appends the profile the minimum `h(0, cap, r)` takes, person by
    /// person. Ties prefer smaller `k_i`, as [`Minimize1Table::profile`]
    /// documents.
    fn walk(&self, mut cap: usize, mut r: usize, out: &mut Vec<usize>) {
        let mut i = 0;
        while r > 0 {
            let here = self.h[self.idx(i, cap, r)];
            // Mirror the fill order: the reduce branch wins ties.
            if cap >= 2 && self.h[self.idx(i, cap - 1, r)] <= here {
                cap -= 1;
                continue;
            }
            debug_assert!(cap <= r, "take branch requires cap <= r");
            out.push(cap);
            r -= cap;
            i += 1;
        }
    }
}

/// `Minimize1Table::build(hist, c).profile(c)` in space sized by the bucket
/// rather than by `c`: the witness asks for it at up to `k+1` atoms, and a
/// `c`-sized table holds `(c+2)(c+1)²` f64s.
///
/// Below `c = d_b` the table is built as is. From `c = d_b` on, `m1(c) = 0`
/// and the walk first follows zeros: `h(i, cap, r) = 0` exactly when the
/// `r` atoms fit persons `i..n_b` at `cap` each and some person `j ≥ i`
/// can be ruled out entirely, which takes `z(j) = min{v : top_sum(v) ≥ n_b
/// − j}` atoms on each of persons `i..=j`. The walk takes the least such
/// `cap` (`least_zero_cap`), as the table's tie-break does. If person `i`
/// has factor 0, it held `cap ≥ z(i) ≥ z(i+1)` atoms (`z` is non-increasing),
/// so a positive `h(i+1, cap, r)` forces `r < z(i+1) ≤ d_b`; a table over
/// persons `i+1..` sized by `r` finishes the walk.
///
/// The zero test is exact; the table would agree unless a product of
/// positive factors underflowed to `0.0`, which needs hundreds of factors.
pub fn minimize1_profile(hist: &SensitiveHistogram, c: usize) -> Option<Vec<usize>> {
    if c < hist.distinct() {
        return Minimize1Table::build(hist, c).profile(c);
    }
    let mut out = Vec::new();
    let (mut i, mut cap, mut r) = (0usize, c, c);
    while r > 0 {
        match least_zero_cap(hist, i, r).filter(|&least| least <= cap) {
            Some(least) => {
                out.push(least);
                r -= least;
                i += 1;
                cap = least;
            }
            None => {
                Minimize1Table::build_from(hist, i, r).walk(cap.min(r), r, &mut out);
                break;
            }
        }
    }
    Some(out)
}

/// The least `cap` with `h(i, cap, r) = 0` (see [`minimize1_profile`]), or
/// `None` when no cap makes it 0. At least `⌈r / (n_b − i)⌉` for the atoms
/// to fit, and at least the least `v` for which the first person `j ≥ i`
/// with `z(j) ≤ v` sits within reach: `(j − i + 1) · v ≤ r`.
fn least_zero_cap(hist: &SensitiveHistogram, i: usize, r: usize) -> Option<usize> {
    let (n, i, r64) = (hist.n(), i as u64, r as u64);
    let persons = n.checked_sub(i).filter(|&p| p > 0)?;
    let ruled_out = (1..=hist.distinct()).find(|&v| {
        let j = (n - hist.top_sum(v)).max(i);
        (j - i + 1).saturating_mul(v as u64) <= r64
    })?;
    Some(ruled_out.max(r64.div_ceil(persons) as usize))
}

/// `m1(c)` for `c = 0..=kmax` — bit-identical to
/// `Minimize1Table::build(hist, kmax).values()` — in `O(kb²)` space, where
/// `kb = min(kmax, d_b)` for the bucket's `d_b` distinct values.
///
/// Exact because `m1(c) = h(0, c, c)` depends only on cells with
/// `cap ≤ c` and `i + r ≤ c` (each later person spends at least one atom),
/// so a table over `kb` atoms agrees on `c ≤ kb`, and its person row `kb`
/// is read only at `r = 0`, where it is the border row: the fill covers
/// persons `0..kb`, and `kb ≤ d_b ≤ n_b` persons exist. One person ruling
/// out all `d_b` values has factor 0, so `m1(c) = +0.0` for every
/// `c ≥ d_b`.
pub fn minimize1_values(hist: &SensitiveHistogram, kmax: usize) -> Vec<f64> {
    debug_assert!(hist.n() > 0, "buckets are non-empty");
    let kb = kmax.min(hist.distinct());
    let mut next = border_row(kb);
    let mut row = border_row(kb);
    for i in (0..kb).rev() {
        step(hist, i, &next, &mut row, kb);
        std::mem::swap(&mut next, &mut row);
    }
    let mut m1: Vec<f64> = (0..=kb).map(|c| next[c * (kb + 2)]).collect();
    m1.resize(kmax + 1, 0.0);
    m1
}

/// A person row `h(i, ·, ·)` before its fill, laid out `cap * (kmax+1) + r`:
/// probability 1 for the empty remainder `r = 0`, infeasible elsewhere.
/// Past the last person this is the whole row.
fn border_row(kmax: usize) -> Vec<f64> {
    let w = kmax + 1;
    let mut row = vec![f64::INFINITY; w * w];
    for cap in 0..w {
        row[cap * w] = 1.0;
    }
    row
}

/// One person's step of the DP: fills `row` = `h(i, ·, ·)` from `next` =
/// `h(i+1, ·, ·)` by `h(i,cap,r) = min(h(i,cap−1,r), factor(i,cap)·h(i+1,cap,r−cap))`.
/// Writes only the cells with `cap, r ≥ 1`; the borders stay as
/// [`border_row`] laid them.
fn step(hist: &SensitiveHistogram, i: usize, next: &[f64], row: &mut [f64], kmax: usize) {
    let w = kmax + 1;
    for cap in 1..=kmax {
        let f = factor(hist, i, cap);
        for r in 1..=kmax {
            // Option 1: all persons from i on take < cap atoms.
            let mut best = row[(cap - 1) * w + r];
            // Option 2: person i takes exactly `cap` atoms.
            if let Some(f) = f.filter(|_| cap <= r) {
                let take = f * next[cap * w + r - cap];
                if take < best {
                    best = take;
                }
            }
            row[cap * w + r] = best;
        }
    }
}

/// Brute-force minimum of `Pr(∧ ¬A_i | B)` by enumerating *all* profiles and
/// applying the Lemma 12 closed form — an independent oracle for tests.
pub fn brute_force_profiles(hist: &SensitiveHistogram, k: usize) -> f64 {
    fn rec(hist: &SensitiveHistogram, i: usize, cap: usize, r: usize) -> f64 {
        if r == 0 {
            return 1.0;
        }
        let mut best = f64::INFINITY;
        for c in 1..=cap.min(r) {
            if let Some(f) = factor(hist, i, c) {
                best = best.min(f * rec(hist, i + 1, c, r - c));
            }
        }
        best
    }
    rec(hist, 0, k, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::SValue;

    fn hist(vals: &[u32]) -> SensitiveHistogram {
        let v: Vec<SValue> = vals.iter().map(|&x| SValue(x)).collect();
        SensitiveHistogram::from_values(&v)
    }

    /// Figure 3 male bucket: {Flu:2, LungCancer:2, Mumps:1}.
    fn male() -> SensitiveHistogram {
        hist(&[0, 0, 1, 1, 2])
    }

    #[test]
    fn factors_match_lemma12() {
        let h = male();
        // Person 0 avoiding the top value: (5-0-2)/5 = 3/5.
        assert_eq!(factor(&h, 0, 1), Some(0.6));
        // Person 1 avoiding the top value: (5-1-2)/4 = 1/2.
        assert_eq!(factor(&h, 1, 1), Some(0.5));
        // Person 0 avoiding top two: (5-0-4)/5 = 1/5.
        assert_eq!(factor(&h, 0, 2), Some(0.2));
        // Person 0 avoiding everything: 0.
        assert_eq!(factor(&h, 0, 3), Some(0.0));
        // Sixth person does not exist.
        assert_eq!(factor(&h, 5, 1), None);
    }

    #[test]
    fn m1_base_cases() {
        let t = Minimize1Table::build(&male(), 3);
        assert_eq!(t.m1(0), 1.0);
        // One atom: best is ruling out the most frequent value: 3/5.
        assert!((t.m1(1) - 0.6).abs() < 1e-12);
        // Two atoms: min(1/5 [one person, top-2], 3/5·1/2 [two persons]) = 1/5.
        assert!((t.m1(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn table_matches_paper_recursion() {
        for vals in [
            vec![0u32, 0, 1, 1, 2],
            vec![0, 0, 0, 0],
            vec![0, 1, 2, 3, 4],
            vec![0, 0, 0, 1, 1, 2, 3],
            vec![7],
        ] {
            let h = hist(&vals);
            let kmax = 6;
            let t = Minimize1Table::build(&h, kmax);
            for c in 0..=kmax {
                let direct = paper_recursion(&h, 0, c, c);
                let direct = if c == 0 { 1.0 } else { direct };
                if direct.is_finite() {
                    assert!(
                        (t.m1(c) - direct).abs() < 1e-12,
                        "vals {vals:?} c={c}: table {} vs paper {direct}",
                        t.m1(c)
                    );
                } else {
                    assert!(!t.m1(c).is_finite(), "vals {vals:?} c={c}");
                }
            }
        }
    }

    #[test]
    fn table_matches_brute_force_profiles() {
        for vals in [
            vec![0u32, 0, 1, 2],
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1],
            vec![0, 0, 1, 1, 2, 2, 3],
        ] {
            let h = hist(&vals);
            let t = Minimize1Table::build(&h, 5);
            for c in 0..=5 {
                let bf = brute_force_profiles(&h, c);
                if bf.is_finite() {
                    assert!((t.m1(c) - bf).abs() < 1e-12, "vals {vals:?} c={c}");
                } else {
                    assert!(!t.m1(c).is_finite());
                }
            }
        }
    }

    #[test]
    fn m1_is_monotone_nonincreasing_in_c() {
        let h = hist(&[0, 0, 0, 1, 1, 2, 3, 3]);
        let t = Minimize1Table::build(&h, 8);
        for c in 1..=8 {
            assert!(t.m1(c) <= t.m1(c - 1) + 1e-15, "c={c}");
        }
    }

    #[test]
    fn profile_reconstruction_reproduces_value() {
        let h = hist(&[0, 0, 0, 1, 1, 2, 3]);
        let t = Minimize1Table::build(&h, 6);
        for c in 0..=6 {
            let Some(profile) = t.profile(c) else {
                continue;
            };
            assert_eq!(profile.iter().sum::<usize>(), c);
            assert!(profile.windows(2).all(|w| w[0] >= w[1]), "descending");
            // Recompute the closed form from the profile.
            let mut p = 1.0;
            for (i, &ki) in profile.iter().enumerate() {
                p *= factor(&h, i, ki).expect("profile persons exist");
            }
            assert!((p - t.m1(c)).abs() < 1e-12, "c={c} profile {profile:?}");
        }
    }

    #[test]
    fn single_tuple_bucket_discloses_fully() {
        let h = hist(&[9]);
        let t = Minimize1Table::build(&h, 4);
        // One person; any atom rules out the only value: probability 0.
        for c in 1..=4 {
            assert_eq!(t.m1(c), 0.0, "c={c}");
        }
        assert_eq!(t.profile(2), Some(vec![2]));
    }

    #[test]
    fn uniform_bucket_values() {
        // {0,1,2} uniform: m1(1) = 2/3, m1(2) = min(1/3, 2/3·1/2) = 1/3,
        // m1(3) = min(0, ..) = 0.
        let h = hist(&[0, 1, 2]);
        let t = Minimize1Table::build(&h, 3);
        assert!((t.m1(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.m1(2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.m1(3), 0.0);
    }

    /// Every histogram with 1..=5 distinct values of counts 1..=4, as raw
    /// values: value `j` repeated `counts[j]` times, counts non-increasing.
    fn small_histograms() -> Vec<SensitiveHistogram> {
        fn grow(counts: &mut Vec<u32>, out: &mut Vec<SensitiveHistogram>) {
            if !counts.is_empty() {
                let vals: Vec<u32> = (0u32..)
                    .zip(counts.iter())
                    .flat_map(|(v, &n)| std::iter::repeat_n(v, n as usize))
                    .collect();
                out.push(hist(&vals));
            }
            if counts.len() == 5 {
                return;
            }
            for next in 1..=counts.last().copied().unwrap_or(4) {
                counts.push(next);
                grow(counts, out);
                counts.pop();
            }
        }
        let mut out = Vec::new();
        grow(&mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn values_and_profiles_do_not_depend_on_table_size() {
        let hists = small_histograms();
        assert_eq!(hists.len(), 125);
        for h in &hists {
            for kmax in 0..=12 {
                let full = Minimize1Table::build(h, kmax);
                let values = minimize1_values(h, kmax);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(full.values()), "{h:?} kmax={kmax}");
                for c in 0..=kmax {
                    let sized = Minimize1Table::build(h, c);
                    assert_eq!(sized.profile(c), full.profile(c), "{h:?} c={c} kmax={kmax}");
                    assert_eq!(minimize1_profile(h, c), full.profile(c), "{h:?} c={c}");
                }
            }
        }
    }

    #[test]
    fn values_are_prefix_stable_in_kmax() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for h in &small_histograms() {
            for k2 in 1..=12 {
                let longer = bits(&minimize1_values(h, k2));
                for k1 in 0..k2 {
                    let shorter = bits(&minimize1_values(h, k1));
                    assert_eq!(shorter, longer[..=k1], "{h:?} k1={k1} k2={k2}");
                }
            }
        }
    }

    /// A `c`-sized table at c = 5001 would hold about 1 TB; the profile
    /// spreads the atoms over both persons of the bucket.
    #[test]
    fn huge_atom_counts_profile_in_bucket_space() {
        assert_eq!(
            minimize1_profile(&hist(&[0, 1]), 5001),
            Some(vec![2501, 2500])
        );
        let profile = minimize1_profile(&male(), 5001).unwrap();
        assert_eq!(profile.iter().sum::<usize>(), 5001);
        assert!(profile.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn profile_prefers_spreading_on_ties() {
        // {0,1,2} with c=2: one-person top-2 = 1/3 vs two persons 2/3·1/2 =
        // 1/3 — tie; the reduce branch (spreading) must win.
        let h = hist(&[0, 1, 2]);
        let t = Minimize1Table::build(&h, 2);
        assert_eq!(t.profile(2), Some(vec![1, 1]));
    }
}
