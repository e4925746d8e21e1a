//! (c,k)-safety (Definition 13).
//!
//! A bucketization `B` is **(c,k)-safe** when its maximum disclosure with
//! respect to `L^k_basic` is *strictly less than* the threshold `c`. By
//! Theorem 14 safety is upward-closed under coarsening, so it plugs into the
//! lattice-search machinery of `wcbk-anonymize` the same way k-anonymity
//! plugs into Incognito.

use crate::{Bucketization, CoreError, DisclosureEngine, HistogramSet};

/// The (c,k)-safety criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkSafety {
    c: f64,
    k: usize,
}

impl CkSafety {
    /// Creates the criterion, validating `c ∈ (0, 1]`.
    ///
    /// (`c = 1` demands only that nothing is *fully* disclosed; smaller `c`
    /// is stricter. `c ≤ 0` would be unsatisfiable.)
    pub fn new(c: f64, k: usize) -> Result<Self, CoreError> {
        if !(c > 0.0 && c <= 1.0) {
            return Err(CoreError::InvalidThreshold(c));
        }
        Ok(Self { c, k })
    }

    /// The disclosure threshold `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The attacker power bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Checks safety, computing maximum disclosure from scratch through a
    /// private engine (no witness is built).
    pub fn is_safe(&self, b: &Bucketization) -> Result<bool, CoreError> {
        self.is_safe_set(
            &DisclosureEngine::new(self.k),
            &HistogramSet::from_bucketization(b),
        )
    }

    /// Checks safety of a histogram-only view through a memoizing
    /// [`DisclosureEngine`], which reuses MINIMIZE1 values across sets that
    /// share histograms (the common case during lattice search).
    pub fn is_safe_set(
        &self,
        engine: &DisclosureEngine,
        h: &HistogramSet,
    ) -> Result<bool, CoreError> {
        // Cheap necessary condition first: disclosure ≥ max frequency ratio,
        // so an unsafe k=0 bound short-circuits the DP. A saturated set
        // (k + 1 ≥ d_min) is next: its value is 1.0 with no cache lookup.
        if h.max_frequency_ratio() >= self.c {
            return Ok(false);
        }
        Ok(engine.max_disclosure_value_set(h)? < self.c)
    }
}

/// Convenience: is `b` (c,k)-safe?
///
/// ```
/// use wcbk_core::{is_ck_safe, Bucketization};
/// use wcbk_table::datasets::{hospital_bucket_of, hospital_table};
///
/// let table = hospital_table();
/// let buckets = Bucketization::from_grouping(&table, hospital_bucket_of)?;
/// // Max disclosure at k=1 is 2/3: safe below 0.7, not below 0.6.
/// assert!(is_ck_safe(&buckets, 0.7, 1)?);
/// assert!(!is_ck_safe(&buckets, 0.6, 1)?);
/// # Ok::<(), wcbk_core::CoreError>(())
/// ```
pub fn is_ck_safe(b: &Bucketization, c: f64, k: usize) -> Result<bool, CoreError> {
    CkSafety::new(c, k)?.is_safe(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    #[test]
    fn threshold_validation() {
        assert!(CkSafety::new(0.0, 1).is_err());
        assert!(CkSafety::new(-0.3, 1).is_err());
        assert!(CkSafety::new(1.1, 1).is_err());
        assert!(CkSafety::new(1.0, 1).is_ok());
        assert!(CkSafety::new(f64::NAN, 1).is_err());
    }

    #[test]
    fn figure3_safety_boundaries() {
        let b = figure3();
        // Max disclosure: k=0 → 0.4, k=1 → 2/3, k=2 → 1.
        assert!(is_ck_safe(&b, 0.5, 0).unwrap());
        assert!(!is_ck_safe(&b, 0.4, 0).unwrap()); // strict inequality
        assert!(is_ck_safe(&b, 0.7, 1).unwrap());
        assert!(!is_ck_safe(&b, 0.6, 1).unwrap());
        assert!(!is_ck_safe(&b, 1.0, 2).unwrap()); // disclosure hits 1
    }

    #[test]
    fn safety_is_antitone_in_k_and_monotone_in_c() {
        let b = figure3();
        // Larger k can only break safety.
        assert!(is_ck_safe(&b, 0.5, 0).unwrap());
        assert!(!is_ck_safe(&b, 0.5, 1).unwrap());
        // Larger c can only grant safety.
        assert!(!is_ck_safe(&b, 0.41, 1).unwrap());
        assert!(is_ck_safe(&b, 0.99, 1).unwrap());
    }

    #[test]
    fn short_circuit_on_frequency_ratio() {
        // c below the k=0 ratio: unsafe regardless of k, no DP needed.
        let b = figure3();
        assert!(!is_ck_safe(&b, 0.3, 0).unwrap());
        assert!(!is_ck_safe(&b, 0.3, 5).unwrap());
    }
}
