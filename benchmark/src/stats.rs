//! Percentiles, metric naming and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` values, linearly
/// interpolated between the two closest ranks (the "type 7" estimator of
/// R and NumPy). Empty input gives `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Samples strictly above the `q`-quantile position of `n` samples — the
/// tail rule asks for at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((n as f64 * q).ceil() as usize).min(n)
}

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` on one line.
/// Non-finite values (no samples) are reported as 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // 101 samples 0..=100: every integer percentile lands on a sample.
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.9), 90.0);
        assert_eq!(percentile(&ramp, 0.99), 99.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_rule_counts_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(5, 0.5), 2);
    }

    #[test]
    fn names_follow_the_metric_alphabet() {
        assert!(valid_name("hierarchy.scan_rows_per_s"));
        assert!(valid_name("trace.unattributed_share.register"));
        assert!(valid_name("p99-ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_reported_name_is_valid_and_unique() {
        let mut names: Vec<&str> = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER.iter())
            .map(|(name, _)| *name)
            .chain(crate::inputs::WORKLOADS)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "op_ms_mean",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: f64::NAN,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_ms_mean\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        wcbk_serve::Json::parse(&line).expect("valid JSON");
    }
}
