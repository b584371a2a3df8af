//! Result shapes, the metric catalogue, percentile rules and the JSON
//! the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Latency limit a closed-loop operation must meet to count toward
/// `goodput_rps` (the service sets its own, `service::GOODPUT_LIMIT_S`).
pub const GOODPUT_LIMIT_S: f64 = 0.5;

/// Percentiles a `.tail` metric may use, in per mille, highest last.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a tail percentile.
const TAIL_BEYOND: usize = 10;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("order.preorder_s", "s"),
    ("symbolic.analyze_s", "s"),
    ("symbolic.fill_s", "s"),
    ("symbolic.schedule_s", "s"),
    ("symbolic.levels", "count"),
    ("symbolic.nnz_lu", "count"),
    ("numeric.factor_s", "s"),
    ("numeric.refactor_s.p50", "s"),
    ("trisolve.apply_s.p50", "s"),
    ("trisolve.applies", "count"),
    ("trisolve.time_share", "ratio"),
    ("trisolve.gbps_computed", "GB/s"),
    ("trisolve.stream_ratio_computed", "ratio"),
    ("trisolve.team_apply_s", "s"),
    ("spmv.matvec_s.p50", "s"),
    ("spmv.matvecs", "count"),
    ("spmv.gbps_computed", "GB/s"),
    ("spmv.stream_ratio_computed", "ratio"),
    ("krylov.iterations", "count"),
    ("krylov.other_s", "s"),
    ("service.queue_wait_s.p50", "s"),
    ("service.process_s.p50", "s"),
    ("service.batches", "count"),
    ("service.panel_width.mean", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.refactors", "count"),
    ("service.retries", "count"),
    ("loadgen.late_s.max", "s"),
    ("ref.team_step_s.p50", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Named metric values of one run; only catalogue names are accepted.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `catalogue`, starting at 0.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        let values = catalogue.iter().map(|&(name, _)| (name, 0.0)).collect();
        Metrics { catalogue, values }
    }

    /// Sets one metric.
    ///
    /// # Panics
    /// When `name` is not in the catalogue (a typo in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        *slot.1 = value;
    }

    /// The current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, &(name, unit)) in self.catalogue.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(self.values[name])
            );
        }
        s.push('}');
        s
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (solves, steps or requests).
    pub attempted: u64,
    /// Operations that failed: typed errors, non-convergence, or an
    /// answer the oracle rejected.
    pub failed: u64,
    /// False when a check other than a per-operation one failed (a
    /// bitwise mismatch, or traced iterations differing from untraced).
    pub correct: bool,
    /// End-to-end or per-layer values, by run kind.
    pub metrics: Metrics,
    /// Free-form facts for the log (percentile used, rates, sizes).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, print as 0 and are flagged by the caller).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile `p` (0–100) of `v` (sorted in place); 0 for
/// an empty sample.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `.tail` rule: the highest percentile of the ladder with at least
/// ten of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|pm| n * (1000 - pm) >= TAIL_BEYOND * 1000)
        .unwrap_or(TAIL_LADDER[0]);
    per_mille as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [40, 100, 137, 200, 650, 1000, 20_000] {
            let p = tail_percentile(n);
            assert!(n as f64 * (100.0 - p) >= 999.999, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 99.9), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.25);
        let o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: m,
            notes: Vec::new(),
        };
        let line = o.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(&END_TO_END).set("latency_ms", 1.0);
    }
}
