//! Metric names and units, sample summaries, and the two output formats:
//! one human-readable line per metric and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload. `BENCHMARK.json` lists
/// the same names and units, with each metric's direction and bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reports 0, which is itself the check that
/// the workload bypasses it (e.g. `sched.bnb_nodes` outside bnb-small).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.encode_us_p50", "us"),
    ("core.encode_calls", "count"),
    ("core.evaluate_ms_p50", "ms"),
    ("core.evaluate_ms_p90", "ms"),
    ("core.levels_solved", "count"),
    ("sched.solve_ms_p50", "ms"),
    ("sched.solve_ms_p90", "ms"),
    ("sched.bound_us_p50", "us"),
    ("sched.heuristic_jobs_total", "count"),
    ("sched.heuristic_jobs_executed", "count"),
    ("sched.heuristic_skip_ratio", "ratio"),
    ("sched.bnb_nodes", "count"),
    ("sched.bnb_solves", "count"),
    ("sched.bnb_proved", "count"),
    ("sched.bnb_capped", "count"),
    ("sched.bnb_nodes_per_s", "nodes/s"),
    ("sched.bnb_parallel_s", "s"),
    ("sched.bnb_speedup", "ratio"),
    ("sched.pareto_front_points", "count"),
    ("dse.solves", "count"),
    ("dse.cache_hits", "count"),
    ("dse.cache_hit_ratio", "ratio"),
    ("dse.inherited_levels", "count"),
    ("dse.inheritance_hit_rate", "ratio"),
    ("dse.early_terminated_levels", "count"),
    ("dse.point_ms_p50", "ms"),
    ("dse.point_ms_p90", "ms"),
    ("dse.point_ms_max", "ms"),
    ("dse.threads_used", "count"),
    ("dse.hilp_grid_s", "s"),
    ("dse.record_s", "s"),
    ("dse.edit_armed_s", "s"),
    ("dse.identity_s", "s"),
    ("dse.identity_points", "count"),
    ("dse.certified_levels", "count"),
    ("dse.pareto_s", "s"),
    ("baselines.ma_s", "s"),
    ("baselines.gables_s", "s"),
    ("server.daemon_start_ms", "ms"),
    ("server.accept_ms_p50", "ms"),
    ("server.first_point_ms_p50", "ms"),
    ("server.wire_ms_p50", "ms"),
    ("server.job_cold_s", "s"),
    ("server.job_warm_ms", "ms"),
    ("server.replay_ratio", "ratio"),
    ("server.records", "count"),
    ("server.daemon_rss_mb", "MB"),
    ("quality.mean_gap", "ratio"),
    ("quality.max_gap", "ratio"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.gauge_us", "us"),
];

/// The unit of a known metric.
///
/// # Panics
///
/// Panics on a name in neither table: a misspelt metric is a bug in the
/// benchmark, not a measurement.
#[must_use]
pub fn unit(name: &str) -> &'static str {
    known(name)
        .unwrap_or_else(|| panic!("unknown metric {name:?}"))
        .1
}

/// The `(name, unit)` table entry of a known metric.
fn known(name: &str) -> Option<&'static (&'static str, &'static str)> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name)
}

/// Parses one line of [`Report::render_lines`] back into its metric.
#[must_use]
pub fn parse_line(line: &str) -> Option<(&'static str, Metric)> {
    let mut tokens = line.split_whitespace();
    let _workload = tokens.next()?;
    let (name, _) = known(tokens.next()?)?;
    let value = tokens.next()?.parse().ok()?;
    let _unit = tokens.next()?;
    let mut summary = tokens.map(|t| t.trim_matches(|c| c == '(' || c == ')' || c == ','));
    let mut next = |key: &str| -> Option<f64> { summary.next()?.strip_prefix(key)?.parse().ok() };
    Some((
        name,
        Metric {
            value,
            n: next("n=")? as usize,
            p50: next("p50=")?,
            min: next("min=")?,
            max: next("max=")?,
        },
    ))
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One reported metric: its value and a summary of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Median of the samples.
    pub p50: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Metric {
    /// A single measured value (a counter, or one timed step).
    #[must_use]
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            n: 1,
            p50: value,
            min: value,
            max: value,
        }
    }

    /// The `q` quantile of `samples`, summarised.
    #[must_use]
    pub fn quantile_of(samples: &[f64], q: f64) -> Metric {
        Metric {
            value: quantile(samples, q),
            n: samples.len(),
            p50: quantile(samples, 0.5),
            min: quantile(samples, 0.0),
            max: quantile(samples, 1.0),
        }
    }

    /// Multiplies value and summary by `k` (unit conversion).
    #[must_use]
    pub fn scaled(self, k: f64) -> Metric {
        Metric {
            value: self.value * k,
            p50: self.p50 * k,
            min: self.min * k,
            max: self.max * k,
            ..self
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Operations attempted across every pass of the run.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Every metric the run computed, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Records `metric` under a known metric name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name (see [`unit`]).
    pub fn set(&mut self, name: &'static str, metric: Metric) {
        let _ = unit(name);
        self.metrics.insert(name, metric);
    }

    /// Whether every operation passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One line per computed metric:
    /// `workload metric value unit (n=.., p50=.., min=.., max=..)`.
    #[must_use]
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "{} {name} {} {} (n={}, p50={}, min={}, max={})",
                self.workload,
                m.value,
                unit(name),
                m.n,
                m.p50,
                m.min,
                m.max
            );
        }
        out
    }

    /// The one-line JSON result carrying the metrics named in `names`.
    #[must_use]
    pub fn render_result(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).map_or(0.0, |m| m.value);
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The report as a JSON object with every metric's summary, for
    /// `--out` files.
    #[must_use]
    pub fn render_full(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}\n      \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"p50\": {}, \"min\": {}, \"max\": {}}}",
                if i == 0 { "" } else { "," },
                json_number(m.value),
                unit(name),
                m.n,
                json_number(m.p50),
                json_number(m.min),
                json_number(m.max)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}\n    }}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite number in JSON syntax (non-finite values, which no metric
/// should produce, become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 0.5), 2.5);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
