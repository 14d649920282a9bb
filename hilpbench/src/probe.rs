//! Per-layer timings taken from outside the library crates: each public
//! entry point of `hilp-core` and `hilp-sched` is called and timed on its
//! own, serially, on a workload's own inputs.

use std::cell::RefCell;

use hilp_core::{encode, Hilp, HilpError, LevelReport, RefinementObserver};
use hilp_dse::SweepConfig;
use hilp_sched::{lower_bound, solve_with_hints, Instance, SolveHints};
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::Workload;

use crate::metrics::Metric;
use crate::{timed, Pass};

/// Captures the tick and instance of every refinement level.
#[derive(Default)]
struct Levels(RefCell<Vec<(f64, Instance)>>);

impl RefinementObserver for Levels {
    fn level_solved(&self, report: &LevelReport<'_>) {
        self.0
            .borrow_mut()
            .push((report.time_step_seconds, report.instance.clone()));
    }
}

/// Serial timings of the evaluation pipeline, one sample per call.
#[derive(Debug, Clone, Default)]
pub struct PipelineTimes {
    /// `Hilp::evaluate` per SoC (s): unshared, no cache, one thread.
    pub evaluate: Vec<f64>,
    /// `encode` at every level tick the evaluation visited (s).
    pub encode: Vec<f64>,
    /// `solve_with_hints` without hints on every level's instance (s).
    pub solve: Vec<f64>,
    /// `lower_bound` on every level's instance (s).
    pub bound: Vec<f64>,
}

impl PipelineTimes {
    /// Records the core and sched probe metrics into a pass's values.
    pub fn record(&self, out: &mut Pass) {
        out.set_metric(
            "core.encode_us_p50",
            Metric::quantile_of(&self.encode, 0.5).scaled(1e6),
        );
        out.set("core.encode_calls", self.encode.len() as f64);
        out.set_metric(
            "core.evaluate_ms_p50",
            Metric::quantile_of(&self.evaluate, 0.5).scaled(1e3),
        );
        out.set_metric(
            "core.evaluate_ms_p90",
            Metric::quantile_of(&self.evaluate, 0.9).scaled(1e3),
        );
        out.set_metric(
            "sched.solve_ms_p50",
            Metric::quantile_of(&self.solve, 0.5).scaled(1e3),
        );
        out.set_metric(
            "sched.solve_ms_p90",
            Metric::quantile_of(&self.solve, 0.9).scaled(1e3),
        );
        out.set_metric(
            "sched.bound_us_p50",
            Metric::quantile_of(&self.bound, 0.5).scaled(1e6),
        );
    }
}

/// Evaluates every SoC serially under `config`'s policies and solver, then
/// re-encodes, re-solves and re-bounds every refinement level it visited.
///
/// # Errors
///
/// Propagates evaluation, encoding and scheduling failures.
pub fn pipeline(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<PipelineTimes, HilpError> {
    let mut times = PipelineTimes::default();
    for soc in socs {
        let levels = Levels::default();
        let (evaluation, seconds) = timed(|| {
            Hilp::new(workload.clone(), soc.clone())
                .with_constraints(*constraints)
                .with_policy(config.policy)
                .with_evaluate_policy(config.evaluate)
                .with_solver(config.solver.clone())
                .evaluate_with_observer(&levels)
        });
        evaluation?;
        times.evaluate.push(seconds);
        for (tick, instance) in levels.0.into_inner() {
            let (encoded, seconds) = timed(|| encode(workload, soc, constraints, tick));
            encoded?;
            times.encode.push(seconds);
            let (solved, seconds) =
                timed(|| solve_with_hints(&instance, &config.solver, &SolveHints::default()));
            solved?;
            times.solve.push(seconds);
            let (bound, seconds) = timed(|| lower_bound(&instance));
            std::hint::black_box(bound);
            times.bound.push(seconds);
        }
    }
    Ok(times)
}

/// Peak resident set (`VmHWM`) of a process in MB: this one when `pid` is
/// `None`. 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
