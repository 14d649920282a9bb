//! `hilpbench`: the end-to-end and per-layer benchmark of the HILP stack.
//!
//! Five workloads, each chosen to exercise one mechanism and to bypass
//! others (see `README.md` for the tables):
//!
//! * `fig7-grid` — the paper's Fig. 7: Rodinia Default × 372 SoCs × {MA,
//!   Gables, HILP} under the committed sweep configuration;
//! * `whatif-exact` — record, edit, re-ask and Pareto-sweep under
//!   `EvaluatePolicy::exact()`;
//! * `mobile-grid` — the mobile workload over the same SoCs, where many
//!   SoCs share instances and the memo cache hits;
//! * `bnb-small` — 12-task instances solved with branch and bound;
//! * `hilpd-tenants` — two tenants driving a fresh `hilpd` over loopback.
//!
//! A run sets its workload up [`SETUP_REPEATS`] times (each set-up ends
//! with the first, cold pass), times full passes for the requested number
//! of seconds, and checks every pass against committed references. It
//! states its end-to-end times at a reference host speed, read from the
//! [`gauge`] it times between steps.
//! A traced run then adds one more pass whose layer counters are kept,
//! plus serial timings of each layer's public functions, taken from
//! outside the library crates.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hilp_core::{SolverConfig, TimetableKind};
use hilp_dse::{design_space, SweepConfig, SweepStats};
use hilp_soc::SocSpec;

pub mod bnb;
pub mod gauge;
pub mod grid;
pub mod metrics;
pub mod probe;
pub mod reference;
pub mod tenants;
pub mod whatif;
pub mod wire;

use gauge::{CorePin, Gauge};
use metrics::{quantile, ratio, Metric, Report};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "fig7-grid",
    "whatif-exact",
    "mobile-grid",
    "bnb-small",
    "hilpd-tenants",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed passes a run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Worker threads of the sweeps, branch and bound and `hilpd` in every
/// timed pass. One: on a small shared host a second busy thread makes a
/// pass wait on whichever core a neighbour slows, and makes the work of a
/// pass depend on thread interleaving (bound sharing, cache hits), which
/// together doubled the run-to-run spread. Parallel speed is measured by
/// the traced run instead (`sched.bnb_speedup`).
pub const THREADS: usize = 1;

/// Failure messages kept per pass (all failures are counted).
const KEPT_FAILURES: usize = 8;

/// Input size: the full workloads, or a small slice of each for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Every 37th SoC and a handful of branch-and-bound instances.
    Tiny,
}

/// What a run needs to know besides the workload name.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: permutes the order of each workload's inputs.
    pub seed: u64,
    /// Worker threads for sweeps, B&B and the daemon.
    pub threads: usize,
    /// Input size.
    pub scale: Scale,
    /// The committed `BENCH_sweep.json`.
    pub bench_sweep: PathBuf,
    /// The committed mobile-grid reference.
    pub mobile_reference: PathBuf,
    /// The `hilpd` executable.
    pub hilpd: PathBuf,
}

impl Settings {
    /// Full-scale settings for a repository checkout at `root`, with
    /// `hilpd` expected next to `hilpd_dir`'s executables and
    /// [`THREADS`] worker threads.
    #[must_use]
    pub fn new(seed: u64, root: &Path, hilpd_dir: &Path) -> Settings {
        Settings {
            seed,
            threads: THREADS,
            scale: Scale::Full,
            bench_sweep: root.join("BENCH_sweep.json"),
            mobile_reference: root.join(MOBILE_REFERENCE),
            hilpd: hilpd_dir.join("hilpd"),
        }
    }

    /// Stride over the design space at this scale: every SoC, or every
    /// 37th.
    #[must_use]
    pub fn soc_step(&self) -> usize {
        match self.scale {
            Scale::Full => 1,
            Scale::Tiny => 37,
        }
    }

    /// The design space at this scale, in a seed-determined order, with
    /// each SoC's index in `design_space` order.
    #[must_use]
    pub fn socs(&self) -> Vec<(usize, SocSpec)> {
        self.shuffled(
            design_space(4.0)
                .into_iter()
                .enumerate()
                .step_by(self.soc_step())
                .collect(),
        )
    }

    /// `items` in a seed-determined order.
    #[must_use]
    pub fn shuffled<T: Clone>(&self, items: Vec<T>) -> Vec<T> {
        permutation(items.len(), self.seed)
            .into_iter()
            .map(|i| items[i].clone())
            .collect()
    }
}

/// Where the mobile-grid reference lives, relative to the repository root.
pub const MOBILE_REFERENCE: &str = "hilpbench/reference/mobile-grid.jsonl";

/// Available cores (1 when undeterminable).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The SplitMix64 output for counter `x`: a well-mixed, platform-independent
/// pseudo-random value.
#[must_use]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-determined permutation of `0..n` (Fisher–Yates over
/// [`splitmix64`]), identical on every platform.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let draw = splitmix64(seed.wrapping_mul(0x1_0000_0001).wrapping_add(i as u64));
        order.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs `f`, returning its value and its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// The configuration `BENCH_sweep.json` was committed under (and every
/// `hilpd` job runs under): event timetable, serial multi-start,
/// memoization and bound sharing.
#[must_use]
pub fn committed_config(threads: usize) -> SweepConfig {
    SweepConfig {
        solver: SolverConfig {
            timetable: TimetableKind::Event,
            heuristic_threads: 1,
            ..SolverConfig::sweep()
        },
        threads,
        memoize: true,
        ..SweepConfig::default()
    }
}

/// What one pass (or one set of probes) did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the pass (s), summed by the [`Gauge`] over its steps.
    pub seconds: f64,
    /// The same, stated at the reference host speed (see [`gauge`]).
    pub reference_seconds: f64,
    /// Latency of each operation the workload counts (s).
    pub op_seconds: Vec<f64>,
    /// The same, stated at the reference host speed.
    pub reference_op_seconds: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer values measured during the pass.
    pub values: BTreeMap<&'static str, Metric>,
}

impl Pass {
    /// Records a single-sample per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_metric(name, Metric::single(value));
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn set_metric(&mut self, name: &'static str, metric: Metric) {
        let _ = metrics::unit(name);
        self.values.insert(name, metric);
    }

    /// A recorded value, 0 when absent.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: String) {
        self.fail_many(1, reason);
    }

    /// Counts `n` failed operations sharing one reason.
    pub fn fail_many(&mut self, n: u64, reason: String) {
        self.failed += n;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(reason);
        }
    }

    /// Counts one failed operation per result `what` returned beyond or
    /// short of the `want` it was asked for.
    pub fn check_count(&mut self, what: &str, got: usize, want: usize) {
        if got != want {
            self.fail_many(
                got.abs_diff(want) as u64,
                format!("{what} returned {got} results for {want} inputs"),
            );
        }
    }

    /// Records the sweep-engine counters of `sweeps`, summed.
    pub fn record_sweeps(&mut self, sweeps: &[SweepStats]) {
        let sum = |f: fn(&SweepStats) -> f64| sweeps.iter().map(f).sum::<f64>();
        let points = sum(|s| s.point_seconds.len() as f64);
        let levels = sum(|s| s.levels_solved as f64);
        let inherited = sum(|s| s.bound_inherited_levels as f64);
        let hits = sum(|s| s.cache_hits as f64);
        let jobs_total = sum(|s| s.heuristic_jobs_total as f64);
        let jobs_executed = sum(|s| s.heuristic_jobs_executed as f64);
        let point_ms: Vec<f64> = sweeps
            .iter()
            .flat_map(|s| s.point_seconds.iter().map(|t| t * 1e3))
            .collect();
        self.set("core.levels_solved", levels);
        self.set("sched.heuristic_jobs_total", jobs_total);
        self.set("sched.heuristic_jobs_executed", jobs_executed);
        self.set(
            "sched.heuristic_skip_ratio",
            1.0 - ratio(jobs_executed, jobs_total).min(1.0),
        );
        self.set("dse.solves", sum(|s| s.solves as f64));
        self.set("dse.cache_hits", hits);
        self.set("dse.cache_hit_ratio", ratio(hits, points));
        self.set("dse.inherited_levels", inherited);
        self.set("dse.inheritance_hit_rate", ratio(inherited, levels));
        self.set(
            "dse.early_terminated_levels",
            sum(|s| s.early_terminated_levels as f64),
        );
        self.set_metric("dse.point_ms_p50", Metric::quantile_of(&point_ms, 0.5));
        self.set_metric("dse.point_ms_p90", Metric::quantile_of(&point_ms, 0.9));
        self.set_metric("dse.point_ms_max", Metric::quantile_of(&point_ms, 1.0));
        self.set(
            "dse.threads_used",
            sweeps.iter().map(|s| s.threads_used).max().unwrap_or(0) as f64,
        );
    }

    /// Records mean and max of the reported optimality gaps, summed in
    /// sorted order so the mean does not depend on point order.
    pub fn record_gaps(&mut self, gaps: &[f64]) {
        let mut sorted = gaps.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = ratio(sorted.iter().sum(), gaps.len() as f64);
        self.set("quality.mean_gap", mean);
        self.set("quality.max_gap", gaps.iter().copied().fold(0.0, f64::max));
    }
}

/// One workload: repeatable passes plus the probes of a traced run.
pub trait Bench {
    /// Runs one full pass, checking its outputs, and reads `gauge` between
    /// the pass's parts (the harness reads it before and after the pass).
    fn pass(&mut self, gauge: &mut Gauge) -> Pass;

    /// Per-layer metrics measured outside the passes (serial calls into
    /// each layer, metrics derived from the timed passes), as a probe
    /// "pass" whose values override the traced pass's.
    fn layers(&mut self, timed: &[Pass], traced: &Pass) -> Pass;

    /// The peak resident memory a user of this workload pays for (MB).
    fn peak_rss_mb(&self, _timed: &[Pass]) -> f64 {
        probe::peak_rss_mb(None)
    }
}

/// Sets up the named workload.
///
/// # Errors
///
/// On an unknown name, or when its inputs or references cannot be loaded.
pub fn build(name: &str, settings: &Settings) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "fig7-grid" => Box::new(grid::Grid::fig7(settings)?),
        "mobile-grid" => Box::new(grid::Grid::mobile(settings)?),
        "whatif-exact" => Box::new(whatif::WhatIf::new(settings)?),
        "bnb-small" => Box::new(bnb::BnbSmall::new(settings)?),
        "hilpd-tenants" => Box::new(tenants::Tenants::new(settings)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs one workload: repeated set-up, timed passes for `seconds`, and,
/// when `trace` is set, one traced pass plus the layer probes.
///
/// The end-to-end metrics are stated at the reference host speed (see
/// [`gauge`]); the per-layer times are wall times as measured, beside the
/// median gauge reading of the run (`bench.gauge_us`). The calling thread,
/// and every thread and process the passes start, stays on one core until
/// the layer probes, which get every core back.
///
/// # Errors
///
/// When the workload cannot be set up.
pub fn run(name: &str, settings: &Settings, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report {
        workload: name.to_string(),
        ..Report::default()
    };
    let count = |report: &mut Report, pass: &Pass| {
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        for reason in &pass.failures {
            if report.failures.len() < KEPT_FAILURES {
                report.failures.push(reason.clone());
            }
        }
    };
    let pin = CorePin::current_core();
    let mut gauge = Gauge::start();

    // Each set-up ends with the first, cold pass: time to a first result,
    // which also shows work a change moves into lazy initialisation.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        gauge.begin();
        let mut b = build(name, settings)?;
        let mut first = b.pass(&mut gauge);
        gauge.split(&mut first);
        setups.push(first.reference_seconds);
        count(&mut report, &first);
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUP_REPEATS is positive");

    let mut timed = Vec::new();
    let start = Instant::now();
    while timed.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        gauge.begin();
        let mut pass = bench.pass(&mut gauge);
        gauge.split(&mut pass);
        count(&mut report, &pass);
        timed.push(pass);
    }
    let pass_s: Vec<f64> = timed.iter().map(|p| p.reference_seconds).collect();
    let op_ms: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.reference_op_seconds.iter().map(|s| s * 1e3))
        .collect();
    report.set("setup_s", Metric::quantile_of(&setups, 0.5));
    report.set("pass_s", Metric::quantile_of(&pass_s, 0.5));
    report.set("op_p50_ms", Metric::quantile_of(&op_ms, 0.5));
    report.set("op_p90_ms", Metric::quantile_of(&op_ms, 0.9));
    // Measured before the traced pass and the probes, which would add
    // their own allocations.
    report.set(
        "bench.peak_rss_mb",
        Metric::single(bench.peak_rss_mb(&timed)),
    );

    if trace {
        gauge.begin();
        let mut traced = bench.pass(&mut gauge);
        gauge.split(&mut traced);
        count(&mut report, &traced);
        drop(pin);
        let probes = bench.layers(&timed, &traced);
        count(&mut report, &probes);
        for (name, metric) in traced.values.iter().chain(&probes.values) {
            report.set(name, *metric);
        }
        let median_pass = quantile(&timed.iter().map(|p| p.seconds).collect::<Vec<_>>(), 0.5);
        let overhead = (traced.seconds / median_pass - 1.0) * 100.0;
        report.set("bench.trace_overhead_pct", Metric::single(overhead));
        report.set(
            "bench.gauge_us",
            Metric::quantile_of(&gauge.readings, 0.5).scaled(1e6),
        );
        for (name, _) in metrics::PER_LAYER {
            report.metrics.entry(name).or_insert(Metric::single(0.0));
        }
    }
    Ok(report)
}
