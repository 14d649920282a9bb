//! One function per paper table/figure (the regeneration harness).
//!
//! Every function returns a printable data structure holding the same
//! rows/series the paper plots; the `examples/` binaries print them and
//! EXPERIMENTS.md records paper-versus-measured values. Each function
//! takes a [`SweepConfig`] so callers can trade fidelity for wall time.

use std::fmt;

use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_workloads::sda::{sda_workload, SdaScenario, DS_KEYS};
use hilp_workloads::{profiler, rodinia, Workload, WorkloadVariant};

use hilp_core::HilpError;

use crate::pareto::pareto_front;
use crate::space::design_space;
use crate::sweep::{evaluate_soc, evaluate_space, DesignPoint, ModelKind, SweepConfig};

/// A named series of `(x, y)` points, matching one line of a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (e.g. `"16-SM GPU"`).
    pub label: String,
    /// `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24}", self.label)?;
        for (x, y) in &self.points {
            write!(f, " ({x:>6.1}, {y:>8.2})")?;
        }
        Ok(())
    }
}

/// GPU SM counts used by the Figure 5 validation sweeps.
pub const FIG5_GPUS: [u32; 3] = [16, 32, 64];

/// CPU-core counts swept in Figures 5a and 6.
pub const FIG56_CPUS: [u32; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// Figure 5a: Amdahl's law.
// ---------------------------------------------------------------------------

/// Figure 5a result: HILP speedup versus CPU count for three GPU sizes,
/// plus each GPU's analytic compute-limit line (the figure's dotted lines).
#[derive(Debug, Clone, PartialEq)]
pub struct AmdahlResult {
    /// One series per GPU size: x = CPU cores, y = speedup.
    pub series: Vec<Series>,
    /// `(gpu_sms, speedup_limit)` pairs.
    pub compute_limits: Vec<(u32, f64)>,
}

/// The maximum speedup a `sms`-SM GPU can deliver on this workload: with
/// unlimited CPU cores the makespan is still bounded below by the GPU's
/// total compute load and by each application's own chain.
#[must_use]
pub fn gpu_compute_limit(workload: &Workload, sms: u32) -> f64 {
    let sms_f = f64::from(sms);
    let mut gpu_load = 0.0;
    let mut longest_chain: f64 = 0.0;
    for app in workload.applications() {
        let mut chain = 0.0;
        for phase in &app.phases {
            let accel = phase
                .accel
                .as_ref()
                .filter(|_| phase.gpu_eligible)
                .map(|g| g.seconds_at(sms_f));
            match accel {
                Some(t) => {
                    // Compute either runs on the GPU or on a CPU; the GPU
                    // is the faster choice for every Rodinia kernel.
                    gpu_load += t;
                    chain += t;
                }
                None => chain += phase.cpu_seconds.unwrap_or(0.0),
            }
        }
        longest_chain = longest_chain.max(chain);
    }
    workload.sequential_cpu_seconds() / gpu_load.max(longest_chain)
}

/// Runs the Figure 5a sweep: *Default* workload, unconstrained, HILP.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig5a_amdahl(config: &SweepConfig) -> Result<AmdahlResult, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let mut series = Vec::new();
    for &gpu in &FIG5_GPUS {
        let mut points = Vec::new();
        for &cpus in &FIG56_CPUS {
            let soc = SocSpec::new(cpus).with_gpu(gpu);
            let point = evaluate_soc(
                &workload,
                &soc,
                &Constraints::unconstrained(),
                ModelKind::Hilp,
                config,
            )?;
            points.push((f64::from(cpus), point.speedup));
        }
        series.push(Series {
            label: format!("{gpu}-SM GPU"),
            points,
        });
    }
    let compute_limits = FIG5_GPUS
        .iter()
        .map(|&g| (g, gpu_compute_limit(&workload, g)))
        .collect();
    Ok(AmdahlResult {
        series,
        compute_limits,
    })
}

// ---------------------------------------------------------------------------
// Figure 5b: the memory wall.
// ---------------------------------------------------------------------------

/// Bandwidth budgets swept in Figure 5b (GB/s).
pub const FIG5B_BANDWIDTHS: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0];

/// Runs the Figure 5b sweep: *Optimized* workload, 4 CPUs, bandwidth
/// constrained, HILP. One series per GPU size; x = bandwidth, y = speedup.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig5b_memory_wall(config: &SweepConfig) -> Result<Vec<Series>, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Optimized);
    let mut series = Vec::new();
    for &gpu in &FIG5_GPUS {
        let mut points = Vec::new();
        for &bw in &FIG5B_BANDWIDTHS {
            let soc = SocSpec::new(4).with_gpu(gpu);
            let point = evaluate_soc(
                &workload,
                &soc,
                &Constraints::unconstrained().with_bandwidth(bw),
                ModelKind::Hilp,
                config,
            )?;
            points.push((bw, point.speedup));
        }
        series.push(Series {
            label: format!("{gpu}-SM GPU"),
            points,
        });
    }
    Ok(series)
}

// ---------------------------------------------------------------------------
// Figure 5c: dark silicon.
// ---------------------------------------------------------------------------

/// Power budgets swept in Figure 5c (W).
pub const FIG5C_POWERS: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0];

/// Runs the Figure 5c sweep: *Optimized* workload, 4 CPUs, power
/// constrained, HILP. One series per GPU size; x = power, y = speedup.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig5c_dark_silicon(config: &SweepConfig) -> Result<Vec<Series>, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Optimized);
    let mut series = Vec::new();
    for &gpu in &FIG5_GPUS {
        let mut points = Vec::new();
        for &power in &FIG5C_POWERS {
            let soc = SocSpec::new(4).with_gpu(gpu);
            let point = evaluate_soc(
                &workload,
                &soc,
                &Constraints::unconstrained().with_power(power),
                ModelKind::Hilp,
                config,
            )?;
            points.push((power, point.speedup));
        }
        series.push(Series {
            label: format!("{gpu}-SM GPU"),
            points,
        });
    }
    Ok(series)
}

// ---------------------------------------------------------------------------
// Figure 6: MA versus HILP versus Gables.
// ---------------------------------------------------------------------------

/// One row of the Figure 6 comparison at a given CPU count.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// CPU-core count.
    pub cpus: u32,
    /// MultiAmdahl `(avg WLP, speedup)`.
    pub ma: (f64, f64),
    /// HILP `(avg WLP, speedup)`.
    pub hilp: (f64, f64),
    /// Gables `(avg WLP, speedup)`.
    pub gables: (f64, f64),
}

impl fmt::Display for Fig6Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpus={:<2}  MA wlp={:>4.1} x{:<7.1}  HILP wlp={:>4.1} x{:<7.1}  Gables wlp={:>4.1} x{:<7.1}",
            self.cpus, self.ma.0, self.ma.1, self.hilp.0, self.hilp.1, self.gables.0, self.gables.1
        )
    }
}

/// Runs the Figure 6 comparison on a 64-SM SoC for the given workload
/// variant, sweeping CPU counts.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig6_wlp_comparison(
    variant: WorkloadVariant,
    config: &SweepConfig,
) -> Result<Vec<Fig6Row>, HilpError> {
    let workload = Workload::rodinia(variant);
    let constraints = Constraints::unconstrained();
    let mut rows = Vec::new();
    for &cpus in &FIG56_CPUS {
        let soc = SocSpec::new(cpus).with_gpu(64);
        let ma = evaluate_soc(
            &workload,
            &soc,
            &constraints,
            ModelKind::MultiAmdahl,
            config,
        )?;
        let hilp = evaluate_soc(&workload, &soc, &constraints, ModelKind::Hilp, config)?;
        let gables = evaluate_soc(&workload, &soc, &constraints, ModelKind::Gables, config)?;
        rows.push(Fig6Row {
            cpus,
            ma: (ma.avg_wlp, ma.speedup),
            hilp: (hilp.avg_wlp, hilp.speedup),
            gables: (gables.avg_wlp, gables.speedup),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 7: the 372-SoC design space.
// ---------------------------------------------------------------------------

/// The full design space evaluated under one model, with its Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceResult {
    /// The model that produced the predictions.
    pub model: ModelKind,
    /// Every design point, in `design_space` order.
    pub points: Vec<DesignPoint>,
    /// Indices of the Pareto-optimal points, sorted by area.
    pub front: Vec<usize>,
}

impl SpaceResult {
    /// The highest-performing Pareto-optimal point.
    ///
    /// # Panics
    ///
    /// Panics when the result is empty.
    #[must_use]
    pub fn best(&self) -> &DesignPoint {
        let &idx = self.front.last().expect("non-empty front");
        &self.points[idx]
    }

    /// Near-optimality statistics of the sweep: `(max gap, fraction of
    /// points meeting the paper's 10% near-optimality bar)`.
    #[must_use]
    pub fn gap_stats(&self) -> (f64, f64) {
        if self.points.is_empty() {
            return (0.0, 1.0);
        }
        let max_gap = self.points.iter().map(|p| p.gap).fold(0.0f64, f64::max);
        let near = self.points.iter().filter(|p| p.gap <= 0.10 + 1e-12).count();
        (max_gap, near as f64 / self.points.len() as f64)
    }

    /// Renders the Pareto front as a table.
    #[must_use]
    pub fn render_front(&self) -> String {
        let mut out = format!(
            "{} Pareto front (area mm^2, speedup, label):\n",
            self.model.name()
        );
        for &i in &self.front {
            let p = &self.points[i];
            out.push_str(&format!(
                "  {:>7.1}  {:>7.2}  {}\n",
                p.area_mm2, p.speedup, p.label
            ));
        }
        out
    }
}

/// Evaluates a design space (any list of SoCs) under one model on the
/// *Default* workload with the paper's Figure 7 constraint setup (600 W
/// for MA and HILP; Gables cannot express power budgets and the baseline
/// drops it internally).
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig7_space(
    socs: &[SocSpec],
    model: ModelKind,
    config: &SweepConfig,
) -> Result<SpaceResult, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let points = evaluate_space(&workload, socs, &constraints, model, config)?;
    let front = pareto_front(&points);
    Ok(SpaceResult {
        model,
        points,
        front,
    })
}

// ---------------------------------------------------------------------------
// Figure 8a: power-constrained Pareto fronts.
// ---------------------------------------------------------------------------

/// Power budgets of Figure 8a (W).
pub const FIG8A_POWERS: [f64; 3] = [20.0, 50.0, 600.0];

/// Runs Figure 8a: HILP Pareto fronts of the design space under each power
/// budget. Returns `(power_budget, SpaceResult)` pairs.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig8a_power_constrained(
    socs: &[SocSpec],
    config: &SweepConfig,
) -> Result<Vec<(f64, SpaceResult)>, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    FIG8A_POWERS
        .iter()
        .map(|&power| {
            let constraints = Constraints::unconstrained()
                .with_power(power)
                .with_bandwidth(800.0);
            let points = evaluate_space(&workload, socs, &constraints, ModelKind::Hilp, config)?;
            let front = pareto_front(&points);
            Ok((
                power,
                SpaceResult {
                    model: ModelKind::Hilp,
                    points,
                    front,
                },
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8b: DSA efficiency advantage.
// ---------------------------------------------------------------------------

/// DSA efficiency advantages of Figure 8b.
pub const FIG8B_ADVANTAGES: [f64; 3] = [2.0, 4.0, 8.0];

/// Runs Figure 8b: HILP Pareto fronts at each DSA efficiency advantage
/// (600 W budget). Returns `(advantage, SpaceResult)` pairs.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig8b_dsa_advantage(config: &SweepConfig) -> Result<Vec<(f64, SpaceResult)>, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    FIG8B_ADVANTAGES
        .iter()
        .map(|&advantage| {
            let socs = design_space(advantage);
            let points = evaluate_space(
                &workload,
                &socs,
                &Constraints::paper_default(),
                ModelKind::Hilp,
                config,
            )?;
            let front = pareto_front(&points);
            Ok((
                advantage,
                SpaceResult {
                    model: ModelKind::Hilp,
                    points,
                    front,
                },
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10: the SDA extension.
// ---------------------------------------------------------------------------

/// Result of scheduling the SDA workload in one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SdaResult {
    /// The scenario.
    pub scenario: SdaScenario,
    /// SoC label.
    pub label: String,
    /// Makespan of the two-sample workload (s).
    pub makespan_seconds: f64,
    /// Average WLP.
    pub avg_wlp: f64,
    /// Whether the evaluation proved the makespan optimal.
    pub proved_optimal: bool,
    /// Relative optimality gap of the makespan.
    pub gap: f64,
    /// Rendered schedule.
    pub rendered: String,
}

/// The SoC of an SDA scenario: one CPU, the scenario's GPU, and one 1-PE
/// DSA per data source.
#[must_use]
pub fn sda_soc(scenario: SdaScenario) -> SocSpec {
    let mut soc = SocSpec::new(1).with_gpu(scenario.gpu_sms());
    for key in DS_KEYS {
        soc = soc.with_dsa(DsaSpec::new(1, key));
    }
    soc
}

/// Runs the Figure 10 experiment: schedules `samples` pipelined SDA
/// instances under each scenario.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn fig10_sda(samples: usize, config: &SweepConfig) -> Result<Vec<SdaResult>, HilpError> {
    [
        SdaScenario::Baseline,
        SdaScenario::FasterCpu,
        SdaScenario::BiggerGpu,
    ]
    .into_iter()
    .map(|scenario| {
        let workload = sda_workload(samples, scenario);
        let soc = sda_soc(scenario);
        let eval = hilp_core::Hilp::new(workload, soc.clone())
            .with_policy(hilp_core::TimeStepPolicy::fixed(1.0))
            .with_solver(config.solver.clone())
            .evaluate()?;
        Ok(SdaResult {
            scenario,
            label: soc.label(),
            makespan_seconds: eval.makespan_seconds,
            avg_wlp: eval.avg_wlp,
            proved_optimal: eval.proved_optimal,
            gap: eval.gap,
            rendered: eval.render_schedule(),
        })
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Tables II and III.
// ---------------------------------------------------------------------------

/// Regenerates Table II: for every benchmark, the published row plus a
/// synthetic re-profiled and re-fitted row (exponent recovered through the
/// measurement pipeline).
#[must_use]
pub fn table2_rows() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<6} {:>9} {:>9} {:>9} {:>8} {:>8}  {:>18} {:>18}",
        "bench", "setup(s)", "C-CPU(s)", "C-GPU(s)", "TD(s)", "BW", "time fit (a,b)", "refit (a,b)"
    )];
    for b in rodinia::benchmarks() {
        let mut samples = profiler::profile_synthetic(b, 0.0, 1);
        // The published fits are normalized to the 14-SM slice (y(14) ~ 1);
        // normalize the synthetic samples the same way so the recovered `a`
        // is comparable.
        let at_14 = samples.times[0].1;
        for p in &mut samples.times {
            p.1 /= at_14;
        }
        let (time_fit, _) = profiler::refit(&samples).expect("table data fits");
        rows.push(format!(
            "{:<6} {:>9.2e} {:>9.1} {:>9.2e} {:>8.2} {:>8.1}  ({:>6.2},{:>6.2})    ({:>6.2},{:>6.2})",
            b.short,
            b.setup_seconds,
            b.compute_cpu_seconds,
            b.compute_gpu_seconds,
            b.teardown_seconds,
            b.gpu_bandwidth_gbps,
            b.gpu_time_fit.a,
            b.gpu_time_fit.b,
            time_fit.law.a,
            time_fit.law.b,
        ));
    }
    rows
}

/// Regenerates Table III: per operating point, the whole-GPU power, the
/// per-SM power, and a power-law fit of modeled power versus SM count
/// (which must come out linear, `b ~ 1`).
#[must_use]
pub fn table3_rows() -> Vec<String> {
    use hilp_soc::{gpu_operating_points, per_sm_power_w};
    let mut rows = vec![format!(
        "{:>6} {:>10} {:>8}  {:>16}",
        "MHz", "all-SM W", "per-SM W", "fit (a, b, R^2)"
    )];
    for op in gpu_operating_points() {
        let per_sm = per_sm_power_w(*op);
        let samples: Vec<(f64, f64)> = profiler::MIG_SM_COUNTS
            .iter()
            .map(|&sms| (sms, sms * per_sm / (14.0 * per_sm)))
            .collect();
        let fit = hilp_soc::powerlaw::fit_power_law(&samples).expect("linear data fits");
        rows.push(format!(
            "{:>6} {:>10.1} {:>8.2}  ({:.2}, {:.2}, {:.2})",
            op.freq_mhz, op.total_power_w, per_sm, fit.law.a, fit.law.b, fit.r_squared
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_core::{SolverConfig, TimeStepPolicy};

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy::fixed(5.0),
            solver: SolverConfig {
                heuristic_starts: 30,
                local_search_passes: 1,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 0,
            memoize: true,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn gpu_compute_limit_grows_with_sms() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let l16 = gpu_compute_limit(&w, 16);
        let l64 = gpu_compute_limit(&w, 64);
        assert!(l64 > l16);
        assert!(l16 > 1.0);
    }

    #[test]
    fn fig5a_speedup_saturates_below_the_compute_limit() {
        let result = fig5a_amdahl(&tiny_config()).unwrap();
        assert_eq!(result.series.len(), 3);
        for (series, &(_, limit)) in result.series.iter().zip(&result.compute_limits) {
            // Speedup grows with CPU count and respects the GPU limit
            // (within discretization slack).
            let first = series.points.first().unwrap().1;
            let last = series.points.last().unwrap().1;
            assert!(last >= first);
            assert!(last <= limit * 1.15, "{} exceeds limit {limit}", last);
        }
    }

    #[test]
    fn table2_has_a_row_per_benchmark() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 11); // header + 10 benchmarks
        assert!(rows[1].contains("BFS"));
    }

    #[test]
    fn table3_power_scaling_is_linear() {
        let rows = table3_rows();
        assert_eq!(rows.len(), 12); // header + 11 operating points
        for row in &rows[1..] {
            assert!(row.contains("1.00"), "non-linear fit in: {row}");
        }
    }

    #[test]
    fn sda_soc_has_three_pinned_dsas() {
        let soc = sda_soc(SdaScenario::Baseline);
        assert_eq!(soc.label(), "(c1,g8,d3^1)");
        assert_eq!(soc.dsas.len(), 3);
    }
}

// ---------------------------------------------------------------------------
// Consolidation extension: WLP versus workload copies.
// ---------------------------------------------------------------------------

/// One row of the consolidation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationRow {
    /// Number of copies of the Default workload.
    pub copies: usize,
    /// HILP average WLP.
    pub avg_wlp: f64,
    /// Workload throughput normalized to one copy (total sequential work
    /// divided by makespan, relative to the single-copy value).
    pub relative_throughput: f64,
    /// Makespan in seconds.
    pub makespan_seconds: f64,
}

/// An extension experiment beyond the paper: consolidating more independent
/// copies of the *Default* workload onto one SoC raises the available WLP,
/// and a WLP-aware model shows how far the SoC can convert it into
/// throughput before saturating. (The paper's motivation — SoCs run many
/// independent applications — taken one step further.)
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn consolidation_sweep(
    soc: &SocSpec,
    copies: &[usize],
    config: &SweepConfig,
) -> Result<Vec<ConsolidationRow>, HilpError> {
    let base = Workload::rodinia(WorkloadVariant::Default);
    let mut rows = Vec::new();
    let mut unit_throughput = None;
    for &n in copies {
        let workload = base.with_copies(n);
        let point = evaluate_soc(
            &workload,
            soc,
            &Constraints::paper_default(),
            ModelKind::Hilp,
            config,
        )?;
        let throughput = workload.sequential_cpu_seconds() / point.makespan_seconds;
        let unit = *unit_throughput.get_or_insert(throughput);
        rows.push(ConsolidationRow {
            copies: n,
            avg_wlp: point.avg_wlp,
            relative_throughput: throughput / unit,
            makespan_seconds: point.makespan_seconds,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod consolidation_tests {
    use super::*;
    use hilp_core::{SolverConfig, TimeStepPolicy};
    use hilp_soc::DsaSpec;

    #[test]
    fn consolidation_raises_wlp() {
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        let config = SweepConfig {
            policy: TimeStepPolicy::fixed(5.0),
            solver: SolverConfig {
                heuristic_starts: 40,
                local_search_passes: 1,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 0,
            memoize: true,
            ..SweepConfig::default()
        };
        let rows = consolidation_sweep(&soc, &[1, 2], &config).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].avg_wlp > rows[0].avg_wlp,
            "two copies should overlap more: {} vs {}",
            rows[1].avg_wlp,
            rows[0].avg_wlp
        );
        assert!((rows[0].relative_throughput - 1.0).abs() < 1e-9);
        // Two copies take less than twice as long.
        assert!(rows[1].makespan_seconds < 2.0 * rows[0].makespan_seconds);
    }
}

// ---------------------------------------------------------------------------
// Cost/carbon extension: Pareto fronts in dollars and kgCO2e.
// ---------------------------------------------------------------------------

/// A design point priced under a process node.
#[derive(Debug, Clone, PartialEq)]
pub struct CostedPoint {
    /// SoC label.
    pub label: String,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Good-die cost (USD).
    pub cost_usd: f64,
    /// Embodied fabrication carbon (kgCO2e).
    pub carbon_kg: f64,
    /// HILP speedup.
    pub speedup: f64,
}

/// Result of the cost-extension sweep: priced points plus the
/// Pareto-optimal indices in cost and in carbon.
#[derive(Debug, Clone, PartialEq)]
pub struct CostResult {
    /// Every design point, priced.
    pub points: Vec<CostedPoint>,
    /// Indices Pareto-optimal in (cost, speedup).
    pub cost_front: Vec<usize>,
    /// Indices Pareto-optimal in (carbon, speedup).
    pub carbon_front: Vec<usize>,
}

/// Extension beyond the paper: re-draws the Figure 7 Pareto analysis in
/// manufacturing cost and embodied carbon (the quantities the paper's
/// introduction motivates area with). Yield loss makes large GPU-heavy
/// dies *more* expensive per mm² than their area suggests, pushing the
/// money-optimal designs further towards DSA-assisted moderate GPUs.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn cost_pareto(
    socs: &[SocSpec],
    node: &hilp_soc::cost::ProcessNode,
    config: &SweepConfig,
) -> Result<CostResult, HilpError> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let evaluated = evaluate_space(
        &workload,
        socs,
        &Constraints::paper_default(),
        ModelKind::Hilp,
        config,
    )?;
    let points: Vec<CostedPoint> = evaluated
        .iter()
        .map(|p| CostedPoint {
            label: p.label.clone(),
            area_mm2: p.area_mm2,
            cost_usd: node.die_cost_usd(p.area_mm2),
            carbon_kg: node.embodied_carbon_kg(p.area_mm2),
            speedup: p.speedup,
        })
        .collect();
    let cost_points: Vec<(f64, f64)> = points.iter().map(|p| (p.cost_usd, p.speedup)).collect();
    let carbon_points: Vec<(f64, f64)> = points.iter().map(|p| (p.carbon_kg, p.speedup)).collect();
    Ok(CostResult {
        cost_front: pareto_front(&cost_points),
        carbon_front: pareto_front(&carbon_points),
        points,
    })
}

// ---------------------------------------------------------------------------
// Scheduler-quality ablation.
// ---------------------------------------------------------------------------

/// Makespans of the flagship evaluation under increasingly capable
/// schedulers, quantifying the paper's argument that near-optimal
/// scheduling "decouples the design of SoC hardware from the task of
/// writing efficient system software".
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerQualityRow {
    /// Scheduler description.
    pub scheduler: &'static str,
    /// Resulting makespan (s).
    pub makespan_seconds: f64,
    /// Reported optimality gap.
    pub gap: f64,
}

/// Runs the ablation: three true online dispatchers (no lookahead,
/// work-conserving, static priority — what runtime system software does),
/// a single offline greedy pass, the multi-start heuristic, and the full
/// anytime solver, all on the same SoC and workload.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn scheduler_quality_ablation(
    soc: &SocSpec,
    config: &SweepConfig,
) -> Result<Vec<SchedulerQualityRow>, HilpError> {
    use hilp_core::{encode, Hilp, SolverConfig};
    use hilp_sched::online::{online_greedy, OnlinePolicy};

    let workload = Workload::rodinia(WorkloadVariant::Default);
    let mut rows = Vec::new();

    // Pin one time step for the online schedulers (they have no adaptive
    // loop of their own): the full solver's resolution.
    let reference = Hilp::new(workload.clone(), soc.clone())
        .with_constraints(Constraints::paper_default())
        .with_policy(config.policy)
        .with_solver(config.solver.clone())
        .evaluate()?;
    let step = reference.time_step_seconds;
    let (instance, _) = encode(&workload, soc, &Constraints::paper_default(), step)?;
    for (name, policy) in [
        ("online FIFO dispatcher", OnlinePolicy::Fifo),
        ("online LPT dispatcher", OnlinePolicy::LongestFirst),
        ("online SPT dispatcher", OnlinePolicy::ShortestFirst),
        (
            "online heterogeneity-aware",
            OnlinePolicy::HeterogeneityAware,
        ),
    ] {
        if let Some(schedule) = online_greedy(&instance, policy) {
            rows.push(SchedulerQualityRow {
                scheduler: name,
                makespan_seconds: f64::from(schedule.makespan(&instance)) * step,
                gap: f64::NAN, // online dispatchers prove nothing
            });
        }
    }

    let offline: [(&'static str, SolverConfig); 3] = [
        (
            "offline single greedy pass",
            SolverConfig {
                heuristic_starts: 1,
                local_search_passes: 0,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
        ),
        (
            "offline multi-start heuristic",
            SolverConfig {
                heuristic_starts: 120,
                local_search_passes: 0,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
        ),
        ("full anytime solver", config.solver.clone()),
    ];
    for (name, solver) in offline {
        let eval = Hilp::new(workload.clone(), soc.clone())
            .with_constraints(Constraints::paper_default())
            .with_policy(config.policy)
            .with_solver(solver)
            .evaluate()?;
        rows.push(SchedulerQualityRow {
            scheduler: name,
            makespan_seconds: eval.makespan_seconds,
            gap: eval.gap,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use hilp_core::{SolverConfig, TimeStepPolicy};
    use hilp_soc::DsaSpec;

    fn tiny() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy::fixed(5.0),
            solver: SolverConfig {
                heuristic_starts: 40,
                local_search_passes: 1,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 0,
            memoize: true,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn cost_pareto_prices_every_point() {
        let socs = vec![
            SocSpec::new(1).with_gpu(64),
            SocSpec::new(4)
                .with_gpu(16)
                .with_dsa(DsaSpec::new(16, "LUD"))
                .with_dsa(DsaSpec::new(16, "HS")),
        ];
        let node = hilp_soc::cost::ProcessNode::n7();
        let result = cost_pareto(&socs, &node, &tiny()).unwrap();
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.cost_usd.is_finite() && p.cost_usd > 0.0);
            assert!(p.carbon_kg.is_finite() && p.carbon_kg > 0.0);
        }
        assert!(!result.cost_front.is_empty());
        assert!(!result.carbon_front.is_empty());
    }

    #[test]
    fn scheduler_quality_improves_with_effort() {
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        let rows = scheduler_quality_ablation(&soc, &tiny()).unwrap();
        assert!(rows.len() >= 5, "online rows + three offline rows");
        let best_online = rows
            .iter()
            .filter(|r| r.scheduler.starts_with("online"))
            .map(|r| r.makespan_seconds)
            .fold(f64::INFINITY, f64::min);
        let full = rows.last().unwrap();
        assert_eq!(full.scheduler, "full anytime solver");
        // The offline near-optimal schedule never loses to a no-lookahead
        // dispatcher (the decoupling argument, quantified).
        assert!(full.makespan_seconds <= best_online + 1e-9);
    }
}
