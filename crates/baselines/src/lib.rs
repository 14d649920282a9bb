//! The paper's state-of-the-art comparison baselines.
//!
//! HILP is compared against the two prior early-stage models that say
//! anything about Workload-Level Parallelism, both of which only cover its
//! extremes:
//!
//! * **MultiAmdahl (MA)** assumes a *fixed sequential order*: at most one
//!   application phase executes at any time, so WLP is always exactly 1.
//!   Each phase still runs on its fastest compatible cluster, making MA
//!   the minimal-WLP end of the spectrum and systematically pessimistic.
//! * **Parallel-mode Gables** assumes the workload is *embarrassingly
//!   parallel*: phase dependencies (and sequential sections) are
//!   discarded, so WLP reaches its maximal achievable value. Gables does
//!   not support power constraints (the paper drops the power budget when
//!   comparing against it), making it systematically optimistic.
//!
//! Both baselines reuse the exact same encoding, cost model, and scheduler
//! as HILP itself, so every difference in their predictions is
//! attributable to their treatment of WLP — the paper's comparison
//! methodology.
//!
//! # Example
//!
//! ```
//! use hilp_baselines::{gables_parallel, multi_amdahl};
//! use hilp_core::{Hilp, SolverConfig, TimeStepPolicy};
//! use hilp_soc::{Constraints, SocSpec};
//! use hilp_workloads::{Workload, WorkloadVariant};
//!
//! # fn main() -> Result<(), hilp_core::HilpError> {
//! let workload = Workload::rodinia(WorkloadVariant::Default);
//! let soc = SocSpec::new(4).with_gpu(64);
//! let constraints = Constraints::unconstrained();
//! let policy = TimeStepPolicy::sweep();
//! let solver = SolverConfig::sweep();
//!
//! let ma = multi_amdahl(&workload, &soc, &constraints, &policy)?;
//! let hilp = Hilp::new(workload.clone(), soc.clone())
//!     .with_policy(policy)
//!     .with_solver(solver.clone())
//!     .evaluate()?;
//! let gables = gables_parallel(&workload, &soc, &constraints, &policy, &solver, &())?;
//!
//! // MA <= HILP <= Gables, and the WLP ordering matches (paper Figure 6).
//! assert!(ma.speedup <= hilp.speedup * 1.05);
//! assert!(hilp.speedup <= gables.speedup * 1.05);
//! assert_eq!(ma.avg_wlp, 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use hilp_core::{
    average_wlp, check_time_step, tabulate, BudgetKind, Hilp, HilpError, RefinementObserver,
    SolverConfig, TimeStepPolicy,
};
use hilp_sched::TaskId;
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::{Application, Workload};

/// Prediction of a baseline model for one SoC and workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Predicted overall workload execution time (s).
    pub makespan_seconds: f64,
    /// Energy of the model's (implied) schedule (J): the sum of each
    /// phase's `power x duration` under the mode the model selects.
    pub energy_joules: f64,
    /// Predicted speedup over fully sequential single-core execution.
    pub speedup: f64,
    /// Average WLP of the model's (implied) schedule.
    pub avg_wlp: f64,
    /// Relative optimality gap of the underlying solve. MultiAmdahl is
    /// exact given its sequential-order assumption, so its gap is 0;
    /// parallel-mode Gables surfaces the scheduler's reported gap.
    pub gap: f64,
    /// Which budget constraint (if any) truncated the underlying solve.
    /// Always `None` for MultiAmdahl (a closed-form sum — there is no
    /// search to budget); Gables surfaces its scheduler's truncation.
    pub truncated: Option<BudgetKind>,
}

/// MultiAmdahl: fully sequential execution, each phase on its fastest
/// compatible cluster.
///
/// Because only one phase is ever active, the resource constraints reduce
/// to per-phase feasibility (a cluster whose lone draw exceeds the budget
/// is unusable), which the shared encoding already enforces. The predicted
/// makespan is simply the sum of per-phase minimum execution times; WLP is
/// 1 by construction.
///
/// # Errors
///
/// Propagates encoding failures (incompatible phases, invalid time step).
pub fn multi_amdahl(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    policy: &TimeStepPolicy,
) -> Result<BaselineResult, HilpError> {
    // Apply the same adaptive time-step refinement HILP uses so the two
    // models see identical discretization (the paper evaluates all models
    // within one framework; comparing a continuous MA against a
    // discretized HILP would bias the comparison). The tick is checked
    // before tabulating, so an invalid one is reported first, as `encode`
    // reports it.
    let mut time_step = policy.initial_seconds;
    check_time_step(time_step)?;
    let table = tabulate(workload, soc, constraints)?;
    let mut refinements = 0;
    let (makespan_seconds, energy_joules) = loop {
        let (instance, _) = table.discretize(time_step)?;
        let total_steps: u64 = (0..instance.num_tasks())
            .map(|t| u64::from(instance.min_duration(TaskId(t))))
            .sum();
        let refine = total_steps > 0
            && total_steps < u64::from(policy.target_steps)
            && refinements < policy.max_refinements;
        if refine {
            refinements += 1;
            time_step /= policy.refine_factor;
            continue;
        }
        // Energy of the implied schedule: each phase runs its fastest
        // mode, ties broken toward the frugal one (watt-steps x tick).
        let energy_steps: f64 = (0..instance.num_tasks())
            .map(|t| {
                let task = TaskId(t);
                let min = instance.min_duration(task);
                instance
                    .task(task)
                    .modes
                    .iter()
                    .filter(|m| m.duration == min)
                    .map(hilp_sched::Mode::energy)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        break (total_steps as f64 * time_step, energy_steps * time_step);
    };
    let sequential = workload.sequential_cpu_seconds();
    let speedup = if makespan_seconds > 0.0 {
        sequential / makespan_seconds
    } else {
        1.0
    };
    Ok(BaselineResult {
        makespan_seconds,
        energy_joules,
        speedup,
        avg_wlp: 1.0,
        gap: 0.0,
        truncated: None,
    })
}

/// Strips every dependency edge from the workload — Gables' fully parallel
/// execution model. Public so sweep drivers can reconstruct the effective
/// workload Gables schedules (e.g. to key a memoization cache).
#[must_use]
pub fn without_dependencies(workload: &Workload) -> Workload {
    let apps = workload
        .applications()
        .iter()
        .map(|a| Application {
            name: a.name.clone(),
            phases: a.phases.clone(),
            dependencies: Vec::new(),
            start_dependencies: Vec::new(),
        })
        .collect();
    Workload::new(format!("{} (no deps)", workload.name()), apps)
}

/// Parallel-mode Gables: schedules the workload with all phase
/// dependencies discarded and without a power budget (Gables cannot
/// express one; bandwidth, Gables' native constraint, is kept).
/// `observer` hears of every refinement level, as in
/// [`Hilp::evaluate_with_observer`]; `&()` observes nothing.
///
/// # Errors
///
/// Propagates encoding and scheduling failures.
pub fn gables_parallel(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    policy: &TimeStepPolicy,
    solver: &SolverConfig,
    observer: &dyn RefinementObserver,
) -> Result<BaselineResult, HilpError> {
    let parallel = without_dependencies(workload);
    let eval = Hilp::new(parallel, soc.clone())
        .with_constraints(gables_constraints(constraints))
        .with_policy(*policy)
        .with_solver(solver.clone())
        .evaluate_with_observer(observer)?;
    // Speedup is still measured against the original workload's sequential
    // baseline (identical phase times, so the value is unchanged, but be
    // explicit about the reference).
    let sequential = workload.sequential_cpu_seconds();
    let speedup = if eval.makespan_seconds > 0.0 {
        sequential / eval.makespan_seconds
    } else {
        1.0
    };
    Ok(BaselineResult {
        makespan_seconds: eval.makespan_seconds,
        energy_joules: eval.energy_joules,
        speedup,
        avg_wlp: average_wlp(&eval.schedule, &eval.instance),
        gap: eval.gap,
        truncated: eval.truncated,
    })
}

/// The constraints parallel-mode Gables actually enforces: the power
/// budget is dropped (Gables cannot express one), bandwidth is kept.
#[must_use]
pub fn gables_constraints(constraints: &Constraints) -> Constraints {
    Constraints {
        power_w: None,
        bandwidth_gbps: constraints.bandwidth_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_soc::DsaSpec;
    use hilp_workloads::WorkloadVariant;

    fn fast_solver() -> SolverConfig {
        SolverConfig {
            heuristic_starts: 60,
            local_search_passes: 2,
            exact_node_budget: 0,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn ma_wlp_is_always_one() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        for soc in [
            SocSpec::new(1),
            SocSpec::new(8).with_gpu(64),
            SocSpec::new(4).with_dsa(DsaSpec::new(16, "LUD")),
        ] {
            let r = multi_amdahl(
                &w,
                &soc,
                &Constraints::unconstrained(),
                &TimeStepPolicy::sweep(),
            )
            .unwrap();
            assert_eq!(r.avg_wlp, 1.0);
        }
    }

    #[test]
    fn ma_is_insensitive_to_cpu_count() {
        // Figure 6: "MA also consistently reports pessimistic speedups ...
        // because the GPU configuration does not change".
        let w = Workload::rodinia(WorkloadVariant::Rodinia);
        let policy = TimeStepPolicy::sweep();
        let one = multi_amdahl(
            &w,
            &SocSpec::new(1).with_gpu(64),
            &Constraints::unconstrained(),
            &policy,
        )
        .unwrap();
        let eight = multi_amdahl(
            &w,
            &SocSpec::new(8).with_gpu(64),
            &Constraints::unconstrained(),
            &policy,
        )
        .unwrap();
        let rel = (one.speedup - eight.speedup).abs() / one.speedup;
        assert!(rel < 0.05, "MA speedup varied {rel} with CPU count");
    }

    #[test]
    fn ma_rodinia_speedup_matches_paper_band() {
        // Figure 6a: MA reports a speedup of 4.9 for Rodinia on a 64-SM SoC.
        let w = Workload::rodinia(WorkloadVariant::Rodinia);
        let r = multi_amdahl(
            &w,
            &SocSpec::new(4).with_gpu(64),
            &Constraints::unconstrained(),
            &TimeStepPolicy::validation(),
        )
        .unwrap();
        assert!(
            r.speedup > 3.9 && r.speedup < 5.9,
            "MA speedup {}",
            r.speedup
        );
    }

    #[test]
    fn ma_speedup_rises_as_serial_phases_shrink() {
        // Figure 6: MA's speedup grows from Rodinia to Optimized because
        // the un-hideable serial fraction shrinks. (The paper reports 4.9
        // and 19.8; our Table II reading reproduces the Rodinia figure
        // exactly and preserves the ordering for Optimized — see
        // EXPERIMENTS.md for the quantitative discussion.)
        let policy = TimeStepPolicy::validation();
        let soc = SocSpec::new(4).with_gpu(64);
        let speedup = |variant| {
            multi_amdahl(
                &Workload::rodinia(variant),
                &soc,
                &Constraints::unconstrained(),
                &policy,
            )
            .unwrap()
            .speedup
        };
        let rodinia = speedup(WorkloadVariant::Rodinia);
        let default = speedup(WorkloadVariant::Default);
        let optimized = speedup(WorkloadVariant::Optimized);
        assert!(rodinia < default && default < optimized);
        assert!(optimized > 15.0, "MA-Optimized speedup {optimized}");
    }

    #[test]
    fn gables_exceeds_hilp_which_exceeds_ma() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let constraints = Constraints::unconstrained();
        let policy = TimeStepPolicy::sweep();
        let solver = fast_solver();

        let ma = multi_amdahl(&w, &soc, &constraints, &policy).unwrap();
        let hilp = Hilp::new(w.clone(), soc.clone())
            .with_policy(policy)
            .with_solver(solver.clone())
            .evaluate()
            .unwrap();
        let gables = gables_parallel(&w, &soc, &constraints, &policy, &solver, &()).unwrap();

        // HILP schedules are near-optimal, not exactly optimal, so allow a
        // small tolerance in the ordering.
        assert!(ma.speedup <= hilp.speedup * 1.05);
        assert!(hilp.speedup <= gables.speedup * 1.05);
        assert!(ma.avg_wlp <= hilp.avg_wlp + 1e-9);
        assert!(hilp.avg_wlp <= gables.avg_wlp + 0.1);
    }

    #[test]
    fn gables_ignores_power_budgets() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let policy = TimeStepPolicy::sweep();
        let solver = fast_solver();
        let free = gables_parallel(
            &w,
            &soc,
            &Constraints::unconstrained(),
            &policy,
            &solver,
            &(),
        )
        .unwrap();
        let capped = gables_parallel(
            &w,
            &soc,
            &Constraints::unconstrained().with_power(20.0),
            &policy,
            &solver,
            &(),
        )
        .unwrap();
        assert!((free.speedup - capped.speedup).abs() < 1e-9);
    }

    #[test]
    fn baselines_report_their_optimality_gap() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let c = Constraints::unconstrained();
        let policy = TimeStepPolicy::sweep();
        let ma = multi_amdahl(&w, &soc, &c, &policy).unwrap();
        assert_eq!(ma.gap, 0.0, "MA is exact under its own assumption");
        let g = gables_parallel(&w, &soc, &c, &policy, &fast_solver(), &()).unwrap();
        assert!(g.gap >= 0.0 && g.gap.is_finite(), "Gables gap {}", g.gap);
    }

    #[test]
    fn stripping_dependencies_empties_every_dag() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let stripped = without_dependencies(&w);
        assert!(stripped
            .applications()
            .iter()
            .all(|a| a.dependencies.is_empty()));
        assert_eq!(stripped.num_phases(), w.num_phases());
    }
}
