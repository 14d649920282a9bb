//! Cross-crate integration tests: the full pipeline from workload + SoC
//! specification through encoding, scheduling, and metric extraction, plus
//! agreement between the two independent solver stacks.

use hilp_core::example2;
use hilp_core::{average_wlp, encode, Hilp, SolverConfig, TimeStepPolicy};
use hilp_dse::{
    design_space, evaluate_space, evaluate_space_with_stats, pareto_front, ModelKind, SweepConfig,
};
use hilp_model::SolveLimits;
use hilp_sched::{solve, solve_exact};
use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_telemetry::{Counter, Telemetry};
use hilp_testkit::milp_encode::makespan_via_milp;
use hilp_workloads::sda::{sda_workload, SdaScenario};
use hilp_workloads::{Workload, WorkloadVariant};

fn fast_solver() -> SolverConfig {
    SolverConfig {
        heuristic_starts: 60,
        local_search_passes: 2,
        exact_node_budget: 0,
        ..SolverConfig::default()
    }
}

fn fast_sweep() -> SweepConfig {
    SweepConfig {
        policy: TimeStepPolicy::fixed(5.0),
        solver: fast_solver(),
        threads: 0,
        memoize: true,
        ..SweepConfig::default()
    }
}

// ---------------------------------------------------------------------------
// The worked example, cross-validated across both solver stacks.
// ---------------------------------------------------------------------------

#[test]
fn figure2_agrees_across_scheduler_and_milp() {
    let instance = example2::figure2_instance();
    let sched = solve_exact(&instance, &SolverConfig::default()).unwrap();
    let milp = makespan_via_milp(&instance, &SolveLimits::default()).unwrap();
    assert_eq!(sched.makespan, example2::UNCONSTRAINED_OPTIMUM);
    assert_eq!(milp, example2::UNCONSTRAINED_OPTIMUM);
    assert!(sched.proved_optimal);
}

#[test]
fn figure3_power_constraint_costs_two_seconds() {
    let unconstrained =
        solve_exact(&example2::figure2_instance(), &SolverConfig::default()).unwrap();
    let constrained = solve_exact(&example2::figure3_instance(), &SolverConfig::default()).unwrap();
    assert_eq!(unconstrained.makespan, 7);
    assert_eq!(constrained.makespan, 9);
}

#[test]
fn figure2_wlp_sits_between_ma_and_gables() {
    // Paper Figure 2: MA = 1.0 < HILP = 1.7 < Gables = 2.4.
    let (instance, schedule) = example2::figure2_optimal();
    let hilp_wlp = average_wlp(&schedule, &instance);
    assert!(hilp_wlp > 1.0 && hilp_wlp < 2.4);
    assert!((hilp_wlp - 1.7).abs() < 0.05);
}

// ---------------------------------------------------------------------------
// Full pipeline on real workloads.
// ---------------------------------------------------------------------------

#[test]
fn every_evaluation_produces_a_feasible_schedule() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let socs = [
        SocSpec::new(1),
        SocSpec::new(2).with_gpu(16),
        SocSpec::new(4)
            .with_gpu(64)
            .with_dsa(DsaSpec::new(16, "LUD")),
    ];
    for soc in socs {
        let eval = Hilp::new(workload.clone(), soc)
            .with_constraints(Constraints::paper_default())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .with_solver(fast_solver())
            .evaluate()
            .unwrap();
        assert!(
            eval.schedule.verify(&eval.instance).is_empty(),
            "violations on {:?}",
            eval.schedule.verify(&eval.instance)
        );
        assert!(eval.lower_bound_seconds <= eval.makespan_seconds + 1e-9);
        assert!(eval.gap >= 0.0);
    }
}

#[test]
fn tighter_power_budgets_never_help() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(64);
    let eval_at = |power: f64| {
        Hilp::new(workload.clone(), soc.clone())
            .with_constraints(Constraints::unconstrained().with_power(power))
            .with_policy(TimeStepPolicy::fixed(5.0))
            .with_solver(fast_solver())
            .evaluate()
            .unwrap()
            .makespan_seconds
    };
    let tight = eval_at(60.0);
    let loose = eval_at(600.0);
    // Heuristic noise aside, more power can only shorten the schedule.
    assert!(loose <= tight * 1.10, "loose {loose} vs tight {tight}");
}

#[test]
fn tighter_bandwidth_budgets_never_help() {
    let workload = Workload::rodinia(WorkloadVariant::Optimized);
    let soc = SocSpec::new(4).with_gpu(64);
    let eval_at = |bw: f64| {
        Hilp::new(workload.clone(), soc.clone())
            .with_constraints(Constraints::unconstrained().with_bandwidth(bw))
            .with_policy(TimeStepPolicy::fixed(5.0))
            .with_solver(fast_solver())
            .evaluate()
            .unwrap()
            .makespan_seconds
    };
    assert!(eval_at(400.0) <= eval_at(50.0) * 1.10);
}

#[test]
fn encoding_then_solving_respects_the_core_cap() {
    // Two CPUs: at most two cores' worth of phases concurrently, even
    // though parallel compute modes exist.
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let (instance, _) = encode(
        &workload,
        &SocSpec::new(2),
        &Constraints::unconstrained(),
        5.0,
    )
    .unwrap();
    let outcome = solve(&instance, &fast_solver()).unwrap();
    assert!(outcome.schedule.verify(&instance).is_empty());
}

// ---------------------------------------------------------------------------
// Baselines and DSE plumbing.
// ---------------------------------------------------------------------------

#[test]
fn model_ordering_holds_across_a_mini_space() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let socs = vec![
        SocSpec::new(2).with_gpu(16),
        SocSpec::new(4).with_gpu(64),
        SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS")),
    ];
    let config = fast_sweep();
    let constraints = Constraints::paper_default();
    let ma = evaluate_space(
        &workload,
        &socs,
        &constraints,
        ModelKind::MultiAmdahl,
        &config,
    )
    .unwrap();
    let hilp = evaluate_space(&workload, &socs, &constraints, ModelKind::Hilp, &config).unwrap();
    let gables =
        evaluate_space(&workload, &socs, &constraints, ModelKind::Gables, &config).unwrap();
    for i in 0..socs.len() {
        assert!(
            ma[i].speedup <= hilp[i].speedup * 1.05,
            "{}: MA {} vs HILP {}",
            socs[i].label(),
            ma[i].speedup,
            hilp[i].speedup
        );
        assert!(
            hilp[i].speedup <= gables[i].speedup * 1.05,
            "{}: HILP {} vs Gables {}",
            socs[i].label(),
            hilp[i].speedup,
            gables[i].speedup
        );
        assert_eq!(ma[i].avg_wlp, 1.0);
        assert!(hilp[i].avg_wlp <= gables[i].avg_wlp + 0.25);
    }
}

#[test]
fn pareto_front_of_design_points_is_dominance_free() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let socs = vec![
        SocSpec::new(1),
        SocSpec::new(1).with_gpu(4),
        SocSpec::new(2).with_gpu(16),
        SocSpec::new(4).with_gpu(64),
        SocSpec::new(4).with_gpu(4),
    ];
    let points = evaluate_space(
        &workload,
        &socs,
        &Constraints::unconstrained(),
        ModelKind::Hilp,
        &fast_sweep(),
    )
    .unwrap();
    let front = pareto_front(&points);
    assert!(!front.is_empty());
    for &i in &front {
        for (j, p) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = p.area_mm2 <= points[i].area_mm2
                && p.speedup >= points[i].speedup
                && (p.area_mm2 < points[i].area_mm2 || p.speedup > points[i].speedup);
            assert!(
                !dominates,
                "{} dominates front member {}",
                p.label, points[i].label
            );
        }
    }
}

/// A sweep's results are independent of its worker-thread count: workers
/// race for points, but each point is solved on its own.
#[test]
fn paper_space_sweeps_are_thread_count_independent() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(31).collect();
    assert!(socs.len() >= 10);
    let config = |threads| SweepConfig {
        policy: TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 2,
        },
        solver: SolverConfig {
            heuristic_starts: 16,
            local_search_passes: 1,
            exact_node_budget: 0,
            ..SolverConfig::default()
        },
        threads,
        memoize: true,
        ..SweepConfig::default()
    };
    let sweep = |threads| {
        evaluate_space_with_stats(
            &workload,
            &socs,
            &constraints,
            ModelKind::Hilp,
            &config(threads),
        )
        .unwrap()
    };
    let (single, _) = sweep(1);
    for threads in [2, 4] {
        let (multi, stats) = sweep(threads);
        assert_eq!(single, multi, "{threads} threads changed results");
        assert_eq!(stats.threads_used, threads.min(socs.len()));
    }
}

// ---------------------------------------------------------------------------
// The exact phase's search tree.
// ---------------------------------------------------------------------------

/// Pins branch and bound's search on 12-task Rodinia instances (LUD, HS,
/// LMD and NN) whose heuristic misses the lower bound, so the exact phase
/// runs. Every search here ends on its node budget, so the node count alone
/// says little; the bound prunes count every child the tree generated and
/// cut, so a change that reshapes the tree moves them even where the optima
/// hold. None of it may depend on the worker count.
#[test]
fn bnb_search_trees_stay_pinned() {
    let workload = Workload::rodinia(WorkloadVariant::Default).subset(&["LUD", "HS", "LMD", "NN"]);
    let constraints = Constraints::paper_default();
    let space = design_space(4.0);
    // (SoC, tick in seconds, node budget) and the pinned
    // (makespan, lower bound, proved optimal, nodes, bound prunes).
    let cases = [
        // Proved: the search reaches the combinatorial lower bound and
        // stops there.
        ("(c2,g0,d0^0)", 5.0, 2_000, (124, 124, true, 649, 822)),
        // Stopped by the budget after improving the heuristic's 224.
        ("(c2,g0,d1^1)", 2.0, 2_000, (215, 192, false, 2_000, 4_836)),
        // One instance stopped before, then after, the search finds its
        // optimum.
        ("(c2,g0,d2^16)", 10.0, 1_000, (23, 22, false, 1_000, 2_518)),
        ("(c2,g0,d2^16)", 10.0, 2_000, (22, 22, true, 1_289, 3_615)),
    ];
    for (label, tick, budget, expected) in cases {
        let soc = space.iter().find(|s| s.label() == label).unwrap();
        let (instance, _) = encode(&workload, soc, &constraints, tick).unwrap();
        assert_eq!(instance.num_tasks(), 12);
        for threads in [1, 2] {
            let telemetry = Telemetry::enabled();
            let outcome = solve(
                &instance,
                &SolverConfig {
                    exact_node_budget: budget,
                    bnb_threads: threads,
                    telemetry: telemetry.clone(),
                    ..SolverConfig::default()
                },
            )
            .unwrap();
            assert!(outcome.stats.exact_phase_ran);
            let got = (
                outcome.makespan,
                outcome.lower_bound,
                outcome.proved_optimal,
                outcome.stats.bnb_nodes,
                telemetry.counter(Counter::BnbPrunesBound),
            );
            assert_eq!(
                got, expected,
                "{label} at {tick} s, {budget} nodes, {threads} workers"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The SDA extension end to end.
// ---------------------------------------------------------------------------

#[test]
fn sda_pipeline_overlaps_samples() {
    let workload = sda_workload(2, SdaScenario::Baseline);
    let mut soc = SocSpec::new(1).with_gpu(8);
    for key in hilp_workloads::sda::DS_KEYS {
        soc = soc.with_dsa(DsaSpec::new(1, key));
    }
    let eval = Hilp::new(workload, soc)
        .with_policy(TimeStepPolicy::fixed(1.0))
        .with_solver(SolverConfig::default())
        .evaluate()
        .unwrap();
    assert!(eval.schedule.verify(&eval.instance).is_empty());
    // Two samples must overlap: strictly faster than 2x one sample's
    // critical path, and with WLP above 1.
    assert!(eval.avg_wlp > 1.0);
}

#[test]
fn sda_scenarios_beat_the_baseline() {
    let results = hilp_dse::experiments::fig10_sda(
        2,
        &SweepConfig {
            solver: SolverConfig::default(),
            ..fast_sweep()
        },
    )
    .unwrap();
    assert_eq!(results.len(), 3);
    let baseline = results[0].makespan_seconds;
    let faster_cpu = results[1].makespan_seconds;
    let bigger_gpu = results[2].makespan_seconds;
    assert!(
        faster_cpu < baseline,
        "2x CPU {faster_cpu} should beat baseline {baseline}"
    );
    assert!(
        bigger_gpu < baseline,
        "2x GPU {bigger_gpu} should beat baseline {baseline}"
    );
}

// ---------------------------------------------------------------------------
// The synthetic mobile workload (generality beyond Rodinia).
// ---------------------------------------------------------------------------

#[test]
fn mobile_workload_evaluates_under_a_phone_budget() {
    let workload = hilp_workloads::mobile::mobile_workload();
    let soc = SocSpec::new(2)
        .with_gpu(4)
        .with_dsa(DsaSpec::new(2, "NN"))
        .with_dsa(DsaSpec::new(2, "ISP"));
    let eval = Hilp::new(workload, soc)
        .with_constraints(
            Constraints::unconstrained()
                .with_power(15.0)
                .with_bandwidth(100.0),
        )
        .with_policy(TimeStepPolicy::fixed(0.5))
        .with_solver(fast_solver())
        .evaluate()
        .unwrap();
    assert!(eval.schedule.verify(&eval.instance).is_empty());
    // Accelerators plus parallelism must clearly beat sequential execution.
    assert!(eval.speedup > 5.0, "speedup {}", eval.speedup);
    assert!(eval.avg_wlp > 1.2, "wlp {}", eval.avg_wlp);
    // The peak power respects the 15 W budget.
    let peak = eval
        .schedule
        .power_profile(&eval.instance)
        .into_iter()
        .fold(0.0f64, f64::max);
    assert!(peak <= 15.0 + 1e-6, "peak {peak} W");
}

#[test]
fn mobile_dsas_offload_the_heaviest_kernels() {
    // With DSAs for NN and ISP, those compute phases leave the GPU.
    let workload = hilp_workloads::mobile::mobile_workload();
    let soc = SocSpec::new(2)
        .with_gpu(8)
        .with_dsa(DsaSpec::new(4, "NN"))
        .with_dsa(DsaSpec::new(4, "ISP"));
    let eval = Hilp::new(workload, soc)
        .with_policy(TimeStepPolicy::fixed(0.5))
        .with_solver(fast_solver())
        .evaluate()
        .unwrap();
    let reports = hilp_core::report::application_reports(&eval);
    for name in ["NN", "ISP"] {
        let app = reports.iter().find(|r| r.application == name).unwrap();
        let compute = app
            .phases
            .iter()
            .find(|p| p.phase.ends_with("compute"))
            .unwrap();
        assert!(
            compute.machine.starts_with("dsa"),
            "{name}.compute ran on {}",
            compute.machine
        );
    }
}

// ---------------------------------------------------------------------------
// Scale stress: the engine handles consolidated workloads (90 tasks).
// ---------------------------------------------------------------------------

#[test]
fn ninety_task_consolidated_workload_solves_feasibly() {
    let workload = Workload::rodinia(WorkloadVariant::Default).with_copies(3);
    assert_eq!(workload.num_phases(), 90);
    let soc = SocSpec::new(4)
        .with_gpu(64)
        .with_dsa(DsaSpec::new(16, "LUD"))
        .with_dsa(DsaSpec::new(16, "HS"));
    let eval = Hilp::new(workload, soc)
        .with_constraints(Constraints::paper_default())
        .with_policy(TimeStepPolicy::fixed(2.0))
        .with_solver(SolverConfig {
            heuristic_starts: 30,
            local_search_passes: 1,
            exact_node_budget: 0,
            ..SolverConfig::default()
        })
        .evaluate()
        .unwrap();
    assert!(eval.schedule.verify(&eval.instance).is_empty());
    assert!(
        eval.avg_wlp > 2.0,
        "consolidation should overlap: {}",
        eval.avg_wlp
    );
    assert!(eval.lower_bound_seconds <= eval.makespan_seconds + 1e-9);
}
