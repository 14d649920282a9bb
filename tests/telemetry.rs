//! Telemetry is purely observational: enabling it may never change any
//! solver output, and a drained journal must replay to consistent,
//! monotone incumbent/bound sequences.
//!
//! The bit-identity property is enforced two ways: a proptest over the
//! shared `hilp-testkit` instance strategies (scheduler level) and an
//! end-to-end HILP evaluation (full refinement pipeline, including the
//! parallel sweep). The replay check exercises the journal of a real
//! solve, not a hand-built one.

use proptest::prelude::*;

use hilp_core::{Hilp, TimeStepPolicy};
use hilp_dse::{evaluate_space_pareto, evaluate_space_with_stats, ModelKind, SweepConfig};
use hilp_sched::{solve, InstanceBuilder, Mode, SolverConfig};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{Counter, Record, Telemetry, TraceSummary};
use hilp_testkit::journal::check_single_solve_replay;
use hilp_testkit::strategies::{arb_instance, InstanceParams};
use hilp_workloads::{Workload, WorkloadVariant};

/// A solver configuration that exercises both the heuristic and the exact
/// phase on tiny instances, fast enough for a proptest loop.
fn exact_config(telemetry: Telemetry) -> SolverConfig {
    SolverConfig {
        heuristic_starts: 40,
        local_search_passes: 1,
        exact_node_budget: 50_000,
        telemetry,
        ..SolverConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Solving with telemetry enabled must return the exact same outcome
    /// (makespan, schedule, bound, optimality flags) as solving without.
    #[test]
    fn telemetry_never_changes_solver_output(
        instance in arb_instance(InstanceParams::tiny())
    ) {
        let plain = solve(&instance, &exact_config(Telemetry::disabled())).unwrap();
        let tel = Telemetry::enabled();
        let traced = solve(&instance, &exact_config(tel.clone())).unwrap();
        prop_assert_eq!(&plain, &traced);
        // The traced run must actually have recorded something.
        prop_assert!(tel.counter(Counter::HeuristicJobsRequested) > 0);
        prop_assert!(
            tel.counter(Counter::HeuristicJobsCutOff) <= tel.counter(Counter::HeuristicJobsExecuted)
        );
    }

    /// The journal of any solve replays to monotone incumbent/bound
    /// sequences: incumbents never worsen, proven bounds never loosen,
    /// and no bound ever exceeds the final incumbent.
    #[test]
    fn solve_journals_replay_monotonically(
        instance in arb_instance(InstanceParams::small())
    ) {
        let tel = Telemetry::enabled();
        solve(&instance, &exact_config(tel.clone())).unwrap();
        let journal = tel.journal();
        prop_assert!(journal.records.iter().any(|r| matches!(r, Record::Incumbent { .. })));
        if let Err(e) = check_single_solve_replay(&journal) {
            return Err(proptest::TestCaseError::Fail(e));
        }
    }
}

/// Each heuristic phase times in its own span, nested directly in
/// `sched.heuristic` on the solving thread, so `hilp trace-summary` splits
/// the heuristic's time by phase.
#[test]
fn traced_solve_records_each_heuristic_phase_in_its_own_span() {
    let mut b = InstanceBuilder::new();
    let fast = b.add_machine("fast");
    let slow = b.add_machine("slow");
    b.add_task("a", vec![Mode::on(fast, 4), Mode::on(slow, 5)]);
    b.add_task("b", vec![Mode::on(fast, 4), Mode::on(slow, 5)]);
    b.set_horizon(20);
    let instance = b.build().unwrap();
    let tel = Telemetry::enabled();
    // Without bound termination no phase is skipped for reaching the bound.
    solve(
        &instance,
        &SolverConfig {
            heuristic_starts: 8,
            local_search_passes: 1,
            exact_node_budget: 0,
            bound_termination: false,
            telemetry: tel.clone(),
            ..SolverConfig::default()
        },
    )
    .unwrap();
    let journal = tel.journal();
    let span = |wanted: &str| {
        journal
            .records
            .iter()
            .find_map(|r| match r {
                Record::Span {
                    name,
                    thread,
                    depth,
                    start_us,
                    dur_us,
                } if name == wanted => Some((*thread, *depth, *start_us, start_us + dur_us)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no {wanted} span"))
    };
    let (thread, depth, start, end) = span("sched.heuristic");
    for phase in [
        "sched.multi_start",
        "sched.ruin_recreate",
        "sched.local_search",
    ] {
        let (phase_thread, phase_depth, phase_start, phase_end) = span(phase);
        assert_eq!((phase_thread, phase_depth), (thread, depth + 1), "{phase}");
        assert!(start <= phase_start && phase_end <= end, "{phase}");
    }
}

/// End-to-end: a full HILP evaluation (adaptive refinement, heuristic +
/// exact phases) is bit-identical with telemetry on and off.
#[test]
fn traced_evaluation_is_bit_identical() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(2).with_gpu(16);
    let run = |telemetry: Telemetry| {
        Hilp::new(workload.clone(), soc.clone())
            .with_constraints(Constraints::paper_default())
            .with_policy(TimeStepPolicy::sweep())
            .with_solver(SolverConfig {
                heuristic_starts: 60,
                local_search_passes: 1,
                exact_node_budget: 0,
                telemetry,
                ..SolverConfig::default()
            })
            .evaluate()
            .unwrap()
    };
    let plain = run(Telemetry::disabled());
    let tel = Telemetry::enabled();
    let traced = run(tel.clone());
    assert_eq!(plain.makespan_steps, traced.makespan_steps);
    assert_eq!(plain.schedule, traced.schedule);
    assert_eq!(plain.gap, traced.gap);
    assert!(tel.counter(Counter::LevelsSolved) > 0);
}

/// A traced sweep reproduces the untraced sweep exactly and fills the
/// sweep-level counters, for HILP and for Gables, whose evaluations refine
/// too.
#[test]
fn traced_sweep_is_bit_identical_and_counts() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let socs = vec![
        SocSpec::new(4).with_gpu(16),
        SocSpec::new(2).with_gpu(16),
        SocSpec::new(2),
        SocSpec::new(1),
    ];
    let config = |telemetry: Telemetry| SweepConfig {
        policy: TimeStepPolicy::fixed(10.0),
        solver: SolverConfig {
            heuristic_starts: 30,
            local_search_passes: 1,
            exact_node_budget: 0,
            telemetry,
            ..SolverConfig::default()
        },
        threads: 2,
        ..SweepConfig::default()
    };
    for model in [ModelKind::Hilp, ModelKind::Gables] {
        let (plain, _) = evaluate_space_with_stats(
            &workload,
            &socs,
            &Constraints::unconstrained(),
            model,
            &config(Telemetry::disabled()),
        )
        .unwrap();
        let tel = Telemetry::enabled();
        let (traced, stats) = evaluate_space_with_stats(
            &workload,
            &socs,
            &Constraints::unconstrained(),
            model,
            &config(tel.clone()),
        )
        .unwrap();
        assert_eq!(plain, traced, "telemetry changed {model:?} sweep results");
        assert_eq!(tel.counter(Counter::SweepPoints), socs.len() as u64);
        assert!(stats.levels_solved > 0, "{model:?} counted no levels");
        assert_eq!(
            tel.counter(Counter::LevelsSolved),
            stats.levels_solved as u64,
            "{model:?}"
        );
        // Every solved level emitted a Level record.
        let levels = tel
            .journal()
            .records
            .iter()
            .filter(|r| matches!(r, Record::Level { .. }))
            .count();
        assert_eq!(levels, stats.levels_solved, "{model:?}");
    }
}

/// A traced Pareto sweep hands each point's refinement levels to the
/// sweep, as a scalar sweep does: the journal holds one `level` record per
/// level the point's evaluation solved.
#[test]
fn traced_pareto_sweep_journals_every_solved_level() {
    let tel = Telemetry::enabled();
    let config = SweepConfig {
        policy: TimeStepPolicy::sweep(),
        solver: SolverConfig {
            heuristic_starts: 30,
            local_search_passes: 1,
            exact_node_budget: 0,
            telemetry: tel.clone(),
            ..SolverConfig::default()
        },
        threads: 1,
        ..SweepConfig::default()
    };
    let points = evaluate_space_pareto(
        &Workload::rodinia(WorkloadVariant::Default),
        &[SocSpec::new(2).with_gpu(16)],
        &Constraints::unconstrained(),
        &config,
    )
    .unwrap();
    assert_eq!(points.len(), 1);
    assert!(!points[0].front.is_empty());
    let levels = tel
        .journal()
        .records
        .iter()
        .filter(|r| matches!(r, Record::Level { .. }))
        .count() as u64;
    assert!(tel.counter(Counter::LevelsSolved) > 1);
    assert_eq!(levels, tel.counter(Counter::LevelsSolved));
}

/// A one-thread sweep answers its points on the calling thread, inside
/// `dse.sweep`: the trace summary counts one thread, and the sweep's self
/// time excludes the time its points took.
#[test]
fn one_thread_sweep_traces_its_points_inside_the_sweep_span() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(1)];
    let tel = Telemetry::enabled();
    let config = SweepConfig {
        policy: TimeStepPolicy::fixed(10.0),
        solver: SolverConfig {
            heuristic_starts: 30,
            local_search_passes: 1,
            exact_node_budget: 0,
            telemetry: tel.clone(),
            ..SolverConfig::default()
        },
        threads: 1,
        ..SweepConfig::default()
    };
    evaluate_space_with_stats(
        &workload,
        &socs,
        &Constraints::unconstrained(),
        ModelKind::Hilp,
        &config,
    )
    .unwrap();
    let summary = TraceSummary::from_journal(&tel.journal());
    assert_eq!(summary.threads, 1);
    let row = |name: &str| {
        summary
            .spans
            .iter()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    let (sweep, points) = (row("dse.sweep"), row("dse.point"));
    assert_eq!(points.count, socs.len() as u64);
    assert!(points.total_us > 0);
    assert!(
        sweep.self_us <= sweep.total_us.saturating_sub(points.total_us),
        "dse.sweep self {} us of {} us, dse.point {} us",
        sweep.self_us,
        sweep.total_us,
        points.total_us
    );
}
