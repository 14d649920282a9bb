//! Telemetry is purely observational: enabling it may never change any
//! solver output, and a drained journal must replay to consistent,
//! monotone incumbent/bound sequences.
//!
//! The bit-identity property is enforced two ways: a proptest over the
//! shared `hilp-testkit` instance strategies (scheduler level) and an
//! end-to-end HILP evaluation (full refinement pipeline, including the
//! dominance-aware sweep). The replay check exercises the journal of a
//! real solve, not a hand-built one.

use proptest::prelude::*;

use hilp_core::{Hilp, TimeStepPolicy};
use hilp_dse::{evaluate_space_with_stats, ModelKind, SweepConfig};
use hilp_sched::{solve, SolverConfig};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{check_single_solve_replay, Counter, Record, Telemetry};
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

/// A traced dominance-aware sweep reproduces the untraced sweep exactly
/// and fills the sweep-level counters.
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
            ..SolverConfig::default()
        },
        threads: 2,
        telemetry,
        ..SweepConfig::default()
    };
    let (plain, _) = evaluate_space_with_stats(
        &workload,
        &socs,
        &Constraints::unconstrained(),
        ModelKind::Hilp,
        &config(Telemetry::disabled()),
    )
    .unwrap();
    let tel = Telemetry::enabled();
    let (traced, stats) = evaluate_space_with_stats(
        &workload,
        &socs,
        &Constraints::unconstrained(),
        ModelKind::Hilp,
        &config(tel.clone()),
    )
    .unwrap();
    assert_eq!(plain, traced, "telemetry changed sweep results");
    assert_eq!(tel.counter(Counter::SweepPoints), socs.len() as u64);
    assert_eq!(
        tel.counter(Counter::LevelsSolved),
        stats.levels_solved as u64
    );
    assert_eq!(
        tel.counter(Counter::InheritedBoundLevels),
        stats.bound_inherited_levels as u64
    );
    // Every solved level emitted a Level record.
    let levels = tel
        .journal()
        .records
        .iter()
        .filter(|r| matches!(r, Record::Level { .. }))
        .count();
    assert_eq!(levels, stats.levels_solved);
}
