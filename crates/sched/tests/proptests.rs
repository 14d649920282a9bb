//! Property tests for the scheduler hot path, consuming the shared
//! `hilp-testkit` strategies (the generators that used to live here as
//! private copies).
//!
//! The event-driven timetable is cross-checked against the retained dense
//! reference on random placement/undo sequences, and the multi-start
//! heuristic is checked to be independent of thread count and timetable
//! representation.

use proptest::prelude::*;
use proptest::TestCaseError;

use hilp_sched::{
    solve_exact, solve_heuristic, Budget, Mode, Objective, SchedError, SolveOutcome, SolverConfig,
    Timetable, TimetableKind,
};
use hilp_sched::{MachineId, Schedule};
use hilp_testkit::strategies::{
    arb_instance, op_mode, shell_instance, timetable_ops, InstanceParams,
};

/// On both backends, `earliest_start_by(mode, est, latest)` must equal the
/// unbounded answer filtered to `<= latest`, for `latest` `step` below,
/// one below, at and `step` above that answer (taking `est` in its place
/// when there is none), and for `u32::MAX`.
fn check_bounded_probes(
    timetables: [&Timetable<'_>; 2],
    mode: &Mode,
    est: u32,
    step: u32,
) -> Result<(), TestCaseError> {
    let unbounded = timetables[0].earliest_start(mode, est);
    let pivot = unbounded.unwrap_or(est);
    for latest in [
        pivot.saturating_sub(step),
        pivot.saturating_sub(1),
        pivot,
        pivot.saturating_add(step),
        u32::MAX,
    ] {
        let expected = unbounded.filter(|&s| s <= latest);
        for tt in timetables {
            prop_assert_eq!(
                tt.earliest_start_by(mode, est, latest),
                expected,
                "earliest_start_by(est {}, latest {}) diverged",
                est,
                latest
            );
        }
    }
    Ok(())
}

/// The determinism property compares the schedule-relevant parts of an
/// outcome, ignoring run statistics.
fn essence(result: &Result<SolveOutcome, SchedError>) -> Option<(u32, u32, &Schedule)> {
    result
        .as_ref()
        .ok()
        .map(|out| (out.makespan, out.lower_bound, &out.schedule))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-driven timetable must agree with the dense reference on
    /// every `earliest_start` probe across arbitrary place/undo sequences,
    /// every bounded `earliest_start_by` probe must be the unbounded answer
    /// cut at its bound, and undo must restore the profiles exactly.
    #[test]
    fn timetable_representations_match_dense_reference(ops in timetable_ops()) {
        let (instance, res) = shell_instance();
        let mut event = Timetable::with_kind(&instance, TimetableKind::Event);
        let mut dense = Timetable::with_kind(&instance, TimetableKind::Dense);
        let mut placed: Vec<(Mode, u32)> = Vec::new();
        for op in &ops {
            let ((_, duration, est), _, unplace) = *op;
            if unplace && !placed.is_empty() {
                let victim = usize::from(est) % placed.len();
                let (mode, start) = placed.swap_remove(victim);
                event.unplace(&mode, start);
                dense.unplace(&mode, start);
            } else {
                let mode = op_mode(op, res);
                let e = event.earliest_start(&mode, u32::from(est));
                let d = dense.earliest_start(&mode, u32::from(est));
                prop_assert_eq!(e, d, "event and dense earliest_start diverged");
                check_bounded_probes(
                    [&event, &dense],
                    &mode,
                    u32::from(est),
                    u32::from(duration),
                )?;
                if let Some(start) = e {
                    event.place(&mode, start);
                    dense.place(&mode, start);
                    placed.push((mode, start));
                }
            }
            // Spot-check the aggregate profiles and a fresh probe per
            // machine after every operation.
            for t in [0u32, 13, 57, 200] {
                prop_assert_eq!(event.cores_at(t), dense.cores_at(t));
                prop_assert!((event.power_at(t) - dense.power_at(t)).abs() < 1e-9);
            }
            for m in 0..3 {
                let probe = Mode::on(MachineId(m), 3).power(1.5).cores(1);
                let e = event.earliest_start(&probe, 0);
                prop_assert_eq!(e, dense.earliest_start(&probe, 0));
                check_bounded_probes([&event, &dense], &probe, 0, u32::from(duration))?;
            }
        }
    }

    /// The exact branch and bound is bit-identical for every worker count —
    /// schedule, makespan, bound, proof flag, node count, and truncation —
    /// both when it runs to completion and when a node budget cuts it off
    /// mid-search. Each run builds a fresh [`Budget`] because cloning one
    /// shares its meter.
    #[test]
    fn exact_search_is_worker_count_independent(
        instance in arb_instance(InstanceParams::tiny()),
        budget_nodes in prop::option::of(1..400u64),
    ) {
        let run = |threads: usize| {
            solve_exact(
                &instance,
                &SolverConfig {
                    bnb_threads: threads,
                    budget: budget_nodes.map_or_else(Budget::unlimited, Budget::nodes),
                    bound_termination: false,
                    ..SolverConfig::exact()
                },
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            match (&reference, &other) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b, "{} workers diverged (budget {:?})", threads, budget_nodes
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    return Err(TestCaseError::Fail(format!(
                        "feasibility verdicts diverged: 1 worker ok={}, {threads} \
                         workers ok={} (budget {budget_nodes:?})",
                        a.is_ok(),
                        b.is_ok()
                    )));
                }
            }
        }
    }

    /// The multi-start heuristic returns bit-identical schedules for any
    /// thread count and for every timetable representation — including on
    /// instances with lags, custom resources, and tight horizons, through
    /// two local-search passes, and under a finite energy budget. Each
    /// worker cuts its SGS runs off at its own best so far, so the cutoffs
    /// differ between 1, 2 and 4 workers; the winner must not.
    #[test]
    fn heuristic_is_thread_and_representation_independent(
        instance in arb_instance(InstanceParams::tiny()),
        seed in 0..1_000u64,
        energy_slack in 0.0..0.5f64,
    ) {
        let capped =
            Objective::MakespanUnderEnergyCap(instance.min_total_energy() * (1.0 + energy_slack));
        for objective in [Objective::Makespan, capped] {
            let base = SolverConfig {
                heuristic_starts: 12,
                local_search_passes: 2,
                seed,
                heuristic_threads: 1,
                timetable: TimetableKind::Event,
                objective,
                ..SolverConfig::default()
            };
            let serial = solve_heuristic(&instance, &base);
            for threads in [2, 4] {
                let parallel = solve_heuristic(
                    &instance,
                    &SolverConfig { heuristic_threads: threads, ..base.clone() },
                );
                prop_assert_eq!(
                    essence(&serial),
                    essence(&parallel),
                    "{} workers changed the result under {:?}",
                    threads,
                    objective
                );
            }
            let dense = solve_heuristic(
                &instance,
                &SolverConfig { timetable: TimetableKind::Dense, ..base.clone() },
            );
            prop_assert_eq!(
                essence(&serial),
                essence(&dense),
                "the dense timetable changed the result under {:?}",
                objective
            );
        }
    }
}
