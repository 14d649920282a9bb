//! Randomized multi-start heuristic with mode-reassignment local search.
//!
//! This is the primal side of the anytime solver: it produces strong
//! incumbent schedules quickly, which the bounds in [`crate::bounds`] (and
//! optionally the exact search in [`crate::bnb`]) then certify.
//!
//! Every randomized unit of work (a multi-start pass, a ruin-and-recreate
//! round, a local-search move) draws from its own RNG seeded by mixing the
//! solver seed with the unit's index, and the best candidate is selected by
//! `(makespan, unit index)`. Results are therefore identical whether the
//! units run serially or across any number of worker threads, each of which
//! reuses one timetable buffer for all its SGS runs.

use std::sync::atomic::{AtomicUsize, Ordering};

use hilp_budget::{Budget, BudgetKind};
use hilp_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bounds::tails;
use crate::instance::{Instance, ModeId};
use crate::schedule::Schedule;
use crate::sgs::{
    serial_sgs_into, EnergyFilter, ModeRule, Replay, SgsScratch, SgsStop, Timetable, TimetableKind,
};

/// Tuning inputs for [`multi_start`].
#[derive(Clone)]
pub(crate) struct HeuristicParams<'w> {
    /// Number of randomized SGS multi-start passes.
    pub starts: usize,
    /// Number of mode-reassignment local-search sweeps.
    pub local_search_passes: usize,
    /// Seed for all randomized decisions.
    pub seed: u64,
    /// Worker threads: `1` runs inline, `0` uses one per available core.
    /// The result is the same for every value.
    pub threads: usize,
    /// Timetable representation for the SGS scratch buffers.
    pub timetable: TimetableKind,
    /// Optional warm-start ordering (higher schedules earlier), typically
    /// the negated start times of an incumbent from a coarser time
    /// discretization. Ignored unless it has one entry per task.
    pub warm_priority: Option<&'w [f64]>,
    /// Optional *proven* lower bound on the optimal makespan. Any candidate
    /// that reaches it is optimal, so the search stops early — without
    /// changing the returned schedule (see [`best_candidate`] for why the
    /// `(makespan, index)` winner is preserved bit-for-bit).
    pub target_bound: Option<u32>,
    /// Shared solve budget. The node meter is charged at *phase entry*
    /// (each SGS evaluation costs one node) by shrinking the phase's job
    /// count to what remains, so node budgets never interrupt a worker
    /// mid-phase and results stay thread-count independent. Deadlines and
    /// cancellation are observed per job via
    /// [`Budget::check_interrupt`]. The base deterministic pass is always
    /// free: even an already-expired budget yields an incumbent.
    pub budget: Budget,
    /// Optional whole-schedule energy budget (W x steps). Every SGS pass
    /// filters mode choices through the reservation test of
    /// [`EnergyFilter`], so all candidates (and hence the returned
    /// incumbent) respect the budget. `None` reproduces the unconstrained
    /// search bit for bit.
    pub energy_cap: Option<f64>,
    /// Times each phase in its own span (`sched.multi_start`,
    /// `sched.ruin_recreate`, `sched.local_search`).
    pub telemetry: Telemetry,
}

/// Work counters from one [`multi_start`] run, used by callers to attribute
/// where solve time went and how much the target bound saved. Deliberately
/// *not* part of the solver outcome: executed counts depend on thread
/// interleaving, while the returned schedule does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HeuristicTelemetry {
    /// SGS evaluations requested across all phases that were entered.
    pub jobs_total: usize,
    /// SGS evaluations actually performed (the rest were cut by the bound).
    /// An evaluation stopped early at the incumbent cutoff still counts.
    /// Exact at one heuristic thread; above that it depends on how the
    /// workers interleave.
    pub jobs_executed: usize,
    /// Executed evaluations that stopped at the incumbent cutoff. Exact at
    /// one heuristic thread; above that each worker cuts at its own best,
    /// so the count depends on how the workers interleave.
    pub jobs_cut_off: usize,
    /// The incumbent reached `target_bound`, proving it optimal.
    pub bound_reached: bool,
    /// `Some` when the solve budget cut work (phases shrank or were
    /// skipped, or a deadline/cancellation interrupted the workers).
    pub truncated: Option<BudgetKind>,
}

/// SplitMix64-style finalizer over a `(seed, stream, index)` triple, giving
/// every randomized unit of work an independent, reproducible RNG seed.
fn mix_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn resolve_threads(threads: usize, jobs: usize) -> usize {
    hilp_parallel::resolve_threads(threads).0.min(jobs.max(1))
}

/// Evaluates `jobs` independent candidates and returns the best by
/// `(makespan, job index)`, adding the jobs requested, executed and cut
/// off to `telemetry`. Work is distributed over `params.threads` workers
/// via an atomic counter; each worker reuses one timetable buffer. The
/// index-based tie-break makes the reduction independent of both the
/// execution order and the thread count.
///
/// `params.target_bound` is a *proven* lower bound on the optimal
/// makespan. A candidate reaching it cannot be beaten, only tied — and ties
/// lose to smaller indices. Indices are claimed in order from 0, so every
/// index below the first achiever has been (or is being) evaluated by some
/// worker; only indices above it are skipped. Skipped candidates have
/// makespan >= the achiever's and a larger index, so the selected winner is
/// identical to the full run's for every thread count.
///
/// Each evaluation is also cut off at its worker's best makespan so far, or
/// at `ceiling` when that is lower: the SGS stops as soon as the partial
/// schedule proves it cannot get below the cutoff. A worker claims indices
/// in increasing order, so a candidate cut at its worker's best has a
/// makespan >= that best and a larger index and cannot win; one cut at
/// `ceiling` could never be adopted by a caller that only takes a strict
/// improvement on it. A worker's first job has only the ceiling, so with
/// none the base pass is never cut. A cut candidate could not have reached
/// the target either (its worker's best, or the ceiling, would have to be
/// at or below it already), so `stop_at`, the jobs executed and the winner
/// are those of the uncut run. A cut-off job still counts as executed.
fn best_candidate<F>(
    instance: &Instance,
    params: &HeuristicParams<'_>,
    jobs: usize,
    ceiling: Option<u32>,
    telemetry: &mut HeuristicTelemetry,
    eval: F,
) -> Option<(u32, Schedule)>
where
    F: Fn(usize, Option<u32>, &mut Timetable<'_>, &mut SgsScratch) -> Result<u32, SgsStop> + Sync,
{
    let target = params.target_bound;
    let threads = resolve_threads(params.threads, jobs);
    let executed = AtomicUsize::new(0);
    let cut_off = AtomicUsize::new(0);
    // Smallest index whose candidate reached `target`; indices above it are
    // abandoned. Relaxed ordering suffices: a stale read only delays the
    // stop, and claimed indices are always evaluated (the incumbent cutoff
    // ends only evaluations that cannot win).
    let stop_at = AtomicUsize::new(usize::MAX);
    let run_worker = |next: &AtomicUsize| {
        let mut timetable = Timetable::with_kind(instance, params.timetable);
        let mut scratch = SgsScratch::new(instance.num_tasks());
        let mut best: Option<(u32, usize, Schedule)> = None;
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs || index > stop_at.load(Ordering::Relaxed) {
                return best;
            }
            // Deadline/cancellation checks only: the phase's node
            // allocation was charged up front, so node budgets can never
            // interrupt a worker here and the `(makespan, index)` winner
            // stays identical for every thread count. Job 0 is exempt so
            // the deterministic base pass survives even an expired budget
            // and every solve still yields an incumbent.
            if index > 0 && params.budget.check_interrupt().is_err() {
                return best;
            }
            executed.fetch_add(1, Ordering::Relaxed);
            let cutoff = best
                .as_ref()
                .map(|&(m, _, _)| m)
                .into_iter()
                .chain(ceiling)
                .min();
            match eval(index, cutoff, &mut timetable, &mut scratch) {
                Ok(makespan) => {
                    // It got below the cutoff, so it beats the worker's
                    // best. The schedule stays in the worker's scratch and
                    // is cloned out only here, so losing candidates cost
                    // nothing.
                    best = Some((makespan, index, scratch.schedule()));
                    if target.is_some_and(|t| makespan <= t) {
                        stop_at.fetch_min(index, Ordering::Relaxed);
                    }
                }
                Err(SgsStop::CutOff) => {
                    cut_off.fetch_add(1, Ordering::Relaxed);
                }
                Err(SgsStop::Infeasible) => {}
            }
        }
    };
    // Worker 0 runs on the calling thread, so a one-thread phase spawns
    // nothing.
    let next = AtomicUsize::new(0);
    let locals = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| run_worker(&next)))
            .collect();
        let mut locals = vec![run_worker(&next)];
        locals.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("heuristic worker panicked")),
        );
        locals
    });
    telemetry.jobs_total += jobs;
    telemetry.jobs_executed += executed.into_inner();
    telemetry.jobs_cut_off += cut_off.into_inner();
    locals
        .into_iter()
        .flatten()
        .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
        .map(|(makespan, _, schedule)| (makespan, schedule))
}

/// Runs `starts` randomized SGS passes plus ruin-and-recreate and local
/// search, returning the best feasible schedule found, or `None` when no
/// pass fits the horizon.
#[cfg(test)]
pub(crate) fn multi_start(instance: &Instance, params: &HeuristicParams<'_>) -> Option<Schedule> {
    multi_start_with_telemetry(instance, params).0
}

/// [`multi_start`] plus work counters. The schedule is identical for any
/// `target_bound`: the bound only cuts SGS evaluations that could not have
/// changed the `(makespan, index)` winner, and phases B/C only replace the
/// incumbent on a strict improvement, which is impossible once the
/// incumbent matches a proven lower bound. The incumbent cutoff of
/// [`best_candidate`] changes no schedule either; an executed job it stops
/// early still counts in `jobs_executed`.
pub(crate) fn multi_start_with_telemetry(
    instance: &Instance,
    params: &HeuristicParams<'_>,
) -> (Option<Schedule>, HeuristicTelemetry) {
    let n = instance.num_tasks();
    let target = params.target_bound;
    let mut telemetry = HeuristicTelemetry::default();
    if n == 0 {
        telemetry.bound_reached = target.is_some();
        return (
            Some(Schedule {
                starts: Vec::new(),
                modes: Vec::new(),
            }),
            telemetry,
        );
    }
    let reached = |best: &Option<(u32, Schedule)>| {
        target.is_some_and(|t| best.as_ref().is_some_and(|&(m, _)| m <= t))
    };
    let budget = &params.budget;
    // Phase-entry node allocation: shrink the phase to the nodes still
    // available and charge them up front. Charging `allowed <= remaining`
    // never trips the budget, so workers observe only deadlines and
    // cancellation — node-budgeted results are identical for every thread
    // count. The first trip (or a short allocation) is remembered so the
    // caller can report which constraint cut the search.
    let mut truncated: Option<BudgetKind> = None;
    let mut allocate = |requested: usize| -> usize {
        if truncated.is_some() {
            return 0;
        }
        let remaining = usize::try_from(budget.remaining_nodes()).unwrap_or(usize::MAX);
        let allowed = requested.min(remaining);
        match budget.charge(allowed as u64) {
            Ok(()) if allowed == requested => allowed,
            Ok(()) => {
                truncated = Some(BudgetKind::Nodes);
                allowed
            }
            Err(kind) => {
                truncated = Some(kind);
                0
            }
        }
    };
    let filter = params
        .energy_cap
        .map(|cap| EnergyFilter::new(instance, cap));
    let energy = filter.as_ref();
    let tails = tails(instance);
    let base: Vec<f64> = tails.iter().map(|&t| f64::from(t)).collect();
    let starts = params.starts.max(1);
    let warm = params.warm_priority.filter(|w| w.len() == n);
    let warm_jobs = usize::from(warm.is_some());

    // Phase A — multi-start: job 0 is the deterministic longest-tail-first
    // pass, an optional job replays the warm-start ordering, and the
    // remaining `starts - 1` jobs perturb the tail priorities. The base
    // pass is exempt from the budget (`.max(1)`): every solve must return
    // an incumbent, however small its budget.
    let phase_a_jobs = allocate(starts + warm_jobs).max(1);
    let phase_a_span = params.telemetry.span("sched.multi_start");
    let mut best = best_candidate(
        instance,
        params,
        phase_a_jobs,
        None,
        &mut telemetry,
        |index, cutoff, timetable, scratch| {
            let priority: Vec<f64> = if index == 0 {
                base.clone()
            } else if index == 1 && warm_jobs == 1 {
                warm.expect("warm_jobs == 1").to_vec()
            } else {
                let mut rng = SmallRng::seed_from_u64(mix_seed(
                    params.seed,
                    1,
                    (index - 1 - warm_jobs) as u64,
                ));
                base.iter()
                    .map(|&p| p * rng.gen_range(0.25..1.75) + rng.gen_range(0.0..1.0))
                    .collect()
            };
            serial_sgs_into(
                instance,
                &priority,
                &ModeRule::GreedyFinish,
                energy,
                &tails,
                cutoff,
                timetable,
                scratch,
            )
        },
    );
    drop(phase_a_span);

    // Phase B — ruin and recreate: keep most of the incumbent's mode
    // assignment, release a random subset of tasks back to greedy choice,
    // and replay with jittered start-order priorities. Escapes local optima
    // that single-mode moves cannot. Skipped once the incumbent matches the
    // target bound: replacement requires a strict improvement, which a
    // proven lower bound rules out, so skipping cannot change the result.
    // For the same reason every round is cut off at the incumbent.
    if !reached(&best) {
        if let Some((incumbent_makespan, incumbent)) = best.clone() {
            let _span = params.telemetry.span("sched.ruin_recreate");
            let rounds = allocate((starts / 4).min(60));
            let candidate = best_candidate(
                instance,
                params,
                rounds,
                Some(incumbent_makespan),
                &mut telemetry,
                |round, cutoff, timetable, scratch| {
                    let mut rng = SmallRng::seed_from_u64(mix_seed(params.seed, 2, round as u64));
                    let order_priority: Vec<f64> = incumbent
                        .starts
                        .iter()
                        .map(|&s| -f64::from(s) + rng.gen_range(-0.4..0.4))
                        .collect();
                    let forced: Vec<Option<ModeId>> = incumbent
                        .modes
                        .iter()
                        .map(|&mid| {
                            if rng.gen::<f64>() < 0.25 {
                                None // ruined: re-chosen greedily
                            } else {
                                Some(mid)
                            }
                        })
                        .collect();
                    serial_sgs_into(
                        instance,
                        &order_priority,
                        &ModeRule::Forced(&forced),
                        energy,
                        &tails,
                        cutoff,
                        timetable,
                        scratch,
                    )
                },
            );
            if let Some((makespan, schedule)) = candidate {
                if makespan < incumbent_makespan {
                    best = Some((makespan, schedule));
                }
            }
        }
    }

    // Phase C — local search: force each task onto each alternative mode in
    // turn and re-run the SGS with priorities that reproduce the incumbent's
    // order. Moves are independent, so each pass evaluates them as one
    // (possibly parallel) batch against the pass's incumbent, cut off at
    // it: only a strict improvement is adopted. Each pass replays the
    // incumbent once, and every move resumes from the replay's checkpoint
    // at its task.
    let local_search_span = (params.local_search_passes > 0 && !reached(&best))
        .then(|| params.telemetry.span("sched.local_search"));
    let mut replay = None;
    for _ in 0..params.local_search_passes {
        // Same argument as phase B: an incumbent at the bound cannot be
        // strictly improved, so further passes are pure overhead.
        if reached(&best) {
            break;
        }
        let Some((incumbent_makespan, incumbent)) = best.clone() else {
            break;
        };
        let order_priority: Vec<f64> = incumbent.starts.iter().map(|&s| -f64::from(s)).collect();
        let moves: Vec<(usize, ModeId)> = (0..n)
            .flat_map(|t| {
                let num_modes = instance.tasks()[t].modes.len();
                let current = incumbent.modes[t];
                (0..num_modes)
                    .map(ModeId)
                    .filter(move |&m| num_modes > 1 && m != current)
                    .map(move |m| (t, m))
            })
            .collect();
        // A short allocation truncates the move batch; the surviving
        // prefix is still evaluated against the same incumbent, so the
        // strict-improvement rule keeps the result feasible and sound.
        let allowed_moves = allocate(moves.len());
        if allowed_moves == 0 {
            break;
        }
        let replay =
            replay.get_or_insert_with(|| Replay::new(instance, energy, &tails, params.timetable));
        replay.record(&order_priority, &incumbent.modes);
        let replay = &*replay;
        let candidate = best_candidate(
            instance,
            params,
            allowed_moves,
            Some(incumbent_makespan),
            &mut telemetry,
            |index, cutoff, timetable, scratch| {
                let (t, m) = moves[index];
                replay.resume(t, m, cutoff, timetable, scratch)
            },
        );
        match candidate {
            Some((makespan, schedule)) if makespan < incumbent_makespan => {
                best = Some((makespan, schedule));
            }
            _ => break,
        }
    }
    drop(local_search_span);

    telemetry.bound_reached = reached(&best);
    // A deadline or cancellation tripped inside a worker leaves no local
    // trace; the sticky flag on the budget records it.
    telemetry.truncated = truncated.or_else(|| budget.exhausted());
    (best.map(|(_, s)| s), telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};

    fn params(starts: usize, local_search_passes: usize, seed: u64) -> HeuristicParams<'static> {
        HeuristicParams {
            starts,
            local_search_passes,
            seed,
            threads: 1,
            timetable: TimetableKind::Event,
            warm_priority: None,
            target_bound: None,
            budget: Budget::unlimited(),
            energy_cap: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The worked example of the paper's Figure 2: applications m and n,
    /// each setup -> compute -> teardown, on a CPU + GPU + DSA SoC.
    fn figure2_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        let m0 = b.add_task("m0", vec![Mode::on(cpu, 1)]);
        let m1 = b.add_task(
            "m1",
            vec![Mode::on(cpu, 8), Mode::on(gpu, 6), Mode::on(dsa, 5)],
        );
        let m2 = b.add_task("m2", vec![Mode::on(cpu, 1)]);
        let n0 = b.add_task("n0", vec![Mode::on(cpu, 1)]);
        let n1 = b.add_task(
            "n1",
            vec![Mode::on(cpu, 5), Mode::on(gpu, 3), Mode::on(dsa, 2)],
        );
        let n2 = b.add_task("n2", vec![Mode::on(cpu, 1)]);
        b.add_precedence(m0, m1);
        b.add_precedence(m1, m2);
        b.add_precedence(n0, n1);
        b.add_precedence(n1, n2);
        b.set_horizon(30);
        b.build().unwrap()
    }

    #[test]
    fn heuristic_finds_the_figure2_optimum() {
        let inst = figure2_instance();
        let sched = multi_start(&inst, &params(200, 2, 42)).unwrap();
        assert!(sched.verify(&inst).is_empty());
        // The paper's optimal schedule completes in 7 seconds.
        assert_eq!(sched.makespan(&inst), 7);
    }

    #[test]
    fn heuristic_is_deterministic_for_a_seed() {
        let inst = figure2_instance();
        let a = multi_start(&inst, &params(50, 1, 7)).unwrap();
        let b = multi_start(&inst, &params(50, 1, 7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_multi_start_matches_serial() {
        let inst = figure2_instance();
        let serial = multi_start(&inst, &params(60, 2, 11)).unwrap();
        for threads in [2, 3, 8] {
            let parallel = multi_start(
                &inst,
                &HeuristicParams {
                    threads,
                    ..params(60, 2, 11)
                },
            )
            .unwrap();
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed the result"
            );
        }
    }

    #[test]
    fn all_timetable_representations_agree_on_the_schedule() {
        let inst = figure2_instance();
        let event = multi_start(&inst, &params(80, 2, 3)).unwrap();
        let dense = multi_start(
            &inst,
            &HeuristicParams {
                timetable: TimetableKind::Dense,
                ..params(80, 2, 3)
            },
        )
        .unwrap();
        assert_eq!(event, dense, "the dense backend diverged");
    }

    #[test]
    fn heuristic_handles_empty_instances() {
        let inst = InstanceBuilder::new().build().unwrap();
        let sched = multi_start(&inst, &params(10, 1, 0)).unwrap();
        assert_eq!(sched.makespan(&inst), 0);
    }

    #[test]
    fn heuristic_returns_none_when_horizon_is_impossible() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 5)]);
        b.add_task("b", vec![Mode::on(cpu, 5)]);
        b.set_horizon(8);
        let inst = b.build().unwrap();
        assert!(multi_start(&inst, &params(20, 1, 0)).is_none());
    }

    #[test]
    fn local_search_escapes_greedy_mode_traps() {
        // Greedy placement puts both tasks on the fast machine; moving one
        // to the slow machine is strictly better. Local search must find it.
        let mut b = InstanceBuilder::new();
        let fast = b.add_machine("fast");
        let slow = b.add_machine("slow");
        b.add_task("a", vec![Mode::on(fast, 4), Mode::on(slow, 5)]);
        b.add_task("b", vec![Mode::on(fast, 4), Mode::on(slow, 5)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        // Even a single deterministic start plus local search suffices.
        let sched = multi_start(&inst, &params(1, 2, 0)).unwrap();
        assert_eq!(sched.makespan(&inst), 5);
    }

    #[test]
    fn warm_start_ordering_seeds_the_incumbent() {
        // With zero randomized starts beyond the base pass and no local
        // search, a warm ordering that reproduces a known-good schedule
        // must be at least as good as the cold base pass.
        let inst = figure2_instance();
        let good = multi_start(&inst, &params(200, 2, 42)).unwrap();
        let warm: Vec<f64> = good.starts.iter().map(|&s| -f64::from(s)).collect();
        let cold = multi_start(&inst, &params(1, 0, 0)).unwrap();
        let warmed = multi_start(
            &inst,
            &HeuristicParams {
                warm_priority: Some(&warm),
                ..params(1, 0, 0)
            },
        )
        .unwrap();
        assert!(warmed.makespan(&inst) <= cold.makespan(&inst));
    }

    #[test]
    fn target_bound_terminates_early_without_changing_the_result() {
        let inst = figure2_instance();
        let (cold, cold_t) = multi_start_with_telemetry(&inst, &params(200, 2, 42));
        // Figure 2's optimum is 7; with the bound known the search must
        // stop early yet return the exact same schedule.
        let (bounded, bounded_t) = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                target_bound: Some(7),
                ..params(200, 2, 42)
            },
        );
        assert_eq!(cold, bounded);
        assert!(bounded_t.bound_reached);
        assert!(
            bounded_t.jobs_executed < cold_t.jobs_executed,
            "bound saved no work: {} vs {}",
            bounded_t.jobs_executed,
            cold_t.jobs_executed,
        );
    }

    #[test]
    fn losing_candidates_are_cut_off_and_still_count_as_executed() {
        let inst = figure2_instance();
        let (best, telemetry) = multi_start_with_telemetry(&inst, &params(200, 2, 42));
        assert_eq!(best.unwrap().makespan(&inst), 7);
        assert!(telemetry.jobs_cut_off > 0, "no candidate was cut off");
        assert!(telemetry.jobs_cut_off < telemetry.jobs_executed);
        assert_eq!(telemetry.jobs_executed, telemetry.jobs_total);
    }

    #[test]
    fn unreachable_target_bound_changes_nothing() {
        let inst = figure2_instance();
        let (cold, _) = multi_start_with_telemetry(&inst, &params(60, 2, 11));
        let (bounded, telemetry) = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                target_bound: Some(1), // below the optimum of 7: never reached
                ..params(60, 2, 11)
            },
        );
        assert_eq!(cold, bounded);
        assert!(!telemetry.bound_reached);
    }

    #[test]
    fn parallel_target_bound_matches_serial() {
        let inst = figure2_instance();
        let config = |threads| HeuristicParams {
            threads,
            target_bound: Some(7),
            ..params(60, 2, 11)
        };
        let serial = multi_start(&inst, &config(1)).unwrap();
        for threads in [2, 3, 8] {
            let parallel = multi_start(&inst, &config(threads)).unwrap();
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed the bounded result"
            );
        }
    }

    #[test]
    fn node_budget_shrinks_the_search_but_keeps_an_incumbent() {
        let inst = figure2_instance();
        let (best, telemetry) = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                budget: Budget::nodes(3),
                ..params(50, 2, 42)
            },
        );
        let best = best.expect("a truncated solve still yields an incumbent");
        assert!(best.verify(&inst).is_empty());
        assert_eq!(telemetry.truncated, Some(BudgetKind::Nodes));
        assert!(telemetry.jobs_total <= 3, "allocation exceeded the budget");
    }

    #[test]
    fn node_budgets_are_bit_identical_across_thread_counts() {
        let inst = figure2_instance();
        let run = |threads| {
            multi_start(
                &inst,
                &HeuristicParams {
                    threads,
                    budget: Budget::nodes(7),
                    ..params(50, 2, 11)
                },
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads), "threads {threads} changed the result");
        }
    }

    #[test]
    fn generous_node_budget_matches_the_unbudgeted_run() {
        let inst = figure2_instance();
        let plain = multi_start_with_telemetry(&inst, &params(60, 2, 11));
        let budgeted = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                budget: Budget::nodes(1_000_000),
                ..params(60, 2, 11)
            },
        );
        assert_eq!(plain.0, budgeted.0);
        assert_eq!(budgeted.1.truncated, None);
    }

    #[test]
    fn cancelled_budget_still_returns_the_base_pass() {
        let inst = figure2_instance();
        let token = hilp_budget::CancelToken::new();
        token.cancel();
        let (best, telemetry) = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                budget: Budget::unlimited().with_cancel(token),
                ..params(50, 2, 42)
            },
        );
        let best = best.expect("the deterministic base pass is budget-exempt");
        assert!(best.verify(&inst).is_empty());
        assert_eq!(telemetry.truncated, Some(BudgetKind::Cancelled));
    }

    #[test]
    fn expired_deadline_still_returns_the_base_pass() {
        let inst = figure2_instance();
        let (best, telemetry) = multi_start_with_telemetry(
            &inst,
            &HeuristicParams {
                budget: Budget::deadline(std::time::Duration::ZERO),
                ..params(50, 2, 42)
            },
        );
        assert!(best.is_some());
        assert_eq!(telemetry.truncated, Some(BudgetKind::Deadline));
    }

    #[test]
    fn mismatched_warm_priority_is_ignored() {
        let inst = figure2_instance();
        let warm = vec![0.0; 2]; // wrong length: 6 tasks
        let a = multi_start(&inst, &params(5, 1, 9)).unwrap();
        let b = multi_start(
            &inst,
            &HeuristicParams {
                warm_priority: Some(&warm),
                ..params(5, 1, 9)
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
