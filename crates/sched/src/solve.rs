//! The anytime solver facade: heuristic + bounds + exact refinement.

use crate::bnb;
use crate::bounds;
use crate::error::SchedError;
use crate::heuristic;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::sgs::TimetableKind;
use hilp_budget::{Budget, BudgetKind, Partial};
use hilp_telemetry::{BoundSource, BudgetLayer, Counter, IncumbentSource, Telemetry};

/// The energy budget in force for a solve: the instance's own cap (set at
/// build time), treated as absent when non-finite so that an infinite cap
/// is bit-identical to none.
///
/// # Errors
///
/// Returns [`SchedError::EnergyCapInfeasible`] when the cap is below the
/// instance's minimum achievable total energy.
fn energy_cap(instance: &Instance) -> Result<Option<f64>, SchedError> {
    let cap = instance.energy_cap().filter(|cap| cap.is_finite());
    if let Some(cap) = cap {
        let min_energy = instance.min_total_energy();
        if cap + 1e-9 < min_energy {
            return Err(SchedError::EnergyCapInfeasible { cap, min_energy });
        }
    }
    Ok(cap)
}

/// Tuning knobs for [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Number of randomized SGS multi-start passes.
    pub heuristic_starts: usize,
    /// Number of mode-reassignment local-search sweeps.
    pub local_search_passes: usize,
    /// Node budget for the exact branch-and-bound refinement; `0` disables
    /// the exact phase entirely.
    pub exact_node_budget: u64,
    /// Only run the exact phase when the instance has at most this many
    /// tasks (the search is factorial in the task count).
    pub exact_task_threshold: usize,
    /// Seed for the randomized heuristic, making solves reproducible.
    pub seed: u64,
    /// Worker threads for the heuristic multi-start loop: `1` (the
    /// default) runs inline, `0` uses one thread per available core. The
    /// per-unit seed split makes the result identical for every value.
    pub heuristic_threads: usize,
    /// Worker threads for the exact branch-and-bound phase: `1` (the
    /// default) searches on the calling thread, `0` uses one worker per
    /// available core. The round-based engine makes the result — schedule,
    /// bound, node count, truncation — bit-identical for every value, so
    /// this knob only trades wall-clock time.
    pub bnb_threads: usize,
    /// Timetable representation backing the SGS and branch-and-bound:
    /// event-driven by default (its cost is independent of the horizon,
    /// so it also serves `EvaluatePolicy::exact()`'s finest-tick solve),
    /// or dense as the slow reference. Both return the first feasible
    /// start at or after every probe's earliest start, so they produce
    /// identical schedules and this knob never changes a result.
    pub timetable: TimetableKind,
    /// Stop the heuristic as soon as its incumbent matches a proven lower
    /// bound (the instance's own combinatorial bound, possibly raised by
    /// [`SolveHints::external_lower_bound`]). This never changes the
    /// returned schedule, bound, or gap — only how much work proves them —
    /// so it is on by default; it exists as a knob so benchmarks can
    /// measure the saving against the always-exhaustive behaviour.
    pub bound_termination: bool,
    /// Structured-telemetry handle recording spans, counters, and
    /// search events (disabled by default, at the cost of one branch
    /// per record site). Telemetry is strictly observational — it never
    /// changes the solve outcome — so it is ignored by `PartialEq`:
    /// configs differing only here describe the same computation.
    pub telemetry: Telemetry,
    /// Unified solve budget: wall-clock deadline, node budget, and/or an
    /// external cancel token, checked cooperatively at heuristic phase
    /// entries and branch-and-bound node expansions. On expiry the solve
    /// still returns its best incumbent with a valid lower bound and marks
    /// [`SolveOutcome::truncated`]. Node-only budgets are deterministic:
    /// identical budgets give bit-identical outcomes for every
    /// `heuristic_threads` value, and `Budget::unlimited()` (the default)
    /// is bit-identical to the pre-budget solver. Unlike
    /// `exact_node_budget` (which caps only the exact phase), this budget
    /// is shared across every phase of the solve — and, when the caller
    /// clones one budget across layers, with those other layers too.
    pub budget: Budget,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            heuristic_starts: 300,
            local_search_passes: 3,
            exact_node_budget: 2_000_000,
            exact_task_threshold: 12,
            seed: 0x4a53_5350, // "JSSP"
            heuristic_threads: 1,
            bnb_threads: 1,
            timetable: TimetableKind::Event,
            bound_termination: true,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
        }
    }
}

impl SolverConfig {
    /// A fast configuration for large design-space sweeps: fewer starts and
    /// no exact phase.
    #[must_use]
    pub fn sweep() -> Self {
        SolverConfig {
            heuristic_starts: 120,
            local_search_passes: 2,
            exact_node_budget: 0,
            ..SolverConfig::default()
        }
    }

    /// An exhaustive configuration for small validation instances.
    #[must_use]
    pub fn exact() -> Self {
        SolverConfig {
            heuristic_starts: 400,
            local_search_passes: 3,
            exact_node_budget: 50_000_000,
            exact_task_threshold: 16,
            ..SolverConfig::default()
        }
    }
}

/// Search statistics of a [`solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Heuristic multi-start passes executed.
    pub heuristic_starts: usize,
    /// Branch-and-bound nodes explored (0 when the exact phase was skipped).
    pub bnb_nodes: u64,
    /// Whether the exact phase ran at all.
    pub exact_phase_ran: bool,
}

/// Optional cross-solve inputs for [`solve_with_hints`]: information a
/// caller learned from *other* solves (a coarser discretization of the same
/// workload, or an earlier rung of [`solve_pareto`]'s energy-cap ladder)
/// that can shrink this solve's work.
///
/// Soundness contract: `external_lower_bound` must be a true lower bound on
/// *this* instance's optimal makespan, and `warm_incumbent` must be (or be
/// liftable to) a feasible schedule for *this* instance — invalid incumbents
/// are verified and silently dropped, but a wrong bound makes the solver
/// terminate on non-optimal schedules.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveHints<'a> {
    /// Warm-start ordering (higher schedules earlier); adds one extra
    /// deterministic multi-start pass. Ignored unless it has one entry per
    /// task.
    pub warm_priority: Option<&'a [f64]>,
    /// Proven lower bound on this instance's optimal makespan, in steps.
    /// Raises the heuristic's termination target (when
    /// [`SolverConfig::bound_termination`] is on) and the branch-and-bound
    /// root bound. Never raises the *reported* `lower_bound` of a
    /// heuristic-only solve, so heuristic outcomes are bit-identical with
    /// and without it.
    pub external_lower_bound: Option<u32>,
    /// Feasible schedule for this instance (e.g. a coarser level's
    /// schedule lifted onto this tick, as the exact evaluate policy does).
    /// Adopted as the incumbent when strictly better than the heuristic's
    /// result; fails `Schedule::verify` quietly otherwise. Unlike the other
    /// hints this can change the returned schedule, so a caller that
    /// promises deterministic results must derive it deterministically.
    pub warm_incumbent: Option<&'a Schedule>,
}

/// Work attribution from one [`solve_with_hints`] call. Kept separate from
/// [`SolveStats`] (inside the outcome) because executed-work counts may
/// depend on thread interleaving while the outcome itself does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTelemetry {
    /// Heuristic SGS evaluations requested (multi-start passes plus
    /// ruin-and-recreate rounds plus local-search moves).
    pub heuristic_jobs_total: usize,
    /// Heuristic SGS evaluations actually executed; the difference was cut
    /// by bound termination. An evaluation stopped early at the incumbent
    /// cutoff (a worker's best so far) still counts as executed.
    pub heuristic_jobs_executed: usize,
    /// The heuristic incumbent reached the termination target, proving it
    /// optimal before the work budget ran out.
    pub bound_termination_hit: bool,
}

/// The result of a scheduling solve: the paper's triple of best schedule,
/// optimality bound, and the gap between them.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Its makespan in time steps.
    pub makespan: u32,
    /// Its total energy in watt-steps (`power x duration` summed over the
    /// chosen modes; start times never affect it).
    pub energy: f64,
    /// Proven lower bound on the optimal makespan.
    pub lower_bound: u32,
    /// Whether the schedule is proven optimal.
    pub proved_optimal: bool,
    /// Which [`SolverConfig::budget`] constraint cut the solve short, when
    /// one did. `None` for unbudgeted solves and for budgeted solves that
    /// finished all configured work; the legacy `exact_node_budget` cap
    /// never sets this. Even when `Some`, the schedule is feasible and
    /// `lower_bound` is a proven bound — the anytime contract holds.
    pub truncated: Option<BudgetKind>,
    /// Search statistics.
    pub stats: SolveStats,
}

impl SolveOutcome {
    /// Relative optimality gap `(makespan - bound) / makespan`.
    ///
    /// The paper considers a schedule *near-optimal* when this is at most
    /// 0.10.
    #[must_use]
    pub fn gap(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        f64::from(self.makespan - self.lower_bound) / f64::from(self.makespan)
    }

    /// The paper's near-optimality criterion: gap within 10%.
    #[must_use]
    pub fn is_near_optimal(&self) -> bool {
        self.gap() <= 0.10 + 1e-12
    }

    /// The anytime view of a budget-truncated solve: `Some` exactly when
    /// [`SolverConfig::budget`] expired, packaging the incumbent with its
    /// proven bound, gap, and the constraint that tripped.
    #[must_use]
    pub fn partial(&self) -> Option<Partial<Schedule>> {
        self.truncated.map(|exhausted| Partial {
            incumbent: self.schedule.clone(),
            lower_bound: f64::from(self.lower_bound),
            gap: self.gap(),
            exhausted,
        })
    }
}

/// Solves the instance: heuristic multi-start, combinatorial lower bounds,
/// and (for small instances) exact branch and bound.
///
/// # Errors
///
/// Returns [`SchedError::HorizonExhausted`] when no feasible schedule fits
/// within the instance horizon, and [`SchedError::EnergyCapInfeasible`]
/// when the instance's energy cap is below its minimum total energy.
///
/// # Example
///
/// See the [crate-level documentation](crate).
pub fn solve(instance: &Instance, config: &SolverConfig) -> Result<SolveOutcome, SchedError> {
    solve_with_hints(instance, config, &SolveHints::default()).map(|(outcome, _)| outcome)
}

/// Like [`solve`], consuming [`SolveHints`] learned from related solves and
/// returning work-attribution telemetry alongside the outcome.
///
/// With default hints this is exactly [`solve`]. An
/// `external_lower_bound` hint is *transparent* for heuristic-only
/// configurations (`exact_node_budget == 0`): the outcome — schedule,
/// makespan, reported bound, gap — is bit-identical to the hint-free solve;
/// only the telemetry (work saved) differs. A `warm_incumbent` hint can
/// change the returned schedule: the solver keeps the shorter of it and
/// its own heuristic incumbent.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_hints(
    instance: &Instance,
    config: &SolverConfig,
    hints: &SolveHints<'_>,
) -> Result<(SolveOutcome, SolveTelemetry), SchedError> {
    solve_makespan(instance, config, hints, energy_cap(instance)?)
}

/// The makespan core behind [`solve_with_hints`] and every rung of
/// [`solve_pareto`]: heuristic multi-start, combinatorial bounds, and exact
/// branch and bound, all restricted to schedules whose total energy fits
/// `energy_cap` when one is given. With `energy_cap == None` this is
/// exactly the pre-energy solver.
fn solve_makespan(
    instance: &Instance,
    config: &SolverConfig,
    hints: &SolveHints<'_>,
    energy_cap: Option<f64>,
) -> Result<(SolveOutcome, SolveTelemetry), SchedError> {
    let tel = &config.telemetry;
    let _solve_span = tel.span("sched.solve");
    let combinatorial_bound = bounds::lower_bound_with_energy_cap(instance, energy_cap);
    tel.bound(
        BoundSource::Combinatorial,
        0,
        f64::from(combinatorial_bound),
    );
    let external = hints.external_lower_bound;
    if let Some(e) = external {
        tel.bound(BoundSource::External, 0, f64::from(e));
    }
    // Termination target for the heuristic: the tightest proven bound we
    // hold. Any incumbent reaching it is optimal, so stopping there cannot
    // change the result (see `heuristic::best_candidate`).
    let target = config
        .bound_termination
        .then(|| external.map_or(combinatorial_bound, |e| e.max(combinatorial_bound)));

    let (heuristic_best, heuristic_telemetry) = {
        let _heuristic_span = tel.span("sched.heuristic");
        heuristic::multi_start_with_telemetry(
            instance,
            &heuristic::HeuristicParams {
                starts: config.heuristic_starts,
                local_search_passes: config.local_search_passes,
                seed: config.seed,
                threads: config.heuristic_threads,
                timetable: config.timetable,
                warm_priority: hints.warm_priority,
                target_bound: target,
                budget: config.budget.clone(),
                energy_cap,
                telemetry: config.telemetry.clone(),
            },
        )
    };
    tel.add(
        Counter::HeuristicJobsRequested,
        heuristic_telemetry.jobs_total as u64,
    );
    tel.add(
        Counter::HeuristicJobsExecuted,
        heuristic_telemetry.jobs_executed as u64,
    );
    tel.add(
        Counter::HeuristicJobsCutOff,
        heuristic_telemetry.jobs_cut_off as u64,
    );
    if heuristic_telemetry.bound_reached {
        tel.incr(Counter::HeuristicBoundTerminations);
    }
    if let Some(best) = &heuristic_best {
        tel.incumbent(
            IncumbentSource::Heuristic,
            0,
            f64::from(best.makespan(instance)),
        );
    }

    // A lifted incumbent is only trusted after a full feasibility check:
    // callers map schedules across instances and may get it wrong.
    let n = instance.num_tasks();
    let warm_incumbent = hints.warm_incumbent.filter(|s| {
        s.starts.len() == n
            && s.modes.len() == n
            && s.verify(instance).is_empty()
            && energy_cap.is_none_or(|cap| s.total_energy(instance) <= cap + 1e-9)
    });
    let heuristic_best = match (heuristic_best, warm_incumbent) {
        (Some(h), Some(w)) if w.makespan(instance) >= h.makespan(instance) => Some(h),
        (_, Some(w)) => {
            tel.incumbent(IncumbentSource::Warm, 0, f64::from(w.makespan(instance)));
            Some(w.clone())
        }
        (h, None) => h,
    };

    // Root bound for the exact phase: the external bound tightens pruning
    // and can prove the incumbent optimal before any node is expanded.
    let root_bound = combinatorial_bound.max(external.unwrap_or(0));
    let run_exact = config.exact_node_budget > 0
        && instance.num_tasks() <= config.exact_task_threshold
        // Skip the exact phase when the incumbent already matches the bound.
        && heuristic_best
            .as_ref()
            .is_none_or(|s| s.makespan(instance) > root_bound);

    let mut stats = SolveStats {
        heuristic_starts: config.heuristic_starts,
        bnb_nodes: 0,
        exact_phase_ran: run_exact,
    };

    let mut truncated = heuristic_telemetry.truncated;
    let (schedule, lower_bound, proved) = if run_exact {
        let (bnb_threads, _) = hilp_parallel::resolve_threads(config.bnb_threads);
        let result = {
            let _bnb_span = tel.span("sched.bnb");
            bnb::branch_and_bound(
                instance,
                heuristic_best,
                root_bound,
                config.exact_node_budget,
                &config.budget,
                config.timetable,
                bnb_threads,
                energy_cap,
                tel,
            )
        };
        stats.bnb_nodes = result.nodes;
        truncated = truncated.or(result.truncated);
        let Some(best) = result.best else {
            return Err(SchedError::HorizonExhausted {
                horizon: instance.horizon(),
            });
        };
        let bound = result.lower_bound.max(root_bound);
        (best, bound, result.complete)
    } else {
        let Some(best) = heuristic_best else {
            return Err(SchedError::HorizonExhausted {
                horizon: instance.horizon(),
            });
        };
        let makespan = best.makespan(instance);
        // With an exact phase configured, reaching here means the incumbent
        // already matched `root_bound`, so the external bound may certify
        // it. Heuristic-only configurations deliberately ignore the
        // external bound instead: their reported bound, gap, and proved
        // flag must not depend on what other solves have learned, so sweeps
        // stay result-deterministic whether or not bounds were shared.
        let certifying =
            config.exact_node_budget > 0 && instance.num_tasks() <= config.exact_task_threshold;
        let cert_bound = if certifying {
            root_bound
        } else {
            combinatorial_bound
        };
        let proved = makespan <= cert_bound;
        (
            best,
            cert_bound.min(makespan).max(combinatorial_bound),
            proved,
        )
    };

    let telemetry = SolveTelemetry {
        heuristic_jobs_total: heuristic_telemetry.jobs_total,
        heuristic_jobs_executed: heuristic_telemetry.jobs_executed,
        bound_termination_hit: heuristic_telemetry.bound_reached,
    };
    let makespan = schedule.makespan(instance);
    tel.bound(BoundSource::Proved, 0, f64::from(lower_bound.min(makespan)));
    if let Some(kind) = truncated {
        let layer = if heuristic_telemetry.truncated.is_some() {
            BudgetLayer::Heuristic
        } else {
            BudgetLayer::Bnb
        };
        tel.budget_expired(layer, kind, config.budget.nodes_spent());
    }
    let energy = schedule.total_energy(instance);
    Ok((
        SolveOutcome {
            schedule,
            makespan,
            energy,
            lower_bound: lower_bound.min(makespan),
            proved_optimal: proved || lower_bound >= makespan,
            truncated,
            stats,
        },
        telemetry,
    ))
}

/// Convenience wrapper: heuristic-only solve (no exact phase).
///
/// # Errors
///
/// Returns [`SchedError::HorizonExhausted`] when no feasible schedule fits
/// within the instance horizon.
pub fn solve_heuristic(
    instance: &Instance,
    config: &SolverConfig,
) -> Result<SolveOutcome, SchedError> {
    let config = SolverConfig {
        exact_node_budget: 0,
        ..config.clone()
    };
    solve(instance, &config)
}

/// Convenience wrapper: solve with a large exact budget regardless of task
/// count. Only suitable for small instances.
///
/// # Errors
///
/// Returns [`SchedError::HorizonExhausted`] when no feasible schedule fits
/// within the instance horizon.
pub fn solve_exact(instance: &Instance, config: &SolverConfig) -> Result<SolveOutcome, SchedError> {
    let config = SolverConfig {
        exact_node_budget: config.exact_node_budget.max(50_000_000),
        exact_task_threshold: usize::MAX,
        ..config.clone()
    };
    solve(instance, &config)
}

/// One point on the energy/makespan Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Makespan in time steps.
    pub makespan: u32,
    /// Total energy in watt-steps.
    pub energy: f64,
    /// The schedule realizing this trade-off.
    pub schedule: Schedule,
    /// Whether this point's makespan is proven optimal under its energy
    /// budget. When every point is proven, the front is exact.
    pub proved_optimal: bool,
}

impl ParetoPoint {
    /// The energy-delay product `energy x makespan` (watt-steps x steps).
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy * f64::from(self.makespan)
    }
}

/// The energy/makespan Pareto front of an instance, computed by
/// [`solve_pareto`]: non-dominated points sorted by increasing makespan
/// (hence strictly decreasing energy). On a [`complete`](Self::complete)
/// front the last point is the lexicographic (energy, makespan) optimum:
/// the instance's minimum total energy, at the shortest makespan that
/// energy allows.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    /// Non-dominated points, makespan ascending.
    pub points: Vec<ParetoPoint>,
    /// Every ladder rung was solved to proven optimality, so the front is
    /// the exact set of Pareto-optimal `(makespan, energy)` pairs. A
    /// heuristic-only or budget-truncated sweep reports `false`: the
    /// points are feasible and mutually non-dominated but may be beaten.
    pub complete: bool,
    /// Which budget constraint cut the ladder short, if any.
    pub truncated: Option<BudgetKind>,
    /// Search statistics summed over every ladder rung.
    pub stats: SolveStats,
}

impl ParetoFront {
    /// The front's minimum-EDP point (ties broken toward the smaller
    /// makespan). Every schedule is matched or dominated by some front
    /// point and EDP grows with both coordinates, so on a
    /// [`complete`](Self::complete) front this is the minimum EDP over all
    /// schedules. `None` only for an empty front, which [`solve_pareto`]
    /// never returns.
    #[must_use]
    pub fn min_edp(&self) -> Option<&ParetoPoint> {
        self.points.iter().min_by(|a, b| {
            a.edp()
                .total_cmp(&b.edp())
                .then(a.makespan.cmp(&b.makespan))
        })
    }
}

/// The next energy budget strictly below an achieved energy `e`, chosen so
/// the `EnergyFilter`'s `<= cap + 1e-9` admissibility test excludes every
/// assignment of energy `e`: the step is at least `1e-6`, three orders of
/// magnitude above the filter tolerance, and scales with `e` so it stays
/// macroscopic for large energies.
fn next_cap_below(e: f64) -> f64 {
    e - 1e-6f64.max(e * 1e-9)
}

/// Keep the non-dominated subset (both coordinates minimized), makespan
/// ascending. Needed when heuristic rungs return non-optimal makespans
/// that a later, tighter-budget rung happens to beat.
fn non_dominated(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    points.sort_by(|a, b| {
        a.makespan
            .cmp(&b.makespan)
            .then(a.energy.total_cmp(&b.energy))
    });
    let mut front: Vec<ParetoPoint> = Vec::new();
    for p in points {
        if front.last().is_none_or(|q| p.energy < q.energy) {
            front.push(p);
        }
    }
    front
}

/// Sweeps the energy/makespan Pareto front with a descending budget
/// ladder: solve for the best makespan under the current energy budget,
/// record the incumbent's energy `e`, tighten the budget strictly below
/// `e`, and repeat until the budget drops under the minimum achievable
/// total energy. Each rung excludes the previous rung's energy, so with
/// exact sub-solves the ladder visits every Pareto-optimal pair; a final
/// dominance pass cleans up heuristic rungs.
///
/// Determinism: the ladder is sequential and every rung is a
/// deterministic [`solve`], so the front is bit-identical for any
/// `heuristic_threads` / `bnb_threads` setting. A proven rung's makespan
/// is passed to the next rung as an external lower bound — sound because
/// tightening the budget can only increase the optimal makespan, and
/// transparent for heuristic-only rungs by the [`SolveHints`] contract.
/// [`SolverConfig::budget`] is shared across all rungs through the
/// budget's clone-shares-the-meter semantics.
///
/// The instance's own energy cap, if any, is the ladder's first rung.
///
/// # Errors
///
/// Returns [`SchedError::HorizonExhausted`] when no feasible schedule fits
/// within the instance horizon, and [`SchedError::EnergyCapInfeasible`]
/// when the instance's own energy cap is below the minimum achievable.
pub fn solve_pareto(instance: &Instance, config: &SolverConfig) -> Result<ParetoFront, SchedError> {
    // Backstop against a pathological ladder; real fronts have at most one
    // point per distinct mode-assignment energy and stop far earlier.
    const MAX_RUNGS: usize = 4096;
    let mut cap = energy_cap(instance)?;
    let min_total = instance.min_total_energy();
    let mut points: Vec<ParetoPoint> = Vec::new();
    let mut stats = SolveStats::default();
    let mut complete = true;
    let mut truncated = None;
    let mut proven_floor: Option<u32> = None;
    for _ in 0..MAX_RUNGS {
        if cap.is_some_and(|c| c + 1e-9 < min_total) {
            break; // the ladder ran below the energy floor
        }
        let hints = SolveHints {
            external_lower_bound: proven_floor,
            ..SolveHints::default()
        };
        let (outcome, _) = match solve_makespan(instance, config, &hints, cap) {
            Ok(r) => r,
            // A tighter budget can strand the remaining modes outside the
            // horizon; the front simply ends there.
            Err(SchedError::HorizonExhausted { .. }) if !points.is_empty() => break,
            Err(e) => return Err(e),
        };
        stats.heuristic_starts += outcome.stats.heuristic_starts;
        stats.bnb_nodes += outcome.stats.bnb_nodes;
        stats.exact_phase_ran |= outcome.stats.exact_phase_ran;
        complete &= outcome.proved_optimal;
        if outcome.proved_optimal {
            proven_floor = Some(proven_floor.map_or(outcome.makespan, |f| f.max(outcome.makespan)));
        }
        let energy = outcome.energy;
        points.push(ParetoPoint {
            makespan: outcome.makespan,
            energy,
            schedule: outcome.schedule,
            proved_optimal: outcome.proved_optimal,
        });
        if let Some(kind) = outcome.truncated {
            // The shared budget is spent; further rungs would only repeat
            // the truncation.
            truncated = Some(kind);
            complete = false;
            break;
        }
        if energy <= min_total {
            break; // reached the energy floor: no cheaper schedule exists
        }
        cap = Some(next_cap_below(energy));
    }
    Ok(ParetoFront {
        points: non_dominated(points),
        complete,
        truncated,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};

    fn figure2_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        for (name, cpu_t, gpu_t, dsa_t) in [("m", 8, 6, 5), ("n", 5, 3, 2)] {
            let s = b.add_task(format!("{name}0"), vec![Mode::on(cpu, 1)]);
            let c = b.add_task(
                format!("{name}1"),
                vec![
                    Mode::on(cpu, cpu_t),
                    Mode::on(gpu, gpu_t),
                    Mode::on(dsa, dsa_t),
                ],
            );
            let t = b.add_task(format!("{name}2"), vec![Mode::on(cpu, 1)]);
            b.add_precedence(s, c);
            b.add_precedence(c, t);
        }
        b.set_horizon(30);
        b.build().unwrap()
    }

    #[test]
    fn solve_proves_figure2_optimum() {
        let inst = figure2_instance();
        let outcome = solve(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.makespan, 7);
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.gap(), 0.0);
        assert!(outcome.is_near_optimal());
        assert!(outcome.schedule.verify(&inst).is_empty());
    }

    #[test]
    fn heuristic_only_still_reports_valid_bound() {
        let inst = figure2_instance();
        let outcome = solve_heuristic(&inst, &SolverConfig::default()).unwrap();
        assert!(outcome.lower_bound <= outcome.makespan);
        assert!(outcome.makespan >= 7);
        assert!(!outcome.stats.exact_phase_ran);
    }

    #[test]
    fn infeasible_horizon_is_an_error() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 5)]);
        b.add_task("b", vec![Mode::on(cpu, 5)]);
        b.set_horizon(7);
        let inst = b.build().unwrap();
        let err = solve(&inst, &SolverConfig::default()).unwrap_err();
        assert!(matches!(err, SchedError::HorizonExhausted { horizon: 7 }));
    }

    #[test]
    fn empty_instance_solves_to_zero() {
        let inst = InstanceBuilder::new().build().unwrap();
        let outcome = solve(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.makespan, 0);
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.gap(), 0.0);
    }

    #[test]
    fn exact_phase_skipped_when_heuristic_matches_bound() {
        // A single chain: the critical path bound equals the optimum, so
        // the heuristic provably finds it and B&B must be skipped.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![Mode::on(cpu, 3)]);
        let t1 = b.add_task("b", vec![Mode::on(cpu, 4)]);
        b.add_precedence(t0, t1);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let outcome = solve(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(outcome.makespan, 7);
        assert!(outcome.proved_optimal);
        assert!(!outcome.stats.exact_phase_ran);
    }

    #[test]
    fn sweep_and_exact_configs_agree_on_small_instances() {
        let inst = figure2_instance();
        let sweep = solve(&inst, &SolverConfig::sweep()).unwrap();
        let exact = solve(&inst, &SolverConfig::exact()).unwrap();
        assert_eq!(exact.makespan, 7);
        assert!(sweep.makespan >= exact.makespan);
        assert!(
            sweep.makespan <= 8,
            "sweep heuristic should be near-optimal"
        );
    }

    /// Three interchangeable 2-step tasks on two machines: the optimum is
    /// 4 (two tasks share one machine), but the combinatorial bounds only
    /// reach 3, leaving room for an external bound to be tighter.
    fn loose_bound_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let m1 = b.add_machine("m1");
        let m2 = b.add_machine("m2");
        for name in ["a", "b", "c"] {
            b.add_task(name, vec![Mode::on(m1, 2), Mode::on(m2, 2)]);
        }
        b.set_horizon(20);
        b.build().unwrap()
    }

    #[test]
    fn external_bound_is_transparent_for_heuristic_solves() {
        let inst = loose_bound_instance();
        assert!(crate::bounds::lower_bound(&inst) < 4);
        let config = SolverConfig::sweep();
        let plain = solve(&inst, &config).unwrap();
        assert_eq!(plain.makespan, 4);
        // A correct external bound (the optimum is 7, the combinatorial
        // bound is lower) must leave the outcome bit-identical and only cut
        // work.
        let (hinted, telemetry) = solve_with_hints(
            &inst,
            &config,
            &SolveHints {
                external_lower_bound: Some(4),
                ..SolveHints::default()
            },
        )
        .unwrap();
        assert_eq!(plain, hinted);
        // The combinatorial bound is below 4, so only the external bound
        // can have ended the heuristic.
        assert!(telemetry.bound_termination_hit);
        assert!(telemetry.heuristic_jobs_executed < telemetry.heuristic_jobs_total);
    }

    #[test]
    fn bound_termination_off_matches_default_outcome() {
        let inst = figure2_instance();
        let on = solve(&inst, &SolverConfig::sweep()).unwrap();
        let off = solve(
            &inst,
            &SolverConfig {
                bound_termination: false,
                ..SolverConfig::sweep()
            },
        )
        .unwrap();
        assert_eq!(on, off);
    }

    #[test]
    fn valid_warm_incumbent_is_adopted_when_strictly_better() {
        let inst = figure2_instance();
        // A deliberately weak configuration that does not find the optimum
        // on its own, plus the proven-optimal schedule as a warm incumbent.
        let weak = SolverConfig {
            heuristic_starts: 1,
            local_search_passes: 0,
            exact_node_budget: 0,
            ..SolverConfig::default()
        };
        let optimal = solve(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(optimal.makespan, 7);
        let cold = solve(&inst, &weak).unwrap();
        let tel = Telemetry::enabled();
        let (warmed, _) = solve_with_hints(
            &inst,
            &SolverConfig {
                telemetry: tel.clone(),
                ..weak
            },
            &SolveHints {
                warm_incumbent: Some(&optimal.schedule),
                ..SolveHints::default()
            },
        )
        .unwrap();
        assert_eq!(warmed.makespan, 7);
        assert_eq!(
            warm_incumbents_adopted(&tel),
            usize::from(cold.makespan > 7)
        );
    }

    /// How many `IncumbentSource::Warm` events the journal recorded.
    fn warm_incumbents_adopted(tel: &Telemetry) -> usize {
        tel.journal()
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    hilp_telemetry::Record::Incumbent {
                        source: IncumbentSource::Warm,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn infeasible_warm_incumbent_is_dropped() {
        let inst = figure2_instance();
        let bad = Schedule {
            starts: vec![0; 6],
            modes: vec![crate::instance::ModeId(0); 6],
        };
        let tel = Telemetry::enabled();
        let config = SolverConfig {
            telemetry: tel.clone(),
            ..SolverConfig::sweep()
        };
        let plain = solve(&inst, &config).unwrap();
        let (hinted, _) = solve_with_hints(
            &inst,
            &config,
            &SolveHints {
                warm_incumbent: Some(&bad),
                ..SolveHints::default()
            },
        )
        .unwrap();
        assert_eq!(plain, hinted);
        assert_eq!(warm_incumbents_adopted(&tel), 0);
    }

    #[test]
    fn external_bound_short_circuits_the_exact_phase() {
        let inst = loose_bound_instance();
        let config = SolverConfig::default();
        let plain = solve(&inst, &config).unwrap();
        assert_eq!(plain.makespan, 4);
        assert!(plain.stats.exact_phase_ran);
        // Knowing opt = 4 up front, the incumbent matches the root bound
        // and branch and bound is skipped entirely — yet the outcome is
        // still certified optimal.
        let (hinted, _) = solve_with_hints(
            &inst,
            &config,
            &SolveHints {
                external_lower_bound: Some(4),
                ..SolveHints::default()
            },
        )
        .unwrap();
        assert_eq!(hinted.makespan, 4);
        assert!(hinted.proved_optimal);
        assert!(!hinted.stats.exact_phase_ran);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_the_default() {
        let inst = figure2_instance();
        let plain = solve(&inst, &SolverConfig::default()).unwrap();
        let budgeted = solve(
            &inst,
            &SolverConfig {
                budget: Budget::unlimited(),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain, budgeted);
        assert_eq!(budgeted.truncated, None);
        assert!(budgeted.partial().is_none());
    }

    #[test]
    fn node_budget_truncates_with_a_sound_partial() {
        let inst = figure2_instance();
        let outcome = solve(
            &inst,
            &SolverConfig {
                budget: Budget::nodes(4),
                bound_termination: false,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.truncated, Some(BudgetKind::Nodes));
        assert!(outcome.schedule.verify(&inst).is_empty());
        assert!(
            outcome.lower_bound <= 7,
            "bound must not exceed the optimum"
        );
        assert!(outcome.makespan >= 7, "incumbent cannot beat the optimum");
        let partial = outcome.partial().expect("truncated solves are partial");
        assert_eq!(partial.exhausted, BudgetKind::Nodes);
        assert_eq!(partial.lower_bound, f64::from(outcome.lower_bound));
        assert_eq!(partial.gap, outcome.gap());
        assert_eq!(partial.incumbent, outcome.schedule);
    }

    #[test]
    fn node_budgets_are_bit_identical_across_thread_counts() {
        let inst = figure2_instance();
        let run = |threads| {
            solve(
                &inst,
                &SolverConfig {
                    heuristic_threads: threads,
                    bnb_threads: threads,
                    budget: Budget::nodes(40),
                    bound_termination: false,
                    ..SolverConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                serial,
                run(threads),
                "threads {threads} changed the outcome"
            );
        }
    }

    #[test]
    fn cancelled_solve_still_returns_a_feasible_incumbent() {
        let inst = figure2_instance();
        let token = hilp_budget::CancelToken::new();
        token.cancel();
        let outcome = solve(
            &inst,
            &SolverConfig {
                budget: Budget::unlimited().with_cancel(token),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.truncated, Some(BudgetKind::Cancelled));
        assert!(outcome.schedule.verify(&inst).is_empty());
        assert!(outcome.lower_bound <= outcome.makespan);
    }

    #[test]
    fn expired_deadline_still_returns_a_feasible_incumbent() {
        let inst = figure2_instance();
        let outcome = solve(
            &inst,
            &SolverConfig {
                budget: Budget::deadline(std::time::Duration::ZERO),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.truncated, Some(BudgetKind::Deadline));
        assert!(outcome.schedule.verify(&inst).is_empty());
        assert!(outcome.lower_bound <= outcome.makespan);
    }

    #[test]
    fn one_budget_pools_across_heuristic_and_exact_phases() {
        // A shared 30-node budget on an instance whose combinatorial bound
        // (3) is below the optimum (4), so the exact phase must run. The
        // heuristic's phase allocations (20 starts + 5 ruin rounds) and the
        // branch and bound draw from the same meter: B&B gets only the 5
        // leftover nodes, not its configured 2M-node cap.
        let inst = loose_bound_instance();
        let budget = Budget::nodes(30);
        let outcome = solve(
            &inst,
            &SolverConfig {
                heuristic_starts: 20,
                local_search_passes: 0,
                bound_termination: false,
                budget: budget.clone(),
                ..SolverConfig::default()
            },
        )
        .unwrap();
        assert!(outcome.stats.exact_phase_ran);
        assert!(
            outcome.stats.bnb_nodes > 0 && outcome.stats.bnb_nodes <= 6,
            "B&B explored {} nodes but only 5 remained in the pool",
            outcome.stats.bnb_nodes
        );
        assert_eq!(outcome.truncated, Some(BudgetKind::Nodes));
        assert!(budget.nodes_spent() >= 30);
        assert!(outcome.schedule.verify(&inst).is_empty());
        assert!(outcome.lower_bound <= outcome.makespan);
    }

    #[test]
    fn gap_handles_zero_makespan() {
        let outcome = SolveOutcome {
            schedule: Schedule {
                starts: vec![],
                modes: vec![],
            },
            makespan: 0,
            energy: 0.0,
            lower_bound: 0,
            proved_optimal: true,
            truncated: None,
            stats: SolveStats::default(),
        };
        assert_eq!(outcome.gap(), 0.0);
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};

    /// Two independent tasks, each choosing between a fast/hungry and a
    /// slow/frugal mode on its own pair of machines, so the makespan is
    /// the max of the chosen durations and the full Pareto front is
    /// (3, 50), (6, 26), (8, 14) — the slow(a)/fast(b) corner (8, 38) is
    /// dominated. `energy_cap` becomes the instance's own budget.
    fn tradeoff_instance(energy_cap: Option<f64>) -> Instance {
        let mut b = InstanceBuilder::new();
        let ga = b.add_machine("gpu-a");
        let ca = b.add_machine("cpu-a");
        let gb = b.add_machine("gpu-b");
        let cb = b.add_machine("cpu-b");
        b.add_task(
            "a",
            vec![Mode::on(ga, 2).power(10.0), Mode::on(ca, 8).power(1.0)],
        );
        b.add_task(
            "b",
            vec![Mode::on(gb, 3).power(10.0), Mode::on(cb, 6).power(1.0)],
        );
        b.set_horizon(30);
        if let Some(cap) = energy_cap {
            b.set_energy_cap(cap);
        }
        b.build().unwrap()
    }

    #[test]
    fn infinite_energy_cap_is_bit_identical_to_makespan() {
        let plain = solve(&tradeoff_instance(None), &SolverConfig::default()).unwrap();
        let capped = solve(
            &tradeoff_instance(Some(f64::INFINITY)),
            &SolverConfig::default(),
        )
        .unwrap();
        assert_eq!(plain, capped);
        assert_eq!(plain.makespan, 3);
        assert_eq!(plain.energy, 50.0);
    }

    #[test]
    fn infeasible_energy_cap_is_an_error() {
        let err = solve(&tradeoff_instance(Some(10.0)), &SolverConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            SchedError::EnergyCapInfeasible { cap, min_energy }
                if cap == 10.0 && min_energy == 14.0
        ));
    }

    #[test]
    fn instance_level_cap_constrains_the_default_objective() {
        let inst = tradeoff_instance(Some(30.0));
        // No single mode exceeds the cap, so nothing is dropped at build
        // time — the schedule-level budget must do the work.
        assert_eq!(inst.task(crate::instance::TaskId(0)).modes.len(), 2);
        let out = solve(&inst, &SolverConfig::exact()).unwrap();
        assert_eq!(out.makespan, 6);
        assert_eq!(out.energy, 26.0);
        assert!(out.proved_optimal);
        assert!(out.schedule.verify(&inst).is_empty());
    }

    #[test]
    fn pareto_front_enumerates_every_tradeoff() {
        let inst = tradeoff_instance(None);
        let front = solve_pareto(&inst, &SolverConfig::exact()).unwrap();
        assert!(front.complete);
        assert_eq!(front.truncated, None);
        let coords: Vec<(u32, f64)> = front
            .points
            .iter()
            .map(|p| (p.makespan, p.energy))
            .collect();
        assert_eq!(coords, vec![(3, 50.0), (6, 26.0), (8, 14.0)]);
        for p in &front.points {
            assert!(p.proved_optimal);
            assert!(p.schedule.verify(&inst).is_empty());
        }
    }

    #[test]
    fn edp_objective_picks_the_minimum_product() {
        // EDPs over the front: 3*50=150, 6*26=156, 8*14=112.
        let front = solve_pareto(&tradeoff_instance(None), &SolverConfig::exact()).unwrap();
        assert!(front.complete);
        let best = front.min_edp().unwrap();
        assert_eq!((best.makespan, best.energy), (8, 14.0));
    }

    #[test]
    fn pareto_front_is_bit_identical_across_thread_counts() {
        let inst = tradeoff_instance(None);
        let run = |threads| {
            solve_pareto(
                &inst,
                &SolverConfig {
                    heuristic_threads: threads,
                    bnb_threads: threads,
                    ..SolverConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 8] {
            assert_eq!(serial, run(threads), "threads {threads} changed the front");
        }
    }

    #[test]
    fn empty_instance_has_a_single_zero_point() {
        let inst = InstanceBuilder::new().build().unwrap();
        let front = solve_pareto(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(front.points.len(), 1);
        assert_eq!(front.points[0].makespan, 0);
        assert_eq!(front.points[0].energy, 0.0);
        assert!(front.complete);
    }
}

#[cfg(test)]
mod lag_tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};

    #[test]
    fn finish_to_start_lag_delays_the_successor() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t0 = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let t1 = b.add_task("b", vec![Mode::on(gpu, 3)]);
        b.add_precedence_lagged(t0, t1, 4);
        b.set_horizon(30);
        let inst = b.build().unwrap();
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        // 2 (a) + 4 (lag) + 3 (b) = 9.
        assert_eq!(out.makespan, 9);
        assert!(out.proved_optimal);
        assert!(out.schedule.verify(&inst).is_empty());
    }

    #[test]
    fn initiation_interval_allows_pipelined_overlap() {
        // A 10-step producer; the consumer may start 2 steps after the
        // producer STARTS (streaming), not after it finishes.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let producer = b.add_task("producer", vec![Mode::on(cpu, 10)]);
        let consumer = b.add_task("consumer", vec![Mode::on(gpu, 10)]);
        b.add_initiation_interval(producer, consumer, 2);
        b.set_horizon(40);
        let inst = b.build().unwrap();
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        // Overlapped: consumer runs [2, 12) while producer runs [0, 10).
        assert_eq!(out.makespan, 12);
        assert_eq!(out.schedule.starts[consumer.0], 2);
        assert!(out.schedule.verify(&inst).is_empty());
        let _ = producer;
    }

    #[test]
    fn initiation_interval_chain_pipelines_three_stages() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("s0");
        let m1 = b.add_machine("s1");
        let m2 = b.add_machine("s2");
        let a = b.add_task("a", vec![Mode::on(m0, 6)]);
        let c = b.add_task("b", vec![Mode::on(m1, 6)]);
        let d = b.add_task("c", vec![Mode::on(m2, 6)]);
        b.add_initiation_interval(a, c, 1);
        b.add_initiation_interval(c, d, 1);
        b.set_horizon(40);
        let inst = b.build().unwrap();
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        // Fully pipelined: stages start at 0, 1, 2 -> makespan 8, versus 18
        // under finish-to-start edges.
        assert_eq!(out.makespan, 8);
    }

    #[test]
    fn lag_bounds_are_sound() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let t1 = b.add_task("b", vec![Mode::on(cpu, 2)]);
        b.add_precedence_lagged(t0, t1, 5);
        b.set_horizon(30);
        let inst = b.build().unwrap();
        assert_eq!(crate::bounds::lower_bound(&inst), 9);
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(out.makespan, 9);
    }
}

#[cfg(test)]
mod resource_tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode, ResourceId};
    use crate::schedule::Violation;

    /// Two accelerators share an LLC with limited bandwidth: the paper's
    /// Section VII memory-hierarchy extension.
    fn llc_instance(llc_cap: f64) -> (crate::instance::Instance, ResourceId) {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        let llc = b.add_resource("llc-bandwidth", llc_cap);
        b.add_task("a", vec![Mode::on(gpu, 4).uses(llc, 60.0)]);
        b.add_task("b", vec![Mode::on(dsa, 4).uses(llc, 60.0)]);
        b.set_horizon(20);
        (b.build().unwrap(), llc)
    }

    #[test]
    fn ample_llc_bandwidth_allows_full_overlap() {
        let (inst, _) = llc_instance(200.0);
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(out.makespan, 4);
    }

    #[test]
    fn scarce_llc_bandwidth_serializes_the_accelerators() {
        let (inst, _) = llc_instance(100.0);
        let out = solve_exact(&inst, &SolverConfig::default()).unwrap();
        assert_eq!(out.makespan, 8);
        assert!(out.schedule.verify(&inst).is_empty());
    }

    #[test]
    fn resource_violations_are_detected_by_verify() {
        let (inst, llc) = llc_instance(100.0);
        let bad = Schedule {
            starts: vec![0, 0],
            modes: vec![crate::instance::ModeId(0), crate::instance::ModeId(0)],
        };
        let violations = bad.verify(&inst);
        assert!(violations.iter().any(
            |v| matches!(v, Violation::ResourceCap { resource, total, .. }
                if *resource == llc && (*total - 120.0).abs() < 1e-9)
        ));
    }

    #[test]
    fn resource_volume_bound_is_applied() {
        let (inst, _) = llc_instance(100.0);
        // Volume 2 * 4 * 60 = 480 over cap 100 -> at least 5 steps... but
        // serialization forces 8; the volume bound alone gives ceil(480/100)=5.
        assert!(crate::bounds::lower_bound(&inst) >= 5);
    }

    #[test]
    fn mode_exceeding_resource_cap_alone_is_dropped() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        let cpu = b.add_machine("cpu");
        let llc = b.add_resource("llc", 50.0);
        let t = b.add_task(
            "a",
            vec![
                Mode::on(gpu, 1).uses(llc, 80.0), // infeasible alone
                Mode::on(cpu, 5).uses(llc, 10.0),
            ],
        );
        let inst = b.build().unwrap();
        assert_eq!(inst.task(t).modes.len(), 1);
        assert_eq!(inst.task(t).modes[0].machine, cpu);
    }

    #[test]
    fn unknown_resource_is_rejected() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(gpu, 1).uses(ResourceId(3), 1.0)]);
        assert!(matches!(
            b.build(),
            Err(crate::SchedError::UnknownResource { resource: 3, .. })
        ));
    }

    #[test]
    fn dominance_respects_resource_usage() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        let llc = b.add_resource("llc", 100.0);
        // Same duration/power, but different LLC usage: neither dominates
        // ... the lighter one does dominate (same speed, less usage).
        let t = b.add_task(
            "a",
            vec![
                Mode::on(gpu, 4).uses(llc, 60.0),
                Mode::on(gpu, 4).uses(llc, 30.0),
            ],
        );
        let inst = b.build().unwrap();
        assert_eq!(inst.task(t).modes.len(), 1);
        assert!((inst.task(t).modes[0].usage_of(llc) - 30.0).abs() < 1e-9);
    }
}
