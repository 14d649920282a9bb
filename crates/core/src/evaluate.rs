//! The HILP evaluator: adaptive time-step refinement around the scheduler.

use hilp_sched::{
    solve_pareto, solve_with_hints, BudgetKind, Instance, ModeId, Schedule, SolveHints,
    SolveOutcome, SolveTelemetry, SolverConfig, TaskId,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{BudgetLayer, Counter};
use hilp_workloads::Workload;

use crate::encode::{check_time_step, tabulate, EncodeMaps, ModeTable};
use crate::error::HilpError;
use crate::wlp::average_wlp;

/// The paper's adaptive time-step policy (Section III-D): start coarse and
/// refine by 5x while the workload completes in fewer steps than the
/// target, so every result has enough temporal resolution without blowing
/// up the solution space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeStepPolicy {
    /// Initial time-step size in seconds.
    pub initial_seconds: f64,
    /// Refine while the makespan is below this many steps.
    pub target_steps: u32,
    /// Refinement factor per round (the paper uses 5x).
    pub refine_factor: f64,
    /// Maximum number of refinement rounds.
    pub max_refinements: u32,
}

impl TimeStepPolicy {
    /// The validation-experiment policy: 2 s steps refined towards a
    /// 200-step makespan.
    #[must_use]
    pub fn validation() -> Self {
        TimeStepPolicy {
            initial_seconds: 2.0,
            target_steps: 200,
            refine_factor: 5.0,
            max_refinements: 5,
        }
    }

    /// The design-space-sweep policy: 10 s steps refined towards a 40-step
    /// makespan (coarser, to keep large sweeps tractable).
    #[must_use]
    pub fn sweep() -> Self {
        TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 4,
        }
    }

    /// A fixed time step with no refinement.
    #[must_use]
    pub fn fixed(seconds: f64) -> Self {
        TimeStepPolicy {
            initial_seconds: seconds,
            target_steps: 0,
            refine_factor: 5.0,
            max_refinements: 0,
        }
    }
}

impl TimeStepPolicy {
    /// The finest time step the policy can reach: the initial step divided
    /// by `refine_factor` once per allowed refinement. This is the
    /// resolution the grid-refinement loop converges to when it never
    /// stops early, and the resolution [`EvaluatePolicy::Exact`] solves at
    /// directly.
    #[must_use]
    pub fn exact_tick_seconds(&self) -> f64 {
        self.initial_seconds / self.refine_factor.powi(self.max_refinements as i32)
    }
}

impl Default for TimeStepPolicy {
    fn default() -> Self {
        TimeStepPolicy::validation()
    }
}

/// How [`Hilp::evaluate`] turns the time-step policy into solves.
///
/// The paper's grid-refinement loop exists because solving on a coarse
/// grid is cheap and solving on a fine grid with a *horizon-proportional*
/// timetable is not. The event timetable (the default
/// [`SolverConfig::timetable`]) removes that trade-off — its probe, place
/// and undo cost depends on the breakpoints, not the horizon — so the
/// exact policy can afford a solve at the finest resolution, keeping the
/// coarse cascade only as a warm-start pilot whose result it is
/// guaranteed to match or beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluatePolicy {
    /// The paper's Section III-D loop: start at
    /// [`TimeStepPolicy::initial_seconds`], re-encode and re-solve at ever
    /// finer steps until the makespan reaches `target_steps` (or
    /// `max_refinements` is exhausted). Up to `max_refinements + 1` solves
    /// per evaluation; results carry a discretization gap whenever the
    /// loop stops before the finest step.
    #[default]
    GridRefinement,
    /// Solve at [`TimeStepPolicy::exact_tick_seconds`] on the configured
    /// timetable: no early stop at `target_steps` and no residual
    /// coarse-grid rounding. A pilot pass first replays the grid cascade
    /// (same ticks, same warm-order chain, same early stop), and its final
    /// schedule is *lifted* onto the finest-tick instance and handed to
    /// the solver as a verified incumbent — so the exact result is
    /// guaranteed to be at most the grid policy's makespan in seconds on
    /// the same point, while the finest-tick solve is free to improve on
    /// it.
    Exact,
}

impl EvaluatePolicy {
    /// The single-solve continuous-time policy.
    #[must_use]
    pub fn exact() -> Self {
        EvaluatePolicy::Exact
    }

    /// The paper's adaptive grid-refinement loop (the default).
    #[must_use]
    pub fn grid() -> Self {
        EvaluatePolicy::GridRefinement
    }

    /// Whether this policy resolves the result at the finest tick.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(self, EvaluatePolicy::Exact)
    }
}

/// The result of evaluating one SoC on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Overall workload execution time in seconds (makespan x time step).
    pub makespan_seconds: f64,
    /// Makespan in time steps at the final resolution.
    pub makespan_steps: u32,
    /// The final time-step resolution (seconds).
    pub time_step_seconds: f64,
    /// Total energy of the schedule in joules: the solver's watt-step
    /// energy scaled by the final time step.
    pub energy_joules: f64,
    /// Speedup over fully sequential execution on a single CPU core.
    pub speedup: f64,
    /// Average Workload-Level Parallelism of the schedule.
    pub avg_wlp: f64,
    /// Proven lower bound on the makespan, in seconds.
    pub lower_bound_seconds: f64,
    /// Relative optimality gap of the schedule.
    pub gap: f64,
    /// Whether the schedule was proven optimal.
    pub proved_optimal: bool,
    /// Whether the schedule meets the paper's 10% near-optimality bar.
    pub near_optimal: bool,
    /// Number of time-step refinement rounds performed. Always 0 under
    /// [`EvaluatePolicy::Exact`]: its pilot cascade only seeds the
    /// finest-tick solve, which is where the result comes from.
    pub refinements: u32,
    /// The makespan solved directly at the policy's finest resolution, in
    /// seconds — set only under [`EvaluatePolicy::Exact`] (where it equals
    /// `makespan_seconds`).
    /// Grid-refinement results can stop at a coarser step and then carry a
    /// discretization gap of up to one coarse step per critical-path task;
    /// an exact result has no such residual, so it is a valid (and usually
    /// strictly tighter) upper bound on every grid result for the same
    /// point.
    pub exact_makespan_seconds: Option<f64>,
    /// Which [`SolverConfig::budget`] constraint cut the evaluation short,
    /// when one did: either a solve was truncated mid-level, or the budget
    /// expired at a refinement-level boundary (the result then comes from
    /// a coarser time step than the policy wanted). The schedule and bound
    /// remain valid either way — graceful degradation, not an error.
    pub truncated: Option<BudgetKind>,
    /// The schedule itself.
    pub schedule: Schedule,
    /// The instance the schedule refers to (for rendering/inspection).
    pub instance: Instance,
    /// Mapping from workload coordinates to instance task ids.
    pub maps: EncodeMaps,
}

impl Evaluation {
    /// Renders the schedule as a Gantt listing.
    #[must_use]
    pub fn render_schedule(&self) -> String {
        self.schedule.render(&self.instance)
    }
}

/// What one refinement level of [`Hilp::evaluate_with_observer`] solved:
/// the discretization, the result in steps, and the solver's work
/// attribution. Borrowed fields refer to the level's encoded instance.
#[derive(Debug)]
pub struct LevelReport<'a> {
    /// Refinement round index (0 = the initial, coarsest step).
    pub level: u32,
    /// Time-step size of this level, in seconds.
    pub time_step_seconds: f64,
    /// Makespan of the level's best schedule, in steps.
    pub makespan_steps: u32,
    /// The solver's *reported* lower bound for the level, in steps.
    pub lower_bound_steps: u32,
    /// Which budget constraint truncated the level's solve, if any.
    pub truncated: Option<BudgetKind>,
    /// Work attribution for the level's solve.
    pub telemetry: SolveTelemetry,
    /// The level's best schedule.
    pub schedule: &'a Schedule,
    /// The instance the schedule refers to.
    pub instance: &'a Instance,
}

/// Hook into the adaptive-refinement loop of [`Hilp::evaluate_with_observer`],
/// letting a caller (e.g. the DSE sweep, which counts each level's work)
/// harvest what each level solved. Purely observational: an observed
/// evaluation returns exactly what [`Hilp::evaluate`] returns.
pub trait RefinementObserver {
    /// Called after each level is solved, including the final one.
    fn level_solved(&self, report: &LevelReport<'_>);
}

/// `()` observes nothing: the observer behind plain [`Hilp::evaluate`].
impl RefinementObserver for () {
    fn level_solved(&self, _report: &LevelReport<'_>) {}
}

/// The HILP evaluator: workload + SoC + constraints + solver settings.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Hilp {
    workload: Workload,
    soc: SocSpec,
    constraints: Constraints,
    solver: SolverConfig,
    policy: TimeStepPolicy,
    evaluate_policy: EvaluatePolicy,
}

impl Hilp {
    /// Creates an evaluator with no constraints, the default solver
    /// configuration, and the validation time-step policy.
    #[must_use]
    pub fn new(workload: Workload, soc: SocSpec) -> Self {
        Hilp {
            workload,
            soc,
            constraints: Constraints::unconstrained(),
            solver: SolverConfig::default(),
            policy: TimeStepPolicy::validation(),
            evaluate_policy: EvaluatePolicy::default(),
        }
    }

    /// Sets the power/bandwidth constraints, builder style.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the solver configuration, builder style.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the time-step policy, builder style.
    #[must_use]
    pub fn with_policy(mut self, policy: TimeStepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the evaluate policy (grid refinement vs. single exact solve),
    /// builder style.
    #[must_use]
    pub fn with_evaluate_policy(mut self, evaluate_policy: EvaluatePolicy) -> Self {
        self.evaluate_policy = evaluate_policy;
        self
    }

    /// The workload under evaluation.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The SoC under evaluation.
    #[must_use]
    pub fn soc(&self) -> &SocSpec {
        &self.soc
    }

    /// Evaluates the SoC on the workload: tabulates its modes once, then
    /// discretizes, solves, and adaptively refines the time step per the
    /// policy.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (incompatible phases, invalid time step)
    /// and scheduling failures.
    pub fn evaluate(&self) -> Result<Evaluation, HilpError> {
        self.evaluate_with_observer(&())
    }

    /// [`Hilp::evaluate`] with a [`RefinementObserver`] told about every
    /// refinement level. The returned [`Evaluation`] is identical to
    /// [`Hilp::evaluate`]'s.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (incompatible phases, invalid time step)
    /// and scheduling failures.
    pub fn evaluate_with_observer(
        &self,
        observer: &dyn RefinementObserver,
    ) -> Result<Evaluation, HilpError> {
        let _eval_span = self.solver.telemetry.span("core.evaluate");
        // Every policy's first level is at the initial tick. Checking it
        // before tabulating reports an invalid tick ahead of an
        // incompatible phase, as `encode` does.
        check_time_step(self.policy.initial_seconds)?;
        let table = {
            let _tabulate_span = self.solver.telemetry.span("core.tabulate");
            tabulate(&self.workload, &self.soc, &self.constraints)?
        };
        let exact = self.evaluate_policy.is_exact();
        let (last, truncated) = if exact {
            self.evaluate_exact(&table, observer)?
        } else {
            self.cascade(&table, observer, self.policy.max_refinements)?
        };
        let SolvedLevel {
            level,
            time_step,
            instance,
            maps,
            outcome,
        } = last;
        let makespan_seconds = f64::from(outcome.makespan) * time_step;
        let sequential = self.workload.sequential_cpu_seconds();
        let speedup = if makespan_seconds > 0.0 {
            sequential / makespan_seconds
        } else {
            1.0
        };
        let avg_wlp = average_wlp(&outcome.schedule, &instance);
        Ok(Evaluation {
            makespan_seconds,
            makespan_steps: outcome.makespan,
            time_step_seconds: time_step,
            energy_joules: outcome.energy * time_step,
            speedup,
            avg_wlp,
            lower_bound_seconds: f64::from(outcome.lower_bound) * time_step,
            gap: outcome.gap(),
            proved_optimal: outcome.proved_optimal,
            near_optimal: outcome.is_near_optimal(),
            refinements: if exact { 0 } else { level },
            exact_makespan_seconds: exact.then_some(makespan_seconds),
            truncated,
            schedule: outcome.schedule,
            instance,
            maps,
        })
    }

    /// The paper's refinement cascade (Section III-D): solve level 0 of
    /// `table` at the initial tick, then re-discretize and re-solve
    /// `refine_factor` times finer while the makespan stays below
    /// `target_steps`, up to level `last_level`. Each finer level is
    /// warm-started with the coarser level's dispatch order. Returns the
    /// last solved level and the budget constraint that stopped the
    /// cascade, if one did.
    fn cascade(
        &self,
        table: &ModeTable,
        observer: &dyn RefinementObserver,
        last_level: u32,
    ) -> Result<(SolvedLevel, Option<BudgetKind>), HilpError> {
        let budget = &self.solver.budget;
        let mut solved = self.solve_level(table, observer, 0, self.policy.initial_seconds, None)?;
        loop {
            let outcome = &solved.outcome;
            // Against `max_refinements`, not `last_level`: the exact pilot
            // stops one level short, and its last level still checks the
            // budget where the grid loop would before refining.
            let wants_refine = outcome.makespan > 0
                && outcome.makespan < self.policy.target_steps
                && solved.level < self.policy.max_refinements;
            // Refinement-level boundary: re-solving at a finer step is the
            // most expensive thing the evaluator can do, so an expired
            // budget stops here and the coarser level's result — feasible,
            // with a valid bound — is returned instead. The boundary check
            // also catches expiries the solve itself never observed (a
            // deadline passing between levels, a node meter drained to
            // exactly zero by phase allocations).
            let truncated = outcome
                .truncated
                .or_else(|| wants_refine.then(|| budget.check().err()).flatten());
            if wants_refine {
                if let Some(kind) = truncated {
                    self.solver.telemetry.budget_expired(
                        BudgetLayer::Refinement,
                        kind,
                        budget.nodes_spent(),
                    );
                }
            }
            if !wants_refine || truncated.is_some() || solved.level >= last_level {
                return Ok((solved, truncated));
            }
            let tick = solved.time_step / self.policy.refine_factor;
            solved = self.solve_level(table, observer, solved.level + 1, tick, Some(&solved))?;
        }
    }

    /// Solves one refinement level: discretize `table` at `time_step`,
    /// solve, count the level and report it to the observer. A `coarser`
    /// level seeds the solve with its dispatch order (start times scale
    /// with the tick, but their relative order — all the heuristic needs —
    /// carries over; mode ids do not, since each tick drops cap-infeasible
    /// and dominated modes differently).
    ///
    /// Every level runs on the configured [`SolverConfig::timetable`]
    /// (the event timetable by default, whose cost does not grow with the
    /// horizon). Under the exact policy the finest level also takes the
    /// coarser level's schedule, lifted onto this level's instance, as a
    /// verified incumbent.
    fn solve_level(
        &self,
        table: &ModeTable,
        observer: &dyn RefinementObserver,
        level: u32,
        time_step: f64,
        coarser: Option<&SolvedLevel>,
    ) -> Result<SolvedLevel, HilpError> {
        let exact = self.evaluate_policy.is_exact();
        let tel = &self.solver.telemetry;
        let _level_span = tel.span("core.level");
        let (instance, maps) = {
            let _encode_span = tel.span("core.encode");
            table.discretize(time_step)?
        };
        let warm_order: Option<Vec<f64>> = coarser.map(|c| {
            c.outcome
                .schedule
                .starts
                .iter()
                .map(|&s| -f64::from(s))
                .collect()
        });
        let lifted = coarser
            .filter(|_| exact && level == self.policy.max_refinements)
            .and_then(|c| c.lift_onto(&instance, time_step));
        let (outcome, telemetry) = solve_with_hints(
            &instance,
            &self.solver,
            &SolveHints {
                warm_priority: warm_order.as_deref(),
                warm_incumbent: lifted.as_ref(),
                ..SolveHints::default()
            },
        )?;
        tel.incr(Counter::LevelsSolved);
        observer.level_solved(&LevelReport {
            level,
            time_step_seconds: time_step,
            makespan_steps: outcome.makespan,
            lower_bound_steps: outcome.lower_bound,
            truncated: outcome.truncated,
            telemetry,
            schedule: &outcome.schedule,
            instance: &instance,
        });
        Ok(SolvedLevel {
            level,
            time_step,
            instance,
            maps,
            outcome,
        })
    }

    /// Sweeps the full energy/makespan Pareto front of this point: a
    /// normal [`Hilp::evaluate`] fixes the final discretization, then
    /// [`solve_pareto`] runs a descending energy-budget ladder on that
    /// instance and the step-unit front is converted to seconds and
    /// joules. The front is deterministic for any thread count (the
    /// ladder is sequential and each rung is a deterministic solve), and
    /// its fastest point coincides with the plain evaluation's schedule
    /// quality.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors and scheduling failures, exactly like
    /// [`Hilp::evaluate`].
    pub fn evaluate_pareto(&self) -> Result<ParetoEvaluation, HilpError> {
        self.evaluate_pareto_with_observer(&())
    }

    /// [`Hilp::evaluate_pareto`] with a [`RefinementObserver`] told about
    /// every refinement level of the evaluation that fixes the
    /// discretization. The returned [`ParetoEvaluation`] is identical to
    /// [`Hilp::evaluate_pareto`]'s.
    ///
    /// # Errors
    ///
    /// As [`Hilp::evaluate_pareto`].
    pub fn evaluate_pareto_with_observer(
        &self,
        observer: &dyn RefinementObserver,
    ) -> Result<ParetoEvaluation, HilpError> {
        let evaluation = self.evaluate_with_observer(observer)?;
        let tick = evaluation.time_step_seconds;
        let front = solve_pareto(&evaluation.instance, &self.solver)?;
        Ok(ParetoEvaluation {
            points: front
                .points
                .into_iter()
                .map(|p| ParetoEvalPoint {
                    makespan_seconds: f64::from(p.makespan) * tick,
                    energy_joules: p.energy * tick,
                    makespan_steps: p.makespan,
                    energy_watt_steps: p.energy,
                    proved_optimal: p.proved_optimal,
                    schedule: p.schedule,
                })
                .collect(),
            time_step_seconds: tick,
            complete: front.complete,
            truncated: front.truncated,
            evaluation,
        })
    }

    /// The [`EvaluatePolicy::Exact`] path: run the grid cascade as a pilot,
    /// then solve once at the finest tick with the pilot's result lifted
    /// in as a verified incumbent.
    ///
    /// The pilot is [`Hilp::cascade`] stopped before the final level: it
    /// solves exactly the levels the grid-refinement loop would solve —
    /// same ticks, same warm-order chaining, same budget check at its last
    /// level — so its final schedule *is* the grid policy's result for
    /// this point.
    /// That schedule is then mapped onto the finest-tick instance by
    /// [`lift_to_finer_tick`] and passed as a
    /// [`SolveHints::warm_incumbent`], which the solver verifies and
    /// adopts whenever it beats the finest-tick heuristic. Either way the
    /// returned makespan is at most the lifted one, so
    /// `exact.makespan_seconds <= grid.makespan_seconds` holds by
    /// construction on every point — the finest-tick solve can only
    /// remove coarse-grid rounding, never add it.
    ///
    /// The observer hears of every pilot level under its true grid level
    /// index, and of the finest solve as level `max_refinements`.
    fn evaluate_exact(
        &self,
        table: &ModeTable,
        observer: &dyn RefinementObserver,
    ) -> Result<(SolvedLevel, Option<BudgetKind>), HilpError> {
        let final_level = self.policy.max_refinements;
        let pilot = match final_level.checked_sub(1) {
            Some(last_pilot_level) => {
                let _pilot_span = self.solver.telemetry.span("core.pilot");
                Some(self.cascade(table, observer, last_pilot_level)?)
            }
            None => None,
        };
        let finest = self.solve_level(
            table,
            observer,
            final_level,
            self.policy.exact_tick_seconds(),
            pilot.as_ref().map(|(solved, _)| solved),
        )?;
        let truncated = finest
            .outcome
            .truncated
            .or(pilot.and_then(|(_, truncated)| truncated));
        Ok((finest, truncated))
    }
}

/// One solved refinement level: where it sits in the cascade, its encoded
/// instance, and the solver's result on it.
struct SolvedLevel {
    level: u32,
    time_step: f64,
    instance: Instance,
    maps: EncodeMaps,
    outcome: SolveOutcome,
}

impl SolvedLevel {
    /// This level's schedule lifted onto `finer`, the instance encoded at
    /// `tick`. Lifting is only sound when this level's tick is an integer
    /// multiple of `tick` (always, for integral refine factors); otherwise
    /// this bails out rather than lift approximately.
    fn lift_onto(&self, finer: &Instance, tick: f64) -> Option<Schedule> {
        let factor = (self.time_step / tick).round();
        let exact_multiple = factor.is_finite()
            && (1.0..=f64::from(u32::MAX)).contains(&factor)
            && (factor * tick - self.time_step).abs() <= 1e-9 * self.time_step;
        if !exact_multiple {
            return None;
        }
        lift_to_finer_tick(&self.outcome.schedule, &self.instance, finer, factor as u32)
    }
}

/// Hash of every evaluation knob that can change a result given the same
/// encoded instances. The DSE sweep's result store puts it in every key,
/// so a stored result is only ever reused under the configuration that
/// produced it. Thread counts, the timetable representation (every
/// backend returns the first feasible start at or after a probe's
/// earliest start) and telemetry are excluded as result-invariant;
/// budgets are left to the callers, which reuse results only under
/// replay-safe budgets.
#[must_use]
pub fn config_key(
    policy: &TimeStepPolicy,
    evaluate_policy: EvaluatePolicy,
    solver: &SolverConfig,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(policy.initial_seconds.to_bits());
    eat(u64::from(policy.target_steps));
    eat(policy.refine_factor.to_bits());
    eat(u64::from(policy.max_refinements));
    eat(match evaluate_policy {
        EvaluatePolicy::GridRefinement => 0,
        EvaluatePolicy::Exact => 1,
    });
    eat(solver.heuristic_starts as u64);
    eat(solver.local_search_passes as u64);
    eat(solver.exact_node_budget);
    eat(solver.exact_task_threshold as u64);
    eat(solver.seed);
    eat(u64::from(solver.bound_termination));
    h
}

/// One point of a [`ParetoEvaluation`]: a makespan/energy trade-off in
/// both physical and solver units.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEvalPoint {
    /// Workload execution time in seconds.
    pub makespan_seconds: f64,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Makespan in time steps at the evaluation's final resolution.
    pub makespan_steps: u32,
    /// Total energy in the solver's watt-step unit.
    pub energy_watt_steps: f64,
    /// Whether this point's makespan is proven optimal under its budget.
    pub proved_optimal: bool,
    /// The schedule realizing the trade-off (on the evaluation instance).
    pub schedule: Schedule,
}

impl ParetoEvalPoint {
    /// Energy-delay product in joule-seconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_joules * self.makespan_seconds
    }
}

/// The energy/makespan Pareto front of one design point, produced by
/// [`Hilp::evaluate_pareto`]: non-dominated points sorted by increasing
/// makespan, plus the plain evaluation that fixed the discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEvaluation {
    /// Non-dominated trade-off points, makespan ascending.
    pub points: Vec<ParetoEvalPoint>,
    /// The time step all points were solved at, in seconds.
    pub time_step_seconds: f64,
    /// Whether every ladder rung was solved to proven optimality.
    pub complete: bool,
    /// Which budget constraint cut the ladder short, if any.
    pub truncated: Option<BudgetKind>,
    /// The plain evaluation whose final discretization the front reuses.
    pub evaluation: Evaluation,
}

impl ParetoEvaluation {
    /// The front's minimum-EDP point (ties toward the smaller makespan).
    #[must_use]
    pub fn min_edp(&self) -> Option<&ParetoEvalPoint> {
        self.points.iter().min_by(|a, b| {
            a.edp()
                .total_cmp(&b.edp())
                .then(a.makespan_steps.cmp(&b.makespan_steps))
        })
    }
}

/// Maps a schedule solved at a coarser discretization onto the instance of
/// a `factor`x finer one: start times scale by `factor`, and each task's
/// mode moves to the same-named machine, onto a mode no hungrier on any
/// rate axis and no longer than `factor` times its coarse duration.
///
/// Such a mode always exists before cap-filtering: the coarse mode's own
/// fine-tick counterpart qualifies, since durations round as
/// `ceil(w / (t / factor)) <= factor * ceil(w / t)` while the rate axes
/// (power, bandwidth, cores, custom resources) are tick-independent — and
/// if encoding dropped that counterpart as dominated, its dominator
/// qualifies instead. Feasibility transfers because every lifted window
/// `[factor * s, factor * s + d_fine)` sits inside the scaled coarse
/// window `[factor * s, factor * (s + d_coarse))`: scaling keeps disjoint
/// machine windows disjoint, lags scale by at most `factor` (same ceiling
/// argument), and per-step usage is pointwise at most the coarse
/// schedule's, which met the same caps. The lifted makespan is therefore
/// at most `factor` times the coarse one in steps — equal or better in
/// seconds. Returns `None` when the instances do not line up (different
/// workloads or SoCs); callers still [`Schedule::verify`] before trusting
/// the result — see [`SolveHints::warm_incumbent`].
fn lift_to_finer_tick(
    schedule: &Schedule,
    from: &Instance,
    to: &Instance,
    factor: u32,
) -> Option<Schedule> {
    let n = from.num_tasks();
    if to.num_tasks() != n || schedule.starts.len() != n || schedule.modes.len() != n {
        return None;
    }
    // Pair each source machine with a distinct same-named target machine.
    let mut machine_map = Vec::with_capacity(from.machines().len());
    let mut taken = vec![false; to.machines().len()];
    for name in from.machines() {
        let target = to
            .machines()
            .iter()
            .enumerate()
            .position(|(j, m)| !taken[j] && m == name)?;
        taken[target] = true;
        machine_map.push(target);
    }
    let mut starts = Vec::with_capacity(n);
    let mut modes = Vec::with_capacity(n);
    for (t, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate() {
        let src = from.task(TaskId(t)).modes.get(mode.0)?;
        let duration_budget = src.duration.checked_mul(factor)?;
        let machine = machine_map[src.machine.0];
        let (best, _) = to
            .task(TaskId(t))
            .modes
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.machine.0 == machine
                    && m.duration <= duration_budget
                    && m.power <= src.power
                    && m.bandwidth <= src.bandwidth
                    && m.cores <= src.cores
                    && m.resource_usage.iter().all(|&(r, u)| u <= src.usage_of(r))
            })
            .min_by(|(_, a), (_, b)| {
                (a.duration, a.power, a.bandwidth)
                    .partial_cmp(&(b.duration, b.power, b.bandwidth))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })?;
        modes.push(ModeId(best));
        starts.push(start.checked_mul(factor)?);
    }
    Some(Schedule { starts, modes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_sched::TimetableKind;
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
    fn single_cpu_evaluation_matches_sequential_baseline() {
        // On a single-CPU SoC everything serializes: speedup ~ 1, WLP = 1.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let eval = Hilp::new(w, SocSpec::new(1))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(2.0))
            .evaluate()
            .unwrap();
        assert!(
            eval.speedup <= 1.05,
            "speedup {} should be ~1",
            eval.speedup
        );
        assert!(eval.speedup > 0.9);
        assert!((eval.avg_wlp - 1.0).abs() < 0.05);
    }

    #[test]
    fn adaptive_refinement_reaches_target_resolution() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 4,
            })
            .evaluate()
            .unwrap();
        assert!(eval.refinements >= 1, "a fast SoC must trigger refinement");
        assert!(
            eval.makespan_steps >= 40 || eval.refinements == 4,
            "refinement must stop at the target or the cap"
        );
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn exact_policy_solves_once_at_the_finest_tick() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let policy = TimeStepPolicy::sweep();
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(policy)
            .with_evaluate_policy(EvaluatePolicy::exact())
            .evaluate()
            .unwrap();
        assert_eq!(eval.refinements, 0, "exact mode never refines");
        assert!(
            (eval.time_step_seconds - policy.exact_tick_seconds()).abs() < 1e-12,
            "exact mode solves at the finest tick"
        );
        assert_eq!(eval.exact_makespan_seconds, Some(eval.makespan_seconds));
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn exact_makespan_upper_bounds_the_grid_result() {
        // The grid loop stops refining once the makespan clears
        // target_steps, leaving coarse-grid rounding in the result; the
        // exact solve always reaches the finest tick, so its makespan must
        // not exceed the grid's on the same point.
        let w = Workload::rodinia(WorkloadVariant::Default);
        for soc in [SocSpec::new(4), SocSpec::new(4).with_gpu(16)] {
            let build = || {
                Hilp::new(w.clone(), soc.clone())
                    .with_solver(fast_solver())
                    .with_policy(TimeStepPolicy::sweep())
            };
            let grid = build().evaluate().unwrap();
            let exact = build()
                .with_evaluate_policy(EvaluatePolicy::exact())
                .evaluate()
                .unwrap();
            assert!(
                exact.makespan_seconds <= grid.makespan_seconds + 1e-9,
                "exact {} > grid {}",
                exact.makespan_seconds,
                grid.makespan_seconds
            );
            assert!(exact.lower_bound_seconds <= exact.makespan_seconds + 1e-9);
        }
    }

    #[test]
    fn exact_results_do_not_depend_on_the_timetable() {
        // The exact policy's finest solve runs on the backend the solver
        // names, and every backend returns the same first feasible start:
        // the event timetable and the dense reference must agree bit for
        // bit (which is why `config_key` leaves the timetable out).
        let w = Workload::rodinia(WorkloadVariant::Default);
        let evaluate = |timetable| {
            Hilp::new(w.clone(), SocSpec::new(4).with_gpu(16))
                .with_solver(SolverConfig {
                    timetable,
                    ..fast_solver()
                })
                .with_policy(TimeStepPolicy {
                    max_refinements: 2,
                    ..TimeStepPolicy::sweep()
                })
                .with_evaluate_policy(EvaluatePolicy::exact())
                .evaluate()
                .unwrap()
        };
        let event = evaluate(TimetableKind::Event);
        let dense = evaluate(TimetableKind::Dense);
        let bits = |e: &Evaluation| {
            (
                e.makespan_seconds.to_bits(),
                e.energy_joules.to_bits(),
                e.lower_bound_seconds.to_bits(),
            )
        };
        assert_eq!(bits(&event), bits(&dense));
        assert_eq!(event.schedule, dense.schedule);
    }

    #[test]
    fn exact_pilot_reports_the_grid_cascade_then_the_finest_level() {
        // The exact policy's pilot is the grid cascade stopped before the
        // final level: its level reports must match the grid run's level
        // for level, followed by one report for the finest-tick solve.
        #[derive(Default)]
        struct Reports(std::cell::RefCell<Vec<(u32, f64, u32, u32)>>);
        impl RefinementObserver for Reports {
            fn level_solved(&self, r: &LevelReport<'_>) {
                self.0.borrow_mut().push((
                    r.level,
                    r.time_step_seconds,
                    r.makespan_steps,
                    r.lower_bound_steps,
                ));
            }
        }
        let w = Workload::rodinia(WorkloadVariant::Default);
        let always_refine = TimeStepPolicy {
            target_steps: u32::MAX,
            max_refinements: 2,
            ..TimeStepPolicy::sweep()
        };
        let (mut stopped_early, mut reached_max) = (false, false);
        for policy in [TimeStepPolicy::sweep(), always_refine] {
            for soc in [SocSpec::new(1), SocSpec::new(4).with_gpu(64)] {
                let run = |evaluate| {
                    let reports = Reports::default();
                    Hilp::new(w.clone(), soc.clone())
                        .with_solver(fast_solver())
                        .with_policy(policy)
                        .with_evaluate_policy(evaluate)
                        .evaluate_with_observer(&reports)
                        .unwrap();
                    reports.0.into_inner()
                };
                let grid = run(EvaluatePolicy::grid());
                let mut exact = run(EvaluatePolicy::exact());
                let finest = exact.pop().expect("the finest solve reports");
                assert_eq!(finest.0, policy.max_refinements);
                assert_eq!(finest.1, policy.exact_tick_seconds());
                let levels = grid.len();
                let pilot: Vec<_> = grid
                    .into_iter()
                    .filter(|r| r.0 < policy.max_refinements)
                    .collect();
                assert_eq!(exact, pilot, "{}: pilot left the grid cascade", soc.label());
                stopped_early |= levels <= policy.max_refinements as usize;
                reached_max |= levels == policy.max_refinements as usize + 1;
            }
        }
        assert!(
            stopped_early && reached_max,
            "both cascade ends are covered"
        );
    }

    #[test]
    fn exact_pilot_checks_the_budget_at_its_last_level() {
        // A cancel that lands after a level's solve (here, from its level
        // report) is caught at that level's boundary when it wants to
        // refine: by the grid loop before its final level, and by the
        // exact pilot at its last level, before the finest solve.
        struct CancelAt(u32, hilp_sched::CancelToken);
        impl RefinementObserver for CancelAt {
            fn level_solved(&self, r: &LevelReport<'_>) {
                if r.level == self.0 {
                    self.1.cancel();
                }
            }
        }
        let policy = TimeStepPolicy {
            target_steps: u32::MAX,
            max_refinements: 2,
            ..TimeStepPolicy::sweep()
        };
        for evaluate in [EvaluatePolicy::grid(), EvaluatePolicy::exact()] {
            let token = hilp_sched::CancelToken::new();
            let tel = hilp_telemetry::Telemetry::enabled();
            let eval = Hilp::new(
                Workload::rodinia(WorkloadVariant::Default),
                SocSpec::new(2).with_gpu(16),
            )
            .with_solver(SolverConfig {
                budget: hilp_sched::Budget::unlimited().with_cancel(token.clone()),
                telemetry: tel.clone(),
                ..fast_solver()
            })
            .with_policy(policy)
            .with_evaluate_policy(evaluate)
            .evaluate_with_observer(&CancelAt(policy.max_refinements - 1, token))
            .unwrap();
            let boundary_trips = tel
                .journal()
                .records
                .iter()
                .filter(|r| {
                    matches!(
                        r,
                        hilp_telemetry::Record::Budget {
                            layer: BudgetLayer::Refinement,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(boundary_trips, 1, "{evaluate:?}");
            assert_eq!(eval.truncated, Some(BudgetKind::Cancelled), "{evaluate:?}");
        }
    }

    #[test]
    fn exact_evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = || {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(fast_solver())
                .with_policy(TimeStepPolicy::sweep())
                .with_evaluate_policy(EvaluatePolicy::exact())
                .evaluate()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_steps, b.makespan_steps);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn accelerators_speed_up_the_default_workload() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let plain = Hilp::new(w.clone(), SocSpec::new(4))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        let accelerated = Hilp::new(w, SocSpec::new(4).with_gpu(64))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert!(accelerated.speedup > 2.0 * plain.speedup);
    }

    #[test]
    fn paper_flagship_soc_reaches_reported_speedup_band() {
        // (c4,g16,d2^16) on Default: the paper reports 45.6x.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        let eval = Hilp::new(w, soc)
            .with_constraints(Constraints::paper_default())
            .with_solver(SolverConfig::default())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert!(
            eval.speedup > 35.0 && eval.speedup < 55.0,
            "speedup {} outside the paper's band",
            eval.speedup
        );
        assert!(eval.avg_wlp > 1.5, "WLP {} too low", eval.avg_wlp);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = || {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(fast_solver())
                .with_policy(TimeStepPolicy::sweep())
                .evaluate()
                .unwrap()
                .makespan_steps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_budget_stops_refinement_at_a_level_boundary() {
        // Unbudgeted, this SoC refines at least once. A node budget sized
        // for roughly one level must stop at the boundary and return the
        // coarse level's result instead of erroring.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let policy = TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 4,
        };
        let unbudgeted = Hilp::new(w.clone(), soc.clone())
            .with_solver(fast_solver())
            .with_policy(policy)
            .evaluate()
            .unwrap();
        assert!(unbudgeted.refinements >= 1);
        assert_eq!(unbudgeted.truncated, None);
        let budgeted = Hilp::new(w, soc)
            .with_solver(SolverConfig {
                budget: hilp_sched::Budget::nodes(75),
                ..fast_solver()
            })
            .with_policy(policy)
            .evaluate()
            .unwrap();
        assert_eq!(budgeted.truncated, Some(BudgetKind::Nodes));
        assert!(
            budgeted.refinements < unbudgeted.refinements,
            "the budget must cut refinement rounds ({} vs {})",
            budgeted.refinements,
            unbudgeted.refinements
        );
        assert!(budgeted.schedule.verify(&budgeted.instance).is_empty());
        assert!(budgeted.lower_bound_seconds <= budgeted.makespan_seconds + 1e-9);
    }

    #[test]
    fn cancelled_evaluation_still_returns_a_result() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let token = hilp_sched::CancelToken::new();
        token.cancel();
        let eval = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(SolverConfig {
                budget: hilp_sched::Budget::unlimited().with_cancel(token),
                ..fast_solver()
            })
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert_eq!(eval.truncated, Some(BudgetKind::Cancelled));
        assert_eq!(eval.refinements, 0, "no refinement after cancellation");
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn node_budgeted_evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = |threads| {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(SolverConfig {
                    budget: hilp_sched::Budget::nodes(50),
                    heuristic_threads: threads,
                    ..fast_solver()
                })
                .with_policy(TimeStepPolicy::sweep())
                .evaluate()
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.makespan_steps, b.makespan_steps);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.refinements, b.refinements);
    }

    #[test]
    fn energy_is_reported_and_positive() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let eval = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate()
            .unwrap();
        assert!(eval.energy_joules > 0.0, "a real workload consumes energy");
        let step_energy: f64 = eval.schedule.total_energy(&eval.instance);
        assert!((eval.energy_joules - step_energy * eval.time_step_seconds).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_is_nonempty_and_monotone() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let front = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate_pareto()
            .unwrap();
        assert!(!front.points.is_empty());
        // Non-dominated and sorted: makespan strictly increases while
        // energy strictly decreases.
        for pair in front.points.windows(2) {
            assert!(pair[0].makespan_steps < pair[1].makespan_steps);
            assert!(pair[0].energy_watt_steps > pair[1].energy_watt_steps);
        }
        // The fastest point matches the plain evaluation's makespan.
        assert_eq!(
            front.points[0].makespan_steps,
            front.evaluation.makespan_steps
        );
        assert!(front.min_edp().is_some());
        for p in &front.points {
            assert!(p.schedule.verify(&front.evaluation.instance).is_empty());
        }
    }

    #[test]
    fn render_schedule_mentions_machines() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1).with_gpu(16);
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate()
            .unwrap();
        let text = eval.render_schedule();
        assert!(text.contains("gpu16"));
        assert!(text.contains("cpu0"));
    }
}
