//! Parallel evaluation of design spaces under the three models.
//!
//! Every design point is solved on its own, as in the paper's DSE: workers
//! claim points from a striped work queue in input order, answer each from
//! the sweep's [`ResultStore`] when it holds the point, and otherwise
//! evaluate it and file the result. Each point's result depends only on
//! its inputs, so every reported value — makespan, gap, schedule-derived
//! WLP — is bit-identical for any thread count and claim order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hilp_baselines::{gables_constraints, gables_parallel, multi_amdahl, without_dependencies};
use hilp_core::{
    config_key, tabulate, Budget, BudgetKind, CancelToken, EvaluatePolicy, Evaluation, Hilp,
    HilpError, LevelReport, RefinementObserver, SolverConfig, TimeStepPolicy,
};
use hilp_parallel::{resolve_threads, ThreadBudget, WorkQueue};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{BudgetLayer, Counter, Telemetry};
use hilp_workloads::Workload;

use crate::pareto::ParetoPoint;
use crate::store::{KeyHasher, ResultStore};

/// Which evaluation model a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// HILP: near-optimal scheduling, full WLP awareness.
    Hilp,
    /// MultiAmdahl: fixed sequential order (WLP = 1).
    MultiAmdahl,
    /// Parallel-mode Gables: dependencies discarded (maximal WLP).
    Gables,
}

impl ModelKind {
    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Hilp => "HILP",
            ModelKind::MultiAmdahl => "MA",
            ModelKind::Gables => "Gables",
        }
    }
}

/// Budget controls for a whole sweep (all optional; the default is
/// fully unbudgeted and changes nothing about how a sweep runs).
///
/// A budgeted sweep still evaluates *every* design point: expiry
/// degrades each point's solve gracefully (the deterministic heuristic
/// base pass always runs, so every point reports a feasible schedule)
/// rather than dropping points. Truncated points are marked in
/// [`SweepStats::point_truncations`].
#[derive(Debug, Clone, Default)]
pub struct SweepBudgets {
    /// Deterministic node budget handed to each design point's solver as
    /// a *fresh* meter (`None` = unlimited). Because no point draws from
    /// another's pool, results are bit-identical for any worker count
    /// and claim order.
    pub per_point_nodes: Option<u64>,
    /// Wall-clock deadline for the whole sweep, measured from the
    /// `evaluate_space*` call. The remaining time is redistributed
    /// fairly at each point claim: a point may use
    /// `threads * remaining_time / unclaimed_points` (workers run
    /// concurrently, so each wall-clock second advances ~`threads`
    /// points), capped by the sweep deadline itself so the sweep always
    /// lands by the cutoff. Inherently non-deterministic.
    pub sweep_deadline: Option<Duration>,
    /// External kill switch observed by every point's solver. After
    /// cancellation each remaining point degrades to its heuristic base
    /// pass, so the sweep drains quickly but completely.
    pub cancel: Option<CancelToken>,
}

impl SweepBudgets {
    /// Whether any budget constraint is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.per_point_nodes.is_some() || self.sweep_deadline.is_some() || self.cancel.is_some()
    }

    /// Whether reading and writing a [`ResultStore`] stays sound under
    /// these budgets: no per-point node meter and no sweep deadline. A
    /// cancel token *alone* is allowed — until it trips, cancel checks
    /// are read-only and every solve is bit-identical to an unbudgeted
    /// one. The sweep never files a point produced after the token
    /// actually trips; this predicate only says the budget *shape* cannot
    /// silently perturb untripped runs. Long-running servers rely on
    /// this: every job carries a disconnect cancel token, and without the
    /// carve-out no server sweep could ever reuse a stored result.
    #[must_use]
    pub fn replay_safe(&self) -> bool {
        self.per_point_nodes.is_none() && self.sweep_deadline.is_none()
    }
}

/// Whether a solver-level [`Budget`] is replay-safe in the same sense as
/// [`SweepBudgets::replay_safe`]: unlimited, or expirable only through a
/// cancel token.
fn solver_budget_replay_safe(budget: &Budget) -> bool {
    budget.is_unlimited() || budget.cancel_only()
}

/// Configuration of a design-space sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Time-step policy per evaluation.
    pub policy: TimeStepPolicy,
    /// How HILP evaluations consume the time-step policy: the paper's
    /// adaptive grid-refinement loop (the default), or a pilot replay of
    /// that loop followed by one solve at the policy's finest tick on the
    /// configured [`SolverConfig::timetable`] ([`EvaluatePolicy::Exact`])
    /// — no residual coarse-grid rounding, and per-point makespans
    /// guaranteed at most the grid loop's. The other models have no
    /// refinement loop and ignore this.
    pub evaluate: EvaluatePolicy,
    /// Scheduler configuration per evaluation. Its
    /// [`SolverConfig::telemetry`] handle is the whole sweep's: spans and
    /// counters from the sweep, the evaluator and the scheduler land in
    /// it. Observational only: enabling it never changes a reported value.
    pub solver: SolverConfig,
    /// Number of worker threads (`0` = all available cores; when the core
    /// count cannot be determined the sweep falls back to
    /// [`hilp_parallel::FALLBACK_THREADS`] workers and reports it via
    /// [`SweepStats::parallelism_fallback`]).
    pub threads: usize,
    /// Gives a sweep without a [`SweepConfig::baseline`] a private
    /// [`ResultStore`], and turns on *instance keys*: HILP and Gables
    /// sweeps also file every point under a hash of its
    /// [`hilp_core::ModeTable`] (labels excluded), from which every
    /// discretization level's instance is built, so design points whose
    /// *effective* instances coincide (e.g. SoCs differing only in
    /// components the workload cannot exploit) solve once. Equal tables
    /// discretize to identical instances at every tick, so a hit implies
    /// the whole refinement trajectory — and therefore the result — is
    /// identical. A key costs one tabulate and one hash, about 20 µs on
    /// Rodinia. MultiAmdahl computes no instance key (its closed-form
    /// evaluation costs only a few keys).
    pub memoize: bool,
    /// Solve budgets for the sweep (per-point node budgets, a whole-sweep
    /// deadline, external cancellation). Inactive by default. When a node
    /// or deadline constraint is set, the sweep reads and writes no
    /// [`ResultStore`]: a truncated result depends on the budget, not just
    /// the inputs, so stored answers would no longer be sound. A cancel
    /// token alone keeps the store (see [`SweepBudgets::replay_safe`]);
    /// results produced after the token trips are simply never filed.
    pub budgets: SweepBudgets,
    /// The [`ResultStore`] the sweep reads and writes, shared with other
    /// sweeps: e.g. the store [`evaluate_space_recorded`] returns, before
    /// a what-if edit. Every answered, untruncated point is filed under
    /// its *inputs key* (model, [`config_key`], workload, constraints and
    /// SoC) and, with [`SweepConfig::memoize`], its instance key. A point
    /// whose inputs key is already filed is *identity-replayed*: the
    /// record is its result, because the evaluation pipeline is
    /// deterministic and re-running it would reproduce the record bit for
    /// bit.
    ///
    /// `None` (the default) gives the sweep a private store when
    /// `memoize` is on, and none otherwise. Node- or deadline-budgeted
    /// sweeps ignore the store; a cancel token alone is fine (see
    /// [`SweepBudgets::replay_safe`]).
    pub baseline: Option<Arc<ResultStore>>,
}

impl Default for SweepConfig {
    /// The configuration `BENCH_sweep.json` was committed under: the
    /// 200-step policy below, [`SolverConfig::sweep`] (event timetable,
    /// serial multi-start, no exact phase) and memoization on. Thread
    /// counts are result-invariant, so callers reproduce the committed
    /// results with `SweepConfig { threads, ..SweepConfig::default() }`. `hilpd` jobs
    /// run it with `memoize` off and the daemon's store as `baseline`.
    fn default() -> Self {
        SweepConfig {
            // The paper's DSE refines towards a 40-step makespan
            // (TimeStepPolicy::sweep()), which is fine when the metric is a
            // parallel schedule. MultiAmdahl's makespan, however, is a sum
            // over all ~30 phases, so at 40 steps its per-phase ceiling
            // rounding dominates the result. Our solver is fast enough to
            // afford the validation-grade 200-step target for everything,
            // keeping the three models' discretization error comparable.
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 200,
                refine_factor: 5.0,
                max_refinements: 4,
            },
            evaluate: EvaluatePolicy::default(),
            solver: SolverConfig::sweep(),
            threads: 0,
            memoize: true,
            budgets: SweepBudgets::default(),
            baseline: None,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The SoC.
    pub soc: SocSpec,
    /// Its `(c,g,d)` label.
    pub label: String,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Predicted speedup over sequential single-core execution.
    pub speedup: f64,
    /// Predicted workload execution time (s).
    pub makespan_seconds: f64,
    /// Energy of the predicted schedule (J).
    pub energy_joules: f64,
    /// Average WLP of the predicted schedule.
    pub avg_wlp: f64,
    /// Optimality gap of the underlying solve (0 for MA, which is exact
    /// given its sequential-order assumption).
    pub gap: f64,
    /// Fraction of accelerator area on the GPU (Figure 7 color coding).
    pub gpu_area_fraction: Option<f64>,
}

impl ParetoPoint for DesignPoint {
    fn cost(&self) -> f64 {
        self.area_mm2
    }
    fn benefit(&self) -> f64 {
        self.speedup
    }
}

/// One makespan×energy trade-off on a design point's schedule-level
/// Pareto front, in physical units.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Workload execution time at this trade-off (s).
    pub makespan_seconds: f64,
    /// Schedule energy at this trade-off (J).
    pub energy_joules: f64,
    /// Whether the solver proved this makespan optimal under its energy
    /// cap (the front is exact here, not just non-dominated incumbents).
    pub proved_optimal: bool,
}

impl TradeoffPoint {
    /// Energy-delay product (J·s).
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.makespan_seconds * self.energy_joules
    }
}

/// One design point of an energy-aware sweep: the scalar evaluation plus
/// the full makespan×energy Pareto front of its schedules (makespan
/// ascending, energy strictly descending).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoDesignPoint {
    /// The scalar design point (same fields as [`evaluate_space`]'s).
    pub point: DesignPoint,
    /// The non-dominated makespan×energy trade-offs at the final tick.
    pub front: Vec<TradeoffPoint>,
    /// Whether every rung of the cap ladder closed its gap, making the
    /// front provably exact (its EDP minimum is then the global minimum).
    pub complete: bool,
    /// Which budget constraint (if any) cut the ladder short.
    pub truncated: Option<BudgetKind>,
}

impl ParetoDesignPoint {
    /// The front's minimum energy-delay product, if any point exists.
    #[must_use]
    pub fn min_edp(&self) -> Option<f64> {
        self.front
            .iter()
            .map(TradeoffPoint::edp)
            .min_by(f64::total_cmp)
    }
}

/// One completed design point, as delivered to a [`SweepObserver`] the
/// moment its result is known (claim order, not input order).
#[derive(Debug, Clone)]
pub struct PointUpdate {
    /// Index in the input SoC order.
    pub index: usize,
    /// The evaluated point.
    pub point: DesignPoint,
    /// Wall-clock seconds spent on it (~0 for replays and cache hits).
    pub seconds: f64,
    /// Which budget constraint cut the solve short, if any.
    pub truncated: Option<BudgetKind>,
    /// Answered by identity replay: the [`ResultStore`] held its inputs
    /// key.
    pub replayed: bool,
    /// Answered by a memo hit: the [`ResultStore`] held its instance key.
    pub cached: bool,
}

/// A streaming callback for sweeps: [`evaluate_space_streamed`] invokes
/// it from worker threads as each design point lands, so a caller
/// (e.g. a serving frontend) can forward incremental results while the
/// sweep is still running. Purely observational — implementations cannot
/// change any reported value — and called concurrently, so they must be
/// `Sync`.
pub trait SweepObserver: Sync {
    /// Called exactly once per design point, as soon as its result is
    /// known. Points arrive in claim order; `update.index` recovers the
    /// input position.
    fn point_done(&self, update: &PointUpdate);
}

/// Evaluates one SoC under one model.
///
/// # Errors
///
/// Propagates encoding and scheduling failures.
pub fn evaluate_soc(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<DesignPoint, HilpError> {
    let (scalars, _) = evaluate_soc_observed(workload, soc, constraints, model, config, &())?;
    Ok(design_point(soc, &scalars))
}

/// [`evaluate_soc`]'s model scalars, with a refinement observer threaded
/// into HILP and Gables evaluations (MultiAmdahl has no refinement loop to
/// observe). Additionally reports whether the underlying solve was cut
/// short by a budget (always `None` for MultiAmdahl, which has no search
/// to budget).
fn evaluate_soc_observed(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: &dyn RefinementObserver,
) -> Result<(PointScalars, Option<BudgetKind>), HilpError> {
    Ok(match model {
        ModelKind::Hilp => {
            let eval = point_evaluator(workload, soc, constraints, config)
                .evaluate_with_observer(observer)?;
            (PointScalars::from_evaluation(&eval), eval.truncated)
        }
        ModelKind::MultiAmdahl => {
            let r = multi_amdahl(workload, soc, constraints, &config.policy)?;
            (PointScalars::from_baseline(&r), r.truncated)
        }
        ModelKind::Gables => {
            // Gables solves a scheduling problem too; surface its real
            // optimality gap rather than pretending the prediction is
            // exact.
            let r = gables_parallel(
                workload,
                soc,
                constraints,
                &config.policy,
                &config.solver,
                observer,
            )?;
            (PointScalars::from_baseline(&r), r.truncated)
        }
    })
}

/// The HILP evaluator of one design point under a sweep configuration.
fn point_evaluator(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Hilp {
    Hilp::new(workload.clone(), soc.clone())
        .with_constraints(*constraints)
        .with_policy(config.policy)
        .with_evaluate_policy(config.evaluate)
        .with_solver(config.solver.clone())
}

/// The model-reported scalars of one design point, independent of the SoC
/// identity fields (`label`, area) that [`design_point`] recomputes.
#[derive(Debug, Clone, Copy)]
struct PointScalars {
    speedup: f64,
    makespan_seconds: f64,
    energy_joules: f64,
    avg_wlp: f64,
    gap: f64,
}

impl PointScalars {
    fn from_evaluation(eval: &Evaluation) -> PointScalars {
        PointScalars {
            speedup: eval.speedup,
            makespan_seconds: eval.makespan_seconds,
            energy_joules: eval.energy_joules,
            avg_wlp: eval.avg_wlp,
            gap: eval.gap,
        }
    }

    fn from_baseline(r: &hilp_baselines::BaselineResult) -> PointScalars {
        PointScalars {
            speedup: r.speedup,
            makespan_seconds: r.makespan_seconds,
            energy_joules: r.energy_joules,
            avg_wlp: r.avg_wlp,
            gap: r.gap,
        }
    }
}

fn design_point(soc: &SocSpec, scalars: &PointScalars) -> DesignPoint {
    DesignPoint {
        soc: soc.clone(),
        label: soc.label(),
        area_mm2: soc.area_mm2(),
        speedup: scalars.speedup,
        makespan_seconds: scalars.makespan_seconds,
        energy_joules: scalars.energy_joules,
        avg_wlp: scalars.avg_wlp,
        gap: scalars.gap,
        gpu_area_fraction: soc.gpu_area_fraction(),
    }
}

/// Sweep-wide statistics: result-store effectiveness, solver work, and
/// per-point solve-time attribution.
///
/// The timing and work-count fields describe *how* the sweep ran, not what
/// it computed; they vary with thread interleaving while the returned
/// design points do not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Design points that ran a full evaluation.
    pub solves: usize,
    /// Design points answered by a memo hit: the [`ResultStore`] held
    /// their instance key (but not their inputs key).
    pub cache_hits: usize,
    /// Worker threads the sweep actually used.
    pub threads_used: usize,
    /// `threads: 0` was requested but the core count could not be
    /// determined, so the sweep fell back to
    /// [`hilp_parallel::FALLBACK_THREADS`] workers.
    pub parallelism_fallback: bool,
    /// Refinement levels solved across all HILP and Gables evaluations.
    pub levels_solved: usize,
    /// Always 0: every design point is solved on its own, so no level
    /// inherits a bound from another point. Kept because existing readers
    /// of these stats (the `hilpbench` package) still read it.
    pub bound_inherited_levels: usize,
    /// Levels of HILP and Gables evaluations whose heuristic stopped early
    /// because its incumbent reached a proven bound.
    pub early_terminated_levels: usize,
    /// Heuristic SGS evaluations requested across all levels of HILP and
    /// Gables evaluations.
    pub heuristic_jobs_total: u64,
    /// Heuristic SGS evaluations actually executed; the rest were cut by
    /// bound termination. An evaluation stopped early at the incumbent
    /// cutoff (a worker's best so far) still counts as executed.
    pub heuristic_jobs_executed: u64,
    /// Wall-clock seconds spent on each design point, aligned with the
    /// input SoC order (identity replays cost ~0).
    pub point_seconds: Vec<f64>,
    /// Design points whose solve was cut short by a budget (the point
    /// still reports its best incumbent — see [`SweepBudgets`]).
    pub truncated_points: usize,
    /// Which budget constraint (if any) truncated each design point,
    /// aligned with the input SoC order. All `None` for unbudgeted
    /// sweeps.
    pub point_truncations: Vec<Option<BudgetKind>>,
    /// Design points answered by identity replay: the [`ResultStore`]
    /// held their inputs key, filed by this sweep (a duplicate SoC) or an
    /// earlier one.
    pub delta_identity_points: usize,
    /// Always 0: identity replay is the only what-if reuse, and it hands
    /// no bounds to solved levels. Kept because existing readers of these
    /// stats (the `hilpbench` package) still read it.
    pub delta_certified_levels: usize,
}

/// What a sweep keeps of one evaluated design point: its model scalars
/// and, in a Pareto sweep, its makespan×energy front. A [`ResultStore`]
/// files this record, and a memo hit answers exactly like an identity
/// replay (see [`Driver::reuse`]).
#[derive(Debug, Clone)]
pub(crate) struct PointRecord {
    scalars: PointScalars,
    /// The non-dominated makespan×energy trade-offs (Pareto sweeps only).
    front: Vec<TradeoffPoint>,
    /// Whether `front` is provably exact.
    complete: bool,
}

impl PointRecord {
    fn new(scalars: PointScalars) -> Self {
        PointRecord {
            scalars,
            front: Vec::new(),
            complete: false,
        }
    }
}

/// [`config_key`] of a sweep: the knobs of the per-point evaluators it
/// builds. Memoization and sweep threads are excluded — both proven
/// result-invariant.
fn sweep_config_key(config: &SweepConfig) -> u64 {
    config_key(&config.policy, config.evaluate, &config.solver)
}

/// A sweep's handle on its [`ResultStore`]: the store, and how this sweep
/// keys the points it looks up and files. One lock guards the store; a
/// point takes it for one or two lookups plus one insert after a miss,
/// having just paid a tabulate for an instance key, so workers do not
/// queue on it.
struct StoreKeys<'a> {
    store: &'a ResultStore,
    /// The hash of the sweep's scope (model, config key, workload and
    /// constraints), hashed once per sweep; a point's inputs key continues
    /// it with the SoC, and its instance key with its mode table.
    scope: KeyHasher,
    /// What instance keys tabulate, when the sweep computes them.
    instance: Option<InstanceScope>,
}

/// The inputs a sweep tabulates for its instance keys.
struct InstanceScope {
    /// The *effective* workload the model schedules (dependency-stripped
    /// for Gables).
    workload: Workload,
    /// The *effective* constraints (power budget dropped for Gables).
    constraints: Constraints,
}

impl<'a> StoreKeys<'a> {
    fn new(
        store: &'a ResultStore,
        workload: &Workload,
        constraints: &Constraints,
        model: ModelKind,
        config: &SweepConfig,
    ) -> Self {
        let config_key = sweep_config_key(config);
        let instance = match model {
            _ if !config.memoize => None,
            ModelKind::Hilp => Some((workload.clone(), *constraints)),
            ModelKind::Gables => Some((
                without_dependencies(workload),
                gables_constraints(constraints),
            )),
            // MultiAmdahl evaluations are a closed-form sum over one
            // tabulate and a discretize per level — a memo hit would save
            // only a few keys' worth of work.
            ModelKind::MultiAmdahl => None,
        };
        StoreKeys {
            store,
            scope: store
                .key_hasher()
                .eat(&(model, config_key, workload, constraints)),
            instance: instance.map(|(workload, constraints)| InstanceScope {
                workload,
                constraints,
            }),
        }
    }

    /// The record filed under `key`, if any.
    fn get(&self, key: Option<u64>) -> Option<PointRecord> {
        self.store.get(key?)
    }

    /// The point's inputs key: the sweep's scope and the SoC, hashed
    /// without encoding anything.
    fn inputs(&self, soc: &SocSpec) -> u64 {
        self.scope.clone().eat(soc).finish()
    }

    /// The point's instance key, when the sweep computes them: the
    /// sweep's scope hash continued with the point's mode table, labels
    /// excluded. Every level's instance is [`hilp_core::ModeTable::discretize`]
    /// of the table at that level's tick, a pure function of the two, so
    /// equal keys imply the two design points present the solver with
    /// identical instances at *every* tick, whichever ticks the policy
    /// visits: the grid cascade, [`EvaluatePolicy::Exact`]'s pilot and
    /// finest solve, and the Pareto ladder on the final instance. The
    /// solver being deterministic, their results are identical. The
    /// scope must seed the key because the store outlives one sweep: an
    /// instance sees each phase only as a tick count, but a point's
    /// speedup divides the workload's raw sequential CPU time.
    ///
    /// A point whose table cannot be built gets no key: its evaluation
    /// reports the error, exactly as without instance keys.
    fn instance(&self, soc: &SocSpec) -> Option<u64> {
        let scope = self.instance.as_ref()?;
        let table = tabulate(&scope.workload, soc, &scope.constraints).ok()?;
        // The tag parts this stream from every inputs key's, which goes on
        // with a `SocSpec { .. }` rendering.
        let mut key = self.scope.clone().eat(&"mode table");
        table.key_words(|word| key.word(word));
        Some(key.finish())
    }
}

/// Mints one fresh [`Budget`] per design point at claim time,
/// implementing the [`SweepBudgets`] policy: a per-point node meter,
/// fair redistribution of the remaining sweep time, and a shared cancel
/// token.
struct SweepBudgeter {
    per_point_nodes: Option<u64>,
    /// The whole-sweep cutoff, resolved at sweep start.
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    threads: usize,
    /// Points not yet claimed, decremented per deadline-carrying claim.
    unclaimed: AtomicUsize,
}

impl SweepBudgeter {
    fn new(budgets: &SweepBudgets, threads: usize, points: usize) -> Option<SweepBudgeter> {
        budgets.is_active().then(|| SweepBudgeter {
            per_point_nodes: budgets.per_point_nodes,
            // A deadline too far out to be an `Instant` can never pass.
            deadline: budgets
                .sweep_deadline
                .and_then(|after| Instant::now().checked_add(after)),
            cancel: budgets.cancel.clone(),
            threads: threads.max(1),
            unclaimed: AtomicUsize::new(points),
        })
    }

    /// The budget for the next claimed point. Fair redistribution: the
    /// point's deadline is `now + threads * remaining_time / unclaimed`
    /// (workers run concurrently, so each wall-clock second advances
    /// ~`threads` points), capped by the sweep deadline. Points that
    /// finish early donate their slack to later claims automatically,
    /// because later slices are computed from the *actual* remaining
    /// time.
    fn point_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(nodes) = self.per_point_nodes {
            budget = budget.with_node_limit(nodes);
        }
        if let Some(deadline) = self.deadline {
            let left = self.unclaimed.fetch_sub(1, Ordering::Relaxed).max(1);
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            // A slice too long to represent ends after the sweep deadline.
            let slice_end = Duration::try_from_secs_f64(
                self.threads as f64 / left as f64 * remaining.as_secs_f64(),
            )
            .ok()
            .and_then(|slice| now.checked_add(slice));
            budget = budget.with_deadline_at(slice_end.map_or(deadline, |end| deadline.min(end)));
        }
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel(token.clone());
        }
        budget
    }
}

/// Sweep-wide work counters, updated lock-free by the per-point oracles.
#[derive(Default)]
struct SweepCounters {
    levels_solved: AtomicUsize,
    early_terminated: AtomicUsize,
    jobs_total: AtomicU64,
    jobs_executed: AtomicU64,
    cache_hits: AtomicUsize,
    delta_identity: AtomicUsize,
}

/// Per-point refinement observer: journals each level and counts its
/// work into the sweep's counters.
struct PointOracle<'a> {
    counters: &'a SweepCounters,
    tel: &'a Telemetry,
    point: usize,
}

impl RefinementObserver for PointOracle<'_> {
    fn level_solved(&self, report: &LevelReport<'_>) {
        self.tel.level(
            self.point as u64,
            u64::from(report.level),
            u64::from(report.makespan_steps),
        );
        let c = self.counters;
        c.levels_solved.fetch_add(1, Ordering::Relaxed);
        c.jobs_total.fetch_add(
            report.telemetry.heuristic_jobs_total as u64,
            Ordering::Relaxed,
        );
        c.jobs_executed.fetch_add(
            report.telemetry.heuristic_jobs_executed as u64,
            Ordering::Relaxed,
        );
        if report.telemetry.bound_termination_hit {
            c.early_terminated.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Evaluates a whole design space in parallel, preserving input order.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<Vec<DesignPoint>, HilpError> {
    evaluate_space_with_stats(workload, socs, constraints, model, config).map(|(points, _)| points)
}

/// Like [`evaluate_space`], additionally reporting how much work the
/// result store saved, and where the sweep's wall clock went.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_with_stats(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    sweep_points(workload, socs, constraints, model, config, None)
}

/// [`evaluate_space_with_stats`] with a [`SweepObserver`] invoked from
/// worker threads as each design point lands; the serving frontend uses
/// this to stream results while the sweep runs. The observer is purely
/// observational: the returned points and stats are bit-identical to an
/// unobserved sweep.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_streamed(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: &dyn SweepObserver,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    sweep_points(workload, socs, constraints, model, config, Some(observer))
}

/// Like [`evaluate_space_with_stats`], additionally returning a fresh
/// [`ResultStore`] holding every answered point's result, so a later
/// sweep handed the store as [`SweepConfig::baseline`] replays the
/// unchanged points. The design points themselves are identical to
/// [`evaluate_space`]'s. The recording files inputs keys only (it runs
/// with `memoize` off) and ignores any `config.baseline`, so every
/// distinct SoC is actually solved and observed, and a recorded point
/// pays for no instance key. A node- or deadline-budgeted recording
/// returns an empty store, and a cancelled one files only the points it
/// finished before the trip.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_recorded(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<(Vec<DesignPoint>, SweepStats, ResultStore), HilpError> {
    let store = Arc::new(ResultStore::new());
    let recording = SweepConfig {
        memoize: false,
        baseline: Some(Arc::clone(&store)),
        ..config.clone()
    };
    let (points, stats) = sweep_points(workload, socs, constraints, model, &recording, None)?;
    drop(recording);
    let store = Arc::into_inner(store).expect("a finished sweep keeps no store reference");
    Ok((points, stats, store))
}

/// Evaluates a whole design space into per-point makespan×energy Pareto
/// fronts, in parallel, preserving input order (HILP model only — the
/// baseline models have no energy dial to trade against).
///
/// Each point runs the configured evaluation to fix its final tick, then
/// sweeps a descending energy-cap ladder at that tick (see
/// [`hilp_sched::solve_pareto`]). Results are bit-identical for any
/// `threads` setting: points are independent, each ladder is
/// deterministic, and results are slotted by input index. The sweep runs
/// on the same driver as [`evaluate_space`], so memoization composes
/// exactly as there (inputs and instance keys, disabled by
/// non-replay-safe budgets) and [`SweepBudgets`] mints the same per-point
/// budgets, and it journals and counts each point's refinement levels as
/// a scalar sweep does. It always uses a private [`ResultStore`] and
/// ignores [`SweepConfig::baseline`], since its records carry fronts that
/// scalar sweeps' records lack.
///
/// # Errors
///
/// Returns the first evaluation error encountered (in input order).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_pareto(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<Vec<ParetoDesignPoint>, HilpError> {
    let config = SweepConfig {
        baseline: None,
        ..config.clone()
    };
    let (answers, stats) = sweep_inner(
        workload,
        socs,
        constraints,
        ModelKind::Hilp,
        &config,
        None,
        |soc, config, oracle| {
            let pareto = point_evaluator(workload, soc, constraints, config)
                .evaluate_pareto_with_observer(oracle)?;
            let eval = &pareto.evaluation;
            let record = PointRecord {
                front: pareto
                    .points
                    .iter()
                    .map(|p| TradeoffPoint {
                        makespan_seconds: p.makespan_seconds,
                        energy_joules: p.energy_joules,
                        proved_optimal: p.proved_optimal,
                    })
                    .collect(),
                complete: pareto.complete,
                ..PointRecord::new(PointScalars::from_evaluation(eval))
            };
            Ok((record, pareto.truncated.or(eval.truncated)))
        },
    )?;
    Ok(answers
        .into_iter()
        .zip(stats.point_truncations)
        .map(|((point, record), truncated)| ParetoDesignPoint {
            point,
            front: record.front,
            complete: record.complete,
            truncated,
        })
        .collect())
}

/// One answered design point: the point itself and the record a
/// [`ResultStore`] keeps of it.
type Answer = (DesignPoint, PointRecord);

/// What a per-point evaluator returns: the point's record and the
/// truncation the solve itself reported.
type Evaluated = Result<(PointRecord, Option<BudgetKind>), HilpError>;

/// The scalar sweep: [`sweep_inner`] over [`evaluate_soc_observed`].
fn sweep_points(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: Option<&dyn SweepObserver>,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    let (answers, stats) = sweep_inner(
        workload,
        socs,
        constraints,
        model,
        config,
        observer,
        |soc, config, oracle| {
            let (scalars, truncated) =
                evaluate_soc_observed(workload, soc, constraints, model, config, oracle)?;
            Ok((PointRecord::new(scalars), truncated))
        },
    )?;
    Ok((answers.into_iter().map(|(point, _)| point).collect(), stats))
}

/// How a design point was answered.
#[derive(Clone, Copy, PartialEq)]
enum Answered {
    /// By the per-point evaluator.
    Evaluated,
    /// By identity replay: the store held the inputs key.
    Replayed,
    /// By a memo hit: the store held the instance key.
    Cached,
}

/// The one sweep driver behind every `evaluate_space*` entry point. It
/// resolves and splits the thread allowance and answers each claimed
/// point — from the result store (the [`SweepConfig::baseline`], else a
/// private one when memoizing) or by `evaluate` — into its input-order
/// slot, with the point's budget minted at claim time.
fn sweep_inner(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: Option<&dyn SweepObserver>,
    evaluate: impl Fn(&SocSpec, &SweepConfig, &PointOracle<'_>) -> Evaluated + Sync,
) -> Result<(Vec<Answer>, SweepStats), HilpError> {
    let mut effective = config.clone();
    // Resolve the sweep's total thread allowance, then split it between
    // point-level workers and each point's inner solver threads. With at
    // least as many points as threads the split is pure point-level
    // parallelism (inner = 1) and the solver config is left untouched;
    // with fewer points the spare threads move inside the points. Both
    // inner solvers are bit-identical for any thread count, so the split
    // never changes results.
    let (total_threads, parallelism_fallback) = resolve_threads(effective.threads);
    let split = ThreadBudget::split(total_threads, socs.len());
    if split.inner > 1 {
        effective.solver.heuristic_threads = split.inner;
        effective.solver.bnb_threads = split.inner;
    }
    let threads = split.outer;
    let config = &effective;
    let tel = &config.solver.telemetry;
    let _sweep_span = tel.span("dse.sweep");
    if parallelism_fallback {
        tel.incr(Counter::SweepParallelismFallback);
    }

    // The store is only read and written under replay-safe budgets: a
    // node/deadline budget makes a result depend on when it expired,
    // while a cancel token alone perturbs nothing until it trips (and
    // results produced after a trip are never filed). The model and the
    // config key are part of every key, so any model and any solver
    // configuration may share one store.
    let private = ResultStore::new();
    let store = config
        .baseline
        .as_deref()
        .or_else(|| config.memoize.then_some(&private))
        .filter(|_| {
            config.budgets.replay_safe() && solver_budget_replay_safe(&config.solver.budget)
        })
        .map(|store| StoreKeys::new(store, workload, constraints, model, config));
    let queue = WorkQueue::new(socs.len(), threads);
    let driver = Driver {
        socs,
        config,
        observer,
        store,
        budgeter: SweepBudgeter::new(&config.budgets, threads, socs.len()),
        counters: SweepCounters::default(),
        evaluate,
    };
    let results: Mutex<Vec<Option<Slot>>> = Mutex::new((0..socs.len()).map(|_| None).collect());

    // Worker 0 runs on the calling thread, inside `dse.sweep`, so a
    // one-thread sweep spawns nothing.
    let work = |worker: usize| {
        while let Some((i, stolen)) = queue.take(worker) {
            let slot = driver.point(i, stolen);
            results.lock().expect("no poisoned workers")[i] = Some(slot);
        }
    };
    std::thread::scope(|scope| {
        for worker in 1..threads {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });

    let counters = driver.counters;
    let cache_hits = counters.cache_hits.into_inner();
    tel.add(Counter::SweepCacheHits, cache_hits as u64);
    let mut point_seconds = Vec::with_capacity(socs.len());
    let mut point_truncations = Vec::with_capacity(socs.len());
    let answers: Result<Vec<Answer>, HilpError> = results
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| {
            let (answer, seconds, truncated) = slot.expect("every index was evaluated");
            point_seconds.push(seconds);
            point_truncations.push(truncated);
            answer
        })
        .collect();
    let answers = answers?;
    let delta_identity_points = counters.delta_identity.into_inner();
    let stats = SweepStats {
        solves: answers.len() - cache_hits - delta_identity_points,
        cache_hits,
        threads_used: threads,
        parallelism_fallback,
        levels_solved: counters.levels_solved.into_inner(),
        bound_inherited_levels: 0,
        early_terminated_levels: counters.early_terminated.into_inner(),
        heuristic_jobs_total: counters.jobs_total.into_inner(),
        heuristic_jobs_executed: counters.jobs_executed.into_inner(),
        point_seconds,
        truncated_points: point_truncations.iter().flatten().count(),
        point_truncations,
        delta_identity_points,
        delta_certified_levels: 0,
    };
    Ok((answers, stats))
}

/// One design point's input-order result slot: its answer, wall-clock
/// seconds, and which budget constraint (if any) truncated it.
type Slot = (Result<Answer, HilpError>, f64, Option<BudgetKind>);

/// The per-sweep state every worker answers points against, around the
/// sweep's per-point evaluator.
struct Driver<'a, F> {
    socs: &'a [SocSpec],
    config: &'a SweepConfig,
    observer: Option<&'a dyn SweepObserver>,
    store: Option<StoreKeys<'a>>,
    budgeter: Option<SweepBudgeter>,
    counters: SweepCounters,
    evaluate: F,
}

impl<F: Fn(&SocSpec, &SweepConfig, &PointOracle<'_>) -> Evaluated> Driver<'_, F> {
    /// Answers design point `i`, claimed by a worker (`stolen` from
    /// another worker's share).
    fn point(&self, i: usize, stolen: bool) -> Slot {
        let tel = &self.config.solver.telemetry;
        let _point_span = tel.span("dse.point");
        tel.incr(Counter::SweepPoints);
        if stolen {
            tel.incr(Counter::SweepSteals);
        }
        // Mint this point's budget at claim time and hand it to the solver
        // through a per-point config clone; the unbudgeted path reuses the
        // shared config untouched.
        let budgeted_config;
        let config = match &self.budgeter {
            Some(budgeter) => {
                let mut c = self.config.clone();
                c.solver.budget = budgeter.point_budget();
                budgeted_config = c;
                &budgeted_config
            }
            None => self.config,
        };
        let budget = &config.solver.budget;
        let t0 = Instant::now();
        let outcome = self.answer(i, config);
        let seconds = t0.elapsed().as_secs_f64();
        // The solver reports node-budget truncation (the sticky flag stays
        // clean there by design — phase allocations never trip it); the
        // sticky flag additionally catches deadline/cancel trips, which
        // with a caller-supplied pooled budget (correctly) marks every
        // point after the trip too. A stored answer is never truncated:
        // truncated results are never filed.
        let truncated = match &outcome {
            Ok((_, truncated, Answered::Evaluated)) => truncated.or_else(|| budget.exhausted()),
            Ok(_) => None,
            Err(_) => budget.exhausted(),
        };
        if let Some(kind) = truncated {
            tel.incr(Counter::SweepTruncatedPoints);
            tel.budget_expired(BudgetLayer::Sweep, kind, budget.nodes_spent());
        }
        let answer = outcome.map(|(answer, _, answered)| {
            self.stream(i, &answer.0, seconds, truncated, answered);
            answer
        });
        (answer, seconds, truncated)
    }

    /// Answers point `i`: by identity replay when the store holds its
    /// inputs key, by a memo hit when it holds its instance key, and
    /// otherwise by the per-point evaluator, filing the result under
    /// every key computed. Returns the answer, the truncation the solve
    /// reported, and how the point was answered.
    fn answer(
        &self,
        i: usize,
        config: &SweepConfig,
    ) -> Result<(Answer, Option<BudgetKind>, Answered), HilpError> {
        let soc = &self.socs[i];
        let (mut inputs_key, mut instance_key) = (None, None);
        if let Some(keys) = &self.store {
            // The inputs key first: an identity replay never tabulates.
            inputs_key = Some(keys.inputs(soc));
            if let Some(record) = keys.get(inputs_key) {
                self.counters.delta_identity.fetch_add(1, Ordering::Relaxed);
                return Ok((Self::reuse(soc, record), None, Answered::Replayed));
            }
            instance_key = keys.instance(soc);
            if let Some(record) = keys.get(instance_key) {
                // Filed under this point's inputs key too, the next ask
                // for this point replays.
                keys.store.insert(inputs_key, &record);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Self::reuse(soc, record), None, Answered::Cached));
            }
        }
        let oracle = PointOracle {
            counters: &self.counters,
            tel: &self.config.solver.telemetry,
            point: i,
        };
        let (record, truncated) = (self.evaluate)(soc, config, &oracle)?;
        // A result produced after a cancel trip (the only budget a store
        // tolerates) depends on when the trip landed, not just on the
        // inputs: it must not be filed. The sticky `exhausted` check also
        // catches a trip that arrived between the solve finishing and this
        // insert — conservative, but cancellation means the sweep's
        // remaining results are being discarded anyway.
        if truncated.is_none() && config.solver.budget.exhausted().is_none() {
            if let Some(keys) = &self.store {
                keys.store
                    .insert(inputs_key.into_iter().chain(instance_key), &record);
            }
        }
        Ok((
            (design_point(soc, &record.scalars), record),
            truncated,
            Answered::Evaluated,
        ))
    }

    /// Answers a point from a stored record, a memo hit and an identity
    /// replay alike: rebuild the point around its own SoC.
    fn reuse(soc: &SocSpec, record: PointRecord) -> Answer {
        (design_point(soc, &record.scalars), record)
    }

    /// Hands a landed point to the sweep's observer, if any.
    fn stream(
        &self,
        index: usize,
        point: &DesignPoint,
        seconds: f64,
        truncated: Option<BudgetKind>,
        answered: Answered,
    ) {
        if let Some(observer) = self.observer {
            observer.point_done(&PointUpdate {
                index,
                point: point.clone(),
                seconds,
                truncated,
                replayed: answered == Answered::Replayed,
                cached: answered == Answered::Cached,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_core::encode;
    use hilp_workloads::WorkloadVariant;
    use std::collections::HashMap;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy::fixed(10.0),
            solver: SolverConfig {
                heuristic_starts: 30,
                local_search_passes: 1,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 2,
            memoize: true,
            ..SweepConfig::default()
        }
    }

    /// Two distinct SoCs whose instances coincide at every level: the
    /// same CPU and GPU, each with a DSA for a benchmark the workload
    /// lacks, at two PE counts.
    fn instance_twins() -> [SocSpec; 2] {
        [1, 16].map(|pes| {
            SocSpec::new(2)
                .with_gpu(16)
                .with_dsa(hilp_soc::DsaSpec::new(pes, "NONE"))
        })
    }

    fn refine_config() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 2,
            },
            ..tiny_config()
        }
    }

    #[test]
    fn identity_replay_returns_the_recorded_sweep_verbatim() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(2),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let constraints = Constraints::paper_default();
        let config = refine_config();
        let (recorded, _, store) =
            evaluate_space_recorded(&w, &socs, &constraints, ModelKind::Hilp, &config).unwrap();
        assert_eq!(store.len(), socs.len(), "one inputs key per point");

        let replay_config = SweepConfig {
            baseline: Some(Arc::new(store)),
            ..config
        };
        let (replayed, stats) =
            evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &replay_config)
                .unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(stats.delta_identity_points, socs.len());
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn tightened_power_edits_replay_nothing_and_match_scratch() {
        // Record at the paper's power budget, then tighten it: the edit
        // changes every point's instances, so an armed sweep must replay
        // nothing and report exactly what a from-scratch sweep of the
        // edited scenario reports.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(4).with_gpu(64)];
        let parent = Constraints::paper_default();
        let edited = parent.with_power(550.0);
        let config = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &parent, ModelKind::Hilp, &config).unwrap();

        let scratch = evaluate_space(&w, &socs, &edited, ModelKind::Hilp, &config).unwrap();
        let armed_config = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let (armed, stats) =
            evaluate_space_with_stats(&w, &socs, &edited, ModelKind::Hilp, &armed_config).unwrap();
        assert_eq!(armed, scratch);
        assert_eq!(stats.delta_identity_points, 0);
    }

    #[test]
    fn loosened_power_edits_replay_nothing_and_match_scratch() {
        // Raising the power budget grows the feasible set; the armed sweep
        // must replay nothing and match a from-scratch sweep.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let parent = Constraints::paper_default().with_power(550.0);
        let edited = Constraints::paper_default();
        let config = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &parent, ModelKind::Hilp, &config).unwrap();

        let scratch = evaluate_space(&w, &socs, &edited, ModelKind::Hilp, &config).unwrap();
        let armed_config = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let (armed, stats) =
            evaluate_space_with_stats(&w, &socs, &edited, ModelKind::Hilp, &armed_config).unwrap();
        assert_eq!(armed, scratch);
        assert_eq!(stats.delta_identity_points, 0);
    }

    #[test]
    fn drifted_configurations_make_the_baseline_inert() {
        // A baseline recorded under one configuration must not replay
        // under another: every knob the config key hashes gates replay,
        // while result-invariant knobs (thread counts, the timetable
        // representation, telemetry, memoization) must leave it alive.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let constraints = Constraints::paper_default();
        let config = refine_config();
        let (recorded, _, _) =
            evaluate_space_recorded(&w, &socs, &constraints, ModelKind::Hilp, &config).unwrap();
        // A consuming sweep files its own points into the store, so every
        // drift is armed with a fresh recording: a store an earlier drift
        // wrote to would replay a later, identical drift.
        let armed = |edit: fn(&mut SweepConfig)| {
            let (_, _, store) =
                evaluate_space_recorded(&w, &socs, &constraints, ModelKind::Hilp, &config).unwrap();
            let mut armed = SweepConfig {
                baseline: Some(Arc::new(store)),
                ..config.clone()
            };
            edit(&mut armed);
            armed
        };

        let drifted = armed(|c| c.solver.heuristic_starts += 1);
        let scratch_config = SweepConfig {
            baseline: None,
            ..drifted.clone()
        };
        let scratch =
            evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &scratch_config).unwrap();
        let (delta, _) =
            evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &drifted).unwrap();
        assert_eq!(delta, scratch);

        // A named knob and the edit that changes it.
        type Knob = (&'static str, fn(&mut SweepConfig));
        let drifts: [Knob; 11] = [
            ("initial_seconds", |c| c.policy.initial_seconds *= 2.0),
            ("target_steps", |c| c.policy.target_steps += 1),
            ("refine_factor", |c| c.policy.refine_factor -= 1.0),
            ("max_refinements", |c| c.policy.max_refinements -= 1),
            ("evaluate", |c| c.evaluate = EvaluatePolicy::exact()),
            ("heuristic_starts", |c| c.solver.heuristic_starts += 1),
            ("local_search_passes", |c| c.solver.local_search_passes += 1),
            ("exact_node_budget", |c| c.solver.exact_node_budget = 100),
            ("exact_task_threshold", |c| {
                c.solver.exact_task_threshold += 1
            }),
            ("seed", |c| c.solver.seed += 1),
            ("bound_termination", |c| {
                c.solver.bound_termination = !c.solver.bound_termination;
            }),
        ];
        for (knob, drift) in drifts {
            let drifted = armed(drift);
            assert_ne!(
                sweep_config_key(&drifted),
                sweep_config_key(&config),
                "{knob} is not part of the config key"
            );
            let (_, stats) =
                evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &drifted)
                    .unwrap();
            assert_eq!(stats.delta_identity_points, 0, "{knob} drift replayed");
        }

        let invariant: [Knob; 6] = [
            ("threads", |c| c.threads = 1),
            ("heuristic_threads", |c| c.solver.heuristic_threads = 2),
            ("bnb_threads", |c| c.solver.bnb_threads = 2),
            ("timetable", |c| {
                c.solver.timetable = hilp_core::TimetableKind::Dense;
            }),
            ("telemetry", |c| c.solver.telemetry = Telemetry::enabled()),
            ("memoize", |c| c.memoize = false),
        ];
        for (knob, change) in invariant {
            let (points, stats) =
                evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &armed(change))
                    .unwrap();
            assert_eq!(points, recorded, "{knob} change altered a replay");
            assert_eq!(
                stats.delta_identity_points,
                socs.len(),
                "{knob} change stopped replay"
            );
        }
    }

    #[test]
    fn streamed_sweep_reports_every_point_and_changes_nothing() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let [soc, twin] = instance_twins();
        let socs = vec![
            SocSpec::new(1),
            soc.clone(),
            twin, // instance twin: must stream as cached
            soc,  // duplicate: must stream as replayed
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1; // deterministic hit attribution
        let (plain, _) = evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();

        struct Collect(Mutex<Vec<PointUpdate>>);
        impl SweepObserver for Collect {
            fn point_done(&self, update: &PointUpdate) {
                self.0.lock().unwrap().push(update.clone());
            }
        }
        let collect = Collect(Mutex::new(Vec::new()));
        let (streamed, _) =
            evaluate_space_streamed(&w, &socs, &c, ModelKind::Hilp, &cfg, &collect).unwrap();
        assert_eq!(streamed, plain, "observing changed results");

        let mut updates = collect.0.into_inner().unwrap();
        updates.sort_by_key(|u| u.index);
        assert_eq!(updates.len(), socs.len(), "one update per point");
        for (u, p) in updates.iter().zip(&streamed) {
            assert_eq!(&u.point, p, "update {} disagrees with result", u.index);
            assert!(u.truncated.is_none());
        }
        let reuse: Vec<(bool, bool)> = updates.iter().map(|u| (u.replayed, u.cached)).collect();
        assert_eq!(
            reuse,
            [(false, false), (false, false), (false, true), (true, false)],
            "the twin must stream as a cache hit, the duplicate as a replay"
        );
    }

    #[test]
    fn untripped_cancel_token_keeps_memoization_and_replay_alive() {
        // The serving path: every job carries a disconnect cancel token
        // that usually never trips. That alone must not disable the memo
        // cache, baseline recording, or identity replay.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let [soc, twin] = instance_twins();
        let socs = vec![soc, twin, SocSpec::new(1)];
        let c = Constraints::unconstrained();
        let mut cfg = refine_config();
        cfg.threads = 1;
        cfg.budgets.cancel = Some(CancelToken::new());
        let (recorded, stats, store) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(stats.truncated_points, 0);
        assert_eq!(
            stats.solves,
            socs.len(),
            "a recording computes no instance keys"
        );
        assert_eq!(store.len(), socs.len(), "cancel-only must record");

        let replay_cfg = SweepConfig {
            baseline: Some(Arc::new(store)),
            budgets: SweepBudgets {
                cancel: Some(CancelToken::new()),
                ..SweepBudgets::default()
            },
            ..cfg.clone()
        };
        let (replayed, replay_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &replay_cfg).unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(replay_stats.delta_identity_points, socs.len());
        assert_eq!(replay_stats.solves, 0);

        // Without a store handed in, the private store still dedupes the
        // instance twin.
        let (memo, memo_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(memo, recorded);
        assert_eq!(memo_stats.cache_hits, 1, "twin must hit under cancel-only");
    }

    #[test]
    fn tripped_cancel_token_discards_the_recording_and_caches_nothing() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let token = CancelToken::new();
        token.cancel();
        cfg.budgets.cancel = Some(token);
        let (points, stats, store) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        assert_eq!(stats.truncated_points, socs.len());
        assert!(store.is_empty(), "truncated points must never be filed");
        // The duplicate solves (degraded) rather than replaying a
        // poisoned record.
        assert_eq!(stats.delta_identity_points, 0);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn node_budgets_still_disable_replay_even_with_a_cancel_token() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let cfg = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        let mut replay_cfg = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..cfg
        };
        replay_cfg.budgets.cancel = Some(CancelToken::new());
        replay_cfg.budgets.per_point_nodes = Some(1_000_000);
        let (_, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &replay_cfg).unwrap();
        assert_eq!(
            stats.delta_identity_points, 0,
            "node budgets are not replay-safe"
        );
    }

    #[test]
    fn inputs_keys_cover_every_input_and_repeat_across_sweeps() {
        use hilp_soc::DsaSpec;
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(4, "LUD"));
        let c = Constraints::paper_default();
        let cfg = tiny_config();
        let store = ResultStore::new();
        let key = |w: &Workload, soc: &SocSpec, c: &Constraints, model, cfg: &SweepConfig| {
            StoreKeys::new(&store, w, c, model, cfg).inputs(soc)
        };
        let base = key(&w, &soc, &c, ModelKind::Hilp, &cfg);
        // Equal inputs built afresh (as by a later sweep) key equally, and
        // result-invariant knobs stay out of the key.
        let fresh = Workload::rodinia(WorkloadVariant::Default);
        let rebuilt = SocSpec::new(2)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(4, "LUD"));
        let invariant = SweepConfig {
            threads: 1,
            memoize: false,
            ..tiny_config()
        };
        assert_eq!(base, key(&fresh, &rebuilt, &c, ModelKind::Hilp, &invariant));

        type Edit<T> = (&'static str, fn(&mut T));
        let soc_edits: [Edit<SocSpec>; 6] = [
            ("cpu_cores", |s| s.cpu_cores += 1),
            ("gpu_sms", |s| s.gpu_sms = Some(4)),
            ("dsas", |s| s.dsas.push(DsaSpec::new(4, "HS"))),
            ("pes", |s| s.dsas[0].pes += 1),
            ("accelerates", |s| s.dsas[0].accelerates = "HS".into()),
            ("advantage", |s| s.dsas[0].advantage *= 2.0),
        ];
        for (field, edit) in soc_edits {
            let mut edited = soc.clone();
            edit(&mut edited);
            assert_ne!(base, key(&w, &edited, &c, ModelKind::Hilp, &cfg), "{field}");
        }
        let constraint_edits: [Edit<Constraints>; 4] = [
            ("power_w", |c| c.power_w = Some(550.0)),
            ("power_w unset", |c| c.power_w = None),
            ("bandwidth_gbps", |c| c.bandwidth_gbps = Some(700.0)),
            ("bandwidth_gbps unset", |c| c.bandwidth_gbps = None),
        ];
        for (field, edit) in constraint_edits {
            let mut edited = c;
            edit(&mut edited);
            assert_ne!(
                base,
                key(&w, &soc, &edited, ModelKind::Hilp, &cfg),
                "{field}"
            );
        }
        let phase_edits: [Edit<hilp_workloads::Phase>; 7] = [
            ("name", |p| p.name.push('\'')),
            ("cpu_seconds", |p| {
                p.cpu_seconds = p.cpu_seconds.map(|s| s * (1.0 + f64::EPSILON));
            }),
            ("cpu_parallel", |p| p.cpu_parallel = !p.cpu_parallel),
            ("accel", |p| p.accel = None),
            ("gpu_eligible", |p| p.gpu_eligible = !p.gpu_eligible),
            ("dsa_key", |p| p.dsa_key = None),
            ("cpu_bandwidth_gbps", |p| p.cpu_bandwidth_gbps += 1.0),
        ];
        for (field, edit) in phase_edits {
            let mut apps = w.applications().to_vec();
            edit(&mut apps[0].phases[1]);
            let edited = Workload::new(w.name(), apps);
            assert_ne!(
                base,
                key(&edited, &soc, &c, ModelKind::Hilp, &cfg),
                "{field}"
            );
        }
        let mut drifted = tiny_config();
        drifted.solver.seed += 1;
        assert_ne!(
            base,
            key(&w, &soc, &c, ModelKind::Hilp, &drifted),
            "config key"
        );
        assert_ne!(base, key(&w, &soc, &c, ModelKind::Gables, &cfg), "model");
    }

    #[test]
    fn shared_stores_never_answer_a_sub_tick_workload_edit() {
        // Nudge one phase by less than the finest tick: every level
        // encodes the same instance, but the speedup (over the raw
        // sequential CPU time) moves. A memoizing sweep sharing a store
        // with a sweep of the original workload must still equal its own
        // scratch sweep bit for bit.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let mut apps = w.applications().to_vec();
        let phase = &mut apps[0].phases[1];
        phase.cpu_seconds = phase.cpu_seconds.map(|s| s + 0.005);
        let nudged = Workload::new(w.name(), apps);
        let socs = instance_twins().to_vec();
        let c = Constraints::unconstrained();
        let cfg = refine_config();
        for model in [ModelKind::Hilp, ModelKind::Gables] {
            let effective = |w: &Workload| match model {
                ModelKind::Gables => (without_dependencies(w), gables_constraints(&c)),
                _ => (w.clone(), c),
            };
            let ((w0, c0), (w1, c1)) = (effective(&w), effective(&nudged));
            let mut step = cfg.policy.initial_seconds;
            for _ in 0..=cfg.policy.max_refinements {
                for soc in &socs {
                    assert_eq!(
                        encode(&w0, soc, &c0, step).unwrap().0.fingerprint(),
                        encode(&w1, soc, &c1, step).unwrap().0.fingerprint(),
                        "{model:?}: the edit must stay below the tick at {step} s"
                    );
                }
                step /= cfg.policy.refine_factor;
            }

            let store = Arc::new(ResultStore::new());
            let armed = SweepConfig {
                baseline: Some(Arc::clone(&store)),
                ..cfg.clone()
            };
            let original = evaluate_space(&w, &socs, &c, model, &armed).unwrap();
            let scratch = evaluate_space(&nudged, &socs, &c, model, &cfg).unwrap();
            assert_ne!(original[0].speedup, scratch[0].speedup);
            let (points, stats) =
                evaluate_space_with_stats(&nudged, &socs, &c, model, &armed).unwrap();
            assert_eq!(points, scratch, "{model:?}");
            assert_eq!(stats.delta_identity_points, 0, "{model:?}");
        }
    }

    #[test]
    fn a_full_store_empties_itself_and_changes_no_result() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        let (scratch, _) = evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        let filler = PointRecord::new(PointScalars {
            speedup: 1.0,
            makespan_seconds: 1.0,
            energy_joules: 1.0,
            avg_wlp: 1.0,
            gap: 0.0,
        });
        let store = Arc::new(ResultStore::new());
        store.insert(0..ResultStore::CAPACITY as u64, &filler);
        assert_eq!(store.len(), ResultStore::CAPACITY);
        // Re-filing a held key never grows the store.
        store.insert([7], &filler);
        assert_eq!(store.len(), ResultStore::CAPACITY);

        let armed = SweepConfig {
            baseline: Some(Arc::clone(&store)),
            ..cfg
        };
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &armed).unwrap();
        assert_eq!(points, scratch, "a full store changed results");
        assert_eq!(stats.solves, socs.len());
        assert!(store.len() <= ResultStore::CAPACITY);
        assert_eq!(
            store.len(),
            2 * socs.len(),
            "the first new key emptied the store, then each point filed two keys"
        );
        let (replayed, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &armed).unwrap();
        assert_eq!(replayed, scratch);
        assert_eq!(stats.delta_identity_points, socs.len());
    }

    #[test]
    fn sweep_preserves_order_and_labels() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let points = evaluate_space(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::Hilp,
            &tiny_config(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        for (p, s) in points.iter().zip(&socs) {
            assert_eq!(p.label, s.label());
            assert!((p.area_mm2 - s.area_mm2()).abs() < 1e-9);
            assert!(p.energy_joules > 0.0, "{}: no energy reported", p.label);
        }
        // Bigger accelerators help.
        assert!(points[2].speedup > points[0].speedup);
    }

    #[test]
    fn every_model_reports_positive_energy() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        for model in [ModelKind::Hilp, ModelKind::MultiAmdahl, ModelKind::Gables] {
            let p = evaluate_soc(&w, &soc, &c, model, &cfg).unwrap();
            assert!(p.energy_joules > 0.0, "{model:?} reported no energy");
        }
    }

    #[test]
    fn pareto_sweep_is_bit_identical_across_thread_counts() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let serial = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        for threads in [2, 8] {
            cfg.threads = threads;
            let parallel = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
            assert_eq!(serial, parallel, "threads={threads} changed fronts");
        }
        for pp in &serial {
            assert!(!pp.front.is_empty(), "{}: empty front", pp.point.label);
            for w in pp.front.windows(2) {
                assert!(w[0].makespan_seconds < w[1].makespan_seconds);
                assert!(w[0].energy_joules > w[1].energy_joules);
            }
        }
    }

    #[test]
    fn pareto_sweep_agrees_with_the_scalar_sweep() {
        // Rung 0 of every ladder is the unconstrained solve, so each
        // Pareto point's scalars — and its fastest trade-off — must match
        // the plain sweep bit for bit.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        let scalar = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        let pareto = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        assert_eq!(pareto.len(), scalar.len());
        for (pp, sp) in pareto.iter().zip(&scalar) {
            assert_eq!(&pp.point, sp);
            let fastest = &pp.front[0];
            assert_eq!(fastest.makespan_seconds, sp.makespan_seconds);
            assert!(fastest.energy_joules <= sp.energy_joules + 1e-9);
        }
        // The memo twins must agree exactly (same trajectory key).
        assert_eq!(pareto[0], pareto[1]);
    }

    #[test]
    fn node_budgeted_pareto_sweep_flags_truncation_at_any_thread_count() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let unbudgeted = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        cfg.budgets.per_point_nodes = Some(2);
        let serial = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        assert_eq!(serial.len(), socs.len(), "truncation must not drop points");
        assert!(
            serial.iter().any(|p| p.truncated.is_some()),
            "2 nodes cannot finish every ladder"
        );
        for (budgeted, full) in serial.iter().zip(&unbudgeted) {
            assert!(!budgeted.front.is_empty(), "degraded point keeps a front");
            assert!(budgeted.truncated.iter().all(|&k| k == BudgetKind::Nodes));
            if budgeted.truncated.is_none() {
                assert_eq!(budgeted, full, "an untruncated point is the full result");
            }
        }
        for threads in [2, 4] {
            cfg.threads = threads;
            let parallel = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
            assert_eq!(parallel, serial, "threads={threads} changed fronts");
        }
    }

    #[test]
    fn cancelled_pareto_sweep_memoizes_no_truncated_front() {
        // Memo twins under a tripped token: the twin must solve (degraded
        // and flagged) rather than hit a truncated front, and a re-run
        // with a fresh token must equal the unbudgeted sweep.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(1),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let unbudgeted = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        let token = CancelToken::new();
        token.cancel();
        cfg.budgets.cancel = Some(token);
        let cancelled = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        assert_eq!(cancelled.len(), socs.len());
        assert!(cancelled
            .iter()
            .all(|p| p.truncated == Some(BudgetKind::Cancelled)));
        cfg.budgets.cancel = Some(CancelToken::new());
        let rerun = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        assert_eq!(rerun, unbudgeted);
    }

    #[test]
    fn exact_sweep_upper_bounds_the_grid_sweep_pointwise() {
        // The exact policy always reaches the finest tick, so every
        // per-point makespan must be <= the grid-refinement result (which
        // may stop at a coarser step and keep its rounding inflation).
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2), SocSpec::new(2).with_gpu(16)];
        let constraints = Constraints::paper_default();
        let grid_config = SweepConfig {
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 2,
            },
            ..tiny_config()
        };
        let exact_config = SweepConfig {
            evaluate: EvaluatePolicy::exact(),
            ..grid_config.clone()
        };
        let grid = evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &grid_config).unwrap();
        let exact =
            evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &exact_config).unwrap();
        for (g, e) in grid.iter().zip(&exact) {
            assert!(
                e.makespan_seconds <= g.makespan_seconds + 1e-9,
                "{}: exact {} > grid {}",
                g.label,
                e.makespan_seconds,
                g.makespan_seconds
            );
        }
    }

    #[test]
    fn exact_sweep_is_deterministic_with_memoization() {
        // Exercises the memo key under the exact policy: identical design
        // points share one cache entry, and repeated sweeps agree
        // bit-for-bit.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let config = SweepConfig {
            evaluate: EvaluatePolicy::exact(),
            ..tiny_config()
        };
        let run = || {
            evaluate_space(
                &w,
                &socs,
                &Constraints::paper_default(),
                ModelKind::Hilp,
                &config,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a[0].makespan_seconds, a[1].makespan_seconds);
    }

    #[test]
    fn models_disagree_in_the_documented_direction() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        let ma = evaluate_soc(&w, &soc, &c, ModelKind::MultiAmdahl, &cfg).unwrap();
        let hilp = evaluate_soc(&w, &soc, &c, ModelKind::Hilp, &cfg).unwrap();
        let gables = evaluate_soc(&w, &soc, &c, ModelKind::Gables, &cfg).unwrap();
        assert!(ma.speedup <= hilp.speedup * 1.05);
        assert!(hilp.speedup <= gables.speedup * 1.05);
        assert_eq!(ma.avg_wlp, 1.0);
    }

    #[test]
    fn memoization_dedupes_identical_effective_instances() {
        // Two distinct SoCs that encode identically must solve once (the
        // second is a memo hit), and a duplicate of the first replays; the
        // reused points must be indistinguishable from fresh evaluations.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let [soc, twin] = instance_twins();
        let socs = vec![soc.clone(), SocSpec::new(1), twin.clone(), soc.clone()];
        let c = Constraints::unconstrained();
        for model in [ModelKind::Hilp, ModelKind::Gables] {
            let mut cfg = tiny_config();
            cfg.memoize = true;
            let store = ResultStore::new();
            let keys = StoreKeys::new(&store, &w, &c, model, &cfg);
            assert_ne!(keys.inputs(&soc), keys.inputs(&twin));
            assert_eq!(
                keys.instance(&soc).unwrap(),
                keys.instance(&twin).unwrap(),
                "{model:?}: the twins must encode identically"
            );
            // One worker, so hit counts are deterministic (concurrent
            // workers may race on a key and legitimately both solve it).
            cfg.threads = 1;
            let (memo, stats) = evaluate_space_with_stats(&w, &socs, &c, model, &cfg).unwrap();
            cfg.memoize = false;
            let (cold, cold_stats) = evaluate_space_with_stats(&w, &socs, &c, model, &cfg).unwrap();
            assert_eq!(memo, cold, "memoization changed {model:?} results");
            assert_eq!(stats.cache_hits, 1, "{model:?} twin must hit");
            assert_eq!(
                stats.delta_identity_points, 1,
                "{model:?} duplicate must replay"
            );
            assert_eq!(stats.solves, 2);
            assert_eq!(cold_stats.cache_hits + cold_stats.delta_identity_points, 0);
        }
    }

    #[test]
    fn memoization_never_turns_a_result_into_an_error() {
        // No makespan is below one step, so level 0 never refines and no
        // evaluation reaches the zero tick an infinite refine factor
        // gives every finer level. An instance key must not reach it
        // either.
        let never_refines = TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 1,
            refine_factor: f64::INFINITY,
            max_refinements: 4,
        };
        let sweep = |w: &Workload, socs: &[SocSpec], model, policy, memoize| {
            let config = SweepConfig {
                policy,
                memoize,
                ..SweepConfig::default()
            };
            evaluate_space(w, socs, &Constraints::paper_default(), model, &config)
        };
        let models = [ModelKind::Hilp, ModelKind::Gables, ModelKind::MultiAmdahl];
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs: Vec<SocSpec> = crate::design_space(4.0).into_iter().step_by(37).collect();
        for model in models {
            let memoized = sweep(&w, &socs, model, never_refines, true);
            let plain = sweep(&w, &socs, model, never_refines, false);
            assert_eq!(plain.as_ref().map(Vec::len), Ok(11), "{model:?}");
            assert_eq!(memoized, plain, "{model:?}");
        }
        // A phase no cluster can run, at an invalid initial tick: either
        // way the sweep reports the tick, as `encode` does.
        let sda = hilp_workloads::sda::sda_workload(1, hilp_workloads::sda::SdaScenario::Baseline);
        let no_dsa = [SocSpec::new(1).with_gpu(8)];
        let zero_tick = TimeStepPolicy {
            initial_seconds: 0.0,
            ..never_refines
        };
        for model in models {
            let memoized = sweep(&sda, &no_dsa, model, zero_tick, true);
            let plain = sweep(&sda, &no_dsa, model, zero_tick, false);
            assert_eq!(
                plain,
                Err(HilpError::InvalidTimeStep { seconds: 0.0 }),
                "{model:?}"
            );
            assert_eq!(memoized, plain, "{model:?}");
        }
    }

    #[test]
    fn table_keys_split_the_space_like_the_five_tick_fingerprint_chain() {
        // Grouping SoCs by instance key must give the classes that the
        // fingerprints of their instances at the five sweep ticks give:
        // never coarser (equal keys share a result) and never finer (the
        // memo hits stay).
        let config = SweepConfig::default();
        let space = crate::design_space(4.0);
        let rodinia = Workload::rodinia(WorkloadVariant::Default);
        let mobile = hilp_workloads::mobile::mobile_workload();
        let c = Constraints::paper_default();
        for (w, model, classes) in [
            (&rodinia, ModelKind::Hilp, 372),
            (&rodinia, ModelKind::Gables, 372),
            (&mobile, ModelKind::Hilp, 300),
        ] {
            let store = ResultStore::new();
            let keys = StoreKeys::new(&store, w, &c, model, &config);
            let scope = keys
                .instance
                .as_ref()
                .expect("a memoizing sweep keys instances");
            let chain = |soc: &SocSpec| {
                let mut tick = config.policy.initial_seconds;
                (0..=config.policy.max_refinements)
                    .map(|_| {
                        let (instance, _) =
                            encode(&scope.workload, soc, &scope.constraints, tick).unwrap();
                        tick /= config.policy.refine_factor;
                        instance.fingerprint()
                    })
                    .collect::<Vec<u64>>()
            };
            let (mut by_key, mut by_chain) = (HashMap::new(), HashMap::new());
            for (i, soc) in space.iter().enumerate() {
                let first_by_key = *by_key.entry(keys.instance(soc).unwrap()).or_insert(i);
                let first_by_chain = *by_chain.entry(chain(soc)).or_insert(i);
                assert_eq!(first_by_key, first_by_chain, "{model:?} on {}", soc.label());
            }
            assert_eq!(by_key.len(), classes, "{model:?} on {}", w.name());
        }
    }

    #[test]
    fn multi_amdahl_sweeps_skip_the_cache() {
        // MultiAmdahl computes no instance key: distinct SoCs that encode
        // identically both solve, while a duplicate still replays.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let [soc, twin] = instance_twins();
        let socs = vec![soc.clone(), twin, soc];
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let (_, stats) = evaluate_space_with_stats(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::MultiAmdahl,
            &cfg,
        )
        .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.delta_identity_points, 1);
        assert_eq!(stats.solves, 2);
    }

    #[test]
    fn single_threaded_sweep_matches_parallel() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1).with_gpu(16), SocSpec::new(2)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let serial = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        cfg.threads = 4;
        let parallel = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn per_point_node_budgets_truncate_but_every_point_reports() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.per_point_nodes = Some(2);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len(), "truncation must not drop points");
        for p in &points {
            assert!(p.speedup > 0.0, "degraded point still has a schedule");
        }
        assert!(stats.truncated_points > 0, "2 nodes cannot finish a solve");
        assert_eq!(
            stats.truncated_points,
            stats.point_truncations.iter().flatten().count()
        );
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Nodes));
        // Budgets disable memoization: a truncated result depends on the
        // budget, so instance keys are no longer sound.
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn per_point_node_budgets_are_bit_identical_across_thread_counts() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.per_point_nodes = Some(20);
        cfg.threads = 1;
        let (serial, serial_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        for threads in [2, 4] {
            cfg.threads = threads;
            let (parallel, parallel_stats) =
                evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
            assert_eq!(serial, parallel, "threads={threads} changed results");
            assert_eq!(
                serial_stats.point_truncations, parallel_stats.point_truncations,
                "threads={threads} changed truncations"
            );
        }
    }

    #[test]
    fn generous_per_point_budget_matches_the_unbudgeted_sweep() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.memoize = false; // compare pure solves on both sides
        let (plain, plain_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        cfg.budgets.per_point_nodes = Some(u64::MAX / 2);
        let (budgeted, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(plain, budgeted, "a budget that never trips must be a no-op");
        assert_eq!(stats.truncated_points, 0);
        assert_eq!(plain_stats.truncated_points, 0);
        assert!(stats.point_truncations.iter().all(Option::is_none));
    }

    #[test]
    fn cancelled_sweep_still_returns_every_point() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2), SocSpec::new(4)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        let token = CancelToken::new();
        token.cancel(); // cancelled before the sweep even starts
        cfg.budgets.cancel = Some(token);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        for p in &points {
            assert!(p.speedup > 0.0, "base pass still yields a schedule");
        }
        assert_eq!(stats.truncated_points, socs.len());
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Cancelled));
    }

    #[test]
    fn expired_sweep_deadline_degrades_every_point_but_completes() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.sweep_deadline = Some(Duration::ZERO);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        assert_eq!(stats.truncated_points, socs.len());
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Deadline));
    }

    #[test]
    fn unrepresentable_sweep_deadlines_truncate_nothing() {
        // `Instant::now() + Duration::MAX` overflows the clock. Just over
        // 2^62 s fits, but the last claim's fair slice (two threads times
        // the remaining time) then does not. Neither may panic: both run
        // every point to completion, as if there were no deadline.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4),
        ];
        let c = Constraints::unconstrained();
        let plain = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &tiny_config()).unwrap();
        for deadline in [Duration::MAX, Duration::from_secs((1 << 62) + 1_000_000)] {
            let mut cfg = tiny_config();
            cfg.budgets.sweep_deadline = Some(deadline);
            let (points, stats) =
                evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
            assert_eq!(points, plain, "{deadline:?}");
            assert_eq!(stats.truncated_points, 0, "{deadline:?}");
            assert!(stats.point_truncations.iter().all(Option::is_none));
        }
    }
}

/// Renders design points as CSV (header + one row per point), for external
/// analysis tooling.
#[must_use]
pub fn to_csv(points: &[DesignPoint]) -> String {
    let mut out = String::from(
        "label,cpu_cores,gpu_sms,num_dsas,dsa_pes,area_mm2,speedup,makespan_seconds,energy_joules,avg_wlp,gap,gpu_area_fraction\n",
    );
    for p in points {
        let pes = p.soc.dsas.first().map_or(0, |d| d.pes);
        out.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.4},{:.4},{:.4},{:.4},{:.6},{}\n",
            p.label.replace(',', ";"),
            p.soc.cpu_cores,
            p.soc.gpu_sms.unwrap_or(0),
            p.soc.dsas.len(),
            pes,
            p.area_mm2,
            p.speedup,
            p.makespan_seconds,
            p.energy_joules,
            p.avg_wlp,
            p.gap,
            p.gpu_area_fraction
                .map_or_else(|| "".to_string(), |f| format!("{f:.4}")),
        ));
    }
    out
}

/// Writes design points as CSV to a file.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(points: &[DesignPoint], path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, to_csv(points))
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use hilp_core::TimeStepPolicy;
    use hilp_soc::DsaSpec;
    use hilp_workloads::WorkloadVariant;

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2)
                .with_gpu(16)
                .with_dsa(DsaSpec::new(4, "LUD")),
        ];
        let config = SweepConfig {
            policy: TimeStepPolicy::fixed(10.0),
            solver: SolverConfig {
                heuristic_starts: 20,
                local_search_passes: 0,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 1,
            memoize: true,
            ..SweepConfig::default()
        };
        let points = evaluate_space(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::Hilp,
            &config,
        )
        .unwrap();
        let csv = to_csv(&points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,cpu_cores"));
        // Labels contain commas in the (c,g,d) notation; they must be
        // sanitized so the column count stays fixed.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 12, "bad row: {line}");
        }
        assert!(lines[2].contains("16"));
    }
}
