//! The differential checks: every solver path is judged against the
//! brute-force reference, the combinatorial bounds, and each other.
//!
//! [`check_instance`] runs one random scheduling instance through the whole
//! battery; [`check_pipeline`] exercises the workload → SoC → instance
//! encoding front-end. Both tally what they actually exercised into
//! [`CheckStats`] so that a fuzz run can prove it covered the interesting
//! paths (MILP comparisons, infeasibility agreements, metamorphic rounds)
//! rather than silently skipping them.

use std::fmt;

use hilp_core::milp_encode::{makespan_via_milp, MilpEncodeError};
use hilp_core::time_indexed::makespan_via_time_indexed;
use hilp_model::{ModelError, SolveLimits};
use hilp_sched::online::{online_greedy, OnlinePolicy};
use hilp_sched::{
    lower_bound, solve, solve_exact, solve_heuristic, solve_pareto, Budget, Instance,
    InstanceBuilder, Objective, SchedError, SolverConfig, TaskId, TimetableKind,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::Workload;

use crate::brute_force::{
    brute_force_energy, brute_force_pareto, brute_force_schedule, schedule_energy,
    BruteForceResult, MAX_BRUTE_FORCE_TASKS,
};

/// Energy comparisons share the solver's floating-point tolerance.
const ENERGY_EPS: f64 = 1e-9;

/// What the oracle runs per case and how hard it tries.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Solver configuration used for both the exact and heuristic runs.
    pub solver: SolverConfig,
    /// Cross-check the disjunctive big-M MILP encoding (cap-free tiny
    /// instances only).
    pub milp: bool,
    /// Cross-check the time-indexed MILP encoding (tiny instances whose
    /// model stays under [`Self::max_time_indexed_binaries`]).
    pub time_indexed: bool,
    /// Check the online greedy dispatcher against the optimum.
    pub online: bool,
    /// Run the metamorphic transforms (time scaling, cap relaxation, task
    /// permutation) on brute-forceable instances.
    pub metamorphic: bool,
    /// Binary budget for the time-indexed encoding; keeps debug-mode runs
    /// fast. The encoding's own hard limit is
    /// [`hilp_core::time_indexed::MAX_BINARIES`].
    pub max_time_indexed_binaries: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::exact(),
            milp: true,
            time_indexed: true,
            online: true,
            metamorphic: true,
            max_time_indexed_binaries: 400,
        }
    }
}

/// Tallies of which checks a run actually exercised.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Random cases fed to [`check_instance`].
    pub cases: u64,
    /// Cases where the exact solver found a schedule.
    pub feasible: u64,
    /// Cases where solver and brute force agreed nothing fits the horizon.
    pub infeasible_agreed: u64,
    /// Cases compared against the brute-force optimum.
    pub brute_forced: u64,
    /// Cases the exact solver proved optimal (strict equality checked).
    pub proved_optimal: u64,
    /// Disjunctive MILP comparisons performed / skipped (solver gave up).
    pub milp_checked: u64,
    /// Disjunctive MILP runs skipped because the solver hit its limits.
    pub milp_skipped: u64,
    /// Time-indexed MILP comparisons performed.
    pub time_indexed_checked: u64,
    /// Time-indexed MILP runs skipped (model too large or solver limits).
    pub time_indexed_skipped: u64,
    /// Metamorphic rounds (scale + relax + permute) completed.
    pub metamorphic_checked: u64,
    /// Heuristic solves replayed on the dense reference timetable and
    /// compared bit-for-bit against the configured representation.
    pub dense_checked: u64,
    /// Exact and budgeted solves replayed with a 4-worker branch and
    /// bound and compared bit-for-bit against the configured worker count.
    pub parallel_checked: u64,
    /// Budgeted anytime solves checked against the brute-force optimum.
    pub budgeted_checked: u64,
    /// Budgeted solves that were actually truncated by their budget.
    pub budgeted_truncated: u64,
    /// Pipeline cases that encoded and solved.
    pub pipeline_encoded: u64,
    /// Pipeline cases whose workload/SoC/constraints combination cannot
    /// encode (e.g. a phase with no compatible cluster).
    pub pipeline_skipped: u64,
    /// Tiny cases run through the energy differential battery
    /// ([`check_energy`]).
    pub energy_checked: u64,
    /// Pareto ladders compared point-for-point against the exhaustive
    /// makespan x energy front.
    pub pareto_checked: u64,
    /// Energy-capped solves (objective caps and instance caps) reconciled
    /// against the brute-force front.
    pub energy_capped_checked: u64,
    /// Cases where the min-energy restriction legitimately exhausted the
    /// horizon (brute force confirmed only energy-hungrier modes fit).
    pub energy_restriction_infeasible: u64,
}

impl CheckStats {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &CheckStats) {
        self.cases += other.cases;
        self.feasible += other.feasible;
        self.infeasible_agreed += other.infeasible_agreed;
        self.brute_forced += other.brute_forced;
        self.proved_optimal += other.proved_optimal;
        self.milp_checked += other.milp_checked;
        self.milp_skipped += other.milp_skipped;
        self.time_indexed_checked += other.time_indexed_checked;
        self.time_indexed_skipped += other.time_indexed_skipped;
        self.metamorphic_checked += other.metamorphic_checked;
        self.dense_checked += other.dense_checked;
        self.parallel_checked += other.parallel_checked;
        self.budgeted_checked += other.budgeted_checked;
        self.budgeted_truncated += other.budgeted_truncated;
        self.pipeline_encoded += other.pipeline_encoded;
        self.pipeline_skipped += other.pipeline_skipped;
        self.energy_checked += other.energy_checked;
        self.pareto_checked += other.pareto_checked;
        self.energy_capped_checked += other.energy_capped_checked;
        self.energy_restriction_infeasible += other.energy_restriction_infeasible;
    }

    /// One-line human-readable summary for fuzz logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} cases: {} feasible, {} infeasible-agreed, {} brute-forced ({} proved optimal), \
             milp {}/{} skipped, time-indexed {}/{} skipped, {} metamorphic, {} dense-replayed, \
             {} parallel-replayed, budgeted {} ({} truncated), pipeline {} encoded / {} skipped, \
             energy {} ({} pareto, {} capped, {} restriction-infeasible)",
            self.cases,
            self.feasible,
            self.infeasible_agreed,
            self.brute_forced,
            self.proved_optimal,
            self.milp_checked,
            self.milp_skipped,
            self.time_indexed_checked,
            self.time_indexed_skipped,
            self.metamorphic_checked,
            self.dense_checked,
            self.parallel_checked,
            self.budgeted_checked,
            self.budgeted_truncated,
            self.pipeline_encoded,
            self.pipeline_skipped,
            self.energy_checked,
            self.pareto_checked,
            self.energy_capped_checked,
            self.energy_restriction_infeasible,
        )
    }
}

/// Two solver paths produced irreconcilable answers on one instance.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which cross-check failed.
    pub check: &'static str,
    /// Human-readable description of the two sides.
    pub detail: String,
    /// Graphviz dump of the offending instance for reproduction.
    pub dot: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}\n--- instance ---\n{}",
            self.check, self.detail, self.dot
        )
    }
}

impl Disagreement {
    pub(crate) fn new(check: &'static str, instance: &Instance, detail: String) -> Self {
        Self {
            check,
            detail,
            dot: instance.to_dot(),
        }
    }
}

/// Run the full differential battery on one instance.
///
/// # Errors
///
/// Returns the first [`Disagreement`] found, if any.
pub fn check_instance(
    instance: &Instance,
    config: &OracleConfig,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    stats.cases += 1;
    let n = instance.num_tasks();
    let combinatorial_lb = lower_bound(instance);
    let exact = solve_exact(instance, &config.solver);
    let brute: Option<Option<BruteForceResult>> =
        (n <= MAX_BRUTE_FORCE_TASKS).then(|| brute_force_schedule(instance));

    if let Some(Some(bf)) = &brute {
        let violations = bf.schedule.verify(instance);
        if !violations.is_empty() {
            return Err(Disagreement::new(
                "brute-force-feasibility",
                instance,
                format!("brute force returned an infeasible schedule: {violations:?}"),
            ));
        }
        if combinatorial_lb > bf.makespan {
            return Err(Disagreement::new(
                "bounds-vs-brute-force",
                instance,
                format!(
                    "combinatorial lower bound {combinatorial_lb} exceeds the true optimum {}",
                    bf.makespan
                ),
            ));
        }
    }

    let exact_outcome = match &exact {
        Ok(outcome) => {
            stats.feasible += 1;
            let violations = outcome.schedule.verify(instance);
            if !violations.is_empty() {
                return Err(Disagreement::new(
                    "exact-feasibility",
                    instance,
                    format!("exact solver schedule violates: {violations:?}"),
                ));
            }
            if outcome.lower_bound > outcome.makespan || combinatorial_lb > outcome.makespan {
                return Err(Disagreement::new(
                    "bounds-sandwich",
                    instance,
                    format!(
                        "lower bounds (solver {}, combinatorial {combinatorial_lb}) exceed \
                         makespan {}",
                        outcome.lower_bound, outcome.makespan
                    ),
                ));
            }
            match &brute {
                Some(Some(bf)) => {
                    stats.brute_forced += 1;
                    if outcome.makespan < bf.makespan {
                        return Err(Disagreement::new(
                            "exact-below-optimum",
                            instance,
                            format!(
                                "exact solver makespan {} beats the exhaustive optimum {}",
                                outcome.makespan, bf.makespan
                            ),
                        ));
                    }
                    if outcome.lower_bound > bf.makespan {
                        return Err(Disagreement::new(
                            "lower-bound-above-optimum",
                            instance,
                            format!(
                                "solver lower bound {} exceeds the true optimum {}",
                                outcome.lower_bound, bf.makespan
                            ),
                        ));
                    }
                    if outcome.proved_optimal {
                        stats.proved_optimal += 1;
                        if outcome.makespan != bf.makespan {
                            return Err(Disagreement::new(
                                "proved-optimal-mismatch",
                                instance,
                                format!(
                                    "solver proved makespan {} optimal but brute force found {}",
                                    outcome.makespan, bf.makespan
                                ),
                            ));
                        }
                    }
                }
                Some(None) => {
                    return Err(Disagreement::new(
                        "feasibility-mismatch",
                        instance,
                        format!(
                            "exact solver found makespan {} but brute force says nothing fits \
                             the horizon",
                            outcome.makespan
                        ),
                    ));
                }
                None => {}
            }
            Some(outcome)
        }
        Err(_) => {
            match &brute {
                Some(Some(bf)) => {
                    return Err(Disagreement::new(
                        "feasibility-mismatch",
                        instance,
                        format!(
                            "exact solver claims the horizon is exhausted but brute force found \
                             makespan {}",
                            bf.makespan
                        ),
                    ));
                }
                Some(None) => stats.infeasible_agreed += 1,
                None => {}
            }
            None
        }
    };

    // Parallel-search differential: the exact solve replayed with a
    // 4-worker branch and bound must agree bit-for-bit with the configured
    // worker count — the round-based engine promises thread-independence
    // of the whole outcome, not just the makespan.
    if config.solver.bnb_threads != 4 {
        let parallel = solve_exact(
            instance,
            &SolverConfig {
                bnb_threads: 4,
                ..config.solver.clone()
            },
        );
        stats.parallel_checked += 1;
        match (&exact, &parallel) {
            (Ok(a), Ok(b)) => {
                if (a.makespan, a.lower_bound, a.proved_optimal, &a.schedule)
                    != (b.makespan, b.lower_bound, b.proved_optimal, &b.schedule)
                {
                    return Err(Disagreement::new(
                        "parallel-exact",
                        instance,
                        format!(
                            "4-worker search diverged: makespan {} vs {}, lower bound {} vs \
                             {}, proved {} vs {}",
                            a.makespan,
                            b.makespan,
                            a.lower_bound,
                            b.lower_bound,
                            a.proved_optimal,
                            b.proved_optimal
                        ),
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(Disagreement::new(
                    "parallel-exact",
                    instance,
                    format!(
                        "feasibility verdicts diverged: configured workers ok={}, 4 workers \
                         ok={}",
                        a.is_ok(),
                        b.is_ok()
                    ),
                ));
            }
        }
    }

    let heuristic = solve_heuristic(instance, &config.solver);

    // Representation differential: the dense reference timetable must
    // reproduce the configured backend's heuristic outcome bit-for-bit —
    // same feasibility verdict, makespan, lower bound, and schedule — on
    // every instance, not just the ones worth brute-forcing.
    if config.solver.timetable != TimetableKind::Dense {
        let dense = solve_heuristic(
            instance,
            &SolverConfig {
                timetable: TimetableKind::Dense,
                ..config.solver.clone()
            },
        );
        stats.dense_checked += 1;
        match (&heuristic, &dense) {
            (Ok(a), Ok(b)) => {
                if (a.makespan, a.lower_bound, &a.schedule)
                    != (b.makespan, b.lower_bound, &b.schedule)
                {
                    return Err(Disagreement::new(
                        "dense-representation",
                        instance,
                        format!(
                            "dense backend diverged from {:?}: makespan {} vs {}, lower \
                             bound {} vs {}",
                            config.solver.timetable,
                            a.makespan,
                            b.makespan,
                            a.lower_bound,
                            b.lower_bound
                        ),
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(Disagreement::new(
                    "dense-representation",
                    instance,
                    format!(
                        "feasibility verdicts diverged: {:?} backend ok={}, dense ok={}",
                        config.solver.timetable,
                        a.is_ok(),
                        b.is_ok()
                    ),
                ));
            }
        }
    }

    if let Ok(heuristic) = heuristic {
        let violations = heuristic.schedule.verify(instance);
        if !violations.is_empty() {
            return Err(Disagreement::new(
                "heuristic-feasibility",
                instance,
                format!("heuristic schedule violates: {violations:?}"),
            ));
        }
        if let Some(exact) = exact_outcome {
            if exact.makespan > heuristic.makespan {
                return Err(Disagreement::new(
                    "exact-above-heuristic",
                    instance,
                    format!(
                        "exact makespan {} exceeds the heuristic upper bound {}",
                        exact.makespan, heuristic.makespan
                    ),
                ));
            }
        }
        match &brute {
            Some(Some(bf)) if heuristic.makespan < bf.makespan => {
                return Err(Disagreement::new(
                    "heuristic-below-optimum",
                    instance,
                    format!(
                        "heuristic makespan {} beats the exhaustive optimum {}",
                        heuristic.makespan, bf.makespan
                    ),
                ));
            }
            Some(None) => {
                return Err(Disagreement::new(
                    "feasibility-mismatch",
                    instance,
                    format!(
                        "heuristic found makespan {} but brute force says nothing fits the \
                         horizon",
                        heuristic.makespan
                    ),
                ));
            }
            _ => {}
        }
    }

    if config.online {
        for policy in [
            OnlinePolicy::Fifo,
            OnlinePolicy::LongestFirst,
            OnlinePolicy::ShortestFirst,
            OnlinePolicy::HeterogeneityAware,
        ] {
            let Some(schedule) = online_greedy(instance, policy) else {
                continue;
            };
            let violations = schedule.verify(instance);
            if !violations.is_empty() {
                return Err(Disagreement::new(
                    "online-feasibility",
                    instance,
                    format!("online {policy:?} schedule violates: {violations:?}"),
                ));
            }
            let makespan = schedule.makespan(instance);
            match &brute {
                Some(Some(bf)) if makespan < bf.makespan => {
                    return Err(Disagreement::new(
                        "online-below-optimum",
                        instance,
                        format!(
                            "online {policy:?} makespan {makespan} beats the exhaustive \
                             optimum {}",
                            bf.makespan
                        ),
                    ));
                }
                Some(None) => {
                    return Err(Disagreement::new(
                        "feasibility-mismatch",
                        instance,
                        format!(
                            "online {policy:?} found makespan {makespan} but brute force says \
                             nothing fits the horizon"
                        ),
                    ));
                }
                _ => {}
            }
            if let Some(exact) = exact_outcome {
                if makespan < exact.lower_bound {
                    return Err(Disagreement::new(
                        "online-below-lower-bound",
                        instance,
                        format!(
                            "online {policy:?} makespan {makespan} beats the proven lower \
                             bound {}",
                            exact.lower_bound
                        ),
                    ));
                }
            }
        }
    }

    let tiny = n <= MAX_BRUTE_FORCE_TASKS;
    let cap_free = instance.power_cap().is_none()
        && instance.bandwidth_cap().is_none()
        && instance.core_cap().is_none()
        && instance.resources().is_empty();

    if config.milp && tiny && cap_free {
        match makespan_via_milp(instance, &SolveLimits::default()) {
            Ok(milp_makespan) => {
                stats.milp_checked += 1;
                reconcile_milp("milp", instance, milp_makespan, exact_outcome)?;
            }
            Err(MilpEncodeError::Model(ModelError::Infeasible)) => {
                stats.milp_checked += 1;
                if let Some(exact) = exact_outcome {
                    return Err(Disagreement::new(
                        "milp",
                        instance,
                        format!(
                            "MILP says infeasible but the exact solver found makespan {}",
                            exact.makespan
                        ),
                    ));
                }
            }
            Err(_) => stats.milp_skipped += 1,
        }
    }

    if config.time_indexed && tiny && instance.resources().is_empty() {
        let horizon = instance.horizon() as usize;
        let binaries: usize = (0..n)
            .flat_map(|t| instance.task(TaskId(t)).modes.iter())
            .map(|mode| (horizon + 1).saturating_sub(mode.duration as usize))
            .sum();
        if binaries <= config.max_time_indexed_binaries {
            match makespan_via_time_indexed(instance, &SolveLimits::default()) {
                Ok(ti_makespan) => {
                    stats.time_indexed_checked += 1;
                    reconcile_milp("time-indexed", instance, ti_makespan, exact_outcome)?;
                }
                Err(hilp_core::time_indexed::TimeIndexedError::Encode(MilpEncodeError::Model(
                    ModelError::Infeasible,
                ))) => {
                    stats.time_indexed_checked += 1;
                    if let Some(exact) = exact_outcome {
                        return Err(Disagreement::new(
                            "time-indexed",
                            instance,
                            format!(
                                "time-indexed MILP says infeasible but the exact solver found \
                                 makespan {}",
                                exact.makespan
                            ),
                        ));
                    }
                }
                Err(_) => stats.time_indexed_skipped += 1,
            }
        } else {
            stats.time_indexed_skipped += 1;
        }
    }

    if config.metamorphic && tiny {
        check_metamorphic(instance, &brute, stats)?;
    }

    Ok(())
}

/// Run an anytime (node-budgeted) solve on one instance and check the
/// truncated-result contract: the incumbent is always feasible, the reported
/// bounds sandwich holds, and on brute-forceable instances the incumbent is
/// never below (and the lower bound never above) the exhaustive optimum.
///
/// Infeasible instances (budgeted solve returns an error) are skipped: under
/// a budget the base heuristic pass may legitimately exhaust its horizon, so
/// an error here is a quality outcome, not a soundness disagreement.
///
/// # Errors
///
/// Returns the first [`Disagreement`] found, if any.
pub fn check_budgeted(
    instance: &Instance,
    node_budget: u64,
    base: &SolverConfig,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    let config = SolverConfig {
        budget: Budget::unlimited().with_node_limit(node_budget),
        ..base.clone()
    };
    let Ok(outcome) = solve(instance, &config) else {
        return Ok(());
    };
    stats.budgeted_checked += 1;
    if outcome.truncated.is_some() {
        stats.budgeted_truncated += 1;
    }

    let violations = outcome.schedule.verify(instance);
    if !violations.is_empty() {
        return Err(Disagreement::new(
            "budgeted-feasibility",
            instance,
            format!(
                "budgeted solve (nodes={node_budget}) returned an infeasible incumbent: \
                 {violations:?}"
            ),
        ));
    }
    if outcome.lower_bound > outcome.makespan {
        return Err(Disagreement::new(
            "budgeted-bounds-sandwich",
            instance,
            format!(
                "budgeted solve (nodes={node_budget}) reports lower bound {} above its own \
                 incumbent makespan {}",
                outcome.lower_bound, outcome.makespan
            ),
        ));
    }
    // Within the exact phase's reach, an untruncated budgeted solve must
    // have finished the search and proved its answer. (Outside the reach —
    // task threshold exceeded or the legacy `exact_node_budget` cap hit —
    // an unproved, untruncated outcome is a quality limit, not a bug.)
    let exact_reachable = config.exact_node_budget > node_budget
        && instance.num_tasks() <= config.exact_task_threshold;
    if exact_reachable && outcome.truncated.is_none() && !outcome.proved_optimal {
        return Err(Disagreement::new(
            "budgeted-untruncated-unproved",
            instance,
            format!(
                "budgeted solve (nodes={node_budget}) neither exhausted its budget nor proved \
                 optimality (makespan {}, lower bound {})",
                outcome.makespan, outcome.lower_bound
            ),
        ));
    }

    // The budgeted trajectory must be thread-independent too: the
    // allocation-style round charge pins the truncation point, so a
    // 4-worker replay (with its own fresh budget meter) agrees bit-for-bit
    // even on searches cut off mid-tree.
    if config.bnb_threads != 4 {
        let parallel = solve(
            instance,
            &SolverConfig {
                budget: Budget::unlimited().with_node_limit(node_budget),
                bnb_threads: 4,
                ..base.clone()
            },
        );
        stats.parallel_checked += 1;
        match &parallel {
            Ok(p)
                if (p.makespan, p.lower_bound, p.truncated, &p.schedule)
                    == (
                        outcome.makespan,
                        outcome.lower_bound,
                        outcome.truncated,
                        &outcome.schedule,
                    ) => {}
            Ok(p) => {
                return Err(Disagreement::new(
                    "budgeted-parallel",
                    instance,
                    format!(
                        "4-worker budgeted solve (nodes={node_budget}) diverged: makespan {} \
                         vs {}, lower bound {} vs {}, truncated {:?} vs {:?}",
                        outcome.makespan,
                        p.makespan,
                        outcome.lower_bound,
                        p.lower_bound,
                        outcome.truncated,
                        p.truncated
                    ),
                ));
            }
            Err(_) => {
                return Err(Disagreement::new(
                    "budgeted-parallel",
                    instance,
                    format!(
                        "4-worker budgeted solve (nodes={node_budget}) claims infeasibility \
                         but the configured worker count found makespan {}",
                        outcome.makespan
                    ),
                ));
            }
        }
    }

    if instance.num_tasks() <= MAX_BRUTE_FORCE_TASKS {
        if let Some(bf) = brute_force_schedule(instance) {
            if outcome.makespan < bf.makespan {
                return Err(Disagreement::new(
                    "budgeted-below-optimum",
                    instance,
                    format!(
                        "budgeted incumbent {} beats the exhaustive optimum {}",
                        outcome.makespan, bf.makespan
                    ),
                ));
            }
            if outcome.lower_bound > bf.makespan {
                return Err(Disagreement::new(
                    "budgeted-lb-above-optimum",
                    instance,
                    format!(
                        "budgeted lower bound {} exceeds the true optimum {}",
                        outcome.lower_bound, bf.makespan
                    ),
                ));
            }
        } else {
            return Err(Disagreement::new(
                "budgeted-phantom-schedule",
                instance,
                format!(
                    "budgeted solve found a schedule with makespan {} on an instance brute \
                     force proves infeasible",
                    outcome.makespan
                ),
            ));
        }
    }

    Ok(())
}

/// Run the energy differential battery on one tiny instance: energy
/// accounting, the infinite-cap transparency identity, the lexicographic
/// `Objective::Energy` against the exhaustive optimum, the Pareto ladder
/// against the exhaustive makespan x energy front, energy-capped solves
/// pinned to the front's own trade-offs (through both the objective cap and
/// an instance-level cap, the latter exercising the brute force's own
/// reservation admissibility), and a power-scaling metamorphic round.
///
/// Instances beyond [`MAX_BRUTE_FORCE_TASKS`] are skipped silently so the
/// caller can feed every case through unconditionally.
///
/// # Errors
///
/// Returns the first [`Disagreement`] found, if any.
#[allow(clippy::too_many_lines)]
pub fn check_energy(
    instance: &Instance,
    config: &OracleConfig,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    if instance.num_tasks() > MAX_BRUTE_FORCE_TASKS {
        return Ok(());
    }
    let bf_energy = brute_force_energy(instance);
    let bf_front = brute_force_pareto(instance);

    // Energy accounting: the reported energy is the pure mode-vector sum,
    // recomputed independently of `Schedule::total_energy`.
    let plain = solve_exact(instance, &config.solver);
    if let Ok(outcome) = &plain {
        let recomputed = schedule_energy(instance, &outcome.schedule);
        if (outcome.energy - recomputed).abs() > ENERGY_EPS
            || (outcome.schedule.total_energy(instance) - recomputed).abs() > ENERGY_EPS
        {
            return Err(Disagreement::new(
                "energy-accounting",
                instance,
                format!(
                    "solver reports energy {} but the mode vector sums to {recomputed} \
                     (Schedule::total_energy says {})",
                    outcome.energy,
                    outcome.schedule.total_energy(instance)
                ),
            ));
        }
    }

    // Transparency: an infinite energy cap must not perturb the makespan
    // solve in any observable way.
    let transparent = solve_exact(
        instance,
        &SolverConfig {
            objective: Objective::MakespanUnderEnergyCap(f64::INFINITY),
            ..config.solver.clone()
        },
    );
    match (&plain, &transparent) {
        (Ok(a), Ok(b)) => {
            if (a.makespan, a.lower_bound, a.proved_optimal, &a.schedule)
                != (b.makespan, b.lower_bound, b.proved_optimal, &b.schedule)
            {
                return Err(Disagreement::new(
                    "energy-transparency",
                    instance,
                    format!(
                        "an infinite energy cap changed the solve: makespan {} vs {}, lower \
                         bound {} vs {}, proved {} vs {}",
                        a.makespan,
                        b.makespan,
                        a.lower_bound,
                        b.lower_bound,
                        a.proved_optimal,
                        b.proved_optimal
                    ),
                ));
            }
        }
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(Disagreement::new(
                "energy-transparency",
                instance,
                format!(
                    "an infinite energy cap changed the feasibility verdict: plain ok={}, \
                     capped ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            ));
        }
    }

    // The Energy objective against the lexicographic brute force.
    let energy_outcome = solve_exact(
        instance,
        &SolverConfig {
            objective: Objective::Energy,
            ..config.solver.clone()
        },
    );
    match (&energy_outcome, &bf_energy) {
        (Ok(outcome), Some(bf)) => {
            let violations = outcome.schedule.verify(instance);
            if !violations.is_empty() {
                return Err(Disagreement::new(
                    "energy-objective-feasibility",
                    instance,
                    format!("energy-objective schedule violates: {violations:?}"),
                ));
            }
            let recomputed = schedule_energy(instance, &outcome.schedule);
            if (outcome.energy - recomputed).abs() > ENERGY_EPS {
                return Err(Disagreement::new(
                    "energy-accounting",
                    instance,
                    format!(
                        "energy objective reports {} but the mode vector sums to {recomputed}",
                        outcome.energy
                    ),
                ));
            }
            if (outcome.energy - bf.energy).abs() > ENERGY_EPS {
                return Err(Disagreement::new(
                    "energy-objective",
                    instance,
                    format!(
                        "energy objective found total energy {} but the exhaustive lexicographic \
                         optimum is {}",
                        outcome.energy, bf.energy
                    ),
                ));
            }
            if outcome.makespan < bf.makespan {
                return Err(Disagreement::new(
                    "energy-objective-below-optimum",
                    instance,
                    format!(
                        "energy objective makespan {} beats the exhaustive minimum-energy \
                         makespan {}",
                        outcome.makespan, bf.makespan
                    ),
                ));
            }
            if outcome.proved_optimal && outcome.makespan != bf.makespan {
                return Err(Disagreement::new(
                    "energy-objective-makespan",
                    instance,
                    format!(
                        "energy objective proved makespan {} optimal but the exhaustive \
                         lexicographic optimum reaches {}",
                        outcome.makespan, bf.makespan
                    ),
                ));
            }
        }
        (Ok(outcome), None) => {
            return Err(Disagreement::new(
                "energy-phantom",
                instance,
                format!(
                    "energy objective found a schedule (energy {}, makespan {}) on an instance \
                     brute force proves infeasible",
                    outcome.energy, outcome.makespan
                ),
            ));
        }
        (Err(SchedError::HorizonExhausted { .. }), Some(bf)) => {
            // Documented limitation: the min-energy mode restriction may not
            // fit the horizon even though energy-hungrier vectors do. That
            // excuse only holds when the true minimum energy really is above
            // the per-task floor the restriction commits to.
            if bf.energy <= instance.min_total_energy() + ENERGY_EPS {
                return Err(Disagreement::new(
                    "energy-restriction-infeasible",
                    instance,
                    format!(
                        "energy objective claims the horizon is exhausted but brute force \
                         schedules the minimum-energy floor {} (makespan {})",
                        bf.energy, bf.makespan
                    ),
                ));
            }
            stats.energy_restriction_infeasible += 1;
        }
        (Err(err), Some(bf)) => {
            return Err(Disagreement::new(
                "energy-objective-error",
                instance,
                format!(
                    "energy objective failed with `{err}` but brute force found a feasible \
                     minimum-energy schedule (energy {}, makespan {})",
                    bf.energy, bf.makespan
                ),
            ));
        }
        (Err(_), None) => {}
    }

    // The Pareto ladder against the exhaustive makespan x energy front.
    match solve_pareto(instance, &config.solver) {
        Ok(front) => {
            if bf_front.is_empty() {
                return Err(Disagreement::new(
                    "pareto-phantom",
                    instance,
                    format!(
                        "solve_pareto returned {} points on an instance brute force proves \
                         infeasible",
                        front.points.len()
                    ),
                ));
            }
            for point in &front.points {
                let violations = point.schedule.verify(instance);
                if !violations.is_empty() {
                    return Err(Disagreement::new(
                        "pareto-feasibility",
                        instance,
                        format!(
                            "Pareto point (makespan {}, energy {}) violates: {violations:?}",
                            point.makespan, point.energy
                        ),
                    ));
                }
                let recomputed = schedule_energy(instance, &point.schedule);
                if (point.energy - recomputed).abs() > ENERGY_EPS {
                    return Err(Disagreement::new(
                        "energy-accounting",
                        instance,
                        format!(
                            "Pareto point reports energy {} but the mode vector sums to \
                             {recomputed}",
                            point.energy
                        ),
                    ));
                }
                // Every solver point must be achievable, i.e. weakly
                // dominated by some point of the exhaustive front.
                if !bf_front
                    .iter()
                    .any(|b| b.makespan <= point.makespan && b.energy <= point.energy + ENERGY_EPS)
                {
                    return Err(Disagreement::new(
                        "pareto-point-impossible",
                        instance,
                        format!(
                            "Pareto point (makespan {}, energy {}) beats the exhaustive front",
                            point.makespan, point.energy
                        ),
                    ));
                }
            }
            if front.complete {
                stats.pareto_checked += 1;
                let matches = front.points.len() == bf_front.len()
                    && front.points.iter().zip(&bf_front).all(|(a, b)| {
                        a.makespan == b.makespan && (a.energy - b.energy).abs() <= ENERGY_EPS
                    });
                if !matches {
                    let solver: Vec<(u32, f64)> = front
                        .points
                        .iter()
                        .map(|p| (p.makespan, p.energy))
                        .collect();
                    let brute: Vec<(u32, f64)> =
                        bf_front.iter().map(|p| (p.makespan, p.energy)).collect();
                    return Err(Disagreement::new(
                        "pareto-front-mismatch",
                        instance,
                        format!(
                            "complete ladder {solver:?} differs from the exhaustive front \
                             {brute:?}"
                        ),
                    ));
                }
            }
        }
        Err(_) => {
            if let Some(first) = bf_front.first() {
                return Err(Disagreement::new(
                    "pareto-feasibility-mismatch",
                    instance,
                    format!(
                        "solve_pareto claims infeasibility but brute force found a front \
                         starting at (makespan {}, energy {})",
                        first.makespan, first.energy
                    ),
                ));
            }
        }
    }

    // Energy-capped solves pinned to the exhaustive front: capping at a
    // front point's energy must recover exactly that point's makespan.
    for point in bf_front.iter().take(3) {
        stats.energy_capped_checked += 1;
        let capped = solve_exact(
            instance,
            &SolverConfig {
                objective: Objective::MakespanUnderEnergyCap(point.energy),
                ..config.solver.clone()
            },
        );
        match &capped {
            Ok(outcome) => {
                if outcome.energy > point.energy + ENERGY_EPS {
                    return Err(Disagreement::new(
                        "energy-cap-violated",
                        instance,
                        format!(
                            "cap {} admitted a schedule with energy {}",
                            point.energy, outcome.energy
                        ),
                    ));
                }
                if outcome.makespan < point.makespan || outcome.lower_bound > point.makespan {
                    return Err(Disagreement::new(
                        "energy-capped-bounds",
                        instance,
                        format!(
                            "under cap {} the true optimum is {}, solver reports makespan {} \
                             with lower bound {}",
                            point.energy, point.makespan, outcome.makespan, outcome.lower_bound
                        ),
                    ));
                }
                if outcome.proved_optimal && outcome.makespan != point.makespan {
                    return Err(Disagreement::new(
                        "energy-capped-mismatch",
                        instance,
                        format!(
                            "solver proved makespan {} optimal under cap {} but the exhaustive \
                             front says {}",
                            outcome.makespan, point.energy, point.makespan
                        ),
                    ));
                }
            }
            Err(err) => {
                return Err(Disagreement::new(
                    "energy-capped-feasibility",
                    instance,
                    format!(
                        "solver failed with `{err}` under cap {} though brute force schedules \
                         exactly that energy at makespan {}",
                        point.energy, point.makespan
                    ),
                ));
            }
        }

        // The same cap applied at the instance level: exercises the brute
        // force's own reservation admissibility against the solver's filter.
        let capped_instance = with_energy_cap(instance, point.energy);
        match brute_force_schedule(&capped_instance) {
            Some(bf) if bf.makespan == point.makespan => {}
            other => {
                return Err(Disagreement::new(
                    "energy-capped-brute-force",
                    instance,
                    format!(
                        "with instance cap {} brute force found {:?} instead of the front's \
                         makespan {}",
                        point.energy,
                        other.map(|bf| bf.makespan),
                        point.makespan
                    ),
                ));
            }
        }
    }

    // Power-scaling metamorphic: tripling every power (and the power and
    // energy caps with it) scales every energy exactly x3 and leaves every
    // makespan untouched.
    const POWER_K: f64 = 3.0;
    let scaled = scale_power(instance, POWER_K);
    let scaled_energy = brute_force_energy(&scaled);
    match (&bf_energy, &scaled_energy) {
        (Some(a), Some(b)) => {
            let tolerance = ENERGY_EPS * (1.0 + a.energy.abs());
            if b.makespan != a.makespan || (b.energy - POWER_K * a.energy).abs() > tolerance {
                return Err(Disagreement::new(
                    "energy-metamorphic-scale",
                    instance,
                    format!(
                        "scaling power x{POWER_K} should map (energy {}, makespan {}) to \
                         (energy {}, makespan {}), brute force found (energy {}, makespan {})",
                        a.energy,
                        a.makespan,
                        POWER_K * a.energy,
                        a.makespan,
                        b.energy,
                        b.makespan
                    ),
                ));
            }
        }
        (None, None) => {}
        (a, b) => {
            return Err(Disagreement::new(
                "energy-metamorphic-scale",
                instance,
                format!(
                    "scaling power x{POWER_K} changed feasibility: original ok={}, scaled ok={}",
                    a.is_some(),
                    b.is_some()
                ),
            ));
        }
    }
    let scaled_front = brute_force_pareto(&scaled);
    let fronts_match = scaled_front.len() == bf_front.len()
        && scaled_front.iter().zip(&bf_front).all(|(s, o)| {
            s.makespan == o.makespan
                && (s.energy - POWER_K * o.energy).abs() <= ENERGY_EPS * (1.0 + o.energy.abs())
        });
    if !fronts_match {
        let scaled_pairs: Vec<(u32, f64)> = scaled_front
            .iter()
            .map(|p| (p.makespan, p.energy))
            .collect();
        let original_pairs: Vec<(u32, f64)> =
            bf_front.iter().map(|p| (p.makespan, p.energy)).collect();
        return Err(Disagreement::new(
            "energy-metamorphic-front",
            instance,
            format!(
                "scaling power x{POWER_K} should scale the front's energies in place; original \
                 {original_pairs:?}, scaled {scaled_pairs:?}"
            ),
        ));
    }

    stats.energy_checked += 1;
    Ok(())
}

/// Reconcile a MILP-optimal makespan with the exact solver's outcome: strict
/// equality when the solver proved optimality, otherwise the MILP optimum
/// must land inside the solver's `[lower_bound, makespan]` interval (i.e.
/// they agree within the reported optimality gap).
fn reconcile_milp(
    check: &'static str,
    instance: &Instance,
    milp_makespan: u32,
    exact: Option<&hilp_sched::SolveOutcome>,
) -> Result<(), Disagreement> {
    match exact {
        Some(outcome) if outcome.proved_optimal => {
            if milp_makespan != outcome.makespan {
                return Err(Disagreement::new(
                    check,
                    instance,
                    format!(
                        "MILP optimum {milp_makespan} != proved-optimal solver makespan {}",
                        outcome.makespan
                    ),
                ));
            }
        }
        Some(outcome) => {
            if milp_makespan < outcome.lower_bound || milp_makespan > outcome.makespan {
                return Err(Disagreement::new(
                    check,
                    instance,
                    format!(
                        "MILP optimum {milp_makespan} outside the solver's gap interval \
                         [{}, {}]",
                        outcome.lower_bound, outcome.makespan
                    ),
                ));
            }
        }
        None => {
            return Err(Disagreement::new(
                check,
                instance,
                format!(
                    "MILP found makespan {milp_makespan} but the exact solver claims the \
                     horizon is exhausted"
                ),
            ));
        }
    }
    Ok(())
}

/// The three metamorphic properties from the issue, each decided against the
/// brute-force reference so the expected answer is exact:
///
/// 1. **Time scaling**: multiplying every duration, lag, and the horizon by
///    `k` scales the optimum by exactly `k` (and preserves infeasibility).
///    Any schedule for the original maps to one for the scaled instance by
///    `s ↦ k·s`; conversely `s ↦ ⌊s/k⌋` maps back (every scaled task active
///    at original step `u` is active at scaled time `k·u + k − 1`, so caps
///    and machine exclusivity carry over), hence the optima correspond.
/// 2. **Cap relaxation**: dropping `p_max`/`b_max`/`u_max` and enlarging
///    custom resource capacities only grows the feasible set, so the optimum
///    never increases and feasible instances stay feasible.
/// 3. **Task permutation**: relabeling tasks (we reverse the order) changes
///    nothing; the optimum and feasibility are identical.
fn check_metamorphic(
    instance: &Instance,
    brute: &Option<Option<BruteForceResult>>,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    let Some(original) = brute else {
        return Ok(());
    };
    let original = original.as_ref().map(|bf| bf.makespan);

    const K: u32 = 3;
    let scaled = scale_time(instance, K);
    let scaled_opt = brute_force_schedule(&scaled).map(|bf| bf.makespan);
    if scaled_opt != original.map(|m| m * K) {
        return Err(Disagreement::new(
            "metamorphic-scale",
            instance,
            format!(
                "optimum {original:?} should scale by {K} to {:?}, brute force found {:?}",
                original.map(|m| m * K),
                scaled_opt
            ),
        ));
    }

    let relaxed = relax_caps(instance);
    let relaxed_opt = brute_force_schedule(&relaxed).map(|bf| bf.makespan);
    if let Some(m) = original {
        match relaxed_opt {
            Some(rm) if rm <= m => {}
            _ => {
                return Err(Disagreement::new(
                    "metamorphic-relax",
                    instance,
                    format!(
                        "relaxing caps turned optimum {m} into {relaxed_opt:?} (must stay \
                         feasible and not increase)"
                    ),
                ));
            }
        }
    }

    let permuted = permute_tasks(instance);
    let permuted_opt = brute_force_schedule(&permuted).map(|bf| bf.makespan);
    if permuted_opt != original {
        return Err(Disagreement::new(
            "metamorphic-permute",
            instance,
            format!("task relabeling changed the optimum: {original:?} -> {permuted_opt:?}"),
        ));
    }

    stats.metamorphic_checked += 1;
    Ok(())
}

/// Rebuild `instance` with every duration, lag, and the horizon multiplied
/// by `k`. The energy cap (energy = power x duration) scales with it.
#[must_use]
pub fn scale_time(instance: &Instance, k: u32) -> Instance {
    rebuild(
        instance,
        |_| 0,
        |d| d * k,
        |lag| lag * k,
        true,
        instance.horizon().saturating_mul(k),
        instance.energy_cap().map(|cap| cap * f64::from(k)),
    )
}

/// Rebuild `instance` with power/bandwidth/core/energy caps dropped and
/// custom resource capacities quadrupled.
#[must_use]
pub fn relax_caps(instance: &Instance) -> Instance {
    rebuild(
        instance,
        |_| 0,
        |d| d,
        |lag| lag,
        false,
        instance.horizon(),
        None,
    )
}

/// Rebuild `instance` with the task order reversed (a pure relabeling).
#[must_use]
pub fn permute_tasks(instance: &Instance) -> Instance {
    let n = instance.num_tasks();
    rebuild(
        instance,
        move |t| n - 1 - t,
        |d| d,
        |lag| lag,
        true,
        instance.horizon(),
        instance.energy_cap(),
    )
}

/// Rebuild `instance` with its whole-schedule energy cap replaced by `cap`;
/// everything else is untouched.
#[must_use]
pub fn with_energy_cap(instance: &Instance, cap: f64) -> Instance {
    rebuild(
        instance,
        |t| t,
        |d| d,
        |lag| lag,
        true,
        instance.horizon(),
        Some(cap),
    )
}

/// Rebuild `instance` with every mode's power — and the power and energy
/// caps with it — multiplied by `k`. Feasibility and makespans are
/// untouched; every schedule's energy scales by exactly `k`.
#[must_use]
pub fn scale_power(instance: &Instance, k: f64) -> Instance {
    let mut b = InstanceBuilder::new();
    for name in instance.machines() {
        b.add_machine(name.clone());
    }
    for (name, cap) in instance.resources() {
        b.add_resource(name.clone(), *cap);
    }
    let mut ids = Vec::with_capacity(instance.num_tasks());
    for t in 0..instance.num_tasks() {
        let task = instance.task(TaskId(t));
        let modes = task
            .modes
            .iter()
            .map(|mode| {
                let mut scaled = mode.clone();
                scaled.power = mode.power * k;
                scaled
            })
            .collect();
        ids.push(b.add_task(task.label.clone(), modes));
    }
    for t in 0..instance.num_tasks() {
        for edge in instance.incoming(TaskId(t)) {
            let before = ids[edge.before.0];
            let after = ids[edge.after.0];
            match edge.kind {
                hilp_sched::EdgeKind::FinishToStart => {
                    b.add_precedence_lagged(before, after, edge.lag);
                }
                hilp_sched::EdgeKind::StartToStart => {
                    b.add_initiation_interval(before, after, edge.lag);
                }
            }
        }
    }
    if let Some(cap) = instance.power_cap() {
        b.set_power_cap(cap * k);
    }
    if let Some(cap) = instance.bandwidth_cap() {
        b.set_bandwidth_cap(cap);
    }
    if let Some(cap) = instance.core_cap() {
        b.set_core_cap(cap);
    }
    if let Some(cap) = instance.energy_cap() {
        b.set_energy_cap(cap * k);
    }
    b.set_horizon(instance.horizon());
    b.build().expect("power-scaled instances stay valid")
}

/// Shared rebuild: `position` places original task `t` at a new index,
/// `duration`/`lag` transform times, `keep_caps` controls whether the
/// power/bandwidth/core caps carry over (custom resource capacities are
/// quadrupled when caps are dropped), and `energy_cap` is the transformed
/// whole-schedule energy budget (or `None` to drop it).
fn rebuild(
    instance: &Instance,
    position: impl Fn(usize) -> usize,
    duration: impl Fn(u32) -> u32,
    lag: impl Fn(u32) -> u32,
    keep_caps: bool,
    horizon: u32,
    energy_cap: Option<f64>,
) -> Instance {
    let n = instance.num_tasks();
    let mut b = InstanceBuilder::new();
    for name in instance.machines() {
        b.add_machine(name.clone());
    }
    for (name, cap) in instance.resources() {
        b.add_resource(name.clone(), if keep_caps { *cap } else { *cap * 4.0 });
    }
    // Original task index -> new TaskId, honoring the position map.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&t| position(t));
    let mut new_ids = vec![None; n];
    for &t in &order {
        let task = instance.task(TaskId(t));
        let modes = task
            .modes
            .iter()
            .map(|mode| {
                let mut scaled = mode.clone();
                scaled.duration = duration(mode.duration);
                scaled
            })
            .collect();
        new_ids[t] = Some(b.add_task(task.label.clone(), modes));
    }
    for t in 0..n {
        for edge in instance.incoming(TaskId(t)) {
            let before = new_ids[edge.before.0].expect("all tasks added");
            let after = new_ids[edge.after.0].expect("all tasks added");
            match edge.kind {
                hilp_sched::EdgeKind::FinishToStart => {
                    b.add_precedence_lagged(before, after, lag(edge.lag));
                }
                hilp_sched::EdgeKind::StartToStart => {
                    b.add_initiation_interval(before, after, lag(edge.lag));
                }
            }
        }
    }
    if keep_caps {
        if let Some(cap) = instance.power_cap() {
            b.set_power_cap(cap);
        }
        if let Some(cap) = instance.bandwidth_cap() {
            b.set_bandwidth_cap(cap);
        }
        if let Some(cap) = instance.core_cap() {
            b.set_core_cap(cap);
        }
    }
    if let Some(cap) = energy_cap {
        b.set_energy_cap(cap);
    }
    b.set_horizon(horizon);
    b.build().expect("transformed instances stay valid")
}

/// Run the workload → SoC → instance encoding front-end on a random
/// (workload, SoC, constraints) triple and check the resulting instance's
/// solver invariants: heuristic feasibility, the bounds sandwich, and online
/// dispatch feasibility.
///
/// # Errors
///
/// Returns the first [`Disagreement`] found, if any.
pub fn check_pipeline(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    let Ok((instance, _maps)) = hilp_core::encode(workload, soc, constraints, 1.0) else {
        stats.pipeline_skipped += 1;
        return Ok(());
    };
    stats.pipeline_encoded += 1;
    let config = SolverConfig::sweep();
    let combinatorial_lb = lower_bound(&instance);
    match solve_heuristic(&instance, &config) {
        Ok(outcome) => {
            let violations = outcome.schedule.verify(&instance);
            if !violations.is_empty() {
                return Err(Disagreement::new(
                    "pipeline-feasibility",
                    &instance,
                    format!("encoded workload schedule violates: {violations:?}"),
                ));
            }
            if outcome.lower_bound > outcome.makespan || combinatorial_lb > outcome.makespan {
                return Err(Disagreement::new(
                    "pipeline-bounds",
                    &instance,
                    format!(
                        "lower bounds (solver {}, combinatorial {combinatorial_lb}) exceed \
                         makespan {}",
                        outcome.lower_bound, outcome.makespan
                    ),
                ));
            }
            let wlp = hilp_core::average_wlp(&outcome.schedule, &instance);
            if instance.num_tasks() > 0 && wlp < 1.0 - 1e-9 {
                return Err(Disagreement::new(
                    "pipeline-wlp",
                    &instance,
                    format!("average WLP {wlp} below 1 for a non-empty schedule"),
                ));
            }
        }
        Err(_) => {
            // The heuristic may legitimately exhaust a tight horizon; the
            // online check below still runs on its own.
        }
    }
    if let Some(schedule) = online_greedy(&instance, OnlinePolicy::Fifo) {
        let violations = schedule.verify(&instance);
        if !violations.is_empty() {
            return Err(Disagreement::new(
                "pipeline-online-feasibility",
                &instance,
                format!("online schedule for encoded workload violates: {violations:?}"),
            ));
        }
        if schedule.makespan(&instance) < combinatorial_lb {
            return Err(Disagreement::new(
                "pipeline-online-below-bound",
                &instance,
                format!(
                    "online makespan {} beats the combinatorial lower bound {combinatorial_lb}",
                    schedule.makespan(&instance)
                ),
            ));
        }
    }
    Ok(())
}
