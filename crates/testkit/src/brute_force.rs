//! Exhaustive brute-force reference scheduler for tiny instances.
//!
//! The search enumerates every *serial schedule-generation* run: every
//! precedence-feasible placement order, every mode assignment, and for each
//! (order, modes) pair the earliest feasible start of each task given what is
//! already placed. For regular objectives (makespan) over MM-RCPSP with
//! non-negative minimum time lags this enumeration contains an optimal
//! schedule (the active-schedule dominance theorem; see Kolisch/Sprecher on
//! schedule-generation schemes). The same assumption underpins the `sched`
//! branch-and-bound — and the oracle cross-checks it empirically against the
//! assumption-free time-indexed MILP encoding on capped instances.
//!
//! Feasibility during placement is decided by an independent dense time scan
//! (machine exclusivity, power/bandwidth/core caps, custom cumulative
//! resources), deliberately sharing no code with the solver's timetables so
//! that a bug in one cannot mask a bug in the other.
//!
//! # Energy
//!
//! Energy is a pure function of the mode-assignment vector (start times never
//! affect it), so for every fixed vector the SGS enumeration that contains a
//! makespan-optimal schedule also witnesses that vector's exact
//! (makespan, energy) trade-off. [`brute_force_pareto`] therefore finds the
//! complete makespan x energy Pareto front of a tiny instance, whose last
//! point is the lexicographic (energy, makespan) optimum. Both entry points
//! honour `Instance::energy_cap` through a reservation check:
//! a mode is admissible only if the energy already spent, plus the mode's own
//! energy, plus the cheapest possible completion of every other unplaced
//! task, fits under the cap.

use hilp_sched::{EdgeKind, Instance, ModeId, ResourceId, Schedule, TaskId};

/// Largest instance the brute force will accept. The search is
/// `O(n! · modes^n · horizon)`, so anything beyond this is impractical.
pub const MAX_BRUTE_FORCE_TASKS: usize = 6;

/// Cumulative cap comparisons share the solver's floating-point tolerance.
const CAP_EPS: f64 = 1e-9;

/// An optimal schedule found by exhaustive enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceResult {
    /// The provably optimal makespan.
    pub makespan: u32,
    /// One schedule attaining it.
    pub schedule: Schedule,
}

/// One point of the exact makespan x energy Pareto front of a tiny instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceTradeoff {
    /// Makespan in time steps.
    pub makespan: u32,
    /// Total energy in watt-steps.
    pub energy: f64,
    /// One schedule attaining this trade-off.
    pub schedule: Schedule,
}

/// Total energy of a schedule recomputed independently of
/// `Schedule::total_energy`: the sum of `power x duration` over the chosen
/// modes, accumulated in task order.
pub fn schedule_energy(instance: &Instance, schedule: &Schedule) -> f64 {
    (0..instance.num_tasks())
        .map(|t| {
            let mode = instance.mode(TaskId(t), schedule.modes[t]);
            mode.power * f64::from(mode.duration)
        })
        .sum()
}

/// The true optimal makespan of a tiny instance, or `None` if no feasible
/// schedule fits inside the horizon.
///
/// # Panics
///
/// Panics if the instance has more than [`MAX_BRUTE_FORCE_TASKS`] tasks.
pub fn brute_force_makespan(instance: &Instance) -> Option<u32> {
    brute_force_schedule(instance).map(|r| r.makespan)
}

/// Like [`brute_force_makespan`] but also returns an optimal schedule.
pub fn brute_force_schedule(instance: &Instance) -> Option<BruteForceResult> {
    let mut search = Search::new(instance, Goal::Makespan);
    search.dfs();
    search
        .best
        .take()
        .map(|(makespan, starts, modes)| BruteForceResult {
            makespan,
            schedule: Schedule { starts, modes },
        })
}

/// The complete makespan x energy Pareto front of a tiny instance, makespan
/// ascending (hence energy strictly descending). Empty iff the instance is
/// infeasible.
///
/// Completeness argument: energy is fixed by the mode vector, the SGS
/// enumeration realizes a makespan-optimal schedule for every feasible mode
/// vector, and the weak-dominance cut only discards branches whose every
/// completion is weakly dominated by an already-collected point.
///
/// # Panics
///
/// Panics if the instance has more than [`MAX_BRUTE_FORCE_TASKS`] tasks.
pub fn brute_force_pareto(instance: &Instance) -> Vec<BruteForceTradeoff> {
    let mut search = Search::new(instance, Goal::Pareto);
    search.dfs();
    let mut points: Vec<BruteForceTradeoff> = search
        .front
        .drain(..)
        .map(|(makespan, energy, starts, modes)| BruteForceTradeoff {
            makespan,
            energy,
            schedule: Schedule { starts, modes },
        })
        .collect();
    points.sort_by_key(|p| p.makespan);
    points
}

/// What the exhaustive search optimizes (and how it prunes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Goal {
    /// Minimize the latest finish (the original brute force).
    Makespan,
    /// Collect every non-dominated (makespan, energy) pair.
    Pareto,
}

struct Search<'a> {
    instance: &'a Instance,
    goal: Goal,
    /// Cheapest single-mode energy per task, the admissible remainder bound.
    min_energy: Vec<f64>,
    energy_cap: Option<f64>,
    placed: Vec<bool>,
    starts: Vec<u32>,
    modes: Vec<ModeId>,
    finishes: Vec<u32>,
    num_placed: usize,
    best: Option<(u32, Vec<u32>, Vec<ModeId>)>,
    front: Vec<(u32, f64, Vec<u32>, Vec<ModeId>)>,
}

impl<'a> Search<'a> {
    fn new(instance: &'a Instance, goal: Goal) -> Search<'a> {
        let n = instance.num_tasks();
        assert!(
            n <= MAX_BRUTE_FORCE_TASKS,
            "brute force is factorial; got {n} tasks (limit {MAX_BRUTE_FORCE_TASKS})"
        );
        let min_energy = (0..n)
            .map(|t| {
                instance
                    .task(TaskId(t))
                    .modes
                    .iter()
                    .map(hilp_sched::Mode::energy)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut search = Search {
            instance,
            goal,
            min_energy,
            energy_cap: instance.energy_cap(),
            placed: vec![false; n],
            starts: vec![0; n],
            modes: vec![ModeId(0); n],
            finishes: vec![0; n],
            num_placed: 0,
            best: None,
            front: Vec::new(),
        };
        if n == 0 {
            // The empty schedule is the (only) optimum for every goal.
            search.best = Some((0, Vec::new(), Vec::new()));
            search.front.push((0, 0.0, Vec::new(), Vec::new()));
        }
        search
    }

    /// Energy already committed by the placed tasks. Recomputed per node
    /// (n <= 6) rather than maintained incrementally so float state cannot
    /// drift across backtracks.
    fn spent_energy(&self) -> f64 {
        (0..self.instance.num_tasks())
            .filter(|&t| self.placed[t])
            .map(|t| self.instance.mode(TaskId(t), self.modes[t]).energy())
            .sum()
    }

    /// Lower bound on the energy of any completion: committed energy plus
    /// each unplaced task's cheapest mode.
    fn remaining_min_energy(&self) -> f64 {
        (0..self.instance.num_tasks())
            .filter(|&t| !self.placed[t])
            .map(|t| self.min_energy[t])
            .sum()
    }

    /// Whether every completion of the current partial is provably no better
    /// than what is already recorded. `partial` is the latest placed finish
    /// (a makespan lower bound) and `energy_lb` the energy lower bound; both
    /// are monotone under further placement, which makes each cut admissible.
    fn pruned(&self, partial: u32, energy_lb: f64) -> bool {
        match self.goal {
            Goal::Makespan => self
                .best
                .as_ref()
                .is_some_and(|(best, _, _)| partial >= *best),
            Goal::Pareto => self
                .front
                .iter()
                .any(|(m, e, _, _)| *m <= partial && *e <= energy_lb + CAP_EPS),
        }
    }

    /// Record a complete feasible schedule with the given makespan/energy.
    fn record(&mut self, makespan: u32, energy: f64) {
        match self.goal {
            // `pruned` already rejected non-improving leaves.
            Goal::Makespan => {
                self.best = Some((makespan, self.starts.clone(), self.modes.clone()));
            }
            Goal::Pareto => {
                self.front
                    .retain(|(m, e, _, _)| !(makespan <= *m && energy <= *e + CAP_EPS));
                self.front
                    .push((makespan, energy, self.starts.clone(), self.modes.clone()));
            }
        }
    }

    fn dfs(&mut self) {
        let n = self.instance.num_tasks();
        let partial = (0..n)
            .filter(|&t| self.placed[t])
            .map(|t| self.finishes[t])
            .max()
            .unwrap_or(0);
        let spent = self.spent_energy();
        let energy_lb = spent + self.remaining_min_energy();
        if self.pruned(partial, energy_lb) {
            return;
        }
        if self.num_placed == n {
            self.record(partial, spent);
            return;
        }
        for t in 0..n {
            if self.placed[t] {
                continue;
            }
            let task = TaskId(t);
            if !self
                .instance
                .predecessors(task)
                .iter()
                .all(|p| self.placed[p.0])
            {
                continue;
            }
            for m in 0..self.instance.task(task).modes.len() {
                let mode_id = ModeId(m);
                let mode_energy = self.instance.mode(task, mode_id).energy();
                // Reservation check: after paying for this mode, every other
                // unplaced task must still fit its cheapest mode under the
                // energy cap, or no completion of this branch is admissible.
                if let Some(cap) = self.energy_cap {
                    let others = self.remaining_min_energy() - self.min_energy[t];
                    if spent + mode_energy + others > cap + CAP_EPS {
                        continue;
                    }
                }
                if let Some(start) = self.earliest_start(task, mode_id) {
                    let duration = self.instance.mode(task, mode_id).duration;
                    self.placed[t] = true;
                    self.starts[t] = start;
                    self.modes[t] = mode_id;
                    self.finishes[t] = start + duration;
                    self.num_placed += 1;
                    self.dfs();
                    self.num_placed -= 1;
                    self.placed[t] = false;
                }
            }
        }
    }

    /// Earliest start at which `task` in `mode_id` fits, given every placed
    /// task, or `None` if it cannot fit inside the horizon.
    fn earliest_start(&self, task: TaskId, mode_id: ModeId) -> Option<u32> {
        let instance = self.instance;
        let mode = instance.mode(task, mode_id);
        if mode.duration > instance.horizon() {
            return None;
        }
        let mut start = 0u32;
        for edge in instance.incoming(task) {
            let bound = match edge.kind {
                EdgeKind::FinishToStart => self.finishes[edge.before.0] + edge.lag,
                EdgeKind::StartToStart => self.starts[edge.before.0] + edge.lag,
            };
            start = start.max(bound);
        }
        let latest = instance.horizon() - mode.duration;
        while start <= latest {
            match self.first_conflict(task, mode_id, start) {
                None => return Some(start),
                Some(step) => start = step + 1,
            }
        }
        None
    }

    /// First time step in `[start, start + duration)` where the candidate
    /// placement would break machine exclusivity or a cumulative cap.
    fn first_conflict(&self, task: TaskId, mode_id: ModeId, start: u32) -> Option<u32> {
        let instance = self.instance;
        let mode = instance.mode(task, mode_id);
        let end = start + mode.duration;
        let n = instance.num_tasks();
        for step in start..end {
            let mut power = mode.power;
            let mut bandwidth = mode.bandwidth;
            let mut cores = mode.cores;
            for other in 0..n {
                if !self.placed[other] || self.starts[other] > step || self.finishes[other] <= step
                {
                    continue;
                }
                let omode = instance.mode(TaskId(other), self.modes[other]);
                if omode.machine == mode.machine {
                    return Some(step);
                }
                power += omode.power;
                bandwidth += omode.bandwidth;
                cores += omode.cores;
            }
            if instance
                .power_cap()
                .is_some_and(|cap| power > cap + CAP_EPS)
            {
                return Some(step);
            }
            if instance
                .bandwidth_cap()
                .is_some_and(|cap| bandwidth > cap + CAP_EPS)
            {
                return Some(step);
            }
            if instance.core_cap().is_some_and(|cap| cores > cap) {
                return Some(step);
            }
            for (r, (_, cap)) in instance.resources().iter().enumerate() {
                let resource = ResourceId(r);
                let mut usage = mode.usage_of(resource);
                for other in 0..n {
                    if !self.placed[other]
                        || self.starts[other] > step
                        || self.finishes[other] <= step
                    {
                        continue;
                    }
                    usage += instance
                        .mode(TaskId(other), self.modes[other])
                        .usage_of(resource);
                }
                if usage > *cap + CAP_EPS {
                    return Some(step);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_sched::{solve_exact, InstanceBuilder, Mode, SolverConfig};

    #[test]
    fn empty_instance_has_zero_makespan() {
        let instance = InstanceBuilder::new().build().expect("empty instance");
        assert_eq!(brute_force_makespan(&instance), Some(0));
    }

    #[test]
    fn figure2_optimum_is_seven() {
        let instance = hilp_core::example2::figure2_instance();
        let result = brute_force_schedule(&instance).expect("figure 2 is feasible");
        assert_eq!(result.makespan, hilp_core::example2::UNCONSTRAINED_OPTIMUM);
        assert!(result.schedule.verify(&instance).is_empty());
    }

    #[test]
    fn lags_delay_the_optimum() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let a = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let c = b.add_task("c", vec![Mode::on(gpu, 3)]);
        b.add_precedence_lagged(a, c, 4);
        b.set_horizon(20);
        let instance = b.build().expect("valid");
        // a: [0, 2), then a 4-step lag, then c: [6, 9).
        assert_eq!(brute_force_makespan(&instance), Some(9));
    }

    #[test]
    fn infeasible_horizon_returns_none() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let a = b.add_task("a", vec![Mode::on(cpu, 5)]);
        let c = b.add_task("c", vec![Mode::on(cpu, 5)]);
        b.add_precedence(a, c);
        b.set_horizon(8);
        let instance = b.build().expect("valid");
        assert_eq!(brute_force_makespan(&instance), None);
    }

    /// Two tasks, each with a fast/high-power mode (duration 2, power 4.0,
    /// energy 8) and a slow/low-power mode (duration 4, power 1.0, energy 4),
    /// on separate machines.
    fn tradeoff_instance(energy_cap: Option<f64>) -> hilp_sched::Instance {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        for (t, m) in [m0, m1].into_iter().enumerate() {
            b.add_task(
                format!("t{t}"),
                vec![Mode::on(m, 2).power(4.0), Mode::on(m, 4).power(1.0)],
            );
        }
        b.set_horizon(16);
        if let Some(cap) = energy_cap {
            b.set_energy_cap(cap);
        }
        b.build().expect("valid")
    }

    #[test]
    fn pareto_goal_enumerates_the_full_front() {
        let instance = tradeoff_instance(None);
        let front = brute_force_pareto(&instance);
        // (2, 16): both fast; (4, 8): both slow. The mixed vector
        // (makespan 4, energy 12) is dominated by both-slow.
        let pairs: Vec<(u32, f64)> = front.iter().map(|p| (p.makespan, p.energy)).collect();
        assert_eq!(pairs, vec![(2, 16.0), (4, 8.0)]);
        for point in &front {
            assert!(point.schedule.verify(&instance).is_empty());
            assert!((schedule_energy(&instance, &point.schedule) - point.energy).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_cap_restricts_every_goal() {
        // Cap 12 rules out both-fast (energy 16): the best remaining
        // makespan is 4, and one fast + one slow (4, 12) is dominated by
        // both-slow (4, 8), leaving a single front point.
        let instance = tradeoff_instance(Some(12.0));
        let best = brute_force_schedule(&instance).expect("feasible");
        assert_eq!(best.makespan, 4);
        assert!(schedule_energy(&instance, &best.schedule) <= 12.0 + 1e-9);
        assert!(best.schedule.verify(&instance).is_empty());
        let pairs: Vec<(u32, f64)> = brute_force_pareto(&instance)
            .iter()
            .map(|p| (p.makespan, p.energy))
            .collect();
        assert_eq!(pairs, vec![(4, 8.0)]);
    }

    #[test]
    fn infeasible_energy_cap_returns_nothing() {
        // Minimum total energy is 8; a cap of 6 admits no schedule.
        let instance = tradeoff_instance(Some(6.0));
        assert_eq!(brute_force_makespan(&instance), None);
        assert!(brute_force_pareto(&instance).is_empty());
    }

    #[test]
    fn pareto_matches_the_exact_solver_ladder() {
        let instance = tradeoff_instance(None);
        let bf = brute_force_pareto(&instance);
        let front = hilp_sched::solve_pareto(&instance, &SolverConfig::exact()).expect("feasible");
        assert!(front.complete);
        let solver: Vec<(u32, f64)> = front
            .points
            .iter()
            .map(|p| (p.makespan, p.energy))
            .collect();
        let brute: Vec<(u32, f64)> = bf.iter().map(|p| (p.makespan, p.energy)).collect();
        assert_eq!(solver, brute);
    }

    #[test]
    fn matches_exact_solver_on_a_six_task_resource_instance() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let llc = b.add_resource("llc", 10.0);
        let mut tasks = Vec::new();
        for t in 0..6 {
            let machine = if t % 2 == 0 { m0 } else { m1 };
            tasks.push(b.add_task(
                format!("t{t}"),
                vec![Mode::on(machine, 2 + (t as u32 % 3))
                    .power(2.0)
                    .uses(llc, 6.0)],
            ));
        }
        b.add_precedence(tasks[0], tasks[2]);
        b.add_precedence(tasks[1], tasks[3]);
        b.set_power_cap(7.5);
        let instance = b.build().expect("valid");
        let bf = brute_force_schedule(&instance).expect("feasible");
        assert!(bf.schedule.verify(&instance).is_empty());
        let exact = solve_exact(&instance, &SolverConfig::exact()).expect("solver feasible");
        assert!(exact.proved_optimal);
        assert_eq!(bf.makespan, exact.makespan);
    }
}
