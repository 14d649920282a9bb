//! Exact branch and bound over serial-SGS decisions, parallel and
//! deterministic.
//!
//! Each node of the search tree extends a partial schedule by dispatching
//! one *ready* task (all predecessors scheduled) in one of its modes at the
//! earliest feasible start. Enumerating every precedence-feasible dispatch
//! order and mode assignment generates all active schedules, a class known
//! to contain an optimal schedule for makespan minimization; exhausting the
//! tree therefore proves optimality.
//!
//! # Round-based frontier search
//!
//! Instead of a recursive depth-first walk, the search keeps an explicit
//! *frontier* — the roots of every unexplored subtree, as compact decision
//! paths — in depth-first preorder (lexicographic path) order, and expands
//! it in synchronous rounds:
//!
//! 1. At round start the engine charges the budget for the first
//!    `min(ROUND_CHUNK, frontier)` nodes (allocation-style: the charge is
//!    truncated to whatever the node budgets still allow, so the logical
//!    truncation point is a pure function of the instance and the budget).
//! 2. The charged batch is expanded — serially, or by a pool of persistent
//!    workers claiming batch indices through a work-stealing
//!    [`hilp_parallel::WorkQueue`]. Every item is processed against the
//!    *round-start* incumbent snapshot, so no outcome depends on how items
//!    interleave across workers.
//! 3. Outcomes are merged at a barrier in batch-index order: leaves update
//!    the incumbent under the same strict-improvement rule a depth-first
//!    walk applies (merge order *is* DFS order), and surviving children
//!    replace their parents at the front of the frontier, which provably
//!    preserves preorder (frontier paths are mutually prefix-free, so
//!    extending an earlier path cannot reorder it past a later one).
//!
//! The whole trajectory — expansions, prunes, incumbents, truncation — is
//! therefore **bit-identical for any worker count**, including under node
//! budgets. Deadlines and cancellation are observed cooperatively per item
//! and remain wall-clock-dependent, exactly as for the serial engine.
//!
//! The search is anytime: when a node budget runs out it reports the best
//! incumbent together with a still-valid lower bound (the minimum bound
//! over abandoned subtrees), mirroring the optimality-bound contract of the
//! ILP solver used in the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::bounds::tails;
use crate::instance::{EdgeKind, Instance, ModeId, TaskId};
use crate::schedule::Schedule;
use crate::sgs::{EnergyFilter, Timetable, TimetableKind};
use hilp_budget::{Budget, BudgetKind};
use hilp_parallel::WorkQueue;
use hilp_telemetry::{Counter, IncumbentSource, PruneReason, Telemetry};

/// Frontier items charged (and expanded) per round. A fixed constant —
/// independent of the worker count — so the budget's logical truncation
/// point, and with it every result, is identical for any parallelism.
/// 64 items amortize the round barrier across workers while keeping the
/// incumbent snapshot at most one round stale.
const ROUND_CHUNK: usize = 64;

pub(crate) struct BnbResult {
    pub best: Option<Schedule>,
    /// Valid lower bound on the optimal makespan.
    pub lower_bound: u32,
    /// True when the tree was exhausted (the incumbent is optimal).
    pub complete: bool,
    /// Frontier nodes expanded (charged against the budgets).
    pub nodes: u64,
    /// Which unified-budget constraint stopped the search, when one did.
    /// The legacy `node_budget` cap reports through `complete` alone.
    pub truncated: Option<BudgetKind>,
}

/// One unexplored subtree root: the decision sequence that reaches it and
/// the lower bound computed when it was generated. Replaying `path`
/// through [`Scratch`] reconstructs the node's full partial schedule.
struct Node {
    path: Vec<(u16, u16)>,
    bound: u32,
}

/// What one worker concluded about one batch item. Everything the merge
/// needs is captured here, so merging is pure, ordered bookkeeping.
enum ItemOutcome {
    /// The node's own bound met the round-start incumbent.
    Pruned,
    /// The node was expanded into children and (maybe) complete leaves.
    Expanded {
        children: Vec<Node>,
        /// Best complete schedule generated under this item (strictly
        /// better than the round-start incumbent), with its makespan.
        best_leaf: Option<(u32, Schedule)>,
        /// Mode choices with no feasible start.
        infeasible: u64,
        /// Children whose generation-time bound met the snapshot.
        pruned_children: u64,
    },
    /// A deadline or cancellation was observed before the item ran; the
    /// item's subtree is abandoned unexplored.
    Abandoned(BudgetKind),
}

/// Worker-owned replay state: one timetable plus the serial-SGS arrays,
/// reused across items (replay places a path's decisions, rewind removes
/// them), so per-item setup is O(depth), not O(instance).
struct Scratch<'a> {
    instance: &'a Instance,
    tails: &'a [u32],
    /// Optional whole-schedule energy budget: mode choices are filtered by
    /// the reservation test, so the enumerated tree contains exactly the
    /// budget-feasible mode assignments.
    energy: Option<&'a EnergyFilter>,
    timetable: Timetable<'a>,
    starts: Vec<u32>,
    modes: Vec<ModeId>,
    finish: Vec<Option<u32>>,
    remaining_preds: Vec<usize>,
    scheduled: usize,
    /// Reused buffers for [`Self::node_bound`].
    lb_start: Vec<u32>,
    lb_finish: Vec<u32>,
}

impl<'a> Scratch<'a> {
    fn new(
        instance: &'a Instance,
        tails: &'a [u32],
        energy: Option<&'a EnergyFilter>,
        timetable: TimetableKind,
    ) -> Self {
        let n = instance.num_tasks();
        Scratch {
            instance,
            tails,
            energy,
            timetable: Timetable::with_kind(instance, timetable),
            starts: vec![0; n],
            modes: vec![ModeId(0); n],
            finish: vec![None; n],
            remaining_preds: (0..n)
                .map(|t| instance.predecessors(TaskId(t)).len())
                .collect(),
            scheduled: 0,
            lb_start: vec![0; n],
            lb_finish: vec![0; n],
        }
    }

    /// `(spent, reserved)` energy of the current partial schedule:
    /// recomputed from the scheduled set in task-index order rather than
    /// maintained incrementally, so the floating-point value is a pure
    /// function of the set (replay/rewind cycles on different workers
    /// would otherwise accumulate different rounding histories and make
    /// admissibility worker-dependent).
    fn energy_state(&self, filter: &EnergyFilter) -> (f64, f64) {
        let mut spent = 0.0f64;
        let mut reserved = 0.0f64;
        for t in 0..self.instance.num_tasks() {
            if self.finish[t].is_some() {
                spent += self.instance.task(TaskId(t)).modes[self.modes[t].0].energy();
            } else {
                reserved += filter.min_energy(t);
            }
        }
        (spent, reserved)
    }

    /// Earliest precedence-feasible start for a ready task.
    fn est(&self, task: TaskId) -> u32 {
        self.instance
            .incoming(task)
            .iter()
            .map(|e| match e.kind {
                EdgeKind::FinishToStart => {
                    self.finish[e.before.0].expect("ready tasks have scheduled predecessors")
                        + e.lag
                }
                EdgeKind::StartToStart => self.starts[e.before.0] + e.lag,
            })
            .max()
            .unwrap_or(0)
    }

    fn place(&mut self, t: usize, m: usize, start: u32, duration: u32) {
        self.starts[t] = start;
        self.modes[t] = ModeId(m);
        self.finish[t] = Some(start + duration);
        for s in self.instance.successors(TaskId(t)).to_vec() {
            self.remaining_preds[s.0] -= 1;
        }
        self.scheduled += 1;
    }

    fn unplace(&mut self, t: usize) {
        self.scheduled -= 1;
        for s in self.instance.successors(TaskId(t)).to_vec() {
            self.remaining_preds[s.0] += 1;
        }
        self.finish[t] = None;
    }

    /// Replays a node's decision path. Each step re-derives the same
    /// earliest start the step was generated with (the derivation is a
    /// pure function of the prefix), so the reconstruction is exact.
    fn replay(&mut self, path: &[(u16, u16)]) {
        for &(t, m) in path {
            let task = TaskId(t as usize);
            let est = self.est(task);
            let mode = self.instance.task(task).modes[m as usize].clone();
            let start = self
                .timetable
                .earliest_start(&mode, est)
                .expect("recorded decisions stay feasible on replay");
            self.timetable.place(&mode, start);
            self.place(t as usize, m as usize, start, mode.duration);
        }
    }

    /// Removes a replayed path again (in reverse), restoring the empty
    /// schedule for the next item.
    fn rewind(&mut self, path: &[(u16, u16)]) {
        for &(t, m) in path.iter().rev() {
            let task = TaskId(t as usize);
            let mode = self.instance.task(task).modes[m as usize].clone();
            self.timetable.unplace(&mode, self.starts[t as usize]);
            self.unplace(t as usize);
        }
    }

    /// Lower bound for the current partial schedule: every unscheduled task
    /// must still run its minimum-duration remaining chain after its
    /// earliest possible start, and scheduled tasks fix their finish times.
    fn node_bound(&mut self) -> u32 {
        let mut bound = 0u32;
        // Earliest possible starts/finishes along the fixed topological
        // order, honoring finish-to-start and start-to-start lags.
        for &task in self.instance.topological_order() {
            let t = task.0;
            self.lb_start[t] = match self.finish[t] {
                Some(_) => self.starts[t],
                None => self
                    .instance
                    .incoming(task)
                    .iter()
                    .map(|e| match e.kind {
                        EdgeKind::FinishToStart => self.lb_finish[e.before.0] + e.lag,
                        EdgeKind::StartToStart => self.lb_start[e.before.0] + e.lag,
                    })
                    .max()
                    .unwrap_or(0),
            };
            self.lb_finish[t] = match self.finish[t] {
                Some(f) => f,
                None => self.lb_start[t] + self.instance.min_duration(task),
            };
            // The workload cannot complete before this task's remaining
            // subtree does. `tails` is measured from the task's *start*
            // (it may begin with a start-to-start lag), so it anchors to
            // the start time even for scheduled tasks; their actual finish
            // is a second valid floor. Downstream tightness comes from the
            // lb_start/lb_finish propagation of actual finishes.
            let completion = match self.finish[t] {
                Some(f) => f.max(self.starts[t] + self.tails[t]),
                None => self.lb_start[t] + self.tails[t],
            };
            bound = bound.max(completion);
        }
        bound
    }

    /// Expands one frontier item against the round-start incumbent
    /// snapshot. Deterministic with respect to everything that varies
    /// across workers: the outcome depends only on the item, the
    /// snapshot, and the instance (wall-clock interrupts excepted).
    fn process(&mut self, node: &Node, snapshot: Option<u32>, budget: &Budget) -> ItemOutcome {
        // Cooperative drain: deadlines and cancellation stop workers
        // mid-round (wall-clock constraints are non-deterministic by
        // nature); the node meter is never observed here, keeping node
        // budgets thread-independent.
        if let Err(kind) = budget.check_interrupt() {
            return ItemOutcome::Abandoned(kind);
        }
        if snapshot.is_some_and(|best| node.bound >= best) {
            return ItemOutcome::Pruned;
        }
        let n = self.instance.num_tasks();
        self.replay(&node.path);
        let mut children = Vec::new();
        let mut best_leaf: Option<(u32, Schedule)> = None;
        let mut infeasible = 0u64;
        let mut pruned_children = 0u64;
        if self.scheduled == n {
            // Only the root of a zero-task instance can arrive complete.
            let makespan = self.finish.iter().flatten().copied().max().unwrap_or(0);
            if snapshot.is_none_or(|best| makespan < best) {
                best_leaf = Some((
                    makespan,
                    Schedule {
                        starts: self.starts.clone(),
                        modes: self.modes.clone(),
                    },
                ));
            }
        }
        let energy_state = self.energy.map(|f| self.energy_state(f));
        for t in 0..n {
            if self.finish[t].is_some() || self.remaining_preds[t] != 0 {
                continue;
            }
            let task = TaskId(t);
            let est = self.est(task);
            let num_modes = self.instance.task(task).modes.len();
            for m in 0..num_modes {
                let mode = self.instance.task(task).modes[m].clone();
                if let (Some(f), Some((spent, reserved))) = (self.energy, energy_state) {
                    // Reservation test: even with every other unscheduled
                    // task at its cheapest, this mode must fit the budget.
                    if !f.admissible(spent, reserved, t, mode.energy()) {
                        infeasible += 1;
                        continue;
                    }
                }
                let Some(start) = self.timetable.earliest_start(&mode, est) else {
                    infeasible += 1;
                    continue;
                };
                self.timetable.place(&mode, start);
                self.place(t, m, start, mode.duration);
                if self.scheduled == n {
                    let makespan = self
                        .finish
                        .iter()
                        .map(|f| f.expect("all tasks scheduled"))
                        .max()
                        .unwrap_or(0);
                    // A leaf can only become the incumbent if it beats the
                    // snapshot (the merged incumbent is never looser), so
                    // the schedule is cloned only for genuine candidates.
                    if snapshot.is_none_or(|best| makespan < best)
                        && best_leaf.as_ref().is_none_or(|(mk, _)| makespan < *mk)
                    {
                        best_leaf = Some((
                            makespan,
                            Schedule {
                                starts: self.starts.clone(),
                                modes: self.modes.clone(),
                            },
                        ));
                    }
                } else {
                    let bound = self.node_bound();
                    if snapshot.is_some_and(|best| bound >= best) {
                        pruned_children += 1;
                    } else {
                        let mut path = Vec::with_capacity(node.path.len() + 1);
                        path.extend_from_slice(&node.path);
                        path.push((t as u16, m as u16));
                        children.push(Node { path, bound });
                    }
                }
                self.unplace(t);
                self.timetable.unplace(&mode, start);
            }
        }
        self.rewind(&node.path);
        ItemOutcome::Expanded {
            children,
            best_leaf,
            infeasible,
            pruned_children,
        }
    }
}

/// How a round's batch gets expanded: serially on the calling thread, or
/// by the persistent worker pool.
trait Executor {
    fn run_batch(&mut self, batch: &Arc<Vec<Node>>, snapshot: Option<u32>) -> Vec<ItemOutcome>;
}

struct SerialExecutor<'a> {
    scratch: Scratch<'a>,
    budget: &'a Budget,
}

impl Executor for SerialExecutor<'_> {
    fn run_batch(&mut self, batch: &Arc<Vec<Node>>, snapshot: Option<u32>) -> Vec<ItemOutcome> {
        batch
            .iter()
            .map(|node| self.scratch.process(node, snapshot, self.budget))
            .collect()
    }
}

/// One published round: the batch, the round-start incumbent snapshot,
/// the index queue workers claim from, and the outcome slots they fill.
/// Cloning is an `Arc` bump per field, so workers can lift the install
/// out of the pool's lock and run on it without holding the lock.
#[derive(Clone)]
struct RoundInstall {
    batch: Arc<Vec<Node>>,
    snapshot: Option<u32>,
    queue: Arc<WorkQueue>,
    outcomes: Arc<Vec<Mutex<Option<ItemOutcome>>>>,
}

/// Round handoff between the coordinator and the persistent workers: the
/// coordinator publishes a [`RoundInstall`], everyone meets at the
/// barrier, all threads (coordinator included) drain the queue, and a
/// second barrier hands the filled outcome slots back.
struct Pool {
    barrier: Barrier,
    round: Mutex<Option<RoundInstall>>,
    done: AtomicBool,
    steals: AtomicU64,
}

impl Pool {
    fn new(threads: usize) -> Self {
        Pool {
            barrier: Barrier::new(threads),
            round: Mutex::new(None),
            done: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        }
    }

    /// One thread's share of a round: drain the queue, fill outcome slots.
    fn work(
        &self,
        worker: usize,
        install: &RoundInstall,
        scratch: &mut Scratch<'_>,
        budget: &Budget,
    ) {
        while let Some((i, stolen)) = install.queue.take(worker) {
            if stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            let outcome = scratch.process(&install.batch[i], install.snapshot, budget);
            *install.outcomes[i].lock().expect("outcome slot") = Some(outcome);
        }
    }
}

struct PoolExecutor<'pool, 'a> {
    pool: &'pool Pool,
    threads: usize,
    scratch: Scratch<'a>,
    budget: &'a Budget,
}

impl Executor for PoolExecutor<'_, '_> {
    fn run_batch(&mut self, batch: &Arc<Vec<Node>>, snapshot: Option<u32>) -> Vec<ItemOutcome> {
        let mut slots = Vec::new();
        slots.resize_with(batch.len(), || Mutex::new(None));
        let install = RoundInstall {
            batch: batch.clone(),
            snapshot,
            queue: Arc::new(WorkQueue::new((0..batch.len()).collect(), self.threads)),
            outcomes: Arc::new(slots),
        };
        *self.pool.round.lock().expect("round state") = Some(install.clone());
        self.pool.barrier.wait();
        self.pool.work(0, &install, &mut self.scratch, self.budget);
        self.pool.barrier.wait();
        // All workers passed the second barrier, so every slot is filled
        // and nobody writes anymore.
        install
            .outcomes
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("outcome slot")
                    .take()
                    .expect("every batch index was claimed and processed")
            })
            .collect()
    }
}

/// The deterministic round loop shared by the serial and parallel paths.
fn run_rounds(
    incumbent: Option<(u32, Schedule)>,
    node_budget: u64,
    budget: &Budget,
    executor: &mut dyn Executor,
    root_bound: u32,
    tel: &Telemetry,
) -> BnbResult {
    let mut incumbent = incumbent;
    let mut frontier = vec![Node {
        path: Vec::new(),
        bound: root_bound,
    }];
    let mut nodes = 0u64;
    let mut abandoned_bound = u32::MAX;
    let mut exhausted = false;
    let mut truncated: Option<BudgetKind> = None;

    while !frontier.is_empty() {
        // Wall-clock constraints are observed between rounds (and by the
        // workers per item); everything already merged stays valid.
        if let Err(kind) = budget.check_interrupt() {
            truncated = Some(kind);
            exhausted = true;
            for node in &frontier {
                abandoned_bound = abandoned_bound.min(node.bound);
            }
            break;
        }
        let want = frontier.len().min(ROUND_CHUNK);
        // Allocation-style charge: take what the node budgets still allow,
        // up front. The truncation point is a pure function of the budgets
        // and the (deterministic) trajectory so far — no worker
        // interleaving can move it.
        let legacy_remaining = node_budget.saturating_sub(nodes);
        let unified_remaining = budget.remaining_nodes();
        let allowed = (want as u64).min(legacy_remaining).min(unified_remaining) as usize;
        match budget.charge(allowed as u64) {
            Ok(()) => {
                if allowed < want {
                    exhausted = true;
                    // The unified meter reports through `truncated`; the
                    // legacy cap (checked first, like the old recursive
                    // engine) reports through `complete` alone.
                    if unified_remaining < legacy_remaining {
                        truncated = Some(BudgetKind::Nodes);
                    }
                }
            }
            Err(kind) => {
                truncated = Some(kind);
                exhausted = true;
                for node in &frontier {
                    abandoned_bound = abandoned_bound.min(node.bound);
                }
                break;
            }
        }
        nodes += allowed as u64;
        if allowed == 0 {
            for node in &frontier {
                abandoned_bound = abandoned_bound.min(node.bound);
            }
            tel.incr(Counter::BnbPrunesBudget);
            tel.prune(PruneReason::Budget, nodes, f64::from(abandoned_bound));
            break;
        }
        tel.incr(Counter::BnbRounds);

        let rest = frontier.split_off(allowed);
        let batch = Arc::new(frontier);
        let snapshot = incumbent.as_ref().map(|(m, _)| *m);
        let outcomes = executor.run_batch(&batch, snapshot);

        // Deterministic merge in batch-index order — exactly the order a
        // serial depth-first walk would visit these subtrees.
        let mut next: Vec<Node> = Vec::new();
        let mut prunes = 0u64;
        let mut infeasible_total = 0u64;
        for (node, outcome) in batch.iter().zip(outcomes) {
            match outcome {
                ItemOutcome::Pruned => {
                    prunes += 1;
                    tel.prune(PruneReason::Bound, nodes, f64::from(node.bound));
                }
                ItemOutcome::Expanded {
                    children,
                    best_leaf,
                    infeasible,
                    pruned_children,
                } => {
                    prunes += pruned_children;
                    infeasible_total += infeasible;
                    if let Some((makespan, schedule)) = best_leaf {
                        if incumbent.as_ref().is_none_or(|(m, _)| makespan < *m) {
                            incumbent = Some((makespan, schedule));
                            tel.incr(Counter::BnbIncumbents);
                            tel.incumbent(IncumbentSource::Bnb, nodes, f64::from(makespan));
                        }
                    }
                    next.extend(children);
                }
                ItemOutcome::Abandoned(kind) => {
                    truncated = truncated.or(Some(kind));
                    exhausted = true;
                    abandoned_bound = abandoned_bound.min(node.bound);
                }
            }
        }
        tel.add(Counter::BnbPrunesBound, prunes);
        tel.add(Counter::BnbPrunesInfeasible, infeasible_total);
        next.extend(rest);
        frontier = next;
        if exhausted {
            // Whatever the batch generated (and whatever was never
            // charged) is abandoned unexplored; fold its bounds so the
            // reported lower bound stays valid.
            for node in &frontier {
                abandoned_bound = abandoned_bound.min(node.bound);
            }
            tel.incr(Counter::BnbPrunesBudget);
            tel.prune(PruneReason::Budget, nodes, f64::from(abandoned_bound));
            break;
        }
    }

    tel.add(Counter::BnbNodes, nodes);
    let complete = !exhausted;
    let (best, best_makespan) = match incumbent {
        Some((m, s)) => (Some(s), m),
        None => (None, u32::MAX),
    };
    let lower_bound = if complete {
        best_makespan
    } else {
        // Abandoned subtrees could hide schedules as short as their bound;
        // everything else was either explored or pruned against an
        // incumbent no looser than the final one, so pruned subtrees
        // cannot beat it. The proven bound is therefore min(incumbent,
        // abandoned bounds), also floored by the initial combinatorial
        // bound handled by the caller.
        best_makespan.min(abandoned_bound)
    };
    BnbResult {
        best,
        lower_bound,
        complete,
        nodes,
        truncated,
    }
}

/// Exhaustive (budgeted) search for an optimal schedule.
///
/// `initial_incumbent` seeds pruning (typically the heuristic solution);
/// `initial_bound` is a pre-computed lower bound used to stop early when an
/// incumbent matches it. `energy_cap` restricts the enumeration to mode
/// assignments within a whole-schedule energy budget (`None` reproduces the
/// unconstrained search bit for bit). `threads` sets the worker count
/// (clamped to at least one); the result is bit-identical for every value.
#[allow(clippy::too_many_arguments)]
pub(crate) fn branch_and_bound(
    instance: &Instance,
    initial_incumbent: Option<Schedule>,
    initial_bound: u32,
    node_budget: u64,
    budget: &Budget,
    timetable: TimetableKind,
    threads: usize,
    energy_cap: Option<f64>,
    tel: &Telemetry,
) -> BnbResult {
    let filter = energy_cap.map(|cap| EnergyFilter::new(instance, cap));
    let energy = filter.as_ref();
    let incumbent = initial_incumbent.map(|s| (s.makespan(instance), s));
    // Stop immediately when the incumbent already matches the lower bound.
    if let Some((makespan, schedule)) = &incumbent {
        if *makespan <= initial_bound {
            return BnbResult {
                best: Some(schedule.clone()),
                lower_bound: *makespan,
                complete: true,
                nodes: 0,
                truncated: None,
            };
        }
    }

    let tails = tails(instance);
    let mut root_scratch = Scratch::new(instance, &tails, energy, timetable);
    let root_bound = root_scratch.node_bound();
    let threads = threads.max(1);
    if threads == 1 {
        let mut executor = SerialExecutor {
            scratch: root_scratch,
            budget,
        };
        return run_rounds(
            incumbent,
            node_budget,
            budget,
            &mut executor,
            root_bound,
            tel,
        );
    }

    let pool = Pool::new(threads);
    crossbeam::thread::scope(|scope| {
        for worker in 1..threads {
            let pool = &pool;
            let tails = &tails;
            scope.spawn(move |_| {
                let mut scratch = Scratch::new(instance, tails, energy, timetable);
                loop {
                    pool.barrier.wait();
                    if pool.done.load(Ordering::Acquire) {
                        break;
                    }
                    let install = pool.round.lock().expect("round state").clone();
                    if let Some(install) = install {
                        pool.work(worker, &install, &mut scratch, budget);
                    }
                    pool.barrier.wait();
                }
            });
        }
        let mut executor = PoolExecutor {
            pool: &pool,
            threads,
            scratch: root_scratch,
            budget,
        };
        let result = run_rounds(
            incumbent,
            node_budget,
            budget,
            &mut executor,
            root_bound,
            tel,
        );
        pool.done.store(true, Ordering::Release);
        pool.barrier.wait();
        tel.add(Counter::BnbSteals, pool.steals.load(Ordering::Relaxed));
        result
    })
    .expect("search workers do not panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::HeuristicParams;
    use crate::instance::{InstanceBuilder, Mode};

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

    fn solve(inst: &Instance, threads: usize) -> BnbResult {
        branch_and_bound(
            inst,
            None,
            0,
            10_000_000,
            &Budget::unlimited(),
            TimetableKind::Event,
            threads,
            None,
            &Telemetry::disabled(),
        )
    }

    #[test]
    fn proves_the_figure2_optimum() {
        // Every timetable representation must reach (and prove) the same
        // optimum — the exact search is representation-independent.
        let inst = figure2_instance();
        for kind in [TimetableKind::Event, TimetableKind::Dense] {
            let result = branch_and_bound(
                &inst,
                None,
                0,
                10_000_000,
                &Budget::unlimited(),
                kind,
                1,
                None,
                &Telemetry::disabled(),
            );
            assert!(result.complete, "{kind:?} search incomplete");
            let best = result.best.unwrap();
            assert!(best.verify(&inst).is_empty());
            assert_eq!(best.makespan(&inst), 7, "{kind:?} missed the optimum");
            assert_eq!(result.lower_bound, 7);
        }
    }

    #[test]
    fn every_worker_count_is_bit_identical() {
        let inst = figure2_instance();
        let reference = solve(&inst, 1);
        assert!(reference.complete);
        assert_eq!(reference.best.as_ref().unwrap().makespan(&inst), 7);
        for threads in [2, 3, 4, 8] {
            let result = solve(&inst, threads);
            assert_eq!(result.best, reference.best, "{threads} workers diverged");
            assert_eq!(result.lower_bound, reference.lower_bound);
            assert_eq!(result.nodes, reference.nodes);
            assert_eq!(result.complete, reference.complete);
            assert_eq!(result.truncated, reference.truncated);
        }
    }

    #[test]
    fn budgeted_truncation_is_bit_identical_across_worker_counts() {
        // The allocation-style round charge puts the truncation point at
        // the same logical node for every worker count, so even *partial*
        // searches agree bit for bit.
        let inst = figure2_instance();
        for budget_nodes in [1, 3, 5, 17, 64, 200] {
            let run = |threads: usize| {
                branch_and_bound(
                    &inst,
                    None,
                    0,
                    u64::MAX,
                    &Budget::nodes(budget_nodes),
                    TimetableKind::Event,
                    threads,
                    None,
                    &Telemetry::disabled(),
                )
            };
            let reference = run(1);
            for threads in [2, 4, 8] {
                let result = run(threads);
                assert_eq!(
                    result.best, reference.best,
                    "budget {budget_nodes}, {threads} workers"
                );
                assert_eq!(result.lower_bound, reference.lower_bound);
                assert_eq!(result.nodes, reference.nodes);
                assert_eq!(result.complete, reference.complete);
                assert_eq!(result.truncated, reference.truncated);
            }
        }
    }

    #[test]
    fn power_constrained_figure3_optimum_is_nine() {
        // Figure 3: CPU 1 W, GPU 3 W, DSA 2 W, budget 3 W. The GPU can no
        // longer run alongside the DSA; the optimum grows from 7 to 9.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        let add_app = |b: &mut InstanceBuilder, name: &str, cpu_t, gpu_t, dsa_t| {
            let s = b.add_task(format!("{name}0"), vec![Mode::on(cpu, 1).power(1.0)]);
            let c = b.add_task(
                format!("{name}1"),
                vec![
                    Mode::on(cpu, cpu_t).power(1.0),
                    Mode::on(gpu, gpu_t).power(3.0),
                    Mode::on(dsa, dsa_t).power(2.0),
                ],
            );
            let t = b.add_task(format!("{name}2"), vec![Mode::on(cpu, 1).power(1.0)]);
            b.add_precedence(s, c);
            b.add_precedence(c, t);
        };
        add_app(&mut b, "m", 8, 6, 5);
        add_app(&mut b, "n", 5, 3, 2);
        b.set_power_cap(3.0);
        b.set_horizon(30);
        let inst = b.build().unwrap();
        for threads in [1, 4] {
            let result = branch_and_bound(
                &inst,
                None,
                0,
                50_000_000,
                &Budget::unlimited(),
                TimetableKind::Event,
                threads,
                None,
                &Telemetry::disabled(),
            );
            assert!(result.complete);
            let best = result.best.unwrap();
            assert!(best.verify(&inst).is_empty());
            assert_eq!(best.makespan(&inst), 9);
        }
    }

    #[test]
    fn incumbent_seeds_pruning() {
        let inst = figure2_instance();
        let heuristic = crate::heuristic::multi_start(
            &inst,
            &HeuristicParams {
                starts: 100,
                local_search_passes: 2,
                seed: 1,
                threads: 1,
                timetable: TimetableKind::Event,
                warm_priority: None,
                target_bound: None,
                budget: Budget::unlimited(),
                energy_cap: None,
            },
        )
        .unwrap();
        let seeded = branch_and_bound(
            &inst,
            Some(heuristic),
            0,
            10_000_000,
            &Budget::unlimited(),
            TimetableKind::Event,
            1,
            None,
            &Telemetry::disabled(),
        );
        let unseeded = solve(&inst, 1);
        assert!(seeded.complete && unseeded.complete);
        assert_eq!(
            seeded.best.unwrap().makespan(&inst),
            unseeded.best.unwrap().makespan(&inst)
        );
        assert!(seeded.nodes <= unseeded.nodes);
    }

    #[test]
    fn matching_bound_short_circuits() {
        let inst = figure2_instance();
        let heuristic = crate::heuristic::multi_start(
            &inst,
            &HeuristicParams {
                starts: 200,
                local_search_passes: 2,
                seed: 1,
                threads: 1,
                timetable: TimetableKind::Event,
                warm_priority: None,
                target_bound: None,
                budget: Budget::unlimited(),
                energy_cap: None,
            },
        )
        .unwrap();
        // The heuristic finds 7; telling B&B the bound is 7 must stop it
        // before exploring anything.
        let result = branch_and_bound(
            &inst,
            Some(heuristic),
            7,
            10_000_000,
            &Budget::unlimited(),
            TimetableKind::Event,
            1,
            None,
            &Telemetry::disabled(),
        );
        assert!(result.complete);
        assert_eq!(result.nodes, 0);
        assert_eq!(result.lower_bound, 7);
    }

    #[test]
    fn budget_exhaustion_reports_valid_bound() {
        let inst = figure2_instance();
        let result = branch_and_bound(
            &inst,
            None,
            0,
            5,
            &Budget::unlimited(),
            TimetableKind::Event,
            1,
            None,
            &Telemetry::disabled(),
        );
        assert!(!result.complete);
        assert!(
            result.lower_bound <= 7,
            "bound {} must not exceed the optimum",
            result.lower_bound
        );
    }

    /// Ports of the MILP limit tests (see `hilp-milp::solver::limit_tests`)
    /// to the scheduling branch and bound, exercising the same unified
    /// [`Budget`] vocabulary.
    fn budgeted(inst: &Instance, budget: &Budget) -> BnbResult {
        branch_and_bound(
            inst,
            None,
            0,
            u64::MAX,
            budget,
            TimetableKind::Event,
            1,
            None,
            &Telemetry::disabled(),
        )
    }

    #[test]
    fn unified_node_budget_truncates_soundly() {
        let inst = figure2_instance();
        let result = budgeted(&inst, &Budget::nodes(5));
        assert!(!result.complete);
        assert_eq!(result.truncated, Some(BudgetKind::Nodes));
        assert!(
            result.nodes <= 5,
            "expanded {} nodes on a budget of 5",
            result.nodes
        );
        assert!(
            result.lower_bound <= 7,
            "bound {} must not exceed the optimum",
            result.lower_bound
        );
    }

    #[test]
    fn identical_unified_node_budgets_are_bit_identical() {
        let inst = figure2_instance();
        let a = budgeted(&inst, &Budget::nodes(50));
        let b = budgeted(&inst, &Budget::nodes(50));
        assert_eq!(a.best, b.best);
        assert_eq!(a.lower_bound, b.lower_bound);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.truncated, b.truncated);
    }

    #[test]
    fn cancelled_budget_stops_at_the_root() {
        let inst = figure2_instance();
        let token = hilp_budget::CancelToken::new();
        token.cancel();
        let result = budgeted(&inst, &Budget::unlimited().with_cancel(token));
        assert!(!result.complete);
        assert_eq!(result.truncated, Some(BudgetKind::Cancelled));
        assert_eq!(result.nodes, 0, "no node may be expanded after cancel");
        assert!(result.lower_bound <= 7);
    }

    #[test]
    fn mid_search_cancellation_drains_every_worker_count() {
        // Cancellation raised *during* the search (from another thread, as
        // the sweep's kill switch does) must drain cooperatively: workers
        // stop at the next item, the merge stays ordered, and the result
        // still carries a sound bound. Which round observes the token is
        // wall-clock-dependent by nature, so only soundness is asserted.
        let inst = figure2_instance();
        for threads in [1, 2, 8] {
            let token = hilp_budget::CancelToken::new();
            let budget = Budget::unlimited().with_cancel(token.clone());
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(50));
                token.cancel();
            });
            let result = branch_and_bound(
                &inst,
                None,
                0,
                u64::MAX,
                &budget,
                TimetableKind::Event,
                threads,
                None,
                &Telemetry::disabled(),
            );
            canceller.join().unwrap();
            if result.complete {
                // The search can legitimately win the race.
                assert_eq!(result.best.as_ref().unwrap().makespan(&inst), 7);
                assert_eq!(result.lower_bound, 7);
            } else {
                assert_eq!(result.truncated, Some(BudgetKind::Cancelled));
                assert!(result.lower_bound <= 7, "{threads} workers");
            }
            if let Some(best) = &result.best {
                assert!(best.verify(&inst).is_empty());
            }
        }
    }

    #[test]
    fn zero_deadline_budget_stops_at_the_root() {
        let inst = figure2_instance();
        let result = budgeted(&inst, &Budget::deadline(std::time::Duration::ZERO));
        assert!(!result.complete);
        assert_eq!(result.truncated, Some(BudgetKind::Deadline));
        assert!(result.lower_bound <= 7);
    }

    #[test]
    fn generous_unified_budget_still_proves_optimality() {
        let inst = figure2_instance();
        let unbudgeted = budgeted(&inst, &Budget::unlimited());
        let result = budgeted(&inst, &Budget::nodes(1_000_000));
        assert!(result.complete);
        assert_eq!(result.truncated, None);
        assert_eq!(result.best, unbudgeted.best);
        assert_eq!(result.lower_bound, 7);
    }

    #[test]
    fn start_to_start_tails_do_not_overprune() {
        // Regression (caught by the cross-stack property test): `tails`
        // of a start-to-start successor hangs off the predecessor's START;
        // anchoring it to the predecessor's finish overestimated the node
        // bound and pruned the true optimum. Optimal here is 8: t1 takes
        // its *slower* mode on m0 so that t2 can overlap on m1.
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let t0 = b.add_task("t0", vec![Mode::on(m0, 1)]);
        let t1 = b.add_task("t1", vec![Mode::on(m1, 4), Mode::on(m0, 5)]);
        let t2 = b.add_task("t2", vec![Mode::on(m0, 3), Mode::on(m1, 2)]);
        b.add_initiation_interval(t0, t1, 3);
        b.add_initiation_interval(t1, t2, 3);
        let inst = b.build().unwrap();
        for threads in [1, 4] {
            let result = branch_and_bound(
                &inst,
                None,
                0,
                1_000_000,
                &Budget::unlimited(),
                TimetableKind::Event,
                threads,
                None,
                &Telemetry::disabled(),
            );
            assert!(result.complete);
            let best = result.best.clone().unwrap();
            assert_eq!(best.makespan(&inst), 8);
            assert!(best.verify(&inst).is_empty());
        }
    }

    #[test]
    fn single_task_instances_are_trivial() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("only", vec![Mode::on(cpu, 4)]);
        b.set_horizon(10);
        let inst = b.build().unwrap();
        let result = branch_and_bound(
            &inst,
            None,
            0,
            1000,
            &Budget::unlimited(),
            TimetableKind::Event,
            1,
            None,
            &Telemetry::disabled(),
        );
        assert!(result.complete);
        assert_eq!(result.best.unwrap().makespan(&inst), 4);
    }
}
