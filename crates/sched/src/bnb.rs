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
//!    interleave across workers. A worker reaches its next item from the
//!    partial schedule of the last item it expanded: it rewinds the
//!    decisions past their longest common prefix and replays the rest, and
//!    since items come in preorder the next one is usually a sibling one
//!    decision away. Each child is bounded in O(1) from its parent's bound
//!    and its own start, without placing it on the timetable, and each
//!    mode is probed only up to the latest start whose child could
//!    survive the snapshot.
//! 3. Outcomes are merged at a barrier in batch-index order: leaves update
//!    the incumbent under the same strict-improvement rule a depth-first
//!    walk applies (merge order *is* DFS order), and surviving children
//!    replace their parents at the front of the frontier, which provably
//!    preserves preorder (frontier paths are mutually prefix-free, so
//!    extending an earlier path cannot reorder it past a later one). Once
//!    the merged incumbent meets the caller's lower bound it is optimal,
//!    and the search ends complete.
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

use crate::bounds::{critical_path_bound, tails};
use crate::instance::{EdgeKind, Instance, Mode, ModeId, TaskId};
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
/// its lower bound, equal to [`Scratch::node_bound_walk`] of the partial
/// schedule the path reaches. [`Scratch::move_to`]
/// reconstructs the node's full partial schedule from `path`, whichever
/// node the scratch held before.
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

/// How far past its start placing a task pushes a node's bound, computed
/// once per search.
///
/// A node's bound is the latest of its tasks' completion floors: a placed
/// task's actual finish and its start plus `tails`, an unplaced task's
/// earliest possible start plus `tails`. Placing a ready task `t` at `s`
/// in a mode of duration `d` moves only the floors of `t` itself
/// (`s + d`, `s + tails[t]`) and of its immediate successors (each
/// finish-to-start successor `x` may now start no earlier than
/// `s + d + lag`, a start-to-start one no earlier than `s + lag`).
/// Deeper descendants' floors are dominated by their ancestor's through
/// `tails`, and a start-to-start successor's floor by `s + tails[t]`
/// (`tails[t] >= lag + tails[x]`). So the child's bound is exactly
/// `max(parent bound, s + reach(t, d))`.
struct Reach {
    /// [`tails`]: a lower bound on the time from a task's start to
    /// workload completion.
    tails: Vec<u32>,
    /// Per task, the largest `lag + tails[x]` over its finish-to-start
    /// successors `x`, or 0 without one.
    succ_tail: Vec<u32>,
}

impl Reach {
    fn new(instance: &Instance) -> Self {
        let tails = tails(instance);
        let succ_tail = (0..instance.num_tasks())
            .map(|t| {
                instance
                    .outgoing(TaskId(t))
                    .iter()
                    .filter(|e| e.kind == EdgeKind::FinishToStart)
                    .map(|e| e.lag + tails[e.after.0])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        Reach { tails, succ_tail }
    }

    /// How far past its start task `t`, run for `duration`, pushes the
    /// bound of the node it is placed in.
    fn of(&self, t: usize, duration: u32) -> u32 {
        self.tails[t].max(duration + self.succ_tail[t])
    }
}

/// Worker-owned replay state: one timetable plus the serial-SGS arrays,
/// holding the partial schedule of one decision path. It stays on the
/// last expanded item's path between items, and [`Self::move_to`] places
/// and removes only the decisions in which the next item's path differs.
struct Scratch<'a> {
    instance: &'a Instance,
    reach: &'a Reach,
    /// Optional whole-schedule energy budget: mode choices are filtered by
    /// the reservation test, so the enumerated tree contains exactly the
    /// budget-feasible mode assignments.
    energy: Option<&'a EnergyFilter>,
    timetable: Timetable<'a>,
    /// The decisions the timetable and the arrays below hold, in order.
    path: Vec<(u16, u16)>,
    starts: Vec<u32>,
    modes: Vec<ModeId>,
    finish: Vec<Option<u32>>,
    remaining_preds: Vec<usize>,
    scheduled: usize,
}

impl<'a> Scratch<'a> {
    fn new(
        instance: &'a Instance,
        reach: &'a Reach,
        energy: Option<&'a EnergyFilter>,
        timetable: TimetableKind,
    ) -> Self {
        let n = instance.num_tasks();
        Scratch {
            instance,
            reach,
            energy,
            timetable: Timetable::with_kind(instance, timetable),
            path: Vec::new(),
            starts: vec![0; n],
            modes: vec![ModeId(0); n],
            finish: vec![None; n],
            remaining_preds: (0..n)
                .map(|t| instance.predecessors(TaskId(t)).len())
                .collect(),
            scheduled: 0,
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
        for s in self.instance.successors(TaskId(t)) {
            self.remaining_preds[s.0] -= 1;
        }
        self.scheduled += 1;
    }

    fn unplace(&mut self, t: usize) {
        self.scheduled -= 1;
        for s in self.instance.successors(TaskId(t)) {
            self.remaining_preds[s.0] += 1;
        }
        self.finish[t] = None;
    }

    /// Moves from the path the scratch holds to `path`: rewinds the held
    /// decisions past their longest common prefix, newest first, then
    /// replays the rest of `path`. Each replayed step re-derives the same
    /// earliest start the step was generated with (the derivation is a
    /// pure function of the prefix), so the reconstruction is exact.
    fn move_to(&mut self, path: &[(u16, u16)]) {
        let instance = self.instance;
        let common = self
            .path
            .iter()
            .zip(path)
            .take_while(|(held, wanted)| held == wanted)
            .count();
        while self.path.len() > common {
            let (t, m) = self.path.pop().expect("longer than the common prefix");
            let mode = &instance.task(TaskId(t as usize)).modes[m as usize];
            self.timetable.unplace(mode, self.starts[t as usize]);
            self.unplace(t as usize);
        }
        for &(t, m) in &path[common..] {
            let task = TaskId(t as usize);
            let est = self.est(task);
            let mode = &instance.task(task).modes[m as usize];
            let start = self
                .timetable
                .earliest_start(mode, est)
                .expect("recorded decisions stay feasible on replay");
            self.timetable.place(mode, start);
            self.place(t as usize, m as usize, start, mode.duration);
            self.path.push((t, m));
        }
    }

    /// Lower bound for the current partial schedule, walked from scratch
    /// in O(tasks + edges): every unscheduled task must still run its
    /// minimum-duration remaining chain after its earliest possible start,
    /// and scheduled tasks fix their finish times. The search bounds
    /// children in O(1) through [`Reach`] instead; this walk is the
    /// reference it must equal, checked in debug builds.
    fn node_bound_walk(&self) -> u32 {
        let n = self.instance.num_tasks();
        let tails = &self.reach.tails;
        let (mut lb_start, mut lb_finish) = (vec![0u32; n], vec![0u32; n]);
        let mut bound = 0u32;
        // Earliest possible starts/finishes along the fixed topological
        // order, honoring finish-to-start and start-to-start lags.
        for &task in self.instance.topological_order() {
            let t = task.0;
            lb_start[t] = match self.finish[t] {
                Some(_) => self.starts[t],
                None => self
                    .instance
                    .incoming(task)
                    .iter()
                    .map(|e| match e.kind {
                        EdgeKind::FinishToStart => lb_finish[e.before.0] + e.lag,
                        EdgeKind::StartToStart => lb_start[e.before.0] + e.lag,
                    })
                    .max()
                    .unwrap_or(0),
            };
            lb_finish[t] = match self.finish[t] {
                Some(f) => f,
                None => lb_start[t] + self.instance.min_duration(task),
            };
            // The workload cannot complete before this task's remaining
            // subtree does. `tails` is measured from the task's *start*
            // (it may begin with a start-to-start lag), so it anchors to
            // the start time even for scheduled tasks; their actual finish
            // is a second valid floor.
            let completion = match self.finish[t] {
                Some(f) => f.max(self.starts[t] + tails[t]),
                None => lb_start[t] + tails[t],
            };
            bound = bound.max(completion);
        }
        bound
    }

    /// Whether `mode` fits at some start in `[est, horizon - duration]`.
    /// Past `last_finish`, the latest finish placed so far, the timetable
    /// is empty, so a start there fits unless the mode alone breaks a cap
    /// or overruns the horizon; only then does the full search run.
    fn fits_somewhere(&self, mode: &Mode, est: u32, last_finish: u32) -> bool {
        let quiet = est.max(last_finish);
        let in_horizon =
            u64::from(quiet) + u64::from(mode.duration) <= u64::from(self.instance.horizon());
        (in_horizon && self.timetable.fits_at(mode, quiet).is_ok())
            || self.timetable.earliest_start(mode, est).is_some()
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
        let instance = self.instance;
        let n = instance.num_tasks();
        self.move_to(&node.path);
        let mut children = Vec::new();
        let mut best_leaf: Option<(u32, Schedule)> = None;
        let mut infeasible = 0u64;
        let mut pruned_children = 0u64;
        let last_finish = self.finish.iter().flatten().copied().max().unwrap_or(0);
        if self.scheduled == n {
            // Only the root of a zero-task instance can arrive complete.
            if snapshot.is_none_or(|best| last_finish < best) {
                best_leaf = Some((
                    last_finish,
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
            for (m, mode) in instance.task(task).modes.iter().enumerate() {
                if let (Some(f), Some((spent, reserved))) = (self.energy, energy_state) {
                    // Reservation test: even with every other unscheduled
                    // task at its cheapest, this mode must fit the budget.
                    if !f.admissible(spent, reserved, t, mode.energy()) {
                        infeasible += 1;
                        continue;
                    }
                }
                let reach = self.reach.of(t, mode.duration);
                // The node's bound is below the snapshot, so a child is
                // pruned exactly when `start + reach` meets it, and a leaf
                // (whose makespan is at least `start + reach`) then cannot
                // beat it: the probe stops at the last start that matters.
                let latest = match snapshot {
                    Some(best) => (best - 1).checked_sub(reach),
                    None => Some(u32::MAX),
                };
                let start =
                    latest.and_then(|latest| self.timetable.earliest_start_by(mode, est, latest));
                let Some(start) = start else {
                    // Counted as an unbounded probe would count it: a mode
                    // that fits later gives a pruned child (or a leaf that
                    // is not a candidate), one that never fits is
                    // infeasible.
                    if snapshot.is_some() && self.fits_somewhere(mode, est, last_finish) {
                        if self.scheduled + 1 < n {
                            pruned_children += 1;
                        }
                    } else {
                        infeasible += 1;
                    }
                    continue;
                };
                // The child's bound and a leaf's makespan read only the
                // start and finish times, and the next mode is probed
                // against the parent's timetable, so the child never
                // touches the timetable.
                self.place(t, m, start, mode.duration);
                if self.scheduled == n {
                    let makespan = last_finish.max(start + mode.duration);
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
                    let bound = node.bound.max(start + reach);
                    debug_assert_eq!(bound, self.node_bound_walk(), "{:?}", node.path);
                    let mut path = Vec::with_capacity(node.path.len() + 1);
                    path.extend_from_slice(&node.path);
                    path.push((t as u16, m as u16));
                    children.push(Node { path, bound });
                }
                self.unplace(t);
            }
        }
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
            queue: Arc::new(WorkQueue::new(batch.len(), self.threads)),
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
/// `root_bound` must be the root's [`Scratch::node_bound_walk`], the
/// critical-path bound, since every child's bound builds on its parent's.
/// The search ends complete once the incumbent is at or below
/// `initial_bound`, the caller's proven lower bound.
fn run_rounds(
    incumbent: Option<(u32, Schedule)>,
    node_budget: u64,
    budget: &Budget,
    executor: &mut dyn Executor,
    root_bound: u32,
    initial_bound: u32,
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
        if incumbent
            .as_ref()
            .is_some_and(|(makespan, _)| *makespan <= initial_bound)
        {
            // The incumbent meets a proven lower bound, so no frontier
            // node can beat it: it is optimal.
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
/// `initial_bound` is a pre-computed lower bound: the search stops,
/// complete, as soon as an incumbent matches it. `energy_cap` restricts
/// the enumeration to mode assignments within a whole-schedule energy
/// budget (`None` reproduces the unconstrained search bit for bit). `threads` sets the worker count
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

    let reach = Reach::new(instance);
    let root_scratch = Scratch::new(instance, &reach, energy, timetable);
    let root_bound = critical_path_bound(instance);
    debug_assert_eq!(root_bound, root_scratch.node_bound_walk());
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
            initial_bound,
            tel,
        );
    }

    let pool = Pool::new(threads);
    std::thread::scope(|scope| {
        for worker in 1..threads {
            let pool = &pool;
            let reach = &reach;
            scope.spawn(move || {
                let mut scratch = Scratch::new(instance, reach, energy, timetable);
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
            initial_bound,
            tel,
        );
        pool.done.store(true, Ordering::Release);
        pool.barrier.wait();
        tel.add(Counter::BnbSteals, pool.steals.load(Ordering::Relaxed));
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::HeuristicParams;
    use crate::instance::InstanceBuilder;
    use crate::sgs::tests::arb_local_instance;
    use hilp_testkit::strategies::InstanceParams;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// Figure 3: Figure 2 at CPU 1 W, GPU 3 W, DSA 2 W under a 3 W budget,
    /// so the timetable tracks power.
    fn figure3_instance() -> Instance {
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
        b.build().unwrap()
    }

    #[test]
    fn power_constrained_figure3_optimum_is_nine() {
        // The GPU can no longer run alongside the DSA; the optimum grows
        // from 7 to 9.
        let inst = figure3_instance();
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

    /// A serial executor that records the path of every item it expands.
    struct Recorder<'a> {
        serial: SerialExecutor<'a>,
        paths: Vec<Vec<(u16, u16)>>,
    }

    impl Executor for Recorder<'_> {
        fn run_batch(&mut self, batch: &Arc<Vec<Node>>, snapshot: Option<u32>) -> Vec<ItemOutcome> {
            self.paths
                .extend(batch.iter().map(|node| node.path.clone()));
            self.serial.run_batch(batch, snapshot)
        }
    }

    /// Asserts that `moved` holds the same partial schedule as `fresh`, as
    /// far as the search can tell: the placed tasks' starts, modes and
    /// finishes, the predecessor counts, the node bound, and where every
    /// mode of every ready task would start.
    fn assert_same_node(moved: &Scratch<'_>, fresh: &Scratch<'_>, path: &[(u16, u16)]) {
        let instance = fresh.instance;
        assert_eq!(moved.path, fresh.path);
        assert_eq!(moved.scheduled, fresh.scheduled, "{path:?}");
        assert_eq!(moved.finish, fresh.finish, "{path:?}");
        for t in (0..instance.num_tasks()).filter(|&t| fresh.finish[t].is_some()) {
            assert_eq!(moved.starts[t], fresh.starts[t], "{path:?}");
            assert_eq!(moved.modes[t], fresh.modes[t], "{path:?}");
        }
        assert_eq!(moved.remaining_preds, fresh.remaining_preds, "{path:?}");
        assert_eq!(moved.node_bound_walk(), fresh.node_bound_walk(), "{path:?}");
        for t in 0..instance.num_tasks() {
            if fresh.finish[t].is_some() || fresh.remaining_preds[t] != 0 {
                continue;
            }
            let est = fresh.est(TaskId(t));
            for mode in &instance.task(TaskId(t)).modes {
                assert_eq!(
                    moved.timetable.earliest_start(mode, est),
                    fresh.timetable.earliest_start(mode, est),
                    "{path:?}, task {t}"
                );
            }
        }
    }

    #[test]
    fn moving_between_items_matches_a_fresh_replay() {
        // The items of a whole search, walked by one scratch in the order
        // the search expanded them and then shuffled, so moves span every
        // distance from a sibling to an unrelated subtree. After each move
        // the scratch must hold what one that replayed only that item's
        // path from the empty schedule holds.
        let inst = figure3_instance();
        let reach = Reach::new(&inst);
        let budget = Budget::unlimited();
        for kind in [TimetableKind::Event, TimetableKind::Dense] {
            let mut recorder = Recorder {
                serial: SerialExecutor {
                    scratch: Scratch::new(&inst, &reach, None, kind),
                    budget: &budget,
                },
                paths: Vec::new(),
            };
            run_rounds(
                None,
                u64::MAX,
                &budget,
                &mut recorder,
                critical_path_bound(&inst),
                0,
                &Telemetry::disabled(),
            );
            let mut shuffled = recorder.paths.clone();
            assert!(shuffled.len() > 200, "{} items", shuffled.len());
            let mut rng = SmallRng::seed_from_u64(7);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let mut moved = Scratch::new(&inst, &reach, None, kind);
            for path in recorder.paths.iter().chain(&shuffled) {
                moved.move_to(path);
                let mut fresh = Scratch::new(&inst, &reach, None, kind);
                fresh.move_to(path);
                assert_same_node(&moved, &fresh, path);
            }
        }
    }

    /// Walks one random decision path down the tree, expanding each node
    /// with no incumbent so that every feasible child comes back, and
    /// checks each child's bound against the walk from scratch.
    fn check_child_bounds(inst: &Instance, picks: &[usize]) -> Result<(), TestCaseError> {
        let reach = Reach::new(inst);
        let budget = Budget::unlimited();
        let mut expander = Scratch::new(inst, &reach, None, TimetableKind::Event);
        let mut fresh = Scratch::new(inst, &reach, None, TimetableKind::Event);
        let mut node = Node {
            path: Vec::new(),
            bound: critical_path_bound(inst),
        };
        prop_assert_eq!(node.bound, fresh.node_bound_walk());
        for &pick in picks {
            let ItemOutcome::Expanded { mut children, .. } = expander.process(&node, None, &budget)
            else {
                unreachable!("an unbudgeted item with no incumbent is always expanded");
            };
            for child in &children {
                fresh.move_to(&child.path);
                prop_assert_eq!(child.bound, fresh.node_bound_walk(), "{:?}", child.path);
            }
            if children.is_empty() {
                break;
            }
            node = children.swap_remove(pick % children.len());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn child_bounds_equal_the_walk_from_scratch_on_tiny_instances(
            inst in arb_local_instance(InstanceParams::tiny()),
            picks in prop::collection::vec(0..64usize, 5),
        ) {
            check_child_bounds(&inst, &picks)?;
        }

        #[test]
        fn child_bounds_equal_the_walk_from_scratch_on_small_instances(
            inst in arb_local_instance(InstanceParams::small()),
            picks in prop::collection::vec(0..64usize, 10),
        ) {
            check_child_bounds(&inst, &picks)?;
        }
    }

    #[test]
    fn an_incumbent_at_the_initial_bound_ends_the_search() {
        // Figure 2's optimum is 7. Told so, the search stops, complete,
        // at the first incumbent of 7, within a node budget one short of
        // the whole tree.
        let inst = figure2_instance();
        let whole = solve(&inst, 1);
        assert!(whole.complete);
        for threads in [1, 2, 4] {
            let result = branch_and_bound(
                &inst,
                None,
                7,
                whole.nodes - 1,
                &Budget::unlimited(),
                TimetableKind::Event,
                threads,
                None,
                &Telemetry::disabled(),
            );
            assert!(result.complete, "{threads} workers");
            assert_eq!(result.truncated, None);
            assert_eq!(result.best.as_ref().unwrap().makespan(&inst), 7);
            assert_eq!(result.lower_bound, 7);
            assert!(
                result.nodes < whole.nodes - 1,
                "{} of {} nodes",
                result.nodes,
                whole.nodes
            );
        }
    }

    #[test]
    fn tight_horizons_keep_the_prune_counts() {
        // Two three-task chains whose slow modes overrun a tight horizon
        // late in the schedule, under a power cap that delays the fast
        // ones: the search meets modes that never fit, and modes that fit
        // only after the latest start the incumbent leaves them. The
        // counts were read off the unbounded probe with a from-scratch
        // node bound.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        for (name, slow, fast) in [("a", 6, 3), ("b", 5, 2)] {
            let mut prev = None;
            for k in 0..3 {
                let task = b.add_task(
                    format!("{name}{k}"),
                    vec![
                        Mode::on(cpu, slow).power(1.0),
                        Mode::on(gpu, fast).power(3.0),
                        Mode::on(dsa, fast + 1).power(2.0),
                    ],
                );
                if let Some(prev) = prev {
                    b.add_precedence(prev, task);
                }
                prev = Some(task);
            }
        }
        b.set_power_cap(4.0);
        b.set_horizon(13);
        let inst = b.build().unwrap();
        for threads in [1, 2] {
            let tel = Telemetry::enabled();
            let result = branch_and_bound(
                &inst,
                None,
                0,
                1_000_000,
                &Budget::unlimited(),
                TimetableKind::Event,
                threads,
                None,
                &tel,
            );
            assert!(result.complete);
            let got = (
                result.best.unwrap().makespan(&inst),
                result.nodes,
                tel.counter(Counter::BnbPrunesBound),
                tel.counter(Counter::BnbPrunesInfeasible),
            );
            assert_eq!(got, (12, 740, 704, 550), "{threads} workers");
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
                telemetry: Telemetry::disabled(),
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
                telemetry: Telemetry::disabled(),
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
