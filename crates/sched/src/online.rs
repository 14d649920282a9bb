//! An event-driven *online* list scheduler — a model of runtime system
//! software, as opposed to HILP's offline near-optimal search.
//!
//! The paper argues that evaluating SoCs under near-optimal schedules
//! "decouples the design of SoC hardware from the (challenging) task of
//! writing efficient system software", the premise being that runtime
//! schedulers will eventually approach the offline optimum. This module
//! provides the other end of that comparison: a greedy dispatcher that
//! sees only the present.
//!
//! At every event (time zero, or any task completion) it scans the ready
//! tasks in priority order and dispatches each onto the compatible mode
//! that *starts now* and finishes earliest, if any fits the resource
//! budgets right now — no queueing a task to wait for a better machine, no
//! reordering against the priority list, no lookahead. That is exactly the
//! behaviour of a work-conserving runtime with a static priority policy.

use crate::instance::{EdgeKind, Instance, ModeId, TaskId};
use crate::schedule::Schedule;
use crate::sgs::{Timetable, TimetableKind};
use hilp_budget::{Budget, BudgetKind};

/// Priority policies for [`online_greedy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OnlinePolicy {
    /// Dispatch ready tasks in submission (task-id) order — a FIFO runtime.
    Fifo,
    /// Dispatch the task with the longest minimum duration first — the
    /// classic LPT rule.
    LongestFirst,
    /// Dispatch the task with the shortest minimum duration first.
    ShortestFirst,
    /// LPT order, but refuse to dispatch a task onto a machine more than
    /// 3x slower than its best machine — a heterogeneity-aware runtime
    /// that would rather idle than strand a kernel on the wrong cluster.
    HeterogeneityAware,
}

impl OnlinePolicy {
    fn priority(self, instance: &Instance, task: TaskId) -> i64 {
        match self {
            OnlinePolicy::Fifo => -(task.0 as i64),
            OnlinePolicy::LongestFirst | OnlinePolicy::HeterogeneityAware => {
                i64::from(instance.min_duration(task))
            }
            OnlinePolicy::ShortestFirst => -i64::from(instance.min_duration(task)),
        }
    }

    /// The worst slowdown versus the task's best machine this policy will
    /// dispatch onto; `None` accepts anything (work conservation).
    fn slowdown_limit(self) -> Option<f64> {
        match self {
            OnlinePolicy::HeterogeneityAware => Some(3.0),
            _ => None,
        }
    }
}

/// Outcome of [`online_greedy_budgeted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineOutcome {
    /// Every task was dispatched within the horizon.
    Complete(Schedule),
    /// The admission budget expired mid-simulation: `dispatched` tasks
    /// were placed before `kind` tripped. The partial placement is not a
    /// complete schedule, so only its size is reported — a runtime that
    /// ran out of budget keeps whatever it already committed.
    Truncated {
        /// Tasks dispatched before the budget expired.
        dispatched: usize,
        /// Which budget constraint tripped.
        kind: BudgetKind,
    },
    /// No work-conserving dispatch fits the horizon (the unbudgeted
    /// [`online_greedy`] returns `None` for this).
    HorizonExhausted,
}

/// Simulates a greedy online dispatcher, returning its (feasible but
/// usually suboptimal) schedule. Returns `None` when the horizon is too
/// small — which a work-conserving dispatcher can genuinely run into even
/// where an offline schedule exists.
#[must_use]
pub fn online_greedy(instance: &Instance, policy: OnlinePolicy) -> Option<Schedule> {
    match online_greedy_budgeted(instance, policy, &Budget::unlimited()) {
        OnlineOutcome::Complete(schedule) => Some(schedule),
        _ => None,
    }
}

/// [`online_greedy`] under a cooperative [`Budget`]: one node is charged
/// per *admission* (a task committed to a machine), and deadlines /
/// cancellation are additionally observed at every dispatch event. This
/// models an admission-control runtime that must answer within a time or
/// work budget even during admission storms — when the budget expires the
/// dispatcher stops admitting and reports how far it got.
#[must_use]
pub fn online_greedy_budgeted(
    instance: &Instance,
    policy: OnlinePolicy,
    budget: &Budget,
) -> OnlineOutcome {
    online_greedy_budgeted_with(instance, policy, budget, TimetableKind::default())
}

/// [`online_greedy_budgeted`] with an explicit admission-timetable
/// representation. The dispatcher's decisions depend only on feasibility
/// answers, which every [`TimetableKind`] answers identically, so the
/// outcome is representation-independent — this entry point exists for the
/// differential test oracle to pin exactly that.
#[must_use]
pub fn online_greedy_budgeted_with(
    instance: &Instance,
    policy: OnlinePolicy,
    budget: &Budget,
    kind: TimetableKind,
) -> OnlineOutcome {
    let n = instance.num_tasks();
    let mut timetable = Timetable::with_kind(instance, kind);
    let mut starts = vec![0u32; n];
    let mut modes = vec![ModeId(0); n];
    let mut finish: Vec<Option<u32>> = vec![None; n];
    let mut scheduled = vec![false; n];
    let mut num_scheduled = 0;

    // Event queue of candidate dispatch times.
    let mut now = 0u32;
    while num_scheduled < n {
        // Deadline/cancellation boundary: each dispatch event is an
        // admission decision the runtime may no longer afford.
        if let Err(kind) = budget.check() {
            return OnlineOutcome::Truncated {
                dispatched: num_scheduled,
                kind,
            };
        }
        // Ready = all predecessors scheduled AND their edge constraints
        // allow a start at `now`.
        let mut ready: Vec<usize> = (0..n)
            .filter(|&t| {
                !scheduled[t]
                    && instance.incoming(TaskId(t)).iter().all(|e| {
                        scheduled[e.before.0]
                            && match e.kind {
                                EdgeKind::FinishToStart => {
                                    finish[e.before.0].expect("scheduled") + e.lag <= now
                                }
                                EdgeKind::StartToStart => starts[e.before.0] + e.lag <= now,
                            }
                    })
            })
            .collect();
        ready.sort_by_key(|&t| (std::cmp::Reverse(policy.priority(instance, TaskId(t))), t));

        for t in ready {
            // Dispatch only if some mode can start *right now* (and, for
            // heterogeneity-aware policies, is not hopelessly slow).
            let min_duration = f64::from(instance.min_duration(TaskId(t)));
            let mut best: Option<(ModeId, u32)> = None;
            for (m, mode) in instance.task(TaskId(t)).modes.iter().enumerate() {
                if let Some(limit) = policy.slowdown_limit() {
                    if f64::from(mode.duration) > limit * min_duration {
                        continue;
                    }
                }
                if timetable.earliest_start_by(mode, now, now).is_some() {
                    let fin = now + mode.duration;
                    if best.is_none_or(|(_, bf)| fin < bf) {
                        best = Some((ModeId(m), fin));
                    }
                }
            }
            if let Some((mode_id, fin)) = best {
                // One admission = one node. A refused charge means the
                // runtime's budget ran out mid-storm: stop admitting but
                // keep everything already committed.
                if let Err(kind) = budget.charge(1) {
                    return OnlineOutcome::Truncated {
                        dispatched: num_scheduled,
                        kind,
                    };
                }
                let mode = instance.mode(TaskId(t), mode_id).clone();
                timetable.place(&mode, now);
                starts[t] = now;
                modes[t] = mode_id;
                finish[t] = Some(fin);
                scheduled[t] = true;
                num_scheduled += 1;
            }
        }

        if num_scheduled == n {
            break;
        }
        // Advance to the next event: the earliest completion after `now`,
        // or the earliest lag expiry of a task whose predecessors are all
        // scheduled (initiation intervals release tasks between
        // completions); fall back to now + 1 when neither exists.
        let next_completion = finish.iter().flatten().copied().filter(|&f| f > now).min();
        let next_release = (0..n)
            .filter(|&t| !scheduled[t])
            .filter_map(|t| {
                let edges = instance.incoming(TaskId(t));
                if !edges.iter().all(|e| scheduled[e.before.0]) {
                    return None;
                }
                let allowed = edges
                    .iter()
                    .map(|e| match e.kind {
                        EdgeKind::FinishToStart => finish[e.before.0].expect("scheduled") + e.lag,
                        EdgeKind::StartToStart => starts[e.before.0] + e.lag,
                    })
                    .max()
                    .unwrap_or(0);
                (allowed > now).then_some(allowed)
            })
            .min();
        let next = [next_completion, next_release]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(now + 1);
        if next > instance.horizon() {
            return OnlineOutcome::HorizonExhausted;
        }
        now = next;
    }

    OnlineOutcome::Complete(Schedule { starts, modes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Mode};
    use crate::solve::{solve_exact, SolverConfig};

    fn figure2() -> Instance {
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
        b.set_horizon(40);
        b.build().unwrap()
    }

    #[test]
    fn online_schedules_are_feasible() {
        let inst = figure2();
        for policy in [
            OnlinePolicy::Fifo,
            OnlinePolicy::LongestFirst,
            OnlinePolicy::ShortestFirst,
        ] {
            let sched = online_greedy(&inst, policy).unwrap();
            assert!(sched.verify(&inst).is_empty(), "{policy:?} infeasible");
        }
    }

    #[test]
    fn online_never_beats_the_offline_optimum() {
        let inst = figure2();
        let optimum = solve_exact(&inst, &SolverConfig::default())
            .unwrap()
            .makespan;
        for policy in [
            OnlinePolicy::Fifo,
            OnlinePolicy::LongestFirst,
            OnlinePolicy::ShortestFirst,
        ] {
            let sched = online_greedy(&inst, policy).unwrap();
            assert!(sched.makespan(&inst) >= optimum);
        }
    }

    #[test]
    fn greedy_dispatch_can_be_strictly_suboptimal() {
        // Two tasks, one fast machine and one slow machine. A greedy
        // dispatcher puts the first ready task on the fast machine and the
        // second on the slow one immediately (work conservation), even
        // though waiting for the fast machine would be better for LPT.
        let mut b = InstanceBuilder::new();
        let fast = b.add_machine("fast");
        let slow = b.add_machine("slow");
        b.add_task("a", vec![Mode::on(fast, 2), Mode::on(slow, 10)]);
        b.add_task("b", vec![Mode::on(fast, 2), Mode::on(slow, 10)]);
        b.set_horizon(40);
        let inst = b.build().unwrap();
        let optimum = solve_exact(&inst, &SolverConfig::default())
            .unwrap()
            .makespan;
        assert_eq!(optimum, 4);
        let online = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert_eq!(online.makespan(&inst), 10, "work conservation backfires");
    }

    #[test]
    fn online_respects_initiation_intervals() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let a = b.add_task("a", vec![Mode::on(m0, 6)]);
        let c = b.add_task("b", vec![Mode::on(m1, 6)]);
        b.add_initiation_interval(a, c, 2);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.starts[c.0], 2);
        let _ = a;
    }

    #[test]
    fn online_respects_power_budgets() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        b.add_task("a", vec![Mode::on(m0, 3).power(6.0)]);
        b.add_task("b", vec![Mode::on(m1, 3).power(6.0)]);
        b.set_power_cap(10.0);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.makespan(&inst), 6, "power budget serializes");
    }

    #[test]
    fn too_small_horizons_are_reported() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        b.add_task("a", vec![Mode::on(m, 5)]);
        b.add_task("b", vec![Mode::on(m, 5)]);
        b.set_horizon(7);
        let inst = b.build().unwrap();
        assert!(online_greedy(&inst, OnlinePolicy::Fifo).is_none());
    }

    #[test]
    fn retirement_admits_in_completion_order() {
        // One machine, three independent tasks: each dispatch waits for the
        // previous completion event, so starts follow retirement order.
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        b.add_task("a", vec![Mode::on(m, 3)]);
        b.add_task("b", vec![Mode::on(m, 2)]);
        b.add_task("c", vec![Mode::on(m, 4)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.starts, vec![0, 3, 5], "FIFO retirement order");
        assert_eq!(sched.makespan(&inst), 9);
    }

    #[test]
    fn shortest_first_reorders_admission() {
        // Same instance, shortest-first: b (2) before a (3) before c (4).
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        b.add_task("a", vec![Mode::on(m, 3)]);
        b.add_task("b", vec![Mode::on(m, 2)]);
        b.add_task("c", vec![Mode::on(m, 4)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::ShortestFirst).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.starts, vec![2, 0, 5], "SPT admission order");
    }

    #[test]
    fn diamond_admission_waits_for_every_predecessor() {
        // a -> {b, c} -> d: d is admitted only once both branches retire.
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let a = b.add_task("a", vec![Mode::on(m0, 1)]);
        let left = b.add_task("b", vec![Mode::on(m0, 5)]);
        let right = b.add_task("c", vec![Mode::on(m1, 2)]);
        let d = b.add_task("d", vec![Mode::on(m1, 1)]);
        b.add_precedence(a, left);
        b.add_precedence(a, right);
        b.add_precedence(left, d);
        b.add_precedence(right, d);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.starts[d.0], 6, "slow branch gates admission");
    }

    #[test]
    fn lagged_admission_releases_between_completions() {
        // A finish-to-start lag releases the successor at a time that is
        // not a completion event; the event loop must advance to it.
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        let a = b.add_task("a", vec![Mode::on(m, 2)]);
        let c = b.add_task("b", vec![Mode::on(m, 1)]);
        b.add_precedence_lagged(a, c, 5);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.starts[c.0], 7, "lag expiry is its own event");
        let _ = a;
    }

    #[test]
    fn online_respects_bandwidth_budgets() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        b.add_task("a", vec![Mode::on(m0, 3).bandwidth(60.0)]);
        b.add_task("b", vec![Mode::on(m1, 3).bandwidth(60.0)]);
        b.set_bandwidth_cap(100.0);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.makespan(&inst), 6, "bandwidth budget serializes");
    }

    #[test]
    fn online_respects_core_budgets() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        b.add_task("a", vec![Mode::on(m0, 2).cores(3)]);
        b.add_task("b", vec![Mode::on(m1, 2).cores(3)]);
        b.set_core_cap(4);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.makespan(&inst), 4, "core budget serializes");
    }

    #[test]
    fn online_respects_custom_resource_budgets() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        let llc = b.add_resource("llc", 100.0);
        b.add_task("a", vec![Mode::on(m0, 3).uses(llc, 60.0)]);
        b.add_task("b", vec![Mode::on(m1, 3).uses(llc, 60.0)]);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert!(sched.verify(&inst).is_empty());
        assert_eq!(sched.makespan(&inst), 6, "resource budget serializes");
    }

    #[test]
    fn capacity_blocked_task_is_placed_at_the_next_event() {
        // The power cap blocks b at time 0; it must be dispatched exactly
        // when a retires, not a step later.
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("m0");
        let m1 = b.add_machine("m1");
        b.add_task("a", vec![Mode::on(m0, 4).power(6.0)]);
        b.add_task("b", vec![Mode::on(m1, 2).power(6.0)]);
        b.set_power_cap(10.0);
        b.set_horizon(20);
        let inst = b.build().unwrap();
        let sched = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        assert_eq!(
            sched.starts,
            vec![0, 4],
            "blocked task starts at retirement"
        );
    }

    /// An admission storm: `n` independent unit tasks spread over four
    /// machines, all ready at time zero.
    fn storm_instance(n: usize) -> Instance {
        let mut b = InstanceBuilder::new();
        let machines: Vec<_> = (0..4).map(|m| b.add_machine(format!("m{m}"))).collect();
        for t in 0..n {
            b.add_task(format!("t{t}"), vec![Mode::on(machines[t % 4], 1)]);
        }
        b.set_horizon(4 * n as u32);
        b.build().unwrap()
    }

    #[test]
    fn admission_budget_truncates_a_storm() {
        let inst = storm_instance(20);
        let outcome = online_greedy_budgeted(&inst, OnlinePolicy::Fifo, &Budget::nodes(7));
        assert_eq!(
            outcome,
            OnlineOutcome::Truncated {
                dispatched: 7,
                kind: BudgetKind::Nodes
            }
        );
    }

    #[test]
    fn unlimited_budget_matches_the_unbudgeted_dispatcher() {
        let inst = storm_instance(20);
        let plain = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        let budgeted = online_greedy_budgeted(&inst, OnlinePolicy::Fifo, &Budget::unlimited());
        assert_eq!(budgeted, OnlineOutcome::Complete(plain));
    }

    #[test]
    fn generous_admission_budget_completes_the_storm() {
        let inst = storm_instance(20);
        let outcome = online_greedy_budgeted(&inst, OnlinePolicy::Fifo, &Budget::nodes(20));
        assert!(matches!(outcome, OnlineOutcome::Complete(_)));
    }

    #[test]
    fn cancelled_runtime_admits_nothing() {
        let inst = storm_instance(8);
        let token = hilp_budget::CancelToken::new();
        token.cancel();
        let outcome = online_greedy_budgeted(
            &inst,
            OnlinePolicy::Fifo,
            &Budget::unlimited().with_cancel(token),
        );
        assert_eq!(
            outcome,
            OnlineOutcome::Truncated {
                dispatched: 0,
                kind: BudgetKind::Cancelled
            }
        );
    }

    #[test]
    fn admission_outcome_is_representation_independent() {
        let inst = figure2();
        for policy in [
            OnlinePolicy::Fifo,
            OnlinePolicy::LongestFirst,
            OnlinePolicy::ShortestFirst,
            OnlinePolicy::HeterogeneityAware,
        ] {
            let event = online_greedy_budgeted_with(
                &inst,
                policy,
                &Budget::unlimited(),
                TimetableKind::Event,
            );
            let dense = online_greedy_budgeted_with(
                &inst,
                policy,
                &Budget::unlimited(),
                TimetableKind::Dense,
            );
            assert_eq!(event, dense, "{policy:?} diverged under the dense backend");
        }
    }

    #[test]
    fn heterogeneity_aware_policy_waits_for_the_right_machine() {
        // One GPU-friendly kernel and a busy GPU: work conservation
        // dispatches it to the 20x-slower CPU; the aware policy waits.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("occupy", vec![Mode::on(gpu, 3)]);
        b.add_task("kernel", vec![Mode::on(cpu, 60), Mode::on(gpu, 3)]);
        b.set_horizon(100);
        let inst = b.build().unwrap();
        let fifo = online_greedy(&inst, OnlinePolicy::Fifo).unwrap();
        let aware = online_greedy(&inst, OnlinePolicy::HeterogeneityAware).unwrap();
        assert_eq!(
            fifo.makespan(&inst),
            60,
            "FIFO strands the kernel on the CPU"
        );
        assert_eq!(aware.makespan(&inst), 6, "aware policy waits for the GPU");
        assert!(aware.verify(&inst).is_empty());
    }
}
