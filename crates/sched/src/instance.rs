//! Scheduling instances: tasks, modes, machines, precedence, resource caps.

use crate::error::SchedError;

/// Identifies a task within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Identifies a machine (core cluster) within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub usize);

/// Index of a mode within a task's mode list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeId(pub usize);

/// Identifies a user-defined cumulative resource within an [`Instance`]
/// (e.g. per-cache-level bandwidth; Section VII's memory-hierarchy
/// extension). The built-in power/bandwidth/core caps are not resources in
/// this sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// One way of executing a task: a machine plus the duration and resource
/// footprint of running the task there.
///
/// Modes encode the paper's input matrices: the duration is `T_cap`, power
/// is `P_cap`, bandwidth is `B_cap`, and `cores` is `U_cap` — all for one
/// `(phase, cluster, operating point)` combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Mode {
    /// Machine (core cluster) this mode executes on.
    pub machine: MachineId,
    /// Execution time in integer time steps (at least 1).
    pub duration: u32,
    /// Power drawn while executing (W), counted against the power cap.
    pub power: f64,
    /// Memory bandwidth consumed while executing (GB/s), counted against
    /// the bandwidth cap.
    pub bandwidth: f64,
    /// CPU cores occupied while executing, counted against the core cap.
    pub cores: u32,
    /// Usage of user-defined cumulative resources while executing
    /// (`(resource, amount)` pairs; unlisted resources are unused).
    pub resource_usage: Vec<(ResourceId, f64)>,
}

impl Mode {
    /// A resource-free mode of the given duration on `machine`.
    #[must_use]
    pub fn on(machine: MachineId, duration: u32) -> Self {
        Mode {
            machine,
            duration,
            power: 0.0,
            bandwidth: 0.0,
            cores: 0,
            resource_usage: Vec::new(),
        }
    }

    /// Sets the power draw, builder style.
    #[must_use]
    pub fn power(mut self, watts: f64) -> Self {
        self.power = watts;
        self
    }

    /// Sets the bandwidth consumption, builder style.
    #[must_use]
    pub fn bandwidth(mut self, gbps: f64) -> Self {
        self.bandwidth = gbps;
        self
    }

    /// Sets the CPU-core usage, builder style.
    #[must_use]
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Declares usage of a user-defined cumulative resource, builder style.
    #[must_use]
    pub fn uses(mut self, resource: ResourceId, amount: f64) -> Self {
        self.resource_usage.push((resource, amount));
        self
    }

    /// Usage of one user-defined resource (zero when unlisted).
    #[must_use]
    pub fn usage_of(&self, resource: ResourceId) -> f64 {
        self.resource_usage
            .iter()
            .filter(|(r, _)| *r == resource)
            .map(|(_, amount)| amount)
            .sum()
    }

    /// Energy consumed by this mode (power x duration, in W x steps).
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.power * f64::from(self.duration)
    }
}

/// A schedulable unit of work (an application phase in HILP terms).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable label, used in error messages and schedule dumps.
    pub label: String,
    /// The execution modes available to this task (the compatibility
    /// matrix `E_cap` materialized).
    pub modes: Vec<Mode>,
}

/// How a precedence edge constrains its successor (Section VII's
/// extensions to the ordering constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The successor starts at least `lag` steps after the predecessor
    /// *finishes* (the paper's Equation 2 with an optional lag).
    FinishToStart,
    /// The successor starts at least `lag` steps after the predecessor
    /// *starts* — the paper's *initiation interval* extension, used for
    /// pipelined streaming phases.
    StartToStart,
}

/// A precedence edge with its kind and lag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The predecessor task.
    pub before: TaskId,
    /// The successor task.
    pub after: TaskId,
    /// Minimum separation in time steps.
    pub lag: u32,
    /// Whether the lag counts from the predecessor's finish or start.
    pub kind: EdgeKind,
}

/// A validated scheduling instance.
///
/// Build one with [`InstanceBuilder`]. All invariants (acyclic precedence,
/// valid machine references, positive durations, at least one cap-feasible
/// mode per task) hold by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub(crate) tasks: Vec<Task>,
    pub(crate) machines: Vec<String>,
    pub(crate) preds: Vec<Vec<TaskId>>,
    pub(crate) succs: Vec<Vec<TaskId>>,
    pub(crate) in_edges: Vec<Vec<Edge>>,
    pub(crate) out_edges: Vec<Vec<Edge>>,
    pub(crate) power_cap: Option<f64>,
    pub(crate) bandwidth_cap: Option<f64>,
    pub(crate) core_cap: Option<u32>,
    pub(crate) energy_cap: Option<f64>,
    pub(crate) resources: Vec<(String, f64)>,
    pub(crate) horizon: u32,
    /// A topological order of the tasks, fixed at build time.
    pub(crate) topo: Vec<TaskId>,
}

impl Instance {
    /// The tasks of this instance.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Machine labels, indexed by [`MachineId`].
    #[must_use]
    pub fn machines(&self) -> &[String] {
        &self.machines
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// A task by id.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this instance.
    #[must_use]
    pub fn task(&self, task: TaskId) -> &Task {
        &self.tasks[task.0]
    }

    /// A task's mode by ids.
    ///
    /// # Panics
    ///
    /// Panics if the ids do not belong to this instance.
    #[must_use]
    pub fn mode(&self, task: TaskId, mode: ModeId) -> &Mode {
        &self.tasks[task.0].modes[mode.0]
    }

    /// Direct predecessors of a task (one entry per predecessor, however
    /// many edges connect the pair).
    #[must_use]
    pub fn predecessors(&self, task: TaskId) -> &[TaskId] {
        &self.preds[task.0]
    }

    /// Direct successors of a task.
    #[must_use]
    pub fn successors(&self, task: TaskId) -> &[TaskId] {
        &self.succs[task.0]
    }

    /// Incoming precedence edges of a task (with kinds and lags).
    #[must_use]
    pub fn incoming(&self, task: TaskId) -> &[Edge] {
        &self.in_edges[task.0]
    }

    /// Outgoing precedence edges of a task (with kinds and lags).
    #[must_use]
    pub fn outgoing(&self, task: TaskId) -> &[Edge] {
        &self.out_edges[task.0]
    }

    /// The power cap (`p_max`), if any.
    #[must_use]
    pub fn power_cap(&self) -> Option<f64> {
        self.power_cap
    }

    /// The bandwidth cap (`b_max`), if any.
    #[must_use]
    pub fn bandwidth_cap(&self) -> Option<f64> {
        self.bandwidth_cap
    }

    /// The CPU-core cap (`u_max`), if any.
    #[must_use]
    pub fn core_cap(&self) -> Option<u32> {
        self.core_cap
    }

    /// The total-energy budget (W x steps), if any. Unlike the per-step
    /// power cap, this bounds the *sum* of mode energies over the whole
    /// schedule; it constrains mode selection, never timing.
    #[must_use]
    pub fn energy_cap(&self) -> Option<f64> {
        self.energy_cap
    }

    /// User-defined cumulative resources as `(label, capacity)` pairs,
    /// indexed by [`ResourceId`].
    #[must_use]
    pub fn resources(&self) -> &[(String, f64)] {
        &self.resources
    }

    /// The scheduling horizon in time steps.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// A topological order of the tasks.
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Shortest possible duration of a task across its modes.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this instance.
    #[must_use]
    pub fn min_duration(&self, task: TaskId) -> u32 {
        self.tasks[task.0]
            .modes
            .iter()
            .map(|m| m.duration)
            .min()
            .expect("validated tasks have at least one mode")
    }

    /// Returns whether `mode`'s resource footprint fits within the caps on
    /// an otherwise idle SoC (including the whole-schedule energy cap: a
    /// mode whose own energy exceeds it can never appear in any feasible
    /// schedule).
    #[must_use]
    pub fn mode_fits_caps(&self, mode: &Mode) -> bool {
        self.power_cap.is_none_or(|cap| mode.power <= cap + 1e-9)
            && self
                .bandwidth_cap
                .is_none_or(|cap| mode.bandwidth <= cap + 1e-9)
            && self.core_cap.is_none_or(|cap| mode.cores <= cap)
            && self
                .energy_cap
                .is_none_or(|cap| mode.energy() <= cap + 1e-9)
            && self
                .resources
                .iter()
                .enumerate()
                .all(|(r, &(_, cap))| mode.usage_of(ResourceId(r)) <= cap + 1e-9)
    }

    /// Sum over tasks of the maximum cap-feasible mode duration: an upper
    /// bound on the optimal makespan (schedule everything back to back),
    /// useful for sizing horizons.
    #[must_use]
    pub fn sequential_upper_bound(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| {
                u64::from(
                    t.modes
                        .iter()
                        .filter(|m| self.mode_fits_caps(m))
                        .map(|m| m.duration)
                        .max()
                        .unwrap_or(0),
                )
            })
            .sum()
    }

    /// A structural fingerprint of the instance: a 64-bit FNV-1a hash over
    /// everything the solver looks at — mode tables (machine, duration,
    /// power, bandwidth, cores, resource usage), precedence edges with lags
    /// and kinds, the caps, resource capacities, and the horizon.
    ///
    /// Labels are deliberately *excluded*: two instances with different
    /// machine or task names but identical scheduling structure fingerprint
    /// identically: it is the label-free identity of what a solve sees,
    /// which tests compare instances by (e.g. SoCs differing only in
    /// components the workload cannot use). The DSE sweep's memo key
    /// hashes the tick-free mode table the instances are built from.
    ///
    /// Floats are hashed via [`f64::to_bits`], so the fingerprint is exact
    /// (no epsilon): instances must be bit-identical to collide on purpose.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn word(&mut self, w: u64) {
                for byte in w.to_le_bytes() {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(FNV_PRIME);
                }
            }
            fn float(&mut self, f: f64) {
                self.word(f.to_bits());
            }
            fn opt_float(&mut self, f: Option<f64>) {
                match f {
                    None => self.word(0),
                    Some(v) => {
                        self.word(1);
                        self.float(v);
                    }
                }
            }
        }
        let mut h = Fnv(FNV_OFFSET);
        h.word(self.tasks.len() as u64);
        h.word(self.machines.len() as u64);
        for task in &self.tasks {
            h.word(task.modes.len() as u64);
            for mode in &task.modes {
                h.word(mode.machine.0 as u64);
                h.word(u64::from(mode.duration));
                h.float(mode.power);
                h.float(mode.bandwidth);
                h.word(u64::from(mode.cores));
                h.word(mode.resource_usage.len() as u64);
                for &(ResourceId(r), amount) in &mode.resource_usage {
                    h.word(r as u64);
                    h.float(amount);
                }
            }
        }
        for edges in &self.in_edges {
            h.word(edges.len() as u64);
            for edge in edges {
                h.word(edge.before.0 as u64);
                h.word(edge.after.0 as u64);
                h.word(u64::from(edge.lag));
                h.word(match edge.kind {
                    EdgeKind::FinishToStart => 0,
                    EdgeKind::StartToStart => 1,
                });
            }
        }
        h.opt_float(self.power_cap);
        h.opt_float(self.bandwidth_cap);
        h.opt_float(self.energy_cap);
        match self.core_cap {
            None => h.word(0),
            Some(c) => {
                h.word(1);
                h.word(u64::from(c));
            }
        }
        h.word(self.resources.len() as u64);
        for (_, cap) in &self.resources {
            h.float(*cap);
        }
        h.word(u64::from(self.horizon));
        h.0
    }

    /// Per-task minimum mode energy (W x steps).
    #[must_use]
    pub fn per_task_min_energy(&self) -> Vec<f64> {
        self.tasks
            .iter()
            .map(|t| {
                t.modes
                    .iter()
                    .map(Mode::energy)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Sum over tasks of the minimum mode energy: a lower bound on the
    /// total energy of any schedule (energy is a pure function of the mode
    /// vector, so the bound is tight whenever the all-min-energy mode
    /// vector is schedulable).
    #[must_use]
    pub fn min_total_energy(&self) -> f64 {
        self.per_task_min_energy().iter().sum()
    }
}

/// Builder for [`Instance`].
///
/// # Example
///
/// ```
/// use hilp_sched::{InstanceBuilder, Mode};
///
/// # fn main() -> Result<(), hilp_sched::SchedError> {
/// let mut builder = InstanceBuilder::new();
/// let cpu = builder.add_machine("cpu");
/// let gpu = builder.add_machine("gpu");
/// let setup = builder.add_task("setup", vec![Mode::on(cpu, 2).power(7.0)]);
/// let compute = builder.add_task(
///     "compute",
///     vec![Mode::on(cpu, 8).power(7.0), Mode::on(gpu, 3).power(40.0)],
/// );
/// builder.add_precedence(setup, compute);
/// builder.set_power_cap(100.0);
/// builder.set_horizon(50);
/// let instance = builder.build()?;
/// assert_eq!(instance.num_tasks(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    tasks: Vec<Task>,
    machines: Vec<String>,
    edges: Vec<(usize, usize, u32, EdgeKind)>,
    power_cap: Option<f64>,
    bandwidth_cap: Option<f64>,
    core_cap: Option<u32>,
    energy_cap: Option<f64>,
    resources: Vec<(String, f64)>,
    horizon: Option<u32>,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        InstanceBuilder::default()
    }

    /// Adds a machine (core cluster) and returns its id.
    pub fn add_machine(&mut self, label: impl Into<String>) -> MachineId {
        self.machines.push(label.into());
        MachineId(self.machines.len() - 1)
    }

    /// Adds a task with its execution modes and returns its id.
    pub fn add_task(&mut self, label: impl Into<String>, modes: Vec<Mode>) -> TaskId {
        self.tasks.push(Task {
            label: label.into(),
            modes,
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Requires `before` to complete before `after` starts (Equation 2 /
    /// the `D_apq` dependency matrix of Section VII).
    pub fn add_precedence(&mut self, before: TaskId, after: TaskId) {
        self.edges
            .push((before.0, after.0, 0, EdgeKind::FinishToStart));
    }

    /// Requires `after` to start at least `lag` steps after `before`
    /// completes.
    pub fn add_precedence_lagged(&mut self, before: TaskId, after: TaskId, lag: u32) {
        self.edges
            .push((before.0, after.0, lag, EdgeKind::FinishToStart));
    }

    /// Requires `after` to start at least `lag` steps after `before`
    /// *starts* — the paper's initiation-interval extension (Section VII):
    /// pipelined phases may overlap but must respect the interval.
    pub fn add_initiation_interval(&mut self, before: TaskId, after: TaskId, lag: u32) {
        self.edges
            .push((before.0, after.0, lag, EdgeKind::StartToStart));
    }

    /// Sets the SoC power budget `p_max` (Equation 6).
    pub fn set_power_cap(&mut self, watts: f64) {
        self.power_cap = Some(watts);
    }

    /// Sets the memory bandwidth budget `b_max` (Equation 7).
    pub fn set_bandwidth_cap(&mut self, gbps: f64) {
        self.bandwidth_cap = Some(gbps);
    }

    /// Sets the CPU-core budget `u_max` (Equation 8).
    pub fn set_core_cap(&mut self, cores: u32) {
        self.core_cap = Some(cores);
    }

    /// Sets a whole-schedule energy budget (W x steps): the sum of the
    /// selected modes' energies must stay at or below it. Unlike the power
    /// cap this is cumulative over the schedule, not per time step.
    pub fn set_energy_cap(&mut self, energy: f64) {
        self.energy_cap = Some(energy);
    }

    /// Declares a user-defined cumulative resource with a per-time-step
    /// capacity — Section VII's memory-hierarchy extension ("bandwidth
    /// limits at each cache level" become one resource per level). Modes
    /// consume it via [`Mode::uses`].
    pub fn add_resource(&mut self, label: impl Into<String>, capacity: f64) -> ResourceId {
        self.resources.push((label.into(), capacity));
        ResourceId(self.resources.len() - 1)
    }

    /// Sets the scheduling horizon in time steps. Defaults to the
    /// sequential upper bound plus one when unset.
    pub fn set_horizon(&mut self, steps: u32) {
        self.horizon = Some(steps);
    }

    /// Validates and freezes the instance.
    ///
    /// Modes that cannot fit the resource caps even on an idle SoC are
    /// dropped; a task losing all its modes is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] describing the first violated invariant:
    /// missing modes, unknown machine or task references, zero durations,
    /// non-finite resource values, cyclic precedence, or a task with no
    /// cap-feasible mode.
    pub fn build(self) -> Result<Instance, SchedError> {
        let num_tasks = self.tasks.len();
        let num_machines = self.machines.len();

        let mut tasks = self.tasks;
        for task in &tasks {
            if task.modes.is_empty() {
                return Err(SchedError::NoModes {
                    task: task.label.clone(),
                });
            }
            for mode in &task.modes {
                if mode.machine.0 >= num_machines {
                    return Err(SchedError::UnknownMachine {
                        task: task.label.clone(),
                        machine: mode.machine.0,
                    });
                }
                if mode.duration == 0 {
                    return Err(SchedError::ZeroDuration {
                        task: task.label.clone(),
                    });
                }
                if !mode.power.is_finite() || mode.power < 0.0 {
                    return Err(SchedError::InvalidResource {
                        task: task.label.clone(),
                        resource: "power",
                    });
                }
                if !mode.bandwidth.is_finite() || mode.bandwidth < 0.0 {
                    return Err(SchedError::InvalidResource {
                        task: task.label.clone(),
                        resource: "bandwidth",
                    });
                }
                for &(resource, amount) in &mode.resource_usage {
                    if resource.0 >= self.resources.len() {
                        return Err(SchedError::UnknownResource {
                            task: task.label.clone(),
                            resource: resource.0,
                        });
                    }
                    if !amount.is_finite() || amount < 0.0 {
                        return Err(SchedError::InvalidResource {
                            task: task.label.clone(),
                            resource: "custom resource",
                        });
                    }
                }
            }
        }

        for &(a, b, _, _) in &self.edges {
            if a >= num_tasks {
                return Err(SchedError::UnknownTask { index: a });
            }
            if b >= num_tasks {
                return Err(SchedError::UnknownTask { index: b });
            }
        }

        let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); num_tasks];
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); num_tasks];
        let mut in_edges: Vec<Vec<Edge>> = vec![Vec::new(); num_tasks];
        let mut out_edges: Vec<Vec<Edge>> = vec![Vec::new(); num_tasks];
        for &(a, b, lag, kind) in &self.edges {
            let edge = Edge {
                before: TaskId(a),
                after: TaskId(b),
                lag,
                kind,
            };
            if !in_edges[b].contains(&edge) {
                in_edges[b].push(edge);
                out_edges[a].push(edge);
            }
            if !succs[a].contains(&TaskId(b)) {
                succs[a].push(TaskId(b));
                preds[b].push(TaskId(a));
            }
        }

        // Kahn's algorithm: topological order / cycle detection.
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..num_tasks).filter(|&t| indegree[t] == 0).collect();
        let mut topo = Vec::with_capacity(num_tasks);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(TaskId(t));
            for &s in &succs[t] {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    queue.push(s.0);
                }
            }
        }
        if topo.len() != num_tasks {
            return Err(SchedError::CyclicPrecedence);
        }

        // Drop cap-infeasible modes; keep per-machine Pareto-optimal modes
        // only (a mode dominated on every axis by another mode on the same
        // machine can never appear in an optimal schedule).
        let caps = (self.power_cap, self.bandwidth_cap, self.core_cap);
        let energy_cap = self.energy_cap;
        let resources = &self.resources;
        for task in &mut tasks {
            let fits = |m: &Mode| {
                caps.0.is_none_or(|c| m.power <= c + 1e-9)
                    && caps.1.is_none_or(|c| m.bandwidth <= c + 1e-9)
                    && caps.2.is_none_or(|c| m.cores <= c)
                    && energy_cap.is_none_or(|c| m.energy() <= c + 1e-9)
                    && resources
                        .iter()
                        .enumerate()
                        .all(|(r, &(_, cap))| m.usage_of(ResourceId(r)) <= cap + 1e-9)
            };
            let feasible: Vec<Mode> = task.modes.iter().filter(|m| fits(m)).cloned().collect();
            if feasible.is_empty() {
                return Err(SchedError::NoFeasibleMode {
                    task: task.label.clone(),
                });
            }
            let mut kept: Vec<Mode> = Vec::with_capacity(feasible.len());
            for mode in feasible {
                let dominated = kept.iter().any(|other| dominates(other, &mode));
                if !dominated {
                    kept.retain(|other| !dominates(&mode, other));
                    kept.push(mode);
                }
            }
            task.modes = kept;
        }

        let horizon = match self.horizon {
            Some(h) => h,
            None => {
                // Scheduling everything back to back always fits; edge lags
                // can additionally force idle gaps, so budget for them too.
                let seq: u64 = tasks
                    .iter()
                    .map(|t| u64::from(t.modes.iter().map(|m| m.duration).max().unwrap_or(0)))
                    .sum();
                let lags: u64 = self
                    .edges
                    .iter()
                    .map(|&(_, _, lag, _)| u64::from(lag))
                    .sum();
                u32::try_from(seq + lags + 1).unwrap_or(u32::MAX)
            }
        };

        Ok(Instance {
            tasks,
            machines: self.machines,
            preds,
            succs,
            in_edges,
            out_edges,
            power_cap: self.power_cap,
            bandwidth_cap: self.bandwidth_cap,
            core_cap: self.core_cap,
            energy_cap: self.energy_cap,
            resources: self.resources,
            horizon,
            topo,
        })
    }
}

/// Returns whether `a` dominates `b`: same machine, and at least as good on
/// every axis. Equal modes dominate each other; the caller keeps the first.
fn dominates(a: &Mode, b: &Mode) -> bool {
    if a.machine != b.machine
        || a.duration > b.duration
        || a.power > b.power + 1e-12
        || a.bandwidth > b.bandwidth + 1e-12
        || a.cores > b.cores
    {
        return false;
    }
    // Every user-defined resource must also be no worse.
    a.resource_usage
        .iter()
        .chain(b.resource_usage.iter())
        .all(|&(r, _)| a.usage_of(r) <= b.usage_of(r) + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_mode(machine: MachineId) -> Mode {
        Mode::on(machine, 1)
    }

    #[test]
    fn builder_round_trips_basic_structure() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("cpu");
        let m1 = b.add_machine("gpu");
        let t0 = b.add_task("a", vec![unit_mode(m0)]);
        let t1 = b.add_task("b", vec![unit_mode(m1)]);
        b.add_precedence(t0, t1);
        let inst = b.build().unwrap();
        assert_eq!(inst.num_tasks(), 2);
        assert_eq!(inst.num_machines(), 2);
        assert_eq!(inst.predecessors(t1), &[t0]);
        assert_eq!(inst.successors(t0), &[t1]);
        assert_eq!(inst.topological_order(), &[t0, t1]);
    }

    #[test]
    fn empty_modes_are_rejected() {
        let mut b = InstanceBuilder::new();
        b.add_machine("cpu");
        b.add_task("a", vec![]);
        assert!(matches!(b.build(), Err(SchedError::NoModes { .. })));
    }

    #[test]
    fn unknown_machine_is_rejected() {
        let mut b = InstanceBuilder::new();
        b.add_machine("cpu");
        b.add_task("a", vec![unit_mode(MachineId(9))]);
        assert!(matches!(b.build(), Err(SchedError::UnknownMachine { .. })));
    }

    #[test]
    fn zero_duration_is_rejected() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(m, 0)]);
        assert!(matches!(b.build(), Err(SchedError::ZeroDuration { .. })));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![unit_mode(m)]);
        let t1 = b.add_task("b", vec![unit_mode(m)]);
        b.add_precedence(t0, t1);
        b.add_precedence(t1, t0);
        assert!(matches!(b.build(), Err(SchedError::CyclicPrecedence)));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![unit_mode(m)]);
        b.add_precedence(t0, t0);
        assert!(matches!(b.build(), Err(SchedError::CyclicPrecedence)));
    }

    #[test]
    fn unknown_precedence_task_is_rejected() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![unit_mode(m)]);
        b.add_precedence(t0, TaskId(7));
        assert!(matches!(
            b.build(),
            Err(SchedError::UnknownTask { index: 7 })
        ));
    }

    #[test]
    fn cap_infeasible_modes_are_dropped() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t = b.add_task(
            "a",
            vec![Mode::on(cpu, 5).power(7.0), Mode::on(gpu, 1).power(300.0)],
        );
        b.set_power_cap(100.0);
        let inst = b.build().unwrap();
        assert_eq!(inst.task(t).modes.len(), 1);
        assert_eq!(inst.task(t).modes[0].machine, cpu);
    }

    #[test]
    fn no_feasible_mode_is_an_error() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(gpu, 1).power(300.0)]);
        b.set_power_cap(100.0);
        assert!(matches!(b.build(), Err(SchedError::NoFeasibleMode { .. })));
    }

    #[test]
    fn dominated_modes_are_pruned_within_a_machine() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        let t = b.add_task(
            "a",
            vec![
                Mode::on(gpu, 5).power(10.0),
                Mode::on(gpu, 3).power(8.0),  // dominates the first
                Mode::on(gpu, 2).power(20.0), // incomparable: faster, hungrier
            ],
        );
        let inst = b.build().unwrap();
        assert_eq!(inst.task(t).modes.len(), 2);
        assert!(inst.task(t).modes.iter().all(|m| m.duration != 5));
    }

    #[test]
    fn dominance_does_not_cross_machines() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t = b.add_task(
            "a",
            vec![Mode::on(cpu, 5).power(7.0), Mode::on(gpu, 1).power(1.0)],
        );
        let inst = b.build().unwrap();
        // The GPU mode is better on every axis but lives on a different
        // machine, so the CPU mode must survive (the GPU may be contended).
        assert_eq!(inst.task(t).modes.len(), 2);
    }

    #[test]
    fn default_horizon_covers_sequential_execution() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(m, 10)]);
        b.add_task("b", vec![Mode::on(m, 20)]);
        let inst = b.build().unwrap();
        assert!(inst.horizon() >= 30);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("cpu");
        let t0 = b.add_task("a", vec![unit_mode(m)]);
        let t1 = b.add_task("b", vec![unit_mode(m)]);
        b.add_precedence(t0, t1);
        b.add_precedence(t0, t1);
        let inst = b.build().unwrap();
        assert_eq!(inst.predecessors(t1).len(), 1);
    }

    #[test]
    fn sequential_upper_bound_sums_max_durations() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(cpu, 10), Mode::on(gpu, 2)]);
        b.add_task("b", vec![Mode::on(cpu, 4)]);
        let inst = b.build().unwrap();
        assert_eq!(inst.sequential_upper_bound(), 14);
    }

    #[test]
    fn min_duration_scans_modes() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t = b.add_task("a", vec![Mode::on(cpu, 10), Mode::on(gpu, 2)]);
        let inst = b.build().unwrap();
        assert_eq!(inst.min_duration(t), 2);
    }

    fn fingerprint_fixture(label: &str, duration: u32, power_cap: f64) -> Instance {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine(format!("{label}-cpu"));
        let gpu = b.add_machine(format!("{label}-gpu"));
        let a = b.add_task(
            format!("{label}-a"),
            vec![Mode::on(cpu, duration).power(3.0).cores(1)],
        );
        let c = b.add_task(
            format!("{label}-b"),
            vec![Mode::on(cpu, 8).power(3.0), Mode::on(gpu, 2).power(9.0)],
        );
        b.add_precedence_lagged(a, c, 1);
        b.set_power_cap(power_cap);
        b.set_horizon(40);
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_ignores_labels_but_not_structure() {
        let base = fingerprint_fixture("x", 4, 50.0);
        let relabeled = fingerprint_fixture("completely-different", 4, 50.0);
        assert_eq!(base.fingerprint(), relabeled.fingerprint());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        let longer = fingerprint_fixture("x", 5, 50.0);
        assert_ne!(base.fingerprint(), longer.fingerprint());
        // A tighter cap changes the fingerprint even before it prunes any
        // mode (the solver sees the cap directly).
        let capped = fingerprint_fixture("x", 4, 20.0);
        assert_ne!(base.fingerprint(), capped.fingerprint());
    }

    #[test]
    fn energy_cap_drops_unaffordable_modes() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        // Energies: 10 (cpu) and 60 (gpu); cap 20 drops the GPU mode.
        let t = b.add_task(
            "a",
            vec![Mode::on(cpu, 5).power(2.0), Mode::on(gpu, 2).power(30.0)],
        );
        b.set_energy_cap(20.0);
        let inst = b.build().unwrap();
        assert_eq!(inst.energy_cap(), Some(20.0));
        assert_eq!(inst.task(t).modes.len(), 1);
        assert_eq!(inst.task(t).modes[0].machine, cpu);
    }

    #[test]
    fn energy_cap_below_every_mode_is_an_error() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 5).power(2.0)]);
        b.set_energy_cap(5.0);
        assert!(matches!(b.build(), Err(SchedError::NoFeasibleMode { .. })));
    }

    #[test]
    fn fingerprint_sees_the_energy_cap() {
        let build = |cap: Option<f64>| {
            let mut b = InstanceBuilder::new();
            let m = b.add_machine("m");
            b.add_task("a", vec![Mode::on(m, 2).power(3.0)]);
            if let Some(c) = cap {
                b.set_energy_cap(c);
            }
            b.set_horizon(20);
            b.build().unwrap()
        };
        assert_ne!(build(None).fingerprint(), build(Some(50.0)).fingerprint());
        assert_ne!(
            build(Some(50.0)).fingerprint(),
            build(Some(40.0)).fingerprint()
        );
    }

    #[test]
    fn min_energy_sums_each_tasks_cheapest_mode() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        // Energies: 12, 6, 6 — the two 6s tie for the minimum.
        b.add_task(
            "a",
            vec![
                Mode::on(cpu, 4).power(3.0),
                Mode::on(gpu, 2).power(3.0),
                Mode::on(dsa, 6).power(1.0),
            ],
        );
        let inst = b.build().unwrap();
        assert!((inst.min_total_energy() - 6.0).abs() < 1e-12);
        assert_eq!(inst.per_task_min_energy(), vec![6.0]);
    }

    #[test]
    fn fingerprint_distinguishes_edge_kinds_and_lags() {
        let build = |kind: EdgeKind, lag: u32| {
            let mut b = InstanceBuilder::new();
            let m = b.add_machine("m");
            let t0 = b.add_task("a", vec![Mode::on(m, 2)]);
            let t1 = b.add_task("b", vec![Mode::on(m, 2)]);
            match kind {
                EdgeKind::FinishToStart => b.add_precedence_lagged(t0, t1, lag),
                EdgeKind::StartToStart => b.add_initiation_interval(t0, t1, lag),
            }
            b.set_horizon(20);
            b.build().unwrap()
        };
        let f2s = build(EdgeKind::FinishToStart, 1);
        let s2s = build(EdgeKind::StartToStart, 1);
        let lagged = build(EdgeKind::FinishToStart, 2);
        assert_ne!(f2s.fingerprint(), s2s.fingerprint());
        assert_ne!(f2s.fingerprint(), lagged.fingerprint());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn lagged_and_start_edges_are_recorded() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        let t0 = b.add_task("a", vec![Mode::on(m, 2)]);
        let t1 = b.add_task("b", vec![Mode::on(m, 2)]);
        let t2 = b.add_task("c", vec![Mode::on(m, 2)]);
        b.add_precedence_lagged(t0, t1, 3);
        b.add_initiation_interval(t0, t2, 1);
        let inst = b.build().unwrap();
        let incoming1 = inst.incoming(t1);
        assert_eq!(incoming1.len(), 1);
        assert_eq!(incoming1[0].lag, 3);
        assert_eq!(incoming1[0].kind, EdgeKind::FinishToStart);
        let incoming2 = inst.incoming(t2);
        assert_eq!(incoming2[0].kind, EdgeKind::StartToStart);
        assert_eq!(inst.outgoing(t0).len(), 2);
    }

    #[test]
    fn duplicate_edges_with_different_lags_both_survive() {
        // Both constraints apply; the effective bound is their maximum.
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        let t0 = b.add_task("a", vec![Mode::on(m, 1)]);
        let t1 = b.add_task("b", vec![Mode::on(m, 1)]);
        b.add_precedence_lagged(t0, t1, 1);
        b.add_precedence_lagged(t0, t1, 4);
        let inst = b.build().unwrap();
        assert_eq!(inst.incoming(t1).len(), 2);
        assert_eq!(inst.predecessors(t1).len(), 1);
    }
}

impl Instance {
    /// Exports the precedence DAG in Graphviz DOT format: one node per
    /// task (labeled with its compatible machines), one edge per
    /// precedence constraint (start-to-start edges are dashed, lags become
    /// edge labels).
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut dot = String::from("digraph instance {\n  rankdir=LR;\n");
        for t in 0..self.num_tasks() {
            let task = TaskId(t);
            let machines: Vec<&str> = self
                .task(task)
                .modes
                .iter()
                .map(|m| self.machines[m.machine.0].as_str())
                .collect();
            let mut unique = machines;
            unique.sort_unstable();
            unique.dedup();
            let _ = writeln!(
                dot,
                "  t{t} [label=\"{}\\n[{}]\"];",
                self.task(task).label,
                unique.join(", ")
            );
        }
        for t in 0..self.num_tasks() {
            for e in self.incoming(TaskId(t)) {
                let style = match e.kind {
                    EdgeKind::FinishToStart => "solid",
                    EdgeKind::StartToStart => "dashed",
                };
                if e.lag > 0 {
                    let _ = writeln!(
                        dot,
                        "  t{} -> t{t} [style={style}, label=\"+{}\"];",
                        e.before.0, e.lag
                    );
                } else {
                    let _ = writeln!(dot, "  t{} -> t{t} [style={style}];", e.before.0);
                }
            }
        }
        dot.push_str("}\n");
        dot
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_lists_tasks_edges_and_lags() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let a = b.add_task("setup", vec![Mode::on(cpu, 1)]);
        let c = b.add_task("compute", vec![Mode::on(cpu, 4), Mode::on(gpu, 2)]);
        b.add_precedence_lagged(a, c, 2);
        let inst = b.build().unwrap();
        let dot = inst.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("setup"));
        assert!(dot.contains("[cpu, gpu]"));
        assert!(dot.contains("t0 -> t1 [style=solid, label=\"+2\"]"));
    }

    #[test]
    fn start_to_start_edges_are_dashed() {
        let mut b = InstanceBuilder::new();
        let m = b.add_machine("m");
        let a = b.add_task("a", vec![Mode::on(m, 1)]);
        let c = b.add_task("b", vec![Mode::on(m, 1)]);
        b.add_initiation_interval(a, c, 0);
        let inst = b.build().unwrap();
        assert!(inst.to_dot().contains("style=dashed"));
    }
}
