//! Lowering `(Workload, SocSpec, Constraints, time step)` to a scheduling
//! instance, in two halves.
//!
//! This module materializes the paper's input matrices: each `(phase, core
//! cluster, operating point)` combination becomes one execution *mode*
//! carrying the discretized execution time (`T_cap`), power (`P_cap`),
//! bandwidth (`B_cap`), and CPU-core usage (`U_cap`); which modes exist
//! encodes the compatibility matrix (`E_cap`).
//!
//! [`tabulate`] does everything that does not depend on the time step —
//! the machines, every phase's modes with durations and lags still in
//! seconds, the operating-point choice and the caps — once per design
//! point; [`ModeTable::discretize`] rounds the seconds up to whole steps of
//! one tick and builds the instance, once per refinement level. [`encode`]
//! is the two in a row.

use hilp_sched::{Instance, InstanceBuilder, MachineId, Mode, TaskId};
use hilp_soc::{gpu_operating_points, per_sm_power_w, Constraints, SocSpec, CPU_CORE_POWER_W};
use hilp_workloads::{Workload, CPU_SCALING_EXPONENT};

use crate::error::HilpError;

/// Mapping between workload coordinates and instance ids, returned by
/// [`encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeMaps {
    /// `task_of[app][phase]` is the task id of that phase.
    pub task_of: Vec<Vec<TaskId>>,
    /// The CPU-core machines.
    pub cpu_machines: Vec<MachineId>,
    /// The GPU machine, when the SoC has a GPU.
    pub gpu_machine: Option<MachineId>,
    /// One machine per DSA, in `SocSpec::dsas` order.
    pub dsa_machines: Vec<MachineId>,
    /// The time step (seconds) this encoding was discretized at.
    pub time_step_seconds: f64,
}

/// Discretizes a duration in seconds to time steps (ceiling, at least 1).
fn steps(seconds: f64, time_step: f64) -> u32 {
    let steps = (seconds / time_step).ceil();
    if steps <= 1.0 {
        1
    } else if steps >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        steps as u32
    }
}

/// Rejects a time step that is not a finite, positive number of seconds.
///
/// # Errors
///
/// Returns [`HilpError::InvalidTimeStep`] for such a step.
pub fn check_time_step(time_step_seconds: f64) -> Result<(), HilpError> {
    if time_step_seconds.is_finite() && time_step_seconds > 0.0 {
        Ok(())
    } else {
        Err(HilpError::InvalidTimeStep {
            seconds: time_step_seconds,
        })
    }
}

/// Core-count options for parallel CPU phases: powers of two up to the
/// core count, plus the core count itself.
fn core_options(cpu_cores: u32) -> Vec<u32> {
    let mut ks = Vec::new();
    let mut k = 1;
    while k < cpu_cores {
        ks.push(k);
        k *= 2;
    }
    ks.push(cpu_cores);
    ks
}

/// Upper bound on instantaneous SoC power with every cluster active at its
/// fastest operating point. The core cap bounds total CPU draw at
/// `cores x 7 W` regardless of how phases spread over core machines.
fn worst_case_power(soc: &SocSpec) -> f64 {
    let fastest = *gpu_operating_points().last().expect("table is non-empty");
    let cpu = f64::from(soc.cpu_cores) * CPU_CORE_POWER_W;
    let gpu = f64::from(soc.gpu_sms.unwrap_or(0)) * per_sm_power_w(fastest);
    let dsa: f64 = soc
        .dsas
        .iter()
        .map(|d| f64::from(d.pes) * per_sm_power_w(fastest))
        .sum();
    cpu + gpu + dsa
}

/// Upper bound on instantaneous memory bandwidth with every cluster running
/// its hungriest compatible phase at the fastest clock. Per-core CPU
/// bandwidth is maximal at one core per phase (bandwidth scales sublinearly
/// with core count while core usage scales linearly).
fn worst_case_bandwidth(workload: &Workload, soc: &SocSpec) -> f64 {
    let phases = workload.applications().iter().flat_map(|a| a.phases.iter());
    let mut max_cpu_bw: f64 = 0.0;
    let mut max_gpu_bw: f64 = 0.0;
    let mut max_dsa_bw = vec![0.0f64; soc.dsas.len()];
    for phase in phases {
        if phase.cpu_seconds.is_some() {
            max_cpu_bw = max_cpu_bw.max(phase.cpu_bandwidth_gbps);
        }
        if let Some(profile) = &phase.accel {
            if phase.gpu_eligible {
                if let Some(sms) = soc.gpu_sms {
                    max_gpu_bw = max_gpu_bw.max(profile.bandwidth_at(f64::from(sms)));
                }
            }
            if let Some(key) = &phase.dsa_key {
                for (i, dsa) in soc.dsas.iter().enumerate() {
                    if &dsa.accelerates == key {
                        max_dsa_bw[i] =
                            max_dsa_bw[i].max(profile.bandwidth_at(dsa.equivalent_sms()));
                    }
                }
            }
        }
    }
    f64::from(soc.cpu_cores) * max_cpu_bw + max_gpu_bw + max_dsa_bw.iter().sum::<f64>()
}

/// The tick-free half of an encoding, built by [`tabulate`]: the machines,
/// every phase's modes with their durations in seconds, the precedence
/// edges with their lags in seconds, and the caps. Discretizing it at a
/// tick ([`ModeTable::discretize`]) is a pure function of the table and
/// the tick, so two equal tables give identical instances at every tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeTable {
    /// Machine labels, in machine-id order.
    machines: Vec<String>,
    /// Task labels and modes, in task-id order.
    tasks: Vec<(String, Vec<TableMode>)>,
    /// Edges in the order they are added to the instance.
    edges: Vec<TableEdge>,
    power_cap: Option<f64>,
    bandwidth_cap: Option<f64>,
    core_cap: u32,
    task_of: Vec<Vec<TaskId>>,
    cpu_machines: Vec<MachineId>,
    gpu_machine: Option<MachineId>,
    dsa_machines: Vec<MachineId>,
}

/// A [`Mode`] whose duration is still in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TableMode {
    machine: MachineId,
    seconds: f64,
    power: f64,
    bandwidth: f64,
    cores: u32,
}

/// A precedence edge of a [`ModeTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum TableEdge {
    /// `after` starts once `before` has finished.
    Precedence(TaskId, TaskId),
    /// `after` starts at least this many seconds after `before` starts.
    InitiationInterval(TaskId, TaskId, f64),
}

/// Builds the tick-free [`ModeTable`] for evaluating `workload` on `soc`
/// under `constraints`; [`ModeTable::discretize`] turns it into the
/// instance at one time step.
///
/// Operating points: when neither power nor bandwidth is constrained, only
/// the fastest (765 MHz baseline) operating point is emitted — lower
/// clocks are never beneficial then. Under constraints the full Table III
/// DVFS range is emitted, letting the solver pick the paper's "idealized
/// operating point" per phase (Section III-C).
///
/// # Errors
///
/// Returns [`HilpError::NoCompatibleCluster`] when a phase cannot execute
/// anywhere on this SoC.
pub fn tabulate(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
) -> Result<ModeTable, HilpError> {
    let mut machines = Vec::new();
    let mut add_machine = |label: String| {
        machines.push(label);
        MachineId(machines.len() - 1)
    };
    let cpu_machines: Vec<MachineId> = (0..soc.cpu_cores)
        .map(|i| add_machine(format!("cpu{i}")))
        .collect();
    let gpu_machine = soc.gpu_sms.map(|sms| add_machine(format!("gpu{sms}")));
    let dsa_machines: Vec<MachineId> = soc
        .dsas
        .iter()
        .map(|d| add_machine(format!("dsa:{}^{}", d.accelerates, d.pes)))
        .collect();

    // Use the full DVFS range only when a constraint can actually bind:
    // when even the all-clusters-active worst case fits inside the budget,
    // slower operating points are provably never beneficial and emitting
    // them would only bloat the solution space (Section III-D's "as simple
    // as possible, but no simpler").
    let power_may_bind = constraints
        .power_w
        .is_some_and(|cap| worst_case_power(soc) > cap);
    let bandwidth_may_bind = constraints
        .bandwidth_gbps
        .is_some_and(|cap| worst_case_bandwidth(workload, soc) > cap);
    let constrained = power_may_bind || bandwidth_may_bind;
    let op_points: Vec<_> = if constrained {
        // Fastest first so the greedy mode scan prunes hopeless clocks.
        gpu_operating_points().iter().rev().copied().collect()
    } else {
        vec![*gpu_operating_points().last().expect("table is non-empty")]
    };
    let baseline_freq = f64::from(
        gpu_operating_points()
            .last()
            .expect("table is non-empty")
            .freq_mhz,
    );

    let ks = core_options(soc.cpu_cores);
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    let mut task_of: Vec<Vec<TaskId>> = Vec::with_capacity(workload.applications().len());

    for app in workload.applications() {
        let mut ids = Vec::with_capacity(app.phases.len());
        for phase in &app.phases {
            let mut modes: Vec<TableMode> = Vec::new();

            // CPU modes: one per core machine and per core-count option.
            if let Some(cpu_seconds) = phase.cpu_seconds {
                let options: &[u32] = if phase.cpu_parallel { &ks } else { &ks[..1] };
                for &cpu in &cpu_machines {
                    for &k in options {
                        let scale = f64::from(k).powf(CPU_SCALING_EXPONENT);
                        modes.push(TableMode {
                            machine: cpu,
                            seconds: cpu_seconds * scale,
                            power: CPU_CORE_POWER_W * f64::from(k),
                            bandwidth: phase.cpu_bandwidth_gbps / scale,
                            cores: k,
                        });
                    }
                }
            }

            // GPU modes: one per operating point.
            if let (Some(profile), Some(gpu), Some(sms), true) = (
                phase.accel.as_ref(),
                gpu_machine,
                soc.gpu_sms,
                phase.gpu_eligible,
            ) {
                let sms_f = f64::from(sms);
                for op in &op_points {
                    let slowdown = baseline_freq / f64::from(op.freq_mhz);
                    modes.push(TableMode {
                        machine: gpu,
                        seconds: profile.seconds_at(sms_f) * slowdown,
                        power: sms_f * per_sm_power_w(*op),
                        bandwidth: profile.bandwidth_at(sms_f) / slowdown,
                        cores: 0,
                    });
                }
            }

            // DSA modes: the DSA behaves like a GPU slice of
            // `advantage * pes` SMs at the power of `pes` SMs.
            if let (Some(profile), Some(key)) = (phase.accel.as_ref(), phase.dsa_key.as_ref()) {
                for (dsa, &machine) in soc.dsas.iter().zip(&dsa_machines) {
                    if &dsa.accelerates != key {
                        continue;
                    }
                    let eq_sms = dsa.equivalent_sms();
                    for op in &op_points {
                        let slowdown = baseline_freq / f64::from(op.freq_mhz);
                        modes.push(TableMode {
                            machine,
                            seconds: profile.seconds_at(eq_sms) * slowdown,
                            power: f64::from(dsa.pes) * per_sm_power_w(*op),
                            bandwidth: profile.bandwidth_at(eq_sms) / slowdown,
                            cores: 0,
                        });
                    }
                }
            }

            if modes.is_empty() {
                return Err(HilpError::NoCompatibleCluster {
                    phase: phase.name.clone(),
                });
            }
            ids.push(TaskId(tasks.len()));
            tasks.push((phase.name.clone(), modes));
        }

        for &(before, after) in &app.dependencies {
            edges.push(TableEdge::Precedence(ids[before], ids[after]));
        }
        for &(before, after, seconds) in &app.start_dependencies {
            edges.push(TableEdge::InitiationInterval(
                ids[before],
                ids[after],
                seconds,
            ));
        }
        task_of.push(ids);
    }

    Ok(ModeTable {
        machines,
        tasks,
        edges,
        power_cap: constraints.power_w,
        bandwidth_cap: constraints.bandwidth_gbps,
        core_cap: soc.cpu_cores,
        task_of,
        cpu_machines,
        gpu_machine,
        dsa_machines,
    })
}

impl ModeTable {
    /// Builds the scheduling instance at the given time-step resolution:
    /// every duration and lag rounds up to whole steps, then
    /// [`InstanceBuilder::build`] drops cap-infeasible and dominated modes.
    ///
    /// # Errors
    ///
    /// Returns [`HilpError::InvalidTimeStep`] for a time step that is not
    /// finite and positive, and propagates instance-validation failures.
    pub fn discretize(&self, time_step_seconds: f64) -> Result<(Instance, EncodeMaps), HilpError> {
        check_time_step(time_step_seconds)?;
        let mut builder = InstanceBuilder::new();
        for label in &self.machines {
            builder.add_machine(label.clone());
        }
        for (label, modes) in &self.tasks {
            let modes = modes
                .iter()
                .map(|m| {
                    Mode::on(m.machine, steps(m.seconds, time_step_seconds))
                        .power(m.power)
                        .bandwidth(m.bandwidth)
                        .cores(m.cores)
                })
                .collect();
            builder.add_task(label.clone(), modes);
        }
        for &edge in &self.edges {
            match edge {
                TableEdge::Precedence(before, after) => builder.add_precedence(before, after),
                TableEdge::InitiationInterval(before, after, seconds) => {
                    let lag = steps(seconds, time_step_seconds);
                    // A zero-second interval still means "not earlier
                    // than", i.e. lag 0; `steps` floors at 1, so
                    // special-case it.
                    let lag = if seconds <= 0.0 { 0 } else { lag };
                    builder.add_initiation_interval(before, after, lag);
                }
            }
        }
        if let Some(p) = self.power_cap {
            builder.set_power_cap(p);
        }
        if let Some(b) = self.bandwidth_cap {
            builder.set_bandwidth_cap(b);
        }
        builder.set_core_cap(self.core_cap);

        let instance = builder.build()?;
        Ok((
            instance,
            EncodeMaps {
                task_of: self.task_of.clone(),
                cpu_machines: self.cpu_machines.clone(),
                gpu_machine: self.gpu_machine,
                dsa_machines: self.dsa_machines.clone(),
                time_step_seconds,
            },
        ))
    }

    /// Feeds `word` every field [`ModeTable::discretize`] reads except the
    /// labels, floats by bit pattern, so that two tables feeding the same
    /// words discretize to instances that differ at most in labels, at
    /// every tick. Labels are left out because they never change a
    /// solve: an unused DSA's machine name carries its PE count.
    pub fn key_words(&self, mut word: impl FnMut(u64)) {
        fn option(word: &mut impl FnMut(u64), value: Option<u64>) {
            match value {
                None => word(0),
                Some(v) => {
                    word(1);
                    word(v);
                }
            }
        }
        word(self.machines.len() as u64);
        word(self.tasks.len() as u64);
        for (_, modes) in &self.tasks {
            word(modes.len() as u64);
            for m in modes {
                word(m.machine.0 as u64);
                word(m.seconds.to_bits());
                word(m.power.to_bits());
                word(m.bandwidth.to_bits());
                word(u64::from(m.cores));
            }
        }
        word(self.edges.len() as u64);
        for edge in &self.edges {
            match *edge {
                TableEdge::Precedence(before, after) => {
                    word(0);
                    word(before.0 as u64);
                    word(after.0 as u64);
                }
                TableEdge::InitiationInterval(before, after, seconds) => {
                    word(1);
                    word(before.0 as u64);
                    word(after.0 as u64);
                    word(seconds.to_bits());
                }
            }
        }
        option(&mut word, self.power_cap.map(f64::to_bits));
        option(&mut word, self.bandwidth_cap.map(f64::to_bits));
        word(u64::from(self.core_cap));
        word(self.task_of.len() as u64);
        for ids in &self.task_of {
            word(ids.len() as u64);
            ids.iter().for_each(|id| word(id.0 as u64));
        }
        for machines in [&self.cpu_machines, &self.dsa_machines] {
            word(machines.len() as u64);
            machines.iter().for_each(|m| word(m.0 as u64));
        }
        option(&mut word, self.gpu_machine.map(|m| m.0 as u64));
    }
}

/// Builds the scheduling instance for evaluating `workload` on `soc` under
/// `constraints` at the given time-step resolution: [`tabulate`], then
/// [`ModeTable::discretize`]. Evaluating one design point at several ticks
/// is cheaper with the two halves, tabulating once.
///
/// # Errors
///
/// Returns [`HilpError::InvalidTimeStep`] for a time step that is not
/// finite and positive (checked first), [`HilpError::NoCompatibleCluster`]
/// when a phase cannot execute anywhere on this SoC, and propagates
/// instance-validation failures.
pub fn encode(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    time_step_seconds: f64,
) -> Result<(Instance, EncodeMaps), HilpError> {
    check_time_step(time_step_seconds)?;
    tabulate(workload, soc, constraints)?.discretize(time_step_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_soc::DsaSpec;
    use hilp_workloads::{Workload, WorkloadVariant};

    #[test]
    fn steps_round_up_with_floor_of_one() {
        assert_eq!(steps(0.0001, 2.0), 1);
        assert_eq!(steps(2.0, 2.0), 1);
        assert_eq!(steps(2.1, 2.0), 2);
        assert_eq!(steps(10.0, 2.0), 5);
    }

    #[test]
    fn core_options_are_powers_of_two_plus_total() {
        assert_eq!(core_options(1), vec![1]);
        assert_eq!(core_options(4), vec![1, 2, 4]);
        assert_eq!(core_options(6), vec![1, 2, 4, 6]);
        assert_eq!(core_options(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn rodinia_encoding_has_expected_shape() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap();
        // 4 CPUs + GPU + 2 DSAs = 7 machines, 30 tasks.
        assert_eq!(inst.num_machines(), 7);
        assert_eq!(inst.num_tasks(), 30);
        assert_eq!(maps.cpu_machines.len(), 4);
        assert!(maps.gpu_machine.is_some());
        assert_eq!(maps.dsa_machines.len(), 2);
        assert_eq!(inst.core_cap(), Some(4));
    }

    #[test]
    fn unconstrained_encoding_uses_single_operating_point() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1).with_gpu(16);
        let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap();
        // Compute phase of app 0 (BFS): 1 CPU mode + 1 GPU mode (after
        // dominance pruning there can be fewer, but never more).
        let compute = maps.task_of[0][1];
        assert!(inst.task(compute).modes.len() <= 2);
        let _ = inst;
    }

    #[test]
    fn constrained_encoding_offers_dvfs_range() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1).with_gpu(64);
        let (inst, maps) = encode(
            &w,
            &soc,
            &Constraints::unconstrained().with_power(50.0),
            0.1,
        )
        .unwrap();
        let compute = maps.task_of[3][1]; // HS.compute: long enough that clocks differ
                                          // Under a 50 W cap the 64-SM GPU's fast clocks are cap-infeasible
                                          // and dropped, but several slow ones must survive.
        let gpu_modes = inst
            .task(compute)
            .modes
            .iter()
            .filter(|m| Some(m.machine) == maps.gpu_machine)
            .count();
        assert!(gpu_modes >= 2, "expected a DVFS range, got {gpu_modes}");
    }

    #[test]
    fn setup_phases_only_get_cpu_modes() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(4, "BFS"));
        let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap();
        let setup = maps.task_of[0][0];
        for mode in &inst.task(setup).modes {
            assert!(maps.cpu_machines.contains(&mode.machine));
            assert_eq!(mode.cores, 1);
        }
    }

    #[test]
    fn dsa_modes_only_exist_for_matching_benchmarks() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1).with_dsa(DsaSpec::new(4, "HS"));
        let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap();
        let dsa = maps.dsa_machines[0];
        // HS.compute (app index 3) may use the DSA; BFS.compute may not.
        let hs_compute = maps.task_of[3][1];
        let bfs_compute = maps.task_of[0][1];
        assert!(inst.task(hs_compute).modes.iter().any(|m| m.machine == dsa));
        assert!(inst
            .task(bfs_compute)
            .modes
            .iter()
            .all(|m| m.machine != dsa));
    }

    #[test]
    fn dsa_speed_reflects_efficiency_advantage() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let make = |adv: f64| {
            let soc = SocSpec::new(1).with_dsa(DsaSpec::new(16, "HS").with_advantage(adv));
            let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 0.1).unwrap();
            let hs_compute = maps.task_of[3][1];
            inst.task(hs_compute)
                .modes
                .iter()
                .find(|m| m.machine == maps.dsa_machines[0])
                .map(|m| m.duration)
                .unwrap()
        };
        // HS scales linearly (b = -1.0): doubling the advantage halves time.
        let d4 = make(4.0);
        let d8 = make(8.0);
        assert!((f64::from(d4) / f64::from(d8) - 2.0).abs() < 0.1);
    }

    #[test]
    fn pinned_phase_without_its_dsa_is_an_error() {
        let w = hilp_workloads::sda::sda_workload(1, hilp_workloads::sda::SdaScenario::Baseline);
        let soc = SocSpec::new(1).with_gpu(8); // no DSAs at all
        let err = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap_err();
        assert!(matches!(err, HilpError::NoCompatibleCluster { .. }));
    }

    #[test]
    fn invalid_time_step_is_rejected() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1);
        assert!(matches!(
            encode(&w, &soc, &Constraints::unconstrained(), 0.0),
            Err(HilpError::InvalidTimeStep { .. })
        ));
        assert!(matches!(
            encode(&w, &soc, &Constraints::unconstrained(), f64::NAN),
            Err(HilpError::InvalidTimeStep { .. })
        ));
    }

    #[test]
    fn parallel_cpu_modes_consume_cores() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4);
        let (inst, maps) = encode(&w, &soc, &Constraints::unconstrained(), 1.0).unwrap();
        let compute = maps.task_of[5][1]; // LUD.compute
        let max_cores = inst.task(compute).modes.iter().map(|m| m.cores).max();
        assert_eq!(max_cores, Some(4));
        // 4-core mode is faster than 1-core mode.
        let d1 = inst
            .task(compute)
            .modes
            .iter()
            .find(|m| m.cores == 1)
            .unwrap()
            .duration;
        let d4 = inst
            .task(compute)
            .modes
            .iter()
            .find(|m| m.cores == 4)
            .unwrap()
            .duration;
        assert!(d4 < d1);
    }
}
