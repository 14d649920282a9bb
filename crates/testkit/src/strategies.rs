//! Shared random generators for the differential oracle and the workspace
//! property tests.
//!
//! Promoted and generalized from the ad-hoc strategies that used to live in
//! `crates/sched/src/proptests.rs`; every consumer (the sched proptests, the
//! top-level oracle tests, and the `fuzz_smoke` binary) now draws from the
//! same distributions, so a generator improvement benefits all of them.
//!
//! Generated instances are valid by construction: cumulative caps are drawn
//! at or above the largest single-mode usage, so `InstanceBuilder::build`
//! never rejects a drawn instance. Horizons may optionally be tightened below
//! the sequential fallback, which intentionally produces some *infeasible*
//! instances — the oracle checks that all solvers agree on infeasibility too.

use proptest::prelude::*;

use hilp_sched::{Instance, InstanceBuilder, MachineId, Mode, ResourceId};
use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_workloads::{Application, GpuProfile, Phase, PhaseKind, Workload};

/// Probability (percent) that any given upper-triangle task pair gets a
/// precedence edge.
const EDGE_PERCENT: u8 = 35;

/// DSA keys shared between [`arb_workload`] and [`arb_soc`] so that drawn
/// SoCs sometimes accelerate drawn phases.
pub const DSA_KEYS: [&str; 3] = ["LUD", "HS", "SRAD"];

/// Tunable shape of a random scheduling instance.
#[derive(Debug, Clone)]
pub struct InstanceParams {
    /// Minimum number of tasks (inclusive).
    pub min_tasks: usize,
    /// Maximum number of tasks (inclusive).
    pub max_tasks: usize,
    /// Number of machines (≥ 1).
    pub machines: usize,
    /// Maximum mode duration in steps (≥ 1).
    pub max_duration: u8,
    /// Whether tasks may get a second, cap-free alternative mode.
    pub alt_modes: bool,
    /// Whether edges may carry lags and start-to-start (initiation-interval)
    /// semantics.
    pub lags: bool,
    /// Whether power/bandwidth/core caps may be drawn.
    pub caps: bool,
    /// Whether a custom cumulative resource may be drawn.
    pub custom_resource: bool,
    /// Whether the horizon may be tightened below the always-feasible
    /// sequential fallback (producing some infeasible instances).
    pub tight_horizons: bool,
}

impl InstanceParams {
    /// Instances small enough for the exhaustive brute-force reference
    /// (2–5 tasks), with every feature enabled.
    pub fn tiny() -> Self {
        Self {
            min_tasks: 2,
            max_tasks: 5,
            machines: 3,
            max_duration: 4,
            alt_modes: true,
            lags: true,
            caps: true,
            custom_resource: true,
            tight_horizons: true,
        }
    }

    /// Instances beyond brute-force reach (6–10 tasks) for solver-vs-solver
    /// and bounds-sandwich checks.
    pub fn small() -> Self {
        Self {
            min_tasks: 6,
            max_tasks: 10,
            machines: 3,
            max_duration: 8,
            alt_modes: true,
            lags: true,
            caps: true,
            custom_resource: true,
            tight_horizons: false,
        }
    }
}

/// Random multi-mode instances with precedence (optionally lagged and
/// start-to-start), cumulative caps, custom resources, and occasionally
/// tight horizons, per `params`.
pub fn arb_instance(params: InstanceParams) -> BoxedStrategy<Instance> {
    (params.min_tasks..=params.max_tasks)
        .prop_flat_map(move |n| {
            let p = params.clone();
            let machines = p.machines as u8;
            (
                Just((n, p.clone())),
                // Per task: (machine, duration, power, bandwidth, cores, resource).
                prop::collection::vec(
                    (
                        0..machines,
                        1..=p.max_duration,
                        0..=6u8,
                        0..=6u8,
                        0..=3u8,
                        0..=5u8,
                    ),
                    n,
                ),
                // Optional cap-free alternative mode per task.
                prop::collection::vec(prop::option::of((0..machines, 1..=p.max_duration)), n),
                // Per upper-triangle pair: (percent roll, lag, start-to-start?).
                prop::collection::vec((0..100u8, 0..=3u8, prop::bool::ANY), n * (n - 1) / 2),
                // Cap magnitudes and which caps are active.
                (
                    (6..=12u8, 6..=12u8, 3..=5u8, 5..=9u8),
                    (
                        prop::bool::ANY,
                        prop::bool::ANY,
                        prop::bool::ANY,
                        prop::bool::ANY,
                    ),
                ),
                // Horizon tightening: (tighten?, percent of the default kept).
                (prop::bool::ANY, 55..=100u8),
            )
        })
        .prop_map(
            |((n, p), task_seeds, alt_seeds, edge_seeds, caps, horizon)| {
                realize_instance(n, &p, &task_seeds, &alt_seeds, &edge_seeds, caps, horizon)
            },
        )
        .boxed()
}

type TaskSeed = (u8, u8, u8, u8, u8, u8);
type CapSeed = ((u8, u8, u8, u8), (bool, bool, bool, bool));

#[allow(clippy::too_many_arguments)]
fn realize_instance(
    n: usize,
    p: &InstanceParams,
    task_seeds: &[TaskSeed],
    alt_seeds: &[Option<(u8, u8)>],
    edge_seeds: &[(u8, u8, bool)],
    ((power_cap, bw_cap, core_cap, res_cap), (use_power, use_bw, use_cores, use_res)): CapSeed,
    (tighten, keep_percent): (bool, u8),
) -> Instance {
    let mut b = InstanceBuilder::new();
    let machines: Vec<MachineId> = (0..p.machines)
        .map(|i| b.add_machine(format!("m{i}")))
        .collect();
    let resource =
        (p.custom_resource && use_res).then(|| b.add_resource("shared", f64::from(res_cap) * 1.5));
    let mut tasks = Vec::with_capacity(n);
    let mut seq_horizon = 1u32;
    for t in 0..n {
        let (m, dur, power, bw, cores, res) = task_seeds[t];
        let mut mode = Mode::on(machines[usize::from(m) % p.machines], u32::from(dur))
            .power(f64::from(power))
            .bandwidth(f64::from(bw) * 1.25)
            .cores(u32::from(cores));
        if let Some(r) = resource {
            mode = mode.uses(r, f64::from(res) * 1.5);
        }
        let mut max_dur = u32::from(dur);
        let mut modes = vec![mode];
        if p.alt_modes {
            if let Some((am, adur)) = alt_seeds[t] {
                modes.push(Mode::on(
                    machines[usize::from(am) % p.machines],
                    u32::from(adur),
                ));
                max_dur = max_dur.max(u32::from(adur));
            }
        }
        seq_horizon += max_dur;
        tasks.push(b.add_task(format!("t{t}"), modes));
    }
    let mut e = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let (roll, lag, start_to_start) = edge_seeds[e];
            e += 1;
            if roll < EDGE_PERCENT {
                let lag = if p.lags { u32::from(lag) } else { 0 };
                seq_horizon += lag;
                if p.lags && start_to_start {
                    b.add_initiation_interval(tasks[i], tasks[j], lag);
                } else {
                    b.add_precedence_lagged(tasks[i], tasks[j], lag);
                }
            }
        }
    }
    if p.caps {
        // Every cap is at least the largest single-mode usage, so no task
        // loses all its modes and `build` cannot fail.
        if use_power {
            b.set_power_cap(f64::from(power_cap));
        }
        if use_bw {
            b.set_bandwidth_cap(f64::from(bw_cap) * 1.25);
        }
        if use_cores {
            b.set_core_cap(u32::from(core_cap));
        }
    }
    if p.tight_horizons && tighten {
        b.set_horizon((seq_horizon * u32::from(keep_percent) / 100).max(1));
    }
    b.build().expect("strategy-generated instances are valid")
}

/// Random synthetic workloads: 1–3 applications of 1–3 phases each, with
/// optional GPU/DSA acceleration profiles and chain or pipelined
/// (start-to-start) phase dependencies.
pub fn arb_workload() -> BoxedStrategy<Workload> {
    let phase = (
        0.5..=25.0f64,
        prop::bool::ANY,
        prop::option::of((0.1..=10.0f64, 0.3..=0.9f64, 10.0..=100.0f64, 0.2..=0.8f64)),
        prop::bool::ANY,
        0..=5u8,
        0.5..=8.0f64,
    );
    let app = (
        prop::collection::vec(phase, 1..=3usize),
        prop::bool::ANY,
        prop::option::of(0.05..=2.0f64),
    );
    prop::collection::vec(app, 1..=3usize)
        .prop_map(|apps| {
            let apps = apps
                .into_iter()
                .enumerate()
                .map(|(a, (phases, chain, pipeline))| {
                    realize_application(a, phases, chain, pipeline)
                })
                .collect();
            Workload::new("fuzz", apps)
        })
        .boxed()
}

type PhaseSeed = (f64, bool, Option<(f64, f64, f64, f64)>, bool, u8, f64);

fn realize_application(
    app_index: usize,
    phase_seeds: Vec<PhaseSeed>,
    chain: bool,
    pipeline: Option<f64>,
) -> Application {
    let num_phases = phase_seeds.len();
    let phases = phase_seeds
        .into_iter()
        .enumerate()
        .map(
            |(i, (cpu_seconds, cpu_parallel, accel_seed, gpu, dsa_idx, cpu_bw))| {
                let accel = accel_seed.map(|(secs, time_exp, bw, bw_exp)| GpuProfile {
                    seconds_at_14sm: secs,
                    time_exponent: -time_exp,
                    bandwidth_at_14sm_gbps: bw,
                    bandwidth_exponent: bw_exp,
                });
                let has_accel = accel.is_some();
                Phase {
                    name: format!("app{app_index}.p{i}"),
                    kind: PhaseKind::Custom,
                    cpu_seconds: Some(cpu_seconds),
                    cpu_parallel,
                    accel,
                    gpu_eligible: gpu && has_accel,
                    dsa_key: (has_accel && usize::from(dsa_idx) < DSA_KEYS.len())
                        .then(|| DSA_KEYS[usize::from(dsa_idx)].to_string()),
                    cpu_bandwidth_gbps: cpu_bw,
                }
            },
        )
        .collect();
    let mut dependencies = Vec::new();
    let mut start_dependencies = Vec::new();
    if let Some(seconds) = pipeline {
        for k in 0..num_phases.saturating_sub(1) {
            start_dependencies.push((k, k + 1, seconds));
        }
    } else if chain {
        for k in 0..num_phases.saturating_sub(1) {
            dependencies.push((k, k + 1));
        }
    }
    Application {
        name: format!("app{app_index}"),
        phases,
        dependencies,
        start_dependencies,
    }
}

/// Random SoC specs: 1–6 CPU cores, an optional GPU, and up to two DSAs
/// whose keys overlap [`arb_workload`]'s phase keys.
pub fn arb_soc() -> BoxedStrategy<SocSpec> {
    (
        1..=6u32,
        prop::option::of(4..=32u32),
        prop::collection::vec((4..=32u32, 0..=2u8), 0..=2usize),
    )
        .prop_map(|(cores, gpu, dsas)| {
            let mut soc = SocSpec::new(cores);
            if let Some(sms) = gpu {
                soc = soc.with_gpu(sms);
            }
            for (pes, key) in dsas {
                soc = soc.with_dsa(DsaSpec::new(pes, DSA_KEYS[usize::from(key)]));
            }
            soc
        })
        .boxed()
}

/// Random constraint sets: optional power and bandwidth budgets drawn wide
/// enough that CPU fallback modes stay feasible.
pub fn arb_constraints() -> BoxedStrategy<Constraints> {
    (
        prop::option::of(100.0..=800.0f64),
        prop::option::of(100.0..=900.0f64),
    )
        .prop_map(|(power, bandwidth)| {
            let mut c = Constraints::unconstrained();
            if let Some(watts) = power {
                c = c.with_power(watts);
            }
            if let Some(gbps) = bandwidth {
                c = c.with_bandwidth(gbps);
            }
            c
        })
        .boxed()
}

/// One random timetable operation: `((machine, duration, est),
/// (power, bandwidth, cores, resource), unplace_instead)`. Consumed by the
/// sched timetable differential proptest.
pub type TimetableOp = ((u8, u8, u8), (u8, u8, u8, u8), bool);

/// Random sequences of timetable place/probe/unplace operations.
pub fn timetable_ops() -> BoxedStrategy<Vec<TimetableOp>> {
    prop::collection::vec(
        (
            (0..3u8, 1..=24u8, 0..=120u8),
            (0..=6u8, 0..=6u8, 0..=3u8, 0..=6u8),
            prop::bool::ANY,
        ),
        1..48,
    )
    .boxed()
}

/// A machine/cap shell for driving timetables directly: probes and
/// placements use ad-hoc modes from [`op_mode`]. A timetable answers only
/// for modes of its own instance, so each machine gets a task carrying the
/// largest draws those modes put on it: power 4.5, bandwidth 7.5 and 3
/// cores. Its shared-resource draw stops at the 7.5 capacity, since the
/// builder drops a mode that exceeds a cap on its own (an ad-hoc draw past
/// the capacity never fits anywhere). Summed over the machines, every draw
/// exceeds its cap, so every dimension stays tracked.
pub fn shell_instance() -> (Instance, ResourceId) {
    let mut b = InstanceBuilder::new();
    let machines = [
        b.add_machine("m0"),
        b.add_machine("m1"),
        b.add_machine("m2"),
    ];
    let res = b.add_resource("shared", 7.5);
    for machine in machines {
        let peak = Mode::on(machine, 1)
            .power(4.5)
            .bandwidth(7.5)
            .cores(3)
            .uses(res, 7.5);
        b.add_task(format!("peak{}", machine.0), vec![peak]);
    }
    b.set_power_cap(8.25);
    b.set_bandwidth_cap(9.5);
    b.set_core_cap(4);
    b.set_horizon(400);
    (b.build().expect("valid shell"), res)
}

/// The ad-hoc mode a [`TimetableOp`] places on the [`shell_instance`].
pub fn op_mode(op: &TimetableOp, res: ResourceId) -> Mode {
    let ((machine, duration, _), (power, bandwidth, cores, extra), _) = *op;
    Mode::on(MachineId(usize::from(machine % 3)), u32::from(duration))
        .power(f64::from(power) * 0.75)
        .bandwidth(f64::from(bandwidth) * 1.25)
        .cores(u32::from(cores))
        .uses(res, f64::from(extra) * 1.5)
}
