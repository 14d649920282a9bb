//! The time-indexed MILP formulation of HILP — the paper's own encoding.
//!
//! The disjunctive encoding in [`crate::milp_encode`] cannot express the
//! cumulative constraints, but the paper's formulation is *time-indexed*
//! (Section II: "HILP discretizes time into time steps; this is a common
//! strategy when using ILP to solve JSSP"), and in a time-indexed model the
//! power, bandwidth, and CPU-core budgets (Equations 6-8) are ordinary
//! linear rows: one per time step, summing the helper function `h` of
//! Equation 5 over the modes active at that step.
//!
//! Decision variables: binaries `x[t][m][s] = 1` iff task `t` runs in mode
//! `m` starting at step `s`. Constraints:
//!
//! * each task picks exactly one `(mode, start)`;
//! * machine exclusivity: for every machine and step, at most one active
//!   `(t, m, s)` covers it (Equation 3);
//! * precedence (Equation 2 / Section VII lags) via start-time expressions;
//! * for every step: `sum(active power) <= p_max`, same for bandwidth and
//!   cores (Equations 6-8);
//! * makespan >= completion of every selected `(m, s)`.
//!
//! The model has `O(tasks x modes x horizon)` binaries, so it is only
//! tractable for the small validation instances — exactly its role here:
//! an independent implementation of the paper's own formulation used to
//! cross-check the dedicated scheduling engine *including* the resource
//! constraints (which the disjunctive encoding cannot).

use hilp_model::{LinExpr, Model, SolveLimits, Var};
use hilp_sched::{EdgeKind, Instance, TaskId};

use crate::milp_encode::MilpEncodeError;

/// Maximum number of `x` binaries accepted before refusing (the dense
/// simplex underneath is didactic, not industrial).
pub const MAX_BINARIES: usize = 4000;

/// Errors specific to the time-indexed encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeIndexedError {
    /// The encoding would exceed [`MAX_BINARIES`] variables.
    TooLarge {
        /// Number of binaries the encoding would need.
        binaries: usize,
    },
    /// The underlying model failed (infeasible, no solution, solver error).
    Encode(MilpEncodeError),
}

impl std::fmt::Display for TimeIndexedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeIndexedError::TooLarge { binaries } => write!(
                f,
                "time-indexed encoding needs {binaries} binaries (limit {MAX_BINARIES})"
            ),
            TimeIndexedError::Encode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TimeIndexedError {}

impl From<hilp_model::ModelError> for TimeIndexedError {
    fn from(e: hilp_model::ModelError) -> Self {
        TimeIndexedError::Encode(MilpEncodeError::Model(e))
    }
}

/// Solves an instance through the time-indexed MILP, returning the optimal
/// makespan. Supports every constraint of the paper's formulation,
/// including power, bandwidth, and core caps.
///
/// # Errors
///
/// Returns [`TimeIndexedError::TooLarge`] when the encoding would exceed
/// [`MAX_BINARIES`] binaries and propagates model infeasibility and solver
/// failures.
#[allow(clippy::needless_range_loop)] // task/step indices address x[t][m][s]
pub fn makespan_via_time_indexed(
    instance: &Instance,
    limits: &SolveLimits,
) -> Result<u32, TimeIndexedError> {
    let n = instance.num_tasks();
    let horizon = instance.horizon() as usize;

    // Count binaries first.
    let mut binaries = 0usize;
    for t in 0..n {
        for mode in &instance.task(TaskId(t)).modes {
            // Modes longer than the horizon have no feasible start at all.
            binaries += (horizon + 1).saturating_sub(mode.duration as usize);
        }
    }
    if binaries > MAX_BINARIES {
        return Err(TimeIndexedError::TooLarge { binaries });
    }

    let mut model = Model::minimize();
    let makespan = model.integer("makespan", 0.0, horizon as f64);
    model.set_objective(makespan);

    if n == 0 {
        let solution = model.solve(limits)?;
        return Ok(solution.int_value(makespan).max(0) as u32);
    }

    // x[t][m][s]: task t in mode m starts at step s.
    let mut x: Vec<Vec<Vec<Var>>> = Vec::with_capacity(n);
    for t in 0..n {
        let mut per_mode = Vec::new();
        for (m, mode) in instance.task(TaskId(t)).modes.iter().enumerate() {
            // A mode longer than the horizon gets no start variables; if
            // every mode of a task is too long, the pick-exactly-one row
            // below makes the model infeasible, as it should.
            let vars: Vec<Var> = match horizon.checked_sub(mode.duration as usize) {
                Some(latest) => (0..=latest)
                    .map(|s| model.binary(format!("x{t}_{m}_{s}")))
                    .collect(),
                None => Vec::new(),
            };
            per_mode.push(vars);
        }
        x.push(per_mode);
    }

    // One (mode, start) per task; start-time and completion expressions.
    let start_expr = |t: usize| -> LinExpr {
        LinExpr::sum(
            x[t].iter()
                .flat_map(|vars| vars.iter().enumerate().map(|(s, &v)| (s as f64) * v)),
        )
    };
    let completion_expr =
        |t: usize| -> LinExpr {
            LinExpr::sum(x[t].iter().zip(&instance.task(TaskId(t)).modes).flat_map(
                |(vars, mode)| {
                    vars.iter()
                        .enumerate()
                        .map(move |(s, &v)| (s as f64 + f64::from(mode.duration)) * v)
                },
            ))
        };
    for t in 0..n {
        let one = LinExpr::sum(
            x[t].iter()
                .flat_map(|vars| vars.iter().map(|&v| LinExpr::from(v))),
        );
        model.eq(one, 1.0);
        model.le(completion_expr(t), makespan);
    }

    // Precedence with lag kinds.
    for t in 0..n {
        for edge in instance.incoming(TaskId(t)) {
            let p = edge.before.0;
            let lag = f64::from(edge.lag);
            match edge.kind {
                EdgeKind::FinishToStart => {
                    model.le(completion_expr(p) + lag, start_expr(t));
                }
                EdgeKind::StartToStart => {
                    model.le(start_expr(p) + lag, start_expr(t));
                }
            }
        }
    }

    // Per-step rows: machine exclusivity and the cumulative budgets
    // (Equations 3 and 6-8 over the helper function of Equation 5). A
    // task-mode started at s is active at step u iff s <= u < s + d.
    for u in 0..horizon {
        let mut per_machine: Vec<LinExpr> = (0..instance.num_machines())
            .map(|_| LinExpr::zero())
            .collect();
        let mut power = LinExpr::zero();
        let mut bandwidth = LinExpr::zero();
        let mut cores = LinExpr::zero();
        let mut any_active = false;
        for t in 0..n {
            for (m, mode) in instance.task(TaskId(t)).modes.iter().enumerate() {
                let d = mode.duration as usize;
                if d > horizon {
                    continue;
                }
                let lo = u.saturating_sub(d - 1);
                let hi = u.min(horizon - d);
                for s in lo..=hi {
                    let v = x[t][m][s];
                    any_active = true;
                    per_machine[mode.machine.0] = per_machine[mode.machine.0].clone() + v;
                    if instance.power_cap().is_some() {
                        power = power + mode.power * v;
                    }
                    if instance.bandwidth_cap().is_some() {
                        bandwidth = bandwidth + mode.bandwidth * v;
                    }
                    if instance.core_cap().is_some() {
                        cores = cores + f64::from(mode.cores) * v;
                    }
                }
            }
        }
        if !any_active {
            continue;
        }
        for machine_row in per_machine {
            if !machine_row.is_empty() {
                model.le(machine_row, 1.0);
            }
        }
        if let Some(cap) = instance.power_cap() {
            if !power.is_empty() {
                model.le(power, cap);
            }
        }
        if let Some(cap) = instance.bandwidth_cap() {
            if !bandwidth.is_empty() {
                model.le(bandwidth, cap);
            }
        }
        if let Some(cap) = instance.core_cap() {
            if !cores.is_empty() {
                model.le(cores, f64::from(cap));
            }
        }
    }

    let solution = model.solve(limits)?;
    Ok(solution.int_value(makespan).max(0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_sched::{solve_exact, InstanceBuilder, Mode, SolverConfig};

    #[test]
    fn reproduces_figure2_optimum() {
        let instance = hilp_core::example2::figure2_instance();
        let milp = makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap();
        assert_eq!(milp, 7);
    }

    #[test]
    fn reproduces_figure3_power_constrained_optimum() {
        // The headline capability the disjunctive encoding lacks: Equation
        // 6 under a 3 W budget. The optimum rises from 7 to 9.
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        for (name, cpu_t, gpu_t, dsa_t) in [("m", 8, 6, 5), ("n", 5, 3, 2)] {
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
        }
        b.set_power_cap(3.0);
        b.set_horizon(11);
        let instance = b.build().unwrap();
        let milp = makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap();
        assert_eq!(milp, 9);
        // And it agrees with the dedicated engine.
        let sched = solve_exact(&instance, &SolverConfig::default()).unwrap();
        assert_eq!(sched.makespan, milp);
    }

    #[test]
    fn handles_core_caps() {
        // Two 1-core tasks on separate machines under a 1-core budget must
        // serialize (Equation 8).
        let mut b = InstanceBuilder::new();
        let c0 = b.add_machine("cpu0");
        let c1 = b.add_machine("cpu1");
        b.add_task("a", vec![Mode::on(c0, 2).cores(1)]);
        b.add_task("b", vec![Mode::on(c1, 2).cores(1)]);
        b.set_core_cap(1);
        b.set_horizon(6);
        let instance = b.build().unwrap();
        assert_eq!(
            makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap(),
            4
        );
    }

    #[test]
    fn handles_bandwidth_caps() {
        let mut b = InstanceBuilder::new();
        let gpu = b.add_machine("gpu");
        let dsa = b.add_machine("dsa");
        b.add_task("a", vec![Mode::on(gpu, 2).bandwidth(60.0)]);
        b.add_task("b", vec![Mode::on(dsa, 2).bandwidth(60.0)]);
        b.set_bandwidth_cap(100.0);
        b.set_horizon(6);
        let instance = b.build().unwrap();
        assert_eq!(
            makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap(),
            4
        );
    }

    #[test]
    fn handles_start_to_start_lags() {
        let mut b = InstanceBuilder::new();
        let m0 = b.add_machine("s0");
        let m1 = b.add_machine("s1");
        let a = b.add_task("a", vec![Mode::on(m0, 4)]);
        let c = b.add_task("b", vec![Mode::on(m1, 4)]);
        b.add_initiation_interval(a, c, 2);
        b.set_horizon(8);
        let instance = b.build().unwrap();
        assert_eq!(
            makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap(),
            6
        );
    }

    #[test]
    fn oversized_encodings_are_refused() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        for i in 0..40 {
            b.add_task(format!("t{i}"), vec![Mode::on(cpu, 10)]);
        }
        b.set_horizon(400);
        let instance = b.build().unwrap();
        assert!(matches!(
            makespan_via_time_indexed(&instance, &SolveLimits::default()),
            Err(TimeIndexedError::TooLarge { .. })
        ));
    }

    #[test]
    fn empty_instance_is_zero() {
        let instance = InstanceBuilder::new().build().unwrap();
        assert_eq!(
            makespan_via_time_indexed(&instance, &SolveLimits::default()).unwrap(),
            0
        );
    }
}
