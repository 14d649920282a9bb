//! A disjunctive mixed-integer encoding of scheduling instances.
//!
//! The paper expresses HILP in MiniZinc and hands it to an ILP solver;
//! our primary engine is the dedicated branch-and-bound scheduler in
//! [`hilp_sched`]. This module provides the classic disjunctive MILP
//! formulation of the same problem — decision variables `S_ap` (start
//! times) and mode-selection binaries standing in for `C_ap`, the ordering
//! constraint (Equation 2), and the big-M lowering of the
//! non-interference constraint (Equation 3) — solved with our own
//! simplex-based branch and bound ([`hilp_model`] / `hilp-milp`).
//!
//! It exists to *cross-validate* the two solver stacks against each other:
//! property tests generate small instances and assert both report the same
//! optimal makespan. The encoding covers precedence, modes, and machine
//! exclusivity; the cumulative power/bandwidth/core caps (Equations 6-8)
//! are time-indexed in the paper and intractable for a didactic dense
//! simplex, so instances carrying caps are rejected.

use std::error::Error;
use std::fmt;

use hilp_model::{LinExpr, Model, ModelError, SolveLimits, Var};
use hilp_sched::{Instance, TaskId};

/// Errors produced by the MILP cross-encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpEncodeError {
    /// The instance carries cumulative resource caps, which this encoding
    /// does not cover.
    UnsupportedCaps,
    /// The underlying model solve failed.
    Model(ModelError),
}

impl fmt::Display for MilpEncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpEncodeError::UnsupportedCaps => {
                write!(f, "MILP cross-encoding does not support resource caps")
            }
            MilpEncodeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for MilpEncodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MilpEncodeError::Model(e) => Some(e),
            MilpEncodeError::UnsupportedCaps => None,
        }
    }
}

impl From<ModelError> for MilpEncodeError {
    fn from(e: ModelError) -> Self {
        MilpEncodeError::Model(e)
    }
}

/// Solves a cap-free instance through the disjunctive MILP encoding,
/// returning the optimal makespan.
///
/// # Errors
///
/// Returns [`MilpEncodeError::UnsupportedCaps`] for instances with power,
/// bandwidth, or core caps, and propagates model infeasibility and solver
/// failures.
///
/// # Example
///
/// ```
/// use hilp_core::example2;
/// use hilp_model::SolveLimits;
/// use hilp_testkit::milp_encode::makespan_via_milp;
///
/// let instance = example2::figure2_instance();
/// let makespan = makespan_via_milp(&instance, &SolveLimits::default()).unwrap();
/// assert_eq!(makespan, example2::UNCONSTRAINED_OPTIMUM);
/// ```
pub fn makespan_via_milp(
    instance: &Instance,
    limits: &SolveLimits,
) -> Result<u32, MilpEncodeError> {
    if instance.power_cap().is_some()
        || instance.bandwidth_cap().is_some()
        || instance.core_cap().is_some()
    {
        return Err(MilpEncodeError::UnsupportedCaps);
    }

    let n = instance.num_tasks();
    let horizon = f64::from(instance.horizon());
    let big_m = horizon + 1.0;

    let mut model = Model::minimize();
    let makespan = model.integer("makespan", 0.0, horizon);
    model.set_objective(makespan);

    if n == 0 {
        let solution = model.solve(limits)?;
        return Ok(solution.int_value(makespan).max(0) as u32);
    }

    // S_ap: start times. y_tm: mode selection binaries.
    let starts: Vec<Var> = (0..n)
        .map(|t| model.integer(format!("s{t}"), 0.0, horizon))
        .collect();
    let mode_vars: Vec<Vec<Var>> = (0..n)
        .map(|t| {
            (0..instance.task(TaskId(t)).modes.len())
                .map(|m| model.binary(format!("y{t}_{m}")))
                .collect()
        })
        .collect();

    // Exactly one mode per task; duration expression d_t = sum(y * d).
    let duration_of = |t: usize| -> LinExpr {
        LinExpr::sum(
            instance
                .task(TaskId(t))
                .modes
                .iter()
                .zip(&mode_vars[t])
                .map(|(mode, &y)| f64::from(mode.duration) * y),
        )
    };
    for t in 0..n {
        let one = LinExpr::sum(mode_vars[t].iter().map(|&y| LinExpr::from(y)));
        model.eq(one, 1.0);
        // Completion within horizon and below the makespan.
        model.le(starts[t] + duration_of(t), makespan);
    }

    // Ordering constraint (Equation 2 generalized to the DAG D_apq, with
    // the Section VII lag extensions).
    for t in 0..n {
        for edge in instance.incoming(TaskId(t)) {
            let p = edge.before.0;
            let lag = f64::from(edge.lag);
            match edge.kind {
                hilp_sched::EdgeKind::FinishToStart => {
                    model.le(starts[p] + duration_of(p) + lag, starts[t]);
                }
                hilp_sched::EdgeKind::StartToStart => {
                    model.le(starts[p] + lag, starts[t]);
                }
            }
        }
    }

    // Non-interference (Equation 3): tasks sharing a machine in their
    // selected modes must not overlap.
    for t in 0..n {
        for u in (t + 1)..n {
            let shares_machine = instance.task(TaskId(t)).modes.iter().any(|mt| {
                instance
                    .task(TaskId(u))
                    .modes
                    .iter()
                    .any(|mu| mu.machine == mt.machine)
            });
            if !shares_machine {
                continue;
            }
            let order = model.binary(format!("z{t}_{u}"));
            for (mt_idx, mt) in instance.task(TaskId(t)).modes.iter().enumerate() {
                for (mu_idx, mu) in instance.task(TaskId(u)).modes.iter().enumerate() {
                    if mt.machine != mu.machine {
                        continue;
                    }
                    let yt = mode_vars[t][mt_idx];
                    let yu = mode_vars[u][mu_idx];
                    // Active only when both modes are selected:
                    //   order = 1 -> t before u; order = 0 -> u before t.
                    let guard_slack = big_m * (2.0 - yt - yu);
                    model.le(
                        starts[t] + f64::from(mt.duration),
                        starts[u] + big_m * (1.0 - order) + guard_slack.clone(),
                    );
                    model.le(
                        starts[u] + f64::from(mu.duration),
                        starts[t] + big_m * order + guard_slack,
                    );
                }
            }
        }
    }

    let solution = model.solve(limits)?;
    Ok(solution.int_value(makespan).max(0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_sched::{InstanceBuilder, Mode, SolverConfig};

    #[test]
    fn milp_matches_scheduler_on_figure2() {
        let instance = hilp_core::example2::figure2_instance();
        let milp = makespan_via_milp(&instance, &SolveLimits::default()).unwrap();
        let sched = hilp_sched::solve_exact(&instance, &SolverConfig::default()).unwrap();
        assert_eq!(milp, sched.makespan);
        assert_eq!(milp, 7);
    }

    #[test]
    fn capped_instances_are_rejected() {
        let instance = hilp_core::example2::figure3_instance();
        let err = makespan_via_milp(&instance, &SolveLimits::default()).unwrap_err();
        assert_eq!(err, MilpEncodeError::UnsupportedCaps);
    }

    #[test]
    fn single_machine_serialization() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        b.add_task("a", vec![Mode::on(cpu, 3)]);
        b.add_task("b", vec![Mode::on(cpu, 4)]);
        b.set_horizon(20);
        let instance = b.build().unwrap();
        let milp = makespan_via_milp(&instance, &SolveLimits::default()).unwrap();
        assert_eq!(milp, 7);
    }

    #[test]
    fn mode_choice_uses_the_faster_machine() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        b.add_task("a", vec![Mode::on(cpu, 9), Mode::on(gpu, 2)]);
        b.set_horizon(20);
        let instance = b.build().unwrap();
        assert_eq!(
            makespan_via_milp(&instance, &SolveLimits::default()).unwrap(),
            2
        );
    }

    #[test]
    fn chains_respect_precedence() {
        let mut b = InstanceBuilder::new();
        let cpu = b.add_machine("cpu");
        let gpu = b.add_machine("gpu");
        let t0 = b.add_task("a", vec![Mode::on(cpu, 2)]);
        let t1 = b.add_task("b", vec![Mode::on(gpu, 3)]);
        b.add_precedence(t0, t1);
        b.set_horizon(20);
        let instance = b.build().unwrap();
        assert_eq!(
            makespan_via_milp(&instance, &SolveLimits::default()).unwrap(),
            5
        );
    }

    #[test]
    fn empty_instance_has_zero_makespan() {
        let instance = InstanceBuilder::new().build().unwrap();
        assert_eq!(
            makespan_via_milp(&instance, &SolveLimits::default()).unwrap(),
            0
        );
    }
}
