//! The scheduling engine of the HILP reproduction.
//!
//! HILP's key observation is that scheduling a workload of independent
//! multi-phase applications on a heterogeneous SoC is an instance of the
//! Job-Shop Scheduling Problem (JSSP). The paper solves its formulation
//! with an off-the-shelf ILP solver; this crate implements an equivalent
//! engine from scratch as a *multi-mode resource-constrained project
//! scheduling* (MM-RCPSP) solver, which strictly generalizes the paper's
//! formulation:
//!
//! * **Tasks** are application phases. Precedence is an arbitrary DAG, which
//!   covers both the paper's per-application chains (Equation 2) and the
//!   Section VII streaming-dataflow extension (`D_apq`, Equation 9).
//! * **Machines** are core clusters; at most one task runs on a machine at a
//!   time (the non-interference constraint, Equation 3).
//! * **Modes** encode everything else: the compatibility matrix `E_cap`
//!   (which machines a phase may use) becomes *which modes exist*; DVFS
//!   operating points and CPU core-count choices become additional modes on
//!   the same machine; each mode carries the duration (`T_cap`), power
//!   (`P_cap`), bandwidth (`B_cap`), and CPU-core usage (`U_cap`) of running
//!   the phase that way.
//! * **Cumulative resources** cap total power (`p_max`, Equation 6), memory
//!   bandwidth (`b_max`, Equation 7), and active CPU cores (`u_max`,
//!   Equation 8) per time step.
//!
//! Solving mirrors the anytime contract of the paper's ILP solver: the
//! engine returns its best schedule, a proven lower bound, and the relative
//! optimality gap between them, so callers can apply the paper's "within
//! 10% of optimal" near-optimality criterion.
//!
//! # Example
//!
//! Two unit-duration tasks compete for one machine:
//!
//! ```
//! use hilp_sched::{InstanceBuilder, Mode, SolverConfig};
//!
//! # fn main() -> Result<(), hilp_sched::SchedError> {
//! let mut builder = InstanceBuilder::new();
//! let cpu = builder.add_machine("cpu");
//! let a = builder.add_task("a", vec![Mode::on(cpu, 1)]);
//! let b = builder.add_task("b", vec![Mode::on(cpu, 1)]);
//! builder.set_horizon(10);
//! let instance = builder.build()?;
//! let outcome = hilp_sched::solve(&instance, &SolverConfig::default())?;
//! assert_eq!(outcome.makespan, 2);
//! assert!(outcome.proved_optimal);
//! # let _ = (a, b);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bnb;
mod bounds;
mod error;
mod heuristic;
mod instance;
pub mod online;
mod schedule;
mod sgs;
mod solve;

pub use bounds::{lower_bound, lower_bound_with_energy_cap};
pub use error::SchedError;
pub use instance::{
    Edge, EdgeKind, Instance, InstanceBuilder, MachineId, Mode, ModeId, ResourceId, Task, TaskId,
};
pub use schedule::{Schedule, Violation};
pub use sgs::TimetableKind;
// Internal timetable machinery, re-exported (hidden) so the workspace test
// oracle (`hilp-testkit` and the integration proptests it feeds) can
// cross-check the event-driven representation against the dense reference.
// Not a stable API.
#[doc(hidden)]
pub use sgs::Timetable;
pub use solve::{
    solve, solve_exact, solve_heuristic, solve_pareto, solve_with_hints, solve_with_warm_start,
    Objective, ParetoFront, ParetoPoint, SolveHints, SolveOutcome, SolveStats, SolveTelemetry,
    SolverConfig,
};
// Re-exported so callers can configure `SolverConfig::telemetry` without a
// direct hilp-telemetry dependency.
pub use hilp_telemetry::Telemetry;
// Re-exported so callers can configure `SolverConfig::budget` (and consume
// `SolveOutcome::partial`) without a direct hilp-budget dependency.
pub use hilp_budget::{Budget, BudgetKind, CancelToken, Partial};
