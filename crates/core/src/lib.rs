//! # HILP — WLP-aware early-stage SoC design-space exploration
//!
//! This crate is the primary contribution of the reproduced paper:
//! *HILP: Accounting for Workload-Level Parallelism in System-on-Chip
//! Design Space Exploration* (HPCA 2025). HILP evaluates a heterogeneous
//! SoC on a *workload* — a set of independent multi-phase applications —
//! by observing that scheduling the workload on the SoC is an instance of
//! the Job-Shop Scheduling Problem and solving it to near-optimality.
//!
//! The pipeline (paper Figure 1):
//!
//! 1. A [`Workload`] (applications with setup /
//!    compute / teardown phases or arbitrary dependency DAGs), a
//!    [`SocSpec`] (CPU cores, GPU, DSAs), and
//!    [`Constraints`] (power, bandwidth).
//! 2. [`encode`] lowers them to a multi-mode scheduling instance: every
//!    `(phase, cluster, operating point)` combination becomes a mode
//!    carrying the paper's `T_cap` / `P_cap` / `B_cap` / `U_cap` values at
//!    a chosen time-step resolution.
//! 3. [`Hilp::evaluate`] solves the instance with the engine in
//!    [`hilp_sched`], adaptively refining the time step exactly as the
//!    paper prescribes (Section III-D), and reports makespan, speedup over
//!    fully sequential single-core execution, average Workload-Level
//!    Parallelism, and the solver's optimality gap.
//!
//! # Quickstart
//!
//! Evaluate the paper's `(c4,g16,d2^16)` SoC on the *Default* workload:
//!
//! ```
//! use hilp_core::{Hilp, TimeStepPolicy};
//! use hilp_soc::{Constraints, DsaSpec, SocSpec};
//! use hilp_workloads::{Workload, WorkloadVariant};
//!
//! # fn main() -> Result<(), hilp_core::HilpError> {
//! let workload = Workload::rodinia(WorkloadVariant::Default);
//! let soc = SocSpec::new(4)
//!     .with_gpu(16)
//!     .with_dsa(DsaSpec::new(16, "LUD"))
//!     .with_dsa(DsaSpec::new(16, "HS"));
//! let evaluation = Hilp::new(workload, soc)
//!     .with_constraints(Constraints::paper_default())
//!     .with_policy(TimeStepPolicy::sweep())
//!     .evaluate()?;
//! // The paper reports a 45.6x speedup for this SoC.
//! assert!(evaluation.speedup > 35.0 && evaluation.speedup < 55.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod encode;
mod error;
mod evaluate;
pub mod example2;
pub mod milp_encode;
pub mod report;
pub mod time_indexed;
mod wlp;

pub use encode::{encode, EncodeMaps};
pub use error::HilpError;
pub use evaluate::{
    config_key, EvaluatePolicy, Evaluation, Hilp, LevelReport, ParetoEvalPoint, ParetoEvaluation,
    RefinementObserver, TimeStepPolicy,
};
pub use wlp::average_wlp;

pub use hilp_sched::{
    Budget, BudgetKind, CancelToken, Objective, Schedule, SolveTelemetry, SolverConfig,
    TimetableKind,
};
pub use hilp_soc::{Constraints, DsaSpec, SocSpec};
pub use hilp_workloads::{Workload, WorkloadVariant};
