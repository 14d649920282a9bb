//! Design-space exploration with HILP (paper Section VI).
//!
//! This crate drives everything above a single evaluation:
//!
//! * [`space`] — the paper's 372-point design space: 1/2/4 CPU cores, an
//!   optional 4/16/64-SM GPU, and 0-10 DSAs with 1/4/16 PEs each, DSAs
//!   allocated to benchmarks in descending CPU-compute-time order.
//! * [`pareto`] — Pareto fronts over (area, performance).
//! * [`sweep`] — parallel evaluation of a design space under any of the
//!   three models (HILP, MultiAmdahl, parallel-mode Gables).
//! * [`store`] — the bounded result store through which sweeps reuse
//!   answered design points.
//! * [`experiments`] — one function per paper table/figure, each returning
//!   a printable series (the regeneration harness behind EXPERIMENTS.md).
//!
//! # Example
//!
//! ```
//! use hilp_dse::space::design_space;
//!
//! let socs = design_space(4.0);
//! assert_eq!(socs.len(), 372);
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod pareto;
pub mod plot;
pub mod space;
pub mod specfile;
pub mod store;
pub mod sweep;

pub use hilp_parallel::ThreadBudget;
pub use pareto::{pareto_front, ParetoPoint};
pub use space::design_space;
pub use store::ResultStore;
pub use sweep::{
    evaluate_space, evaluate_space_pareto, evaluate_space_recorded, evaluate_space_streamed,
    evaluate_space_with_stats, DesignPoint, ModelKind, ParetoDesignPoint, PointUpdate,
    SweepBudgets, SweepConfig, SweepObserver, SweepStats, TradeoffPoint,
};
