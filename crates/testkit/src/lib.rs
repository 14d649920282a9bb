//! Cross-solver differential oracle for the HILP reproduction.
//!
//! The workspace produces makespans through several independent code paths:
//! the `sched` branch-and-bound ([`hilp_sched::solve_exact`]), the serial-SGS
//! list heuristics ([`hilp_sched::solve_heuristic`]), the online greedy
//! dispatcher ([`hilp_sched::online`]), the disjunctive big-M MILP encoding
//! ([`hilp_core::milp_encode`]), and the time-indexed MILP encoding
//! ([`hilp_core::time_indexed`]). HILP's headline claim — a makespan provably
//! within 10% of optimal — is only as trustworthy as the agreement between
//! those paths, so this crate checks them against each other and against an
//! exhaustive brute-force reference on thousands of random instances.
//!
//! The crate has three layers:
//!
//! * [`brute_force`] — an exhaustive reference scheduler for tiny instances
//!   (≤ [`brute_force::MAX_BRUTE_FORCE_TASKS`] tasks) that returns the true
//!   optimum, against which every other solver is judged.
//! * [`strategies`] — reusable proptest generators for random scheduling
//!   instances, workloads, SoCs, and constraint sets, promoted from the
//!   ad-hoc copies that used to live inside `crates/sched`.
//! * [`harness`] — the differential checks themselves: per random case the
//!   bounds sandwich, brute-force equality, heuristic domination, MILP
//!   agreement within the reported gap, and the metamorphic properties
//!   (time scaling, cap relaxation, task permutation).
//!
//! The `fuzz_smoke` binary drives the harness under a case/time budget and is
//! wired into CI both as a PR-gating smoke (fixed seed) and as a nightly job
//! with a larger budget.

#![warn(missing_docs)]

pub mod brute_force;
pub mod harness;
pub mod strategies;

pub use brute_force::{
    brute_force_energy, brute_force_makespan, brute_force_pareto, brute_force_schedule,
    schedule_energy, BruteForceEnergyResult, BruteForceResult, BruteForceTradeoff,
};
pub use harness::{
    check_budgeted, check_energy, check_instance, check_pipeline, scale_power, scale_time,
    with_energy_cap, CheckStats, Disagreement, OracleConfig,
};
pub use strategies::{arb_constraints, arb_instance, arb_soc, arb_workload, InstanceParams};
