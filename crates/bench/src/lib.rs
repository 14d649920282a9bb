//! Shared helpers for the benchmark harness.
//!
//! Every bench regenerates one of the paper's tables or figures: it first
//! *prints* the rows/series (so `cargo bench | tee bench_output.txt`
//! records the reproduced data; EXPERIMENTS.md indexes it), then measures
//! the cost of producing them with Criterion.

use hilp_core::{SolverConfig, TimeStepPolicy};
use hilp_dse::SweepConfig;

/// A reduced-fidelity sweep configuration so benches finish in seconds per
/// iteration while keeping the reported shape; the `examples/` binaries
/// run the full-fidelity versions.
#[must_use]
pub fn bench_sweep_config() -> SweepConfig {
    SweepConfig {
        policy: TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 2,
        },
        solver: SolverConfig {
            heuristic_starts: 60,
            local_search_passes: 2,
            exact_node_budget: 0,
            ..SolverConfig::default()
        },
        threads: 0,
        memoize: true,
        ..SweepConfig::default()
    }
}

/// Prints a titled block once (benches call this before measurement).
pub fn print_block(title: &str, body: &str) {
    println!("\n==== {title} ====");
    println!("{body}");
}
