//! Section VII / Figures 9-10: the Streaming-Dataflow Application (SDA).
//!
//! Run with `cargo run --release --example streaming_dataflow`.
//!
//! Demonstrates HILP's extensibility: the SDA's fork-join dependency DAG
//! (three pinned data sources -> fusion -> three compute kernels -> post
//! processing) replaces the Rodinia chain, and the evaluator is otherwise
//! unchanged. Three SoC scenarios are compared: the baseline
//! `(c1,g8,d3^1)`, a 2x-faster CPU, and a 2x-bigger GPU.

use hilp_core::SolverConfig;
use hilp_dse::experiments::fig10_sda;
use hilp_dse::SweepConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SweepConfig {
        solver: SolverConfig::exact(),
        ..SweepConfig::default()
    };

    println!("== SDA: two pipelined samples per scenario ==\n");
    let results = fig10_sda(2, &config)?;
    let baseline = results[0].makespan_seconds;
    for r in &results {
        println!(
            "{:?} on {}: makespan {:.0} s, avg WLP {:.2}",
            r.scenario, r.label, r.makespan_seconds, r.avg_wlp
        );
        if r.proved_optimal {
            println!("proved optimal");
        } else {
            println!("not proved optimal: gap {:.1}%", 100.0 * r.gap);
        }
        println!("{}\n", r.rendered);
    }

    println!("== Summary ==");
    for r in &results {
        let gain = baseline / r.makespan_seconds;
        println!(
            "  {:?}: {:.0} s ({:.2}x vs baseline)",
            r.scenario, r.makespan_seconds, gain
        );
    }
    println!(
        "\nPaper (Figure 10): the baseline SoC misses its throughput target; \
         either doubling CPU speed or doubling GPU SMs meets it."
    );
    Ok(())
}
