//! A mobile-SoC design study on the synthetic Mobile workload —
//! demonstrating that the pipeline generalizes beyond Rodinia.
//!
//! Run with `cargo run --release --example mobile_soc`.
//!
//! Sweeps a small space of phone-class SoCs (few CPU cores, small GPU,
//! DSAs for the heaviest kernels) under a tight mobile power budget and
//! prints the HILP Pareto front plus the per-application breakdown of the
//! winner.

use hilp_core::{report, Hilp, SolverConfig, TimeStepPolicy};
use hilp_dse::{evaluate_space, pareto_front, ModelKind, SweepConfig};
use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_workloads::mobile::{dsa_priority_order, mobile_workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = mobile_workload();
    println!(
        "Mobile workload: {} apps, {:.0} s sequential on one core\n",
        workload.applications().len(),
        workload.sequential_cpu_seconds()
    );

    // Phone-class space: 1/2/4 CPUs, 0/4/8-SM GPU, 0-3 DSAs with 2/4 PEs.
    let mut socs = Vec::new();
    for cpus in [1u32, 2, 4] {
        for gpu in [0u32, 4, 8] {
            socs.push(SocSpec::new(cpus).with_gpu(gpu));
            for dsas in 1..=3usize {
                for pes in [2u32, 4] {
                    let mut soc = SocSpec::new(cpus).with_gpu(gpu);
                    for key in dsa_priority_order().into_iter().take(dsas) {
                        soc = soc.with_dsa(DsaSpec::new(pes, key));
                    }
                    socs.push(soc);
                }
            }
        }
    }
    println!(
        "sweeping {} phone-class SoCs under a 15 W budget...\n",
        socs.len()
    );

    let constraints = Constraints::unconstrained()
        .with_power(15.0)
        .with_bandwidth(100.0);
    let config = SweepConfig {
        policy: TimeStepPolicy {
            initial_seconds: 2.0,
            target_steps: 100,
            refine_factor: 5.0,
            max_refinements: 3,
        },
        solver: SolverConfig::sweep(),
        threads: 0,
        memoize: true,
        ..SweepConfig::default()
    };
    let points = evaluate_space(&workload, &socs, &constraints, ModelKind::Hilp, &config)?;
    let front = pareto_front(&points);

    println!("HILP Pareto front (area mm^2, speedup, label):");
    for &i in &front {
        let p = &points[i];
        println!("  {:>6.1}  {:>6.1}x  {}", p.area_mm2, p.speedup, p.label);
    }

    let best = &points[*front.last().expect("non-empty front")];
    println!("\nwinner: {} — per-application breakdown:\n", best.label);
    let eval = Hilp::new(workload, best.soc.clone())
        .with_constraints(constraints)
        .with_policy(config.policy)
        .with_solver(SolverConfig::default())
        .evaluate()?;
    println!("{}", eval.schedule.render_gantt(&eval.instance, 100));
    println!("{}", report::render_reports(&eval));
    Ok(())
}
