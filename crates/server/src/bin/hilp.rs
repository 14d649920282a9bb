//! `hilp` — command-line front end to the experiment harness.
//!
//! ```text
//! Usage: hilp <command> [--quick] [--threads N] [--trace FILE] [--quiet]
//!                       [--deadline SECS] [--node-budget N] [--per-point-budget N]
//!
//! Commands:
//!   eval <cpus> <gpu_sms> <dsas> <pes>   evaluate one SoC on Default (600 W)
//!   fig5a | fig5b | fig5c                the validation sweeps
//!   fig6 <rodinia|default|optimized>     MA vs HILP vs Gables
//!   fig7                                 the 372-SoC design space
//!   fig8a | fig8b                        power budgets / DSA advantage
//!   fig10                                the SDA extension
//!   tables                               Tables II and III
//!   spec <file>                          evaluate an SoC described in a spec file
//!   cost                                 cost/carbon Pareto fronts (extension)
//!   consolidation                        WLP vs workload copies (extension)
//!   ablation                             scheduler-quality ablation
//!   trace-summary <journal>              per-phase attribution of a --trace journal
//!   submit <addr>                        submit a job to a running hilpd and
//!                                        stream human-readable results
//!   watch <addr>                         like submit, but echo the raw wire
//!                                        records (JSONL journal) to stdout
//!   shutdown <addr>                      ask a running hilpd to exit
//!
//! Server options (submit/watch):
//!   --tenant NAME  tenant the job is accounted to (default: cli)
//!   --model M      sweep model: hilp (default), ma, or gables
//!   --step N       subsample stride over the 372-SoC space (0 = full)
//!   --spec FILE    submit the SoC spec file instead of the Fig. 7 sweep
//!   (--deadline and --per-point-budget become the job's requested
//!   budgets, clamped to the tenant's quota on the server)
//!
//! Options:
//!   --quick        subsample the design space for a fast smoke run
//!   --threads N    sweep worker threads (default: all available cores;
//!                  if the core count cannot be determined the sweep falls
//!                  back to 4 workers and says so)
//!   --trace FILE   record a structured search-trace journal (JSONL) of the
//!                  run; inspect it with `hilp trace-summary FILE`
//!   --quiet        suppress progress messages on stderr
//!   --deadline SECS
//!                  wall-clock budget: for `eval`/`spec` the single solve's
//!                  deadline; for sweep commands the *whole-sweep* deadline,
//!                  redistributed fairly across the remaining design points.
//!                  On expiry every point still reports its best incumbent.
//!                  Must be below 2^64 seconds.
//!   --node-budget N
//!                  deterministic work budget (B&B nodes + SGS restarts) for
//!                  the `eval`/`spec` solve; identical budgets reproduce
//!                  bit-identical results on any machine or thread count
//!   --per-point-budget N
//!                  fresh deterministic node budget per design point in
//!                  sweep commands; truncated points are counted and marked
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hilp_core::{Budget, Hilp, SolverConfig, TimeStepPolicy};
use hilp_dse::experiments::{
    consolidation_sweep, cost_pareto, fig10_sda, fig5a_amdahl, fig5b_memory_wall,
    fig5c_dark_silicon, fig6_wlp_comparison, fig7_space, fig8a_power_constrained,
    fig8b_dsa_advantage, scheduler_quality_ablation, table2_rows, table3_rows,
};
use hilp_dse::{design_space, ModelKind, SweepBudgets, SweepConfig};
use hilp_server::{Client, JobSpec, Request, SubmitRequest};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{Journal, Record, Reporter, Telemetry, TraceSummary};
use hilp_workloads::{Workload, WorkloadVariant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hilp <eval c g d p | spec <file> | fig5a | fig5b | fig5c | fig6 <variant> | \
         fig7 | fig8a | fig8b | fig10 | tables | cost | consolidation | ablation | \
         trace-summary <journal> | submit <addr> | watch <addr> | shutdown <addr>> \
         [--quick] [--threads N] [--trace FILE] [--quiet] \
         [--deadline SECS] [--node-budget N] [--per-point-budget N] \
         [--tenant NAME] [--model hilp|ma|gables] [--step N] [--spec FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let quiet = args.iter().any(|a| a == "--quiet");
    // `--threads` and `--trace` take values, so they are consumed (flag and
    // value) before the positional split below, which would otherwise keep
    // the value.
    let mut threads = 0usize;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => threads = n,
            None => {
                eprintln!("--threads needs a worker count");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    let mut trace: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        match args.get(i + 1) {
            Some(path) => trace = Some(PathBuf::from(path)),
            None => {
                eprintln!("--trace needs an output path");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    // Server-client flags (submit/watch), same consume-flag-and-value
    // discipline as above.
    let mut tenant = String::from("cli");
    if let Some(i) = args.iter().position(|a| a == "--tenant") {
        match args.get(i + 1) {
            Some(name) if !name.is_empty() => tenant.clone_from(name),
            _ => {
                eprintln!("--tenant needs a non-empty name");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    let mut submit_model = ModelKind::Hilp;
    if let Some(i) = args.iter().position(|a| a == "--model") {
        match args.get(i + 1).map(String::as_str) {
            Some("hilp") => submit_model = ModelKind::Hilp,
            Some("ma") => submit_model = ModelKind::MultiAmdahl,
            Some("gables") => submit_model = ModelKind::Gables,
            _ => {
                eprintln!("--model needs hilp, ma, or gables");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    let mut step = 0usize;
    if let Some(i) = args.iter().position(|a| a == "--step") {
        match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => step = n,
            None => {
                eprintln!("--step needs a stride");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    let mut spec_file: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--spec") {
        match args.get(i + 1) {
            Some(path) => spec_file = Some(PathBuf::from(path)),
            None => {
                eprintln!("--spec needs a file path");
                return usage();
            }
        }
        args.drain(i..=i + 1);
    }
    // Budget flags, all value-carrying and optional. `--deadline` covers
    // both the single-solve commands (solve deadline) and the sweep
    // commands (whole-sweep deadline with fair redistribution).
    let mut take_number = |flag: &str| -> Result<Option<f64>, ()> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let Some(value) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
            eprintln!("{flag} needs a non-negative number");
            return Err(());
        };
        if value.is_nan() || value < 0.0 {
            eprintln!("{flag} needs a non-negative number");
            return Err(());
        }
        args.drain(i..=i + 1);
        Ok(Some(value))
    };
    let (deadline, node_budget, per_point_budget) = match (
        take_number("--deadline"),
        take_number("--node-budget"),
        take_number("--per-point-budget"),
    ) {
        (Ok(d), Ok(n), Ok(p)) => (d, n.map(|v| v as u64), p.map(|v| v as u64)),
        _ => return usage(),
    };
    if deadline.is_some_and(|secs| Duration::try_from_secs_f64(secs).is_err()) {
        eprintln!("--deadline needs a number of seconds below 2^64");
        return usage();
    }
    let positional: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let Some(&command) = positional.first() else {
        return usage();
    };
    let telemetry = if trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let reporter = Reporter::new(quiet, &telemetry);
    // Sweeps that cannot determine the core count run degraded (see
    // `SweepStats::parallelism_fallback`); warn up front instead of
    // silently underusing the machine.
    let (resolved, fell_back) = hilp_parallel::resolve_threads(threads);
    if fell_back {
        eprintln!(
            "warning: could not determine the available core count; \
             sweeps fall back to {resolved} worker threads (pass --threads N to override)"
        );
    }
    let config = SweepConfig {
        threads,
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::sweep()
        },
        budgets: SweepBudgets {
            per_point_nodes: per_point_budget,
            sweep_deadline: deadline.map(Duration::from_secs_f64),
            cancel: None,
        },
        ..SweepConfig::default()
    };
    let solver_config = || {
        let mut budget = Budget::unlimited();
        if let Some(nodes) = node_budget {
            budget = budget.with_node_limit(nodes);
        }
        if let Some(secs) = deadline {
            budget = budget.with_deadline(Duration::from_secs_f64(secs));
        }
        SolverConfig {
            telemetry: telemetry.clone(),
            budget,
            ..SolverConfig::default()
        }
    };

    let result: Result<(), Box<dyn std::error::Error>> = (|| {
        // The root span covers the whole command, so a trace-summary of the
        // journal attributes (nearly) all wall-clock to named spans.
        let _root_span = telemetry.span("cli.main");
        match command {
            "eval" => {
                let parse = |i: usize| -> u32 {
                    positional
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_default()
                };
                let (cpus, gpu, dsas, pes) = (parse(1).max(1), parse(2), parse(3), parse(4).max(1));
                let mut soc = SocSpec::new(cpus).with_gpu(gpu);
                for dsa in hilp_dse::space::dsa_allocation(dsas as usize, pes, 4.0) {
                    soc = soc.with_dsa(dsa);
                }
                reporter.say(&format!(
                    "evaluating {} ({:.1} mm^2)...",
                    soc.label(),
                    soc.area_mm2()
                ));
                let eval = Hilp::new(Workload::rodinia(WorkloadVariant::Default), soc)
                    .with_constraints(Constraints::paper_default())
                    .with_policy(TimeStepPolicy::sweep())
                    .with_solver(solver_config())
                    .evaluate()?;
                println!(
                    "makespan {:.1} s | speedup {:.1}x | avg WLP {:.2} | gap {:.1}%",
                    eval.makespan_seconds,
                    eval.speedup,
                    eval.avg_wlp,
                    eval.gap * 100.0
                );
                if let Some(kind) = eval.truncated {
                    println!("budget expired ({kind}); reporting the best incumbent found");
                }
                println!("{}", eval.schedule.render_gantt(&eval.instance, 100));
                println!("{}", hilp_core::report::render_reports(&eval));
            }
            "fig5a" => {
                let r = fig5a_amdahl(&config)?;
                for s in &r.series {
                    println!("{s}");
                }
                for (sms, limit) in &r.compute_limits {
                    println!("{sms}-SM compute limit: {limit:.1}x");
                }
            }
            "fig5b" => {
                for s in fig5b_memory_wall(&config)? {
                    println!("{s}");
                }
            }
            "fig5c" => {
                for s in fig5c_dark_silicon(&config)? {
                    println!("{s}");
                }
            }
            "fig6" => {
                let variant = match positional.get(1).copied() {
                    Some("rodinia") => WorkloadVariant::Rodinia,
                    Some("optimized") => WorkloadVariant::Optimized,
                    _ => WorkloadVariant::Default,
                };
                for row in fig6_wlp_comparison(variant, &config)? {
                    println!("{row}");
                }
            }
            "fig7" => {
                let mut socs = design_space(4.0);
                if quick {
                    socs = socs.into_iter().step_by(6).collect();
                }
                for model in [ModelKind::MultiAmdahl, ModelKind::Gables, ModelKind::Hilp] {
                    let r = fig7_space(&socs, model, &config)?;
                    let (max_gap, near) = r.gap_stats();
                    println!("{}", r.render_front());
                    println!(
                        "  gap: max {:.1}%, {:.0}% of points near-optimal (<=10%)\n",
                        max_gap * 100.0,
                        near * 100.0
                    );
                }
            }
            "fig8a" => {
                let mut socs = design_space(4.0);
                if quick {
                    socs = socs.into_iter().step_by(6).collect();
                }
                for (power, r) in fig8a_power_constrained(&socs, &config)? {
                    let best = r.best();
                    println!(
                        "{power:>5.0} W: best {} at {:.1}x / {:.1} mm^2",
                        best.label, best.speedup, best.area_mm2
                    );
                }
            }
            "fig8b" => {
                for (advantage, r) in fig8b_dsa_advantage(&config)? {
                    let best = r.best();
                    println!(
                        "{advantage:>3.0}x: best {} at {:.1}x / {:.1} mm^2",
                        best.label, best.speedup, best.area_mm2
                    );
                }
            }
            "fig10" => {
                for r in fig10_sda(2, &config)? {
                    println!(
                        "{:?} on {}: makespan {:.0} s, avg WLP {:.2}",
                        r.scenario, r.label, r.makespan_seconds, r.avg_wlp
                    );
                }
            }
            "spec" => {
                let path = positional.get(1).ok_or("spec needs a file path")?;
                let text = std::fs::read_to_string(path)?;
                let (soc, constraints) = hilp_dse::specfile::parse_soc(&text)?;
                reporter.say(&format!(
                    "evaluating {} ({:.1} mm^2)...",
                    soc.label(),
                    soc.area_mm2()
                ));
                let eval = Hilp::new(Workload::rodinia(WorkloadVariant::Default), soc)
                    .with_constraints(constraints)
                    .with_policy(TimeStepPolicy::sweep())
                    .with_solver(solver_config())
                    .evaluate()?;
                println!(
                    "makespan {:.1} s | speedup {:.1}x | avg WLP {:.2} | gap {:.1}%",
                    eval.makespan_seconds,
                    eval.speedup,
                    eval.avg_wlp,
                    eval.gap * 100.0
                );
                if let Some(kind) = eval.truncated {
                    println!("budget expired ({kind}); reporting the best incumbent found");
                }
                println!("{}", eval.schedule.render_gantt(&eval.instance, 100));
            }
            "cost" => {
                let mut socs = design_space(4.0);
                if quick {
                    socs = socs.into_iter().step_by(6).collect();
                }
                let node = hilp_soc::cost::ProcessNode::n7();
                let result = cost_pareto(&socs, &node, &config)?;
                println!("cost-optimal front ({} wafers):", node.name);
                for &i in &result.cost_front {
                    let p = &result.points[i];
                    println!(
                        "  ${:>8.0}  {:>7.2} kgCO2e  {:>6.1}x  {}",
                        p.cost_usd, p.carbon_kg, p.speedup, p.label
                    );
                }
            }
            "consolidation" => {
                let soc = SocSpec::new(4).with_gpu(16);
                let soc = hilp_dse::space::dsa_allocation(2, 16, 4.0)
                    .into_iter()
                    .fold(soc, hilp_soc::SocSpec::with_dsa);
                println!("consolidation on {}:", soc.label());
                for row in consolidation_sweep(&soc, &[1, 2, 3], &config)? {
                    println!(
                        "  {} copies: WLP {:.2}, relative throughput {:.2}, makespan {:.0} s",
                        row.copies, row.avg_wlp, row.relative_throughput, row.makespan_seconds
                    );
                }
            }
            "ablation" => {
                let soc = SocSpec::new(4).with_gpu(16);
                let soc = hilp_dse::space::dsa_allocation(2, 16, 4.0)
                    .into_iter()
                    .fold(soc, hilp_soc::SocSpec::with_dsa);
                println!("scheduler quality on {}:", soc.label());
                for row in scheduler_quality_ablation(&soc, &config)? {
                    println!(
                        "  {:<38} makespan {:>7.1} s (gap {:.1}%)",
                        row.scheduler,
                        row.makespan_seconds,
                        row.gap * 100.0
                    );
                }
            }
            "tables" => {
                for row in table2_rows() {
                    println!("{row}");
                }
                println!();
                for row in table3_rows() {
                    println!("{row}");
                }
            }
            "submit" | "watch" => {
                let addr = positional
                    .get(1)
                    .ok_or("submit/watch need a daemon address (host:port or socket path)")?;
                let job = match &spec_file {
                    Some(path) => JobSpec::Spec {
                        text: std::fs::read_to_string(path)?,
                    },
                    None => JobSpec::Sweep {
                        model: submit_model,
                        step,
                    },
                };
                let request = SubmitRequest {
                    tenant: tenant.clone(),
                    job,
                    deadline_seconds: deadline,
                    per_point_nodes: per_point_budget,
                };
                let mut client = Client::connect(addr)?;
                if command == "watch" {
                    // Raw mode: echo the wire records verbatim — stdout is
                    // a valid JSONL journal of the job.
                    client.send(&Request::Submit(request))?;
                    while let Some(record) = client.read_record()? {
                        println!("{}", record.to_json());
                        if matches!(&record, Record::Job { event, .. } if event != "accepted") {
                            break;
                        }
                    }
                } else {
                    reporter.say(&format!("submitting to {addr} as tenant {tenant:?}..."));
                    let outcome = client.run_job(request, |record| match record {
                        Record::Job {
                            event, id, points, ..
                        } if event == "accepted" => {
                            reporter.say(&format!("job {id} accepted ({points} points)"));
                        }
                        Record::Point {
                            index,
                            label,
                            makespan_seconds,
                            energy_joules,
                            speedup,
                            gap,
                            truncated,
                            replayed,
                            cached,
                            ..
                        } => {
                            let tag = if *replayed == 1 {
                                " [replayed]"
                            } else if *cached == 1 {
                                " [cached]"
                            } else if truncated.is_empty() {
                                ""
                            } else {
                                " [truncated]"
                            };
                            println!(
                                "point {index:>4} {label}: makespan {makespan_seconds:.1} s | \
                                 energy {energy_joules:.1} J | speedup {speedup:.1}x | \
                                 gap {:.1}%{tag}",
                                gap * 100.0
                            );
                        }
                        _ => {}
                    })?;
                    println!(
                        "job {} {}: {} points, {} replayed, {} truncated in {:.2}s{}",
                        outcome.id,
                        outcome.event,
                        outcome.points,
                        outcome.replayed,
                        outcome.truncated,
                        outcome.seconds,
                        if outcome.degraded {
                            " (degraded capacity)"
                        } else {
                            ""
                        }
                    );
                    if outcome.event == "failed" || outcome.event == "rejected" {
                        return Err(format!("job {}: {}", outcome.event, outcome.detail).into());
                    }
                }
            }
            "shutdown" => {
                let addr = positional.get(1).ok_or("shutdown needs a daemon address")?;
                Client::connect(addr)?.shutdown()?;
                reporter.say("daemon acknowledged shutdown");
            }
            "trace-summary" => {
                let path = positional
                    .get(1)
                    .ok_or("trace-summary needs a journal path")?;
                let journal = Journal::read_jsonl(std::path::Path::new(path))?;
                print!("{}", TraceSummary::from_journal(&journal).render());
            }
            _ => {
                return Err("unknown command".into());
            }
        }
        Ok(())
    })();

    match result {
        Ok(()) => {
            if let Some(path) = &trace {
                if let Err(e) = telemetry.journal().write_jsonl(path) {
                    eprintln!("error: could not write trace journal: {e}");
                    return ExitCode::FAILURE;
                }
                reporter.say(&format!("trace journal written to {}", path.display()));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
