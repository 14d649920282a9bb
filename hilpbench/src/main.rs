//! `hilpbench` — the benchmark every performance claim about the HILP
//! stack is measured with. Run it from the repository root.
//!
//! ```text
//! Usage: hilpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--out FILE]
//!        hilpbench --bless
//!
//!   --workload NAME  run one workload in this process; without it every
//!                    workload runs, each in a child process, traced
//!   --seed N         workload seed (default 1)
//!   --seconds S      how long to time passes per workload (default 10)
//!   --trace 0|1      also run the traced pass and layer probes (default 0)
//!   --out FILE       write every metric with its summary as JSON
//!   --bless          regenerate hilpbench/reference/mobile-grid.jsonl
//! ```
//!
//! Every metric prints as `workload metric value unit (n, p50, min, max)`.
//! A single-workload run ends its output with one JSON line: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The exit code is 0 when every check
//! passed, 1 when one failed, and 2 when the run could not start.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hilp_dse::{design_space, evaluate_space, ModelKind};
use hilp_soc::Constraints;
use hilp_workloads::mobile::mobile_workload;
use hilpbench::metrics::{parse_line, Report, END_TO_END, PER_LAYER};
use hilpbench::reference::render_jsonl;
use hilpbench::{committed_config, nproc, run, Settings, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn write_out(path: &Path, seed: u64, reports: &[Report]) -> Result<(), String> {
    let body = reports
        .iter()
        .map(|r| format!("    \"{}\": {}", r.workload, r.render_full()))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {},\n  \"workloads\": {{\n{body}\n  }}\n}}\n",
        nproc()
    );
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_failures(report: &Report) {
    for reason in &report.failures {
        eprintln!("hilpbench: {}: FAILED: {reason}", report.workload);
    }
}

/// One workload in this process.
fn run_one(name: &str, args: &Args, settings: &Settings) -> Result<bool, String> {
    let report = run(name, settings, args.seconds, args.trace)?;
    print!("{}", report.render_lines());
    print_failures(&report);
    if let Some(out) = &args.out {
        write_out(out, args.seed, std::slice::from_ref(&report))?;
    }
    println!(
        "{}",
        report.render_result(if args.trace { PER_LAYER } else { END_TO_END })
    );
    Ok(report.correct())
}

/// Every workload, each in a traced child process of its own, so that
/// set-up time and peak memory are per workload and no workload warms
/// another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate hilpbench: {e}"))?;
    let mut reports = Vec::new();
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name, "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut report = Report {
            workload: name.to_string(),
            ..Report::default()
        };
        let mut result = "";
        for line in stdout.lines() {
            if let Some((metric, value)) = parse_line(line) {
                println!("{line}");
                report.metrics.insert(metric, value);
            } else if line.starts_with('{') {
                result = line;
            }
        }
        let count = |key: &str| {
            let rest = result.split(&format!("\"{key}\": ")).nth(1)?;
            rest.split([',', '}']).next()?.parse::<u64>().ok()
        };
        match (output.status.code(), count("attempted"), count("failed")) {
            (Some(0 | 1), Some(attempted), Some(failed)) => {
                report.attempted = attempted;
                report.failed = failed;
            }
            _ => return Err(format!("{name} did not finish ({})", output.status)),
        }
        reports.push(report);
    }
    if let Some(out) = &args.out {
        write_out(out, args.seed, &reports)?;
    }
    for r in &reports {
        println!(
            "{}: {} (attempted {}, failed {})",
            r.workload,
            if r.correct() { "correct" } else { "INCORRECT" },
            r.attempted,
            r.failed
        );
    }
    Ok(reports.iter().all(Report::correct))
}

/// Regenerates the mobile-grid reference from a design-space-order sweep.
fn bless(settings: &Settings) -> Result<bool, String> {
    let points = evaluate_space(
        &mobile_workload(),
        &design_space(4.0),
        &Constraints::paper_default(),
        ModelKind::Hilp,
        &committed_config(settings.threads),
    )
    .map_err(|e| format!("mobile sweep: {e}"))?;
    std::fs::write(&settings.mobile_reference, render_jsonl(&points))
        .map_err(|e| format!("write {}: {e}", settings.mobile_reference.display()))?;
    println!(
        "hilpbench: wrote {} points to {}",
        points.len(),
        settings.mobile_reference.display()
    );
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let exe = std::env::current_exe().map_err(|e| format!("locate hilpbench: {e}"))?;
        let exe_dir = exe.parent().unwrap_or(Path::new("."));
        let settings = Settings::new(args.seed, Path::new("."), exe_dir);
        match &args.workload {
            _ if args.bless => bless(&settings),
            Some(name) => run_one(name, &args, &settings),
            None => run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hilpbench: {e}");
            ExitCode::from(2)
        }
    }
}
