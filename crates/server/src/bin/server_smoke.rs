//! `server_smoke` — end-to-end exerciser for `hilpd`, the CI gate behind
//! the `server-e2e` job.
//!
//! ```text
//! Usage: server_smoke [--connect ADDR] [--bench FILE] [--step N]
//!
//! Options:
//!   --connect ADDR  target an externally started hilpd instead of an
//!                   in-process daemon on an ephemeral port
//!   --bench FILE    diff the streamed HILP makespans, energies, and gaps
//!                   against the committed BENCH_sweep.json baseline
//!   --step N        subsample stride over the 372-SoC space (default 37,
//!                   the fig7_regression stride)
//! ```
//!
//! Scenarios, in order:
//!
//! 1. `ping` answers.
//! 2. A warm sweep job finishes untruncated and (with `--bench`) every
//!    streamed makespan and energy matches the committed baseline.
//! 3. Three concurrent tenants: a repeat of the warm job (must hit >=99%
//!    identity replay off the daemon's result store and reproduce the warm
//!    run bit-for-bit), a node-budgeted job (must finish gracefully with
//!    every point truncated, not fail), and a client that disconnects
//!    mid-stream (its job must cancel without disturbing the others).
//! 4. The daemon drains to zero running jobs.
//! 5. In-process daemons are shut down over the wire and joined.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hilp_dse::ModelKind;
use hilp_server::{Client, JobOutcome, JobSpec, Request, Server, ServerConfig, SubmitRequest};
use hilp_telemetry::Record;

/// One streamed point, keyed for the bit-identity and baseline diffs.
#[derive(Debug, Clone, PartialEq)]
struct StreamedPoint {
    label: String,
    makespan_seconds: f64,
    energy_joules: f64,
    gap: f64,
}

fn submit(tenant: &str, step: usize, nodes: Option<u64>) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        job: JobSpec::Sweep {
            model: ModelKind::Hilp,
            step,
        },
        deadline_seconds: None,
        per_point_nodes: nodes,
    }
}

/// Runs one job to completion, returning the outcome and the streamed
/// points by index.
fn run_streaming(
    addr: &str,
    request: SubmitRequest,
) -> Result<(JobOutcome, HashMap<u64, StreamedPoint>), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut points = HashMap::new();
    let outcome = client
        .run_job(request, |record| {
            if let Record::Point {
                index,
                label,
                makespan_seconds,
                energy_joules,
                gap,
                ..
            } = record
            {
                points.insert(
                    *index,
                    StreamedPoint {
                        label: label.clone(),
                        makespan_seconds: *makespan_seconds,
                        energy_joules: *energy_joules,
                        gap: *gap,
                    },
                );
            }
        })
        .map_err(|e| format!("job stream: {e}"))?;
    Ok((outcome, points))
}

/// Extracts `"key": "..."` from a JSON line (same line-based idiom as
/// `tests/fig7_regression.rs` — the repo deliberately has no JSON dep).
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key": <number>` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| i + start);
    line[start..end].trim().parse().ok()
}

/// `(label -> (makespan, energy, gap))` for the HILP model of
/// `BENCH_sweep.json`.
fn load_bench(path: &str) -> Result<HashMap<String, (f64, f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut points = HashMap::new();
    let mut model = String::new();
    for line in text.lines() {
        if let Some(m) = str_field(line, "model") {
            model = m;
        }
        if model == "HILP" {
            if let Some(label) = str_field(line, "label") {
                let makespan = num_field(line, "makespan_seconds")
                    .ok_or_else(|| format!("makespan missing on: {line}"))?;
                let energy = num_field(line, "energy_joules")
                    .ok_or_else(|| format!("energy missing on: {line}"))?;
                let gap =
                    num_field(line, "gap").ok_or_else(|| format!("gap missing on: {line}"))?;
                points.insert(label, (makespan, energy, gap));
            }
        }
    }
    if points.is_empty() {
        return Err(format!("{path} holds no HILP sweep points"));
    }
    Ok(points)
}

fn poll_until_drained(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .send(&Request::Stats)
            .map_err(|e| format!("stats: {e}"))?;
        let record = client.read_record().map_err(|e| format!("stats: {e}"))?;
        // The stats record reuses the job schema: `id` carries the
        // running-job count (see daemon.rs).
        match record {
            Some(Record::Job { event, id, .. }) if event == "stats" => {
                if id == 0 {
                    return Ok(());
                }
                if Instant::now() > deadline {
                    return Err(format!("daemon still reports {id} running job(s)"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            other => return Err(format!("expected stats record, got {other:?}")),
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_value = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        let value = args.get(i + 1).cloned()?;
        args.drain(i..=i + 1);
        Some(value)
    };
    let connect = take_value("--connect");
    let bench = take_value("--bench");
    let step: usize = match take_value("--step") {
        Some(v) => v.parse().map_err(|_| "--step needs a stride".to_string())?,
        None => 37,
    };

    // An in-process daemon on an ephemeral port unless --connect targets
    // a real hilpd (CI starts one to exercise the binary end-to-end).
    let (addr, local) = match connect {
        Some(addr) => (addr, None),
        None => {
            let (addr, handle) = Server::spawn("127.0.0.1:0", &ServerConfig::default())
                .map_err(|e| format!("spawn daemon: {e}"))?;
            (addr, Some(handle))
        }
    };
    eprintln!("server_smoke: daemon at {addr}");

    // 1. Liveness.
    Client::connect(&addr)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("ping: {e}"))?;
    eprintln!("server_smoke: ping ok");

    // 2. Warm run: files its points in the daemon's result store.
    let (warm, warm_points) = run_streaming(&addr, submit("smoke-warm", step, None))?;
    if warm.event != "finished" || warm.truncated != 0 {
        return Err(format!("warm job did not finish cleanly: {warm:?}"));
    }
    if warm_points.len() != warm.points as usize || warm_points.is_empty() {
        return Err(format!(
            "warm job streamed {} of {} points",
            warm_points.len(),
            warm.points
        ));
    }
    eprintln!(
        "server_smoke: warm sweep finished ({} points in {:.2}s)",
        warm.points, warm.seconds
    );
    if let Some(bench) = &bench {
        let committed = load_bench(bench)?;
        for point in warm_points.values() {
            let &(makespan, energy, gap) = committed
                .get(&point.label)
                .ok_or_else(|| format!("no committed baseline for {:?}", point.label))?;
            let rel = (point.makespan_seconds - makespan).abs() / makespan.max(1e-12);
            let rel_e = (point.energy_joules - energy).abs() / energy.max(1e-12);
            if rel > 1e-9 || rel_e > 1e-9 || (point.gap - gap).abs() > 1e-9 {
                return Err(format!(
                    "{}: streamed makespan {} / energy {} / gap {} vs committed \
                     {makespan} / {energy} / {gap}",
                    point.label, point.makespan_seconds, point.energy_joules, point.gap
                ));
            }
        }
        eprintln!(
            "server_smoke: all {} streamed makespans and energies match {bench}",
            warm_points.len()
        );
    }

    // 3. Three concurrent tenants: repeat (replay), budgeted (truncate),
    // and a mid-stream disconnect (cancel).
    let repeat_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || run_streaming(&addr, submit("smoke-warm", step, None)))
    };
    let drop_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            client
                .send(&Request::Submit(submit("smoke-drop", step, None)))
                .map_err(|e| format!("submit: {e}"))?;
            // Read the accepted record (and at most one point), then
            // vanish: cancel-on-disconnect must reap the job.
            let _ = client.read_record().map_err(|e| format!("read: {e}"))?;
            let _ = client.read_record();
            drop(client);
            Ok(())
        })
    };
    let (budgeted, budgeted_points) = run_streaming(&addr, submit("smoke-budget", step, Some(2)))?;
    if budgeted.event != "finished" {
        return Err(format!(
            "budgeted job did not finish gracefully: {budgeted:?}"
        ));
    }
    if budgeted.truncated != budgeted.points || budgeted_points.len() != budgeted.points as usize {
        return Err(format!(
            "2-node budget should truncate every point, got {budgeted:?}"
        ));
    }
    eprintln!(
        "server_smoke: budgeted job truncated gracefully ({} points)",
        budgeted.points
    );
    drop_handle
        .join()
        .map_err(|_| "disconnect thread panicked".to_string())??;
    let (repeat, repeat_points) = repeat_handle
        .join()
        .map_err(|_| "repeat thread panicked".to_string())??;
    if repeat.event != "finished" || repeat.truncated != 0 {
        return Err(format!("repeat job did not finish cleanly: {repeat:?}"));
    }
    // The replay gate: the daemon's result store answers (almost) every
    // repeated point by identity replay, bit-identical to the warm run.
    let replay_rate = repeat.replayed as f64 / repeat.points.max(1) as f64;
    if replay_rate < 0.99 {
        return Err(format!(
            "repeat job replayed only {}/{} points ({:.0}%)",
            repeat.replayed,
            repeat.points,
            replay_rate * 100.0
        ));
    }
    if repeat_points != warm_points {
        return Err("repeat job results differ from the warm run".to_string());
    }
    eprintln!(
        "server_smoke: repeat job replayed {}/{} points in {:.2}s (warm run took {:.2}s)",
        repeat.replayed, repeat.points, repeat.seconds, warm.seconds
    );

    // 4. The disconnected tenant's job must drain (cancelled), leaving no
    // running jobs behind.
    poll_until_drained(&addr)?;
    eprintln!("server_smoke: daemon drained to zero running jobs");

    // 5. Only shut down daemons we started.
    if let Some(handle) = local {
        Client::connect(&addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        eprintln!("server_smoke: daemon shut down cleanly");
    }
    println!("server_smoke: PASS");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server_smoke: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
