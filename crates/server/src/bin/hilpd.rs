//! `hilpd` — the HILP sweep daemon.
//!
//! ```text
//! Usage: hilpd [--listen ADDR] [--threads N] [--max-jobs N]
//!              [--max-deadline SECS] [--max-point-nodes N]
//!              [--journal FILE] [--quiet]
//!
//! Options:
//!   --listen ADDR       TCP host:port, or a Unix socket path when the
//!                       address contains a `/` (default: 127.0.0.1:7077;
//!                       TCP port 0 picks an ephemeral port and prints it)
//!   --threads N         total worker threads shared fairly by concurrent
//!                       jobs (default: all available cores)
//!   --max-jobs N        per-tenant concurrent-job quota (default: 2)
//!   --max-deadline SECS ceiling on requested job deadlines (below 2^64)
//!   --max-point-nodes N ceiling on requested per-point node budgets
//!   --journal FILE      append every wire record to FILE (JSONL journal)
//!   --quiet             suppress stderr progress messages
//! ```
//!
//! The daemon serves until a client sends `{"type":"shutdown"}` (e.g.
//! `hilp shutdown ADDR`). See `DESIGN.md` §14 for the protocol.

use std::process::ExitCode;
use std::time::Duration;

use hilp_server::{Server, ServerConfig, TenantQuota};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hilpd [--listen ADDR] [--threads N] [--max-jobs N] \
         [--max-deadline SECS] [--max-point-nodes N] [--journal FILE] [--quiet]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    args.retain(|a| a != "--quiet");
    let mut take_value = |flag: &str| -> Result<Option<String>, ()> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let Some(value) = args.get(i + 1).cloned() else {
            eprintln!("{flag} needs a value");
            return Err(());
        };
        args.drain(i..=i + 1);
        Ok(Some(value))
    };
    let parse = |value: Option<String>, flag: &str| -> Result<Option<f64>, ()> {
        match value {
            None => Ok(None),
            Some(v) => match v.parse::<f64>() {
                Ok(n) if n.is_finite() && n >= 0.0 => Ok(Some(n)),
                _ => {
                    eprintln!("{flag} needs a non-negative number");
                    Err(())
                }
            },
        }
    };
    let (listen, threads, max_jobs, max_deadline, max_nodes, journal) = match (
        take_value("--listen"),
        take_value("--threads"),
        take_value("--max-jobs"),
        take_value("--max-deadline"),
        take_value("--max-point-nodes"),
        take_value("--journal"),
    ) {
        (Ok(l), Ok(t), Ok(j), Ok(d), Ok(n), Ok(f)) => (l, t, j, d, n, f),
        _ => return usage(),
    };
    if !args.is_empty() {
        eprintln!("unexpected argument {:?}", args[0]);
        return usage();
    }
    let (Ok(threads), Ok(max_jobs), Ok(max_deadline), Ok(max_nodes)) = (
        parse(threads, "--threads"),
        parse(max_jobs, "--max-jobs"),
        parse(max_deadline, "--max-deadline"),
        parse(max_nodes, "--max-point-nodes"),
    ) else {
        return usage();
    };
    if max_deadline.is_some_and(|secs| Duration::try_from_secs_f64(secs).is_err()) {
        eprintln!("--max-deadline needs a number of seconds below 2^64");
        return usage();
    }
    let config = ServerConfig {
        threads: threads.map_or(0, |n| n as usize),
        quota: TenantQuota {
            max_concurrent_jobs: max_jobs.map_or(2, |n| (n as usize).max(1)),
            max_deadline: max_deadline.map(Duration::from_secs_f64),
            max_point_nodes: max_nodes.map(|n| n as u64),
        },
        journal: journal.map(std::path::PathBuf::from),
        quiet,
    };
    let addr = listen.unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let server = match Server::bind(&addr, &config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Always print the resolved address (even with --quiet): with an
    // ephemeral TCP port this line is how scripts learn where to connect.
    println!("hilpd listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
