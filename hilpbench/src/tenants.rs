//! `hilpd-tenants`: a closed loop over loopback against a fresh `hilpd`
//! child per pass, with two clients in separate tenants running at once.
//!
//! * Client 1 submits the full HILP sweep on the cold daemon, then repeats
//!   it [`WARM_REPEATS`] times; the repeats are answered by identity replay.
//! * Client 2 starts once the cold sweep has finished and submits
//!   single-SoC `spec` jobs for every 4th SoC of the design space, in
//!   seed-permuted order, then repeats the first third of them, which the
//!   daemon replays; the warm sweeps run meanwhile, so the two tenants share
//!   the daemon's thread allowance.
//!
//! Each client waits for a job's terminal record before submitting the
//! next, so load never exceeds one job and one connection per tenant.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hilp_dse::specfile::parse_soc;
use hilp_dse::{design_space, ModelKind};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::Record;
use hilp_workloads::{Workload, WorkloadVariant};

use crate::gauge::Gauge;
use crate::metrics::{quantile, Metric};
use crate::reference::{load_bench_sweep, Reference};
use crate::wire::{read_job, spec_request, sweep_request, JobReport, SHUTDOWN_REQUEST};
use crate::{committed_config, probe, Bench, Pass, Settings};

/// Warm repeats of the sweep job after the cold one.
pub const WARM_REPEATS: usize = 4;

/// Every this many-th design-space SoC becomes a `spec` job.
const SPEC_STRIDE: usize = 4;

/// Lowest acceptable share of warm sweep points answered by replay.
const MIN_REPLAY_RATIO: f64 = 0.99;

/// Longest a client waits for one wire record before failing the job.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `hilpd` child, killed and reaped on drop.
struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(exe: &PathBuf, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--threads",
                &threads.to_string(),
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("hilpd listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("hilpd did not report its address (got {line:?})")),
        }
    }

    /// Asks the daemon to exit over the wire and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let (mut reader, mut writer) = connect(&self.addr)?;
        send(&mut writer, SHUTDOWN_REQUEST).map_err(|e| format!("send shutdown: {e}"))?;
        let mut ack = String::new();
        let _ = reader.read_line(&mut ack);
        let deadline = Instant::now() + READ_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("hilpd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait for hilpd: {e}")),
            }
        }
        Err("hilpd did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("configure socket: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    Ok((BufReader::new(stream), writer))
}

/// Sends one request line in a single write, so that the client side adds
/// no Nagle delay to the measured latency.
fn send(writer: &mut TcpStream, request: &str) -> std::io::Result<()> {
    writer.write_all(format!("{request}\n").as_bytes())
}

/// Runs `requests` one after another, each on a connection of its own
/// (as `hilp submit` does), timed from before the connect.
fn run_jobs(
    addr: &str,
    requests: &[String],
    reference: &Reference,
    mut on_record: impl FnMut(&Record),
) -> Vec<JobReport> {
    let mut reports = Vec::with_capacity(requests.len());
    for request in requests {
        let submitted = Instant::now();
        let sent = connect(addr).and_then(|(reader, mut writer)| {
            send(&mut writer, request).map_err(|e| format!("submit: {e}"))?;
            Ok(reader)
        });
        reports.push(match sent {
            Ok(mut reader) => read_job(&mut reader, submitted, reference, &mut on_record),
            Err(reason) => JobReport {
                failure: Some(reason),
                ..JobReport::default()
            },
        });
    }
    reports
}

/// The spec-file text of `soc` under `constraints`.
fn spec_text(soc: &SocSpec, constraints: &Constraints) -> String {
    let mut text = format!("cpus = {}\n", soc.cpu_cores);
    if let Some(sms) = soc.gpu_sms {
        text.push_str(&format!("gpu_sms = {sms}\n"));
    }
    for dsa in &soc.dsas {
        text.push_str(&format!(
            "dsa = {} {} {}\n",
            dsa.accelerates, dsa.pes, dsa.advantage
        ));
    }
    if let Some(watts) = constraints.power_w {
        text.push_str(&format!("power_w = {watts}\n"));
    }
    if let Some(gbps) = constraints.bandwidth_gbps {
        text.push_str(&format!("bandwidth_gbps = {gbps}\n"));
    }
    text
}

fn median_ms(samples: impl Iterator<Item = f64>) -> Metric {
    Metric::quantile_of(&samples.map(|s| s * 1e3).collect::<Vec<_>>(), 0.5)
}

/// The two tenants' job streams and the daemon they run against.
pub struct Tenants {
    hilpd: PathBuf,
    threads: usize,
    reference: Reference,
    sweep: String,
    sweep_points: usize,
    specs: Vec<String>,
    /// The distinct `spec` SoCs, for the layer probes.
    spec_socs: Vec<SocSpec>,
}

impl Tenants {
    /// Renders both clients' requests and loads the reference.
    ///
    /// # Errors
    ///
    /// When the reference cannot be read, `hilpd` is missing, or a spec
    /// does not parse back to its SoC.
    pub fn new(settings: &Settings) -> Result<Tenants, String> {
        if !settings.hilpd.is_file() {
            return Err(format!(
                "no hilpd executable at {}",
                settings.hilpd.display()
            ));
        }
        let reference = load_bench_sweep(&settings.bench_sweep)?
            .model(ModelKind::Hilp.name())?
            .clone();
        let constraints = Constraints::paper_default();
        let picks: Vec<SocSpec> = settings
            .socs()
            .into_iter()
            .filter(|(i, _)| i % SPEC_STRIDE == 0)
            .map(|(_, s)| s)
            .collect();
        let repeats = picks.len().div_ceil(3);
        let mut specs = Vec::with_capacity(picks.len() + repeats);
        for soc in picks.iter().chain(&picks[..repeats]) {
            let text = spec_text(soc, &constraints);
            match parse_soc(&text) {
                Ok((parsed, c)) if parsed == *soc && c == constraints => {}
                _ => {
                    return Err(format!(
                        "{}: spec does not parse back: {text:?}",
                        soc.label()
                    ))
                }
            }
            specs.push(spec_request("explorer", &text));
        }
        let step = settings.soc_step();
        Ok(Tenants {
            hilpd: settings.hilpd.clone(),
            threads: settings.threads,
            reference,
            sweep: sweep_request("dashboard", step),
            sweep_points: design_space(4.0).into_iter().step_by(step).count(),
            specs,
            spec_socs: picks,
        })
    }
}

impl Bench for Tenants {
    fn pass(&mut self, _gauge: &mut Gauge) -> Pass {
        let mut pass = Pass {
            attempted: (1 + WARM_REPEATS + self.specs.len()) as u64,
            ..Pass::default()
        };
        let t = Instant::now();
        let daemon = match Daemon::start(&self.hilpd, self.threads) {
            Ok(d) => d,
            Err(e) => {
                pass.fail_many(pass.attempted, e);
                return pass;
            }
        };
        pass.set("server.daemon_start_ms", t.elapsed().as_secs_f64() * 1e3);

        // The explorer starts once the cold sweep has finished, so that its
        // `spec` jobs share the daemon with the warm, replayed sweeps only:
        // the daemon then never computes on more than one core, which
        // leaves the other to the gauge (`spec` jobs racing the cold sweep
        // for a core were slowed several-fold by it) and gives every pass
        // the same order of events instead of whatever the race between
        // the clients decides.
        let sweeps = vec![self.sweep.clone(); 1 + WARM_REPEATS];
        let (cold_done, wait_for_cold) = mpsc::channel();
        let (addr, reference, specs) = (daemon.addr.as_str(), &self.reference, &self.specs);
        let (sweep_jobs, spec_jobs) = std::thread::scope(|s| {
            let dashboard = s.spawn(move || {
                let mut cold_done = Some(cold_done);
                run_jobs(addr, &sweeps, reference, |record| {
                    if matches!(record, Record::Job { event, .. } if event != "accepted") {
                        if let Some(tx) = cold_done.take() {
                            let _ = tx.send(());
                        }
                    }
                })
            });
            let explorer = s.spawn(move || {
                // Err means the dashboard gave up before the cold sweep
                // ended; the explorer then runs anyway and its jobs are
                // still checked.
                let _ = wait_for_cold.recv();
                run_jobs(addr, specs, reference, |_| {})
            });
            (
                dashboard.join().expect("dashboard client does not panic"),
                explorer.join().expect("explorer client does not panic"),
            )
        });
        let rss = probe::peak_rss_mb(Some(daemon.child.id()));
        if let Err(e) = daemon.shutdown() {
            pass.fail(e);
        }

        for job in sweep_jobs.iter().chain(&spec_jobs) {
            if let Some(reason) = &job.failure {
                pass.fail(reason.clone());
            }
        }
        for job in &sweep_jobs {
            if job.failure.is_none() && job.points.len() != self.sweep_points {
                pass.fail(format!(
                    "sweep job streamed {} of {} points",
                    job.points.len(),
                    self.sweep_points
                ));
            }
        }
        let warm = &sweep_jobs[1..];
        let warm_points: usize = warm.iter().map(|j| j.points.len()).sum();
        let replay_ratio =
            warm.iter().map(|j| j.replayed as f64).sum::<f64>() / warm_points.max(1) as f64;
        if replay_ratio < MIN_REPLAY_RATIO {
            pass.fail(format!(
                "warm sweeps replayed {replay_ratio:.3} of their points"
            ));
        }

        let all_jobs = || sweep_jobs.iter().chain(&spec_jobs);
        let points = || all_jobs().flat_map(|j| &j.points);
        pass.op_seconds = spec_jobs.iter().map(|j| j.latency_s).collect();
        pass.set("server.daemon_rss_mb", rss);
        pass.set("server.replay_ratio", replay_ratio);
        pass.set("server.job_cold_s", sweep_jobs[0].latency_s);
        pass.set_metric(
            "server.job_warm_ms",
            median_ms(warm.iter().map(|j| j.latency_s)),
        );
        pass.set_metric(
            "server.accept_ms_p50",
            median_ms(all_jobs().filter_map(|j| j.accepted_s)),
        );
        pass.set_metric(
            "server.first_point_ms_p50",
            median_ms(all_jobs().filter_map(|j| j.first_point_s)),
        );
        pass.set_metric(
            "server.wire_ms_p50",
            median_ms(spec_jobs.iter().map(|j| j.latency_s - j.server_seconds)),
        );
        pass.set("server.records", all_jobs().map(|j| j.records as f64).sum());
        let cached = points().filter(|p| p.cached).count() as f64;
        let solved_ms: Vec<f64> = points()
            .filter(|p| !p.replayed && !p.cached)
            .map(|p| p.seconds * 1e3)
            .collect();
        pass.set("dse.cache_hits", cached);
        pass.set(
            "dse.cache_hit_ratio",
            cached / points().count().max(1) as f64,
        );
        pass.set_metric("dse.point_ms_p50", Metric::quantile_of(&solved_ms, 0.5));
        pass.set_metric("dse.point_ms_p90", Metric::quantile_of(&solved_ms, 0.9));
        pass.set_metric("dse.point_ms_max", Metric::quantile_of(&solved_ms, 1.0));
        pass.record_gaps(
            &sweep_jobs[0]
                .points
                .iter()
                .map(|p| p.point.gap)
                .collect::<Vec<_>>(),
        );
        pass
    }

    fn layers(&mut self, timed: &[Pass], _traced: &Pass) -> Pass {
        let mut probes = Pass {
            attempted: self.spec_socs.len() as u64,
            ..Pass::default()
        };
        let workload = Workload::rodinia(WorkloadVariant::Default);
        let config = committed_config(self.threads);
        match probe::pipeline(
            &workload,
            &self.spec_socs,
            &Constraints::paper_default(),
            &config,
        ) {
            Ok(times) => times.record(&mut probes),
            Err(e) => probes.fail_many(self.spec_socs.len() as u64, format!("pipeline probe: {e}")),
        }
        for name in ["server.job_cold_s", "server.job_warm_ms"] {
            let samples: Vec<f64> = timed.iter().map(|p| p.value(name)).collect();
            probes.set_metric(name, Metric::quantile_of(&samples, 0.5));
        }
        probes
    }

    fn peak_rss_mb(&self, timed: &[Pass]) -> f64 {
        quantile(
            &timed
                .iter()
                .map(|p| p.value("server.daemon_rss_mb"))
                .collect::<Vec<_>>(),
            0.5,
        )
    }
}
