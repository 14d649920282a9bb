//! The `hilpd` daemon: a long-running, multi-tenant sweep service.
//!
//! One thread per connection parses request lines; each accepted job
//! runs on its own thread, sharding its design points across the
//! existing sweep worker pool (`hilp-parallel`'s `WorkQueue`) with a
//! fair share of the daemon's total thread allowance. Results stream
//! back as journal records while the sweep runs (see
//! [`crate::protocol`]).
//!
//! Cross-request amortization: the daemon keeps one bounded
//! [`ResultStore`] for all jobs. Every job reads and writes it, so each
//! design point a job answers — with its per-level proven bounds — is
//! filed under its inputs key, and any later job that asks for the same
//! point under the same model answers it by identity replay at
//! near-zero cost, bit-identical to the first run. That covers a
//! re-submitted sweep (e.g. the 372-point Fig. 7 sweep a dashboard
//! refreshes) and a spec job naming a SoC an earlier sweep solved. Jobs
//! run with `memoize` off: a daemon job computes no instance keys.
//!
//! Every job carries a cancel token tripped when its client disconnects
//! (or sends `cancel`); cancel-only budgets are replay-safe (see
//! [`hilp_dse::SweepBudgets::replay_safe`]), so the disconnect guard
//! costs no amortization, and a cancelled job keeps the points it
//! finished before the trip. Node- and deadline-budgeted jobs neither
//! read nor write the store.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hilp_core::CancelToken;
use hilp_dse::{
    design_space, evaluate_space_streamed, specfile, DesignPoint, ModelKind, PointUpdate,
    ResultStore, SweepBudgets, SweepConfig, SweepObserver,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::Record;
use hilp_workloads::{Workload, WorkloadVariant};

use crate::net::{Listener, Socket};
use crate::protocol::{parse_request, JobSpec, Request, SubmitRequest};
use crate::quota::{TenantLedger, TenantQuota};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total worker-thread allowance shared fairly by concurrent jobs
    /// (`0` = all available cores; when the core count cannot be
    /// determined the daemon falls back to
    /// [`hilp_parallel::FALLBACK_THREADS`] and reports every job as
    /// degraded).
    pub threads: usize,
    /// The quota applied to every tenant.
    pub quota: TenantQuota,
    /// Append every record sent to any client (plus job lifecycle
    /// records) to this JSONL file — the server-side journal CI uploads
    /// on failure.
    pub journal: Option<std::path::PathBuf>,
    /// Suppress stderr progress messages.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            quota: TenantQuota::default(),
            journal: None,
            quiet: true,
        }
    }
}

/// The longest request line the daemon reads, newline included. A spec
/// job is a few lines of text; a client that sends more without a newline
/// is rejected and disconnected instead of growing the daemon's memory.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// State shared by every connection and job thread.
struct Shared {
    total_threads: usize,
    /// The startup core-count probe failed; every job reports degraded
    /// capacity.
    degraded: bool,
    active_jobs: AtomicUsize,
    next_job_id: AtomicU64,
    ledger: TenantLedger,
    /// The resolved listen address (the shutdown path self-connects to
    /// unblock the accept loop).
    addr: String,
    /// Every answered design point of every job, for replay by later
    /// jobs.
    store: Arc<ResultStore>,
    start: Instant,
    shutdown: AtomicBool,
    journal: Option<Mutex<std::fs::File>>,
    quiet: bool,
}

impl Shared {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn say(&self, msg: &str) {
        if !self.quiet {
            eprintln!("hilpd: {msg}");
        }
    }

    /// Appends `record` to the server-side journal file (best effort).
    fn journal(&self, record: &Record) {
        if let Some(file) = &self.journal {
            if let Ok(mut file) = file.lock() {
                let _ = writeln!(file, "{}", record.to_json());
            }
        }
    }
}

/// A connection's shared line writer: job threads stream records through
/// it while the reader thread keeps watching for cancel/disconnect.
#[derive(Clone)]
struct WireWriter {
    shared: Arc<Shared>,
    sink: Arc<Mutex<Socket>>,
}

impl WireWriter {
    /// Sends one record (best effort — a disconnected client is handled
    /// by the reader side tripping the job's cancel token) and mirrors
    /// it into the server journal. The line and its newline leave in one
    /// write: split, the newline would wait on Nagle's algorithm for the
    /// client's delayed acknowledgement.
    fn send(&self, record: &Record) {
        self.shared.journal(record);
        let mut line = record.to_json();
        line.push('\n');
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
    }

    /// Stamps a [`JobEvent`] with the daemon clock and sends it.
    fn send_job(&self, event: JobEvent<'_>) {
        self.send(&event.record(&self.shared));
    }
}

/// Payload of one `Record::Job` wire event. Fields irrelevant to a
/// given event keep their zero defaults, so control acks stay terse at
/// the call site.
#[derive(Default)]
struct JobEvent<'a> {
    event: &'a str,
    id: u64,
    tenant: &'a str,
    points: u64,
    replayed: u64,
    truncated: u64,
    degraded: bool,
    seconds: f64,
    detail: &'a str,
}

impl JobEvent<'_> {
    fn record(&self, shared: &Shared) -> Record {
        Record::Job {
            t_us: shared.now_us(),
            event: self.event.to_string(),
            id: self.id,
            tenant: self.tenant.to_string(),
            points: self.points,
            replayed: self.replayed,
            truncated: self.truncated,
            degraded: u64::from(self.degraded),
            seconds: self.seconds,
            detail: self.detail.to_string(),
        }
    }
}

/// The resolved inputs of one admitted job.
struct JobInputs {
    workload: Workload,
    socs: Vec<SocSpec>,
    constraints: Constraints,
    model: ModelKind,
}

fn resolve_inputs(job: &JobSpec) -> Result<JobInputs, String> {
    match job {
        JobSpec::Sweep { model, step } => {
            let mut socs = design_space(4.0);
            if *step > 1 {
                socs = socs.into_iter().step_by(*step).collect();
            }
            Ok(JobInputs {
                workload: Workload::rodinia(WorkloadVariant::Default),
                socs,
                constraints: Constraints::paper_default(),
                model: *model,
            })
        }
        JobSpec::Spec { text } => {
            let (soc, constraints) = specfile::parse_soc(text).map_err(|e| e.to_string())?;
            Ok(JobInputs {
                workload: Workload::rodinia(WorkloadVariant::Default),
                socs: vec![soc],
                constraints,
                model: ModelKind::Hilp,
            })
        }
    }
}

/// Streams every completed point to the client as a wire record.
struct StreamObserver<'a> {
    writer: &'a WireWriter,
    job_id: u64,
}

impl SweepObserver for StreamObserver<'_> {
    fn point_done(&self, update: &PointUpdate) {
        let p: &DesignPoint = &update.point;
        self.writer.send(&Record::Point {
            t_us: self.writer.shared.now_us(),
            job: self.job_id,
            index: update.index as u64,
            label: p.label.clone(),
            makespan_seconds: p.makespan_seconds,
            energy_joules: p.energy_joules,
            speedup: p.speedup,
            avg_wlp: p.avg_wlp,
            gap: p.gap,
            seconds: update.seconds,
            truncated: update.truncated.map_or_else(String::new, |k| k.to_string()),
            replayed: u64::from(update.replayed),
            cached: u64::from(update.cached),
        });
    }
}

/// Runs one admitted job, streaming its points, and returns its terminal
/// record for the caller to send. Called on the job's own thread; the
/// connection's reader thread owns cancellation.
fn run_job(
    shared: &Arc<Shared>,
    writer: &WireWriter,
    id: u64,
    tenant: &str,
    inputs: &JobInputs,
    budgets: SweepBudgets,
    token: &CancelToken,
) -> Record {
    // Fair share: a job entering while `n - 1` others run gets
    // `total / n` threads for its lifetime. Thread counts are
    // result-invariant, so shares only move wall-clock, never results.
    let active = shared.active_jobs.fetch_add(1, Ordering::SeqCst) + 1;
    let threads = (shared.total_threads / active.max(1)).max(1);
    // The sweep reads and writes the daemon's store itself (unless a node
    // or deadline budget rules it out). No instance keys: each point that
    // does not replay would pay a tabulate and a hash for one (about
    // 20 µs on Rodinia), and whether their memo hits repay that here is
    // unmeasured.
    let config = SweepConfig {
        threads,
        memoize: false,
        budgets,
        baseline: Some(Arc::clone(&shared.store)),
        ..SweepConfig::default()
    };
    let observer = StreamObserver { writer, job_id: id };
    let t0 = Instant::now();
    let outcome = evaluate_space_streamed(
        &inputs.workload,
        &inputs.socs,
        &inputs.constraints,
        inputs.model,
        &config,
        &observer,
    );
    let seconds = t0.elapsed().as_secs_f64();
    shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
    match outcome {
        Ok((points, stats)) => {
            let degraded = shared.degraded || stats.parallelism_fallback;
            let event = if token.is_cancelled() {
                "cancelled"
            } else {
                "finished"
            };
            let truncated = stats.truncated_points as u64;
            let replayed = stats.delta_identity_points as u64;
            shared
                .ledger
                .finish(tenant, points.len() as u64, replayed, truncated);
            shared.say(&format!(
                "job {id} ({tenant}) {event}: {} points, {replayed} replayed, \
                 {truncated} truncated, {seconds:.2}s on {threads} thread(s)",
                points.len()
            ));
            JobEvent {
                event,
                id,
                tenant,
                points: points.len() as u64,
                replayed,
                truncated,
                degraded,
                seconds,
                ..JobEvent::default()
            }
            .record(shared)
        }
        Err(e) => {
            shared.ledger.finish(tenant, 0, 0, 0);
            shared.say(&format!("job {id} ({tenant}) failed: {e}"));
            let detail = e.to_string();
            JobEvent {
                event: "failed",
                id,
                tenant,
                degraded: shared.degraded,
                seconds,
                detail: &detail,
                ..JobEvent::default()
            }
            .record(shared)
        }
    }
}

/// The job a connection currently has running.
struct ActiveJob {
    id: u64,
    token: CancelToken,
    /// Set by the job just before it sends its terminal record.
    done: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

fn handle_submit(
    shared: &Arc<Shared>,
    writer: &WireWriter,
    submit: SubmitRequest,
    active: &mut Option<ActiveJob>,
) {
    let reject = |detail: &str| {
        writer.send_job(JobEvent {
            event: "rejected",
            tenant: &submit.tenant,
            detail,
            ..JobEvent::default()
        });
    };
    if active.is_some() {
        reject("connection already has a running job (open another connection)");
        return;
    }
    let inputs = match resolve_inputs(&submit.job) {
        Ok(inputs) => inputs,
        Err(e) => {
            reject(&e);
            return;
        }
    };
    if let Err(e) = shared.ledger.begin(&submit.tenant) {
        reject(&e);
        return;
    }
    let quota = shared.ledger.quota();
    let token = CancelToken::new();
    let budgets = SweepBudgets {
        per_point_nodes: quota.clamp_nodes(submit.per_point_nodes),
        sweep_deadline: quota.clamp_deadline(submit.deadline_seconds.map(Duration::from_secs_f64)),
        cancel: Some(token.clone()),
    };
    let id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
    shared.say(&format!(
        "job {id} ({}) accepted: {} point(s)",
        submit.tenant,
        inputs.socs.len()
    ));
    writer.send_job(JobEvent {
        event: "accepted",
        id,
        tenant: &submit.tenant,
        points: inputs.socs.len() as u64,
        degraded: shared.degraded,
        ..JobEvent::default()
    });
    let done = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let writer = writer.clone();
        let tenant = submit.tenant.clone();
        let token = token.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let terminal = run_job(&shared, &writer, id, &tenant, &inputs, budgets, &token);
            // Done before the terminal record goes out: a client that
            // submits again as soon as it reads that record must find the
            // job finished.
            done.store(true, Ordering::SeqCst);
            writer.send(&terminal);
        })
    };
    *active = Some(ActiveJob {
        id,
        token,
        done,
        handle,
    });
}

fn handle_connection(shared: &Arc<Shared>, stream: Socket) {
    let Ok(sink) = stream.try_clone() else {
        return;
    };
    let writer = WireWriter {
        shared: Arc::clone(shared),
        sink: Arc::new(Mutex::new(sink)),
    };
    let mut active: Option<ActiveJob> = None;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) if n == MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') => {
                writer.send_job(JobEvent {
                    event: "rejected",
                    detail: &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    ..JobEvent::default()
                });
                break;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Reap a job that marked itself done since the last request: it has
        // settled its accounting and is at most sending its terminal record,
        // so a client may submit again as soon as it reads that record.
        if let Some(job) = active.take_if(|job| job.done.load(Ordering::SeqCst)) {
            let _ = job.handle.join();
        }
        match parse_request(line) {
            Ok(Request::Submit(submit)) => handle_submit(shared, &writer, submit, &mut active),
            Ok(Request::Cancel { id }) => match &active {
                Some(job) if job.id == id => {
                    shared.say(&format!("job {id} cancelled by request"));
                    job.token.cancel();
                }
                _ => writer.send_job(JobEvent {
                    event: "rejected",
                    id,
                    detail: "no such active job on this connection",
                    ..JobEvent::default()
                }),
            },
            Ok(Request::Ping) => {
                writer.send_job(JobEvent {
                    event: "pong",
                    ..JobEvent::default()
                });
            }
            Ok(Request::Stats) => {
                let (running, jobs_done, points) = shared.ledger.totals();
                writer.send_job(JobEvent {
                    event: "stats",
                    id: running as u64,
                    points,
                    degraded: shared.degraded,
                    seconds: shared.start.elapsed().as_secs_f64(),
                    detail: &format!("jobs_done={jobs_done}"),
                    ..JobEvent::default()
                });
            }
            Ok(Request::Shutdown) => {
                // Flag first, acknowledge second: once the client sees the
                // ack it may immediately reconnect to unblock the accept
                // loop, which must already observe the flag.
                shared.shutdown.store(true, Ordering::SeqCst);
                writer.send_job(JobEvent {
                    event: "shutdown",
                    ..JobEvent::default()
                });
                // Unblock the accept loop so it can observe the flag —
                // without this the daemon would linger until the next
                // client happened to connect.
                let _ = Socket::connect(&shared.addr);
                break;
            }
            Err(e) => {
                writer.send_job(JobEvent {
                    event: "rejected",
                    detail: &e,
                    ..JobEvent::default()
                });
            }
        }
    }
    // Disconnect (or shutdown): cancel-on-disconnect trips the active
    // job's token; the sweep degrades its remaining points and drains.
    if let Some(job) = active.take() {
        if !job.handle.is_finished() {
            shared.say(&format!("job {} client went away; cancelling", job.id));
        }
        job.token.cancel();
        let _ = job.handle.join();
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    addr: String,
}

impl Server {
    /// Binds to `addr` — a TCP `host:port` (port `0` picks an ephemeral
    /// port; see [`Server::local_addr`]) or, when the address contains a
    /// `/`, a Unix socket path.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-file errors.
    pub fn bind(addr: &str, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        let (total_threads, degraded) = hilp_parallel::resolve_threads(config.threads);
        let journal = match &config.journal {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let resolved = listener.local_addr();
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                total_threads,
                degraded,
                active_jobs: AtomicUsize::new(0),
                next_job_id: AtomicU64::new(1),
                ledger: TenantLedger::new(config.quota.clone()),
                addr: resolved.clone(),
                store: Arc::new(ResultStore::new()),
                start: Instant::now(),
                shutdown: AtomicBool::new(false),
                journal,
                quiet: config.quiet,
            }),
            addr: resolved,
        })
    }

    /// The resolved listen address (for clients, after ephemeral-port
    /// resolution).
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves connections until a client sends `shutdown`. Each
    /// connection gets its own thread; running jobs at shutdown are
    /// abandoned to the process exit.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than transient interruptions.
    pub fn run(self) -> std::io::Result<()> {
        self.shared.say(&format!("listening on {}", self.addr));
        loop {
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(&shared, stream));
        }
    }

    /// Binds and serves on a background thread, returning the resolved
    /// address and the serving thread's handle. The thread exits once a
    /// client sends `shutdown` (the daemon unblocks its own accept
    /// loop).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(
        addr: &str,
        config: &ServerConfig,
    ) -> std::io::Result<(String, std::thread::JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(addr, config)?;
        let resolved = server.addr.clone();
        let handle = std::thread::spawn(move || server.run());
        Ok((resolved, handle))
    }
}
