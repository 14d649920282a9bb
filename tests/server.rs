//! End-to-end tests of `hilpd` over loopback TCP: protocol behavior,
//! quota enforcement, cancel-on-disconnect, replay across jobs from the
//! daemon's result store, and the core service guarantee — concurrent
//! jobs from any interleaving produce results bit-identical to serial
//! submission. A property test also feeds arbitrary text to the wire and
//! spec parsers.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hilp_dse::specfile::{parse_soc, MAX_CPUS};
use hilp_dse::{design_space, ModelKind};
use hilp_server::{
    parse_request, render_request, Client, JobSpec, Request, Server, ServerConfig, SubmitRequest,
    TenantQuota,
};
use hilp_soc::SocSpec;
use hilp_telemetry::Record;
use proptest::prelude::*;

/// Spawns an in-process daemon on an ephemeral loopback port and returns
/// its address (the daemon thread is left to the process; tests that care
/// about clean shutdown drive it over the wire).
fn spawn_daemon(config: &ServerConfig) -> String {
    let (addr, _handle) = Server::spawn("127.0.0.1:0", config).expect("spawn daemon");
    addr
}

fn spec_job(tenant: &str, cpus: u32, gpu_sms: u32) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        job: JobSpec::Spec {
            text: format!("cpus = {cpus}\ngpu_sms = {gpu_sms}\n"),
        },
        deadline_seconds: None,
        per_point_nodes: None,
    }
}

/// A spec job for `soc` under the paper's constraints (those of a `sweep`
/// job), optionally node-budgeted.
fn soc_spec_job(tenant: &str, soc: &SocSpec, per_point_nodes: Option<u64>) -> SubmitRequest {
    let mut text = format!(
        "cpus = {}\npower_w = 600\nbandwidth_gbps = 800\n",
        soc.cpu_cores
    );
    if let Some(sms) = soc.gpu_sms {
        text.push_str(&format!("gpu_sms = {sms}\n"));
    }
    for dsa in &soc.dsas {
        text.push_str(&format!(
            "dsa = {} {} {}\n",
            dsa.accelerates, dsa.pes, dsa.advantage
        ));
    }
    SubmitRequest {
        tenant: tenant.to_string(),
        job: JobSpec::Spec { text },
        deadline_seconds: None,
        per_point_nodes,
    }
}

/// Result signature of one job: per-point `(label, makespan bits, gap
/// bits)` — bit-level equality, not approximate.
type Signature = HashMap<u64, (String, u64, u64)>;

fn run_to_signature(addr: &str, request: SubmitRequest) -> Signature {
    run_with_replays(addr, request).0
}

/// Runs a job to `finished`, returning its signature and the indices of
/// the points it streamed as `replayed`.
fn run_with_replays(addr: &str, request: SubmitRequest) -> (Signature, Vec<u64>) {
    let mut client = Client::connect(addr).expect("connect");
    let mut signature = Signature::new();
    let mut replays = Vec::new();
    let outcome = client
        .run_job(request, |record| {
            if let Record::Point {
                index,
                label,
                makespan_seconds,
                gap,
                replayed,
                ..
            } = record
            {
                signature.insert(
                    *index,
                    (label.clone(), makespan_seconds.to_bits(), gap.to_bits()),
                );
                if *replayed == 1 {
                    replays.push(*index);
                }
            }
        })
        .expect("job stream");
    assert_eq!(outcome.event, "finished", "{outcome:?}");
    assert_eq!(outcome.points as usize, signature.len(), "{outcome:?}");
    assert_eq!(outcome.replayed as usize, replays.len(), "{outcome:?}");
    (signature, replays)
}

/// Sends one raw request line on a fresh connection and reads records up
/// to the first terminal job record (any event but `accepted`). The read
/// timeout turns a stream that never terminates into a failure, not a
/// hang.
fn submit_raw(addr: &str, line: &str) -> Vec<Record> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{line}").expect("send");
    let mut reader = BufReader::new(stream);
    let mut records = Vec::new();
    loop {
        let mut buf = String::new();
        let read = reader.read_line(&mut buf);
        assert!(
            matches!(read, Ok(n) if n > 0),
            "no terminal record for {line}: {read:?} after {records:?}"
        );
        let record = Record::parse(buf.trim()).expect("a wire record");
        let terminal = matches!(&record, Record::Job { event, .. } if event != "accepted");
        records.push(record);
        if terminal {
            return records;
        }
    }
}

#[test]
fn ping_stats_and_malformed_lines_answer_on_one_connection() {
    let addr = spawn_daemon(&ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    // A malformed line is answered with a rejected record, and the
    // connection stays usable.
    client
        .send(&Request::Submit(SubmitRequest {
            tenant: "t".to_string(),
            job: JobSpec::Spec {
                text: "not a spec".to_string(),
            },
            deadline_seconds: None,
            per_point_nodes: None,
        }))
        .expect("send");
    match client.read_record().expect("read") {
        Some(Record::Job { event, detail, .. }) => {
            assert_eq!(event, "rejected");
            assert!(!detail.is_empty(), "rejection must say why");
        }
        other => panic!("expected rejected record, got {other:?}"),
    }

    client.send(&Request::Stats).expect("send");
    match client.read_record().expect("read") {
        Some(Record::Job { event, id, .. }) => {
            assert_eq!(event, "stats");
            assert_eq!(id, 0, "no jobs running");
        }
        other => panic!("expected stats record, got {other:?}"),
    }
}

#[test]
fn back_to_back_jobs_on_one_connection_are_all_accepted() {
    // Each job is submitted as soon as the previous terminal record is
    // read: the daemon must treat a job that sent its terminal record as
    // finished, not as a running job to reject the next submission for.
    let addr = spawn_daemon(&ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..20 {
        let outcome = client
            .run_job(spec_job("serial", 1 + i % 4, 0), |_| {})
            .expect("stream");
        assert_eq!(outcome.event, "finished", "job {i}: {outcome:?}");
        assert_eq!(outcome.points, 1, "job {i}: {outcome:?}");
    }
}

#[test]
fn oversized_request_lines_are_rejected_and_the_connection_closed() {
    let addr = spawn_daemon(&ServerConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut flood = stream.try_clone().expect("clone");
    // 1 MiB without a newline. The daemon stops reading at its line cap,
    // so the write may fail once the daemon closes; only the reply counts.
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the rejection");
    match Record::parse(line.trim()).expect("a wire record") {
        Record::Job { event, detail, .. } => {
            assert_eq!(event, "rejected");
            assert!(detail.contains("exceeds"), "{detail}");
        }
        other => panic!("expected rejected record, got {other:?}"),
    }
    line.clear();
    assert!(
        matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
        "the connection must close after the rejection, got {line:?}"
    );
    writer.join().expect("flood thread");
    Client::connect(&addr)
        .expect("connect")
        .ping()
        .expect("a fresh connection still answers");
}

#[test]
fn quota_rejections_name_the_tenant_and_limit() {
    let addr = spawn_daemon(&ServerConfig {
        quota: TenantQuota {
            max_concurrent_jobs: 0,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let outcome = client
        .run_job(spec_job("starved", 1, 0), |_| {})
        .expect("stream");
    assert_eq!(outcome.event, "rejected");
    assert!(
        outcome.detail.contains("starved") && outcome.detail.contains("limit 0"),
        "{outcome:?}"
    );
}

#[test]
fn disconnect_cancels_the_job_and_frees_the_tenant_slot() {
    let addr = spawn_daemon(&ServerConfig {
        quota: TenantQuota {
            max_concurrent_jobs: 1,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    });
    // Submit and vanish after the accepted record: the daemon must trip
    // the job's cancel token and release the tenant's only slot.
    {
        let mut client = Client::connect(&addr).expect("connect");
        client
            .send(&Request::Submit(SubmitRequest {
                tenant: "solo".to_string(),
                job: JobSpec::Sweep {
                    model: hilp_dse::ModelKind::Hilp,
                    step: 37,
                },
                deadline_seconds: None,
                per_point_nodes: None,
            }))
            .expect("send");
        match client.read_record().expect("read") {
            Some(Record::Job { event, .. }) => assert_eq!(event, "accepted"),
            other => panic!("expected accepted record, got {other:?}"),
        }
    }
    // The slot must come back; a cancelled job that leaked its ledger
    // entry would reject this submission forever.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut client = Client::connect(&addr).expect("connect");
        let outcome = client
            .run_job(spec_job("solo", 1, 0), |_| {})
            .expect("stream");
        if outcome.event == "finished" {
            break;
        }
        assert_eq!(outcome.event, "rejected", "{outcome:?}");
        assert!(
            Instant::now() < deadline,
            "tenant slot never freed after disconnect: {outcome:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn huge_deadlines_neither_panic_nor_leak_tenant_slots() {
    // The default quota allows two concurrent jobs per tenant.
    let addr = spawn_daemon(&ServerConfig::default());
    let submit = |deadline: &str| {
        format!(
            "{{\"type\":\"submit\",\"tenant\":\"far\",\"job\":\"spec\",\
             \"spec\":\"cpus = 1\\n\",\"deadline\":{deadline}}}"
        )
    };
    let event = |record: &Record| match record {
        Record::Job { event, .. } => event.clone(),
        other => panic!("expected a job record, got {other:?}"),
    };

    // 1e20 s does not fit a `Duration`: one rejection, no job.
    let records = submit_raw(&addr, &submit("1e20"));
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(event(&records[0]), "rejected");

    // 1e19 s fits a `Duration` but not a clock instant: the job runs with
    // no deadline and finishes.
    let records = submit_raw(&addr, &submit("1e19"));
    assert_eq!(event(&records[0]), "accepted");
    assert_eq!(event(records.last().unwrap()), "finished", "{records:?}");

    // Neither request kept a slot: the tenant runs two jobs at once.
    let jobs: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || run_to_signature(&addr, spec_job("far", 1 + i, 0)))
        })
        .collect();
    for job in jobs {
        assert_eq!(job.join().expect("job thread").len(), 1);
    }
}

#[test]
fn oversized_cpu_counts_are_rejected_without_harming_the_tenant() {
    // One machine per core: unchecked, this spec makes the encoder ask
    // for tens of gigabytes and aborts the daemon for every tenant.
    let addr = spawn_daemon(&ServerConfig::default());
    let records = submit_raw(
        &addr,
        r#"{"type":"submit","tenant":"evil","job":"spec","spec":"cpus = 4294967295\n"}"#,
    );
    assert_eq!(records.len(), 1, "{records:?}");
    match &records[0] {
        Record::Job { event, detail, .. } => {
            assert_eq!(event, "rejected");
            assert!(detail.contains("limit"), "{detail}");
        }
        other => panic!("expected a rejected record, got {other:?}"),
    }
    assert_eq!(run_to_signature(&addr, spec_job("evil", 2, 4)).len(), 1);
}

#[test]
fn spec_jobs_replay_the_points_a_sweep_job_answered() {
    let addr = spawn_daemon(&ServerConfig::default());
    let step = 93;
    let sweep = SubmitRequest {
        tenant: "dashboard".to_string(),
        job: JobSpec::Sweep {
            model: ModelKind::Hilp,
            step,
        },
        deadline_seconds: None,
        per_point_nodes: None,
    };
    let (swept, replays) = run_with_replays(&addr, sweep);
    assert!(replays.is_empty(), "a cold daemon replays nothing");
    let socs: Vec<SocSpec> = design_space(4.0).into_iter().step_by(step).collect();
    assert_eq!(swept.len(), socs.len());

    // Another tenant asks for one of the swept SoCs: the daemon's store
    // answers it, bit for bit.
    let index = socs.len() - 1;
    let (spec, replays) = run_with_replays(&addr, soc_spec_job("analyst", &socs[index], None));
    assert_eq!(replays, [0], "the spec job must replay");
    assert_eq!(spec[&0], swept[&(index as u64)]);
}

#[test]
fn node_budgeted_jobs_replay_nothing() {
    let addr = spawn_daemon(&ServerConfig::default());
    let soc = SocSpec::new(2).with_gpu(4);
    let (first, replays) = run_with_replays(&addr, soc_spec_job("t", &soc, None));
    assert!(replays.is_empty());
    // A node budget makes a result depend on the budget, so the job
    // neither reads nor writes the store.
    let (_, replays) = run_with_replays(&addr, soc_spec_job("t", &soc, Some(1 << 40)));
    assert!(replays.is_empty(), "a node-budgeted job must not replay");
    let (again, replays) = run_with_replays(&addr, soc_spec_job("t", &soc, None));
    assert_eq!(replays, [0], "the unbudgeted repeat replays");
    assert_eq!(again, first);
}

/// Arbitrary text: lossy UTF-8 from random bytes, or a string over a
/// token alphabet that reaches the parsers' deeper paths.
fn arb_text() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "cpus",
        "gpu_sms",
        "dsa",
        "power_w",
        "type",
        "submit",
        "spec",
        "tenant",
        "LUD",
        "=",
        " ",
        "0",
        "1",
        "9",
        "256",
        "257",
        "4294967295",
        "1e308",
        "-",
        ".",
        "e",
        "{",
        "}",
        "\"",
        ":",
        ",",
        "\\",
        "\\u",
        "#",
        "\n",
    ];
    (
        prop::bool::ANY,
        prop::collection::vec(0u8..=255, 0..256),
        prop::collection::vec(0..TOKENS.len(), 0..64),
    )
        .prop_map(|(bytes, raw, tokens)| {
            if bytes {
                String::from_utf8_lossy(&raw).into_owned()
            } else {
                tokens.into_iter().map(|i| TOKENS[i]).collect()
            }
        })
}

/// Any string of up to `max` chars (at least one when `non_empty`).
fn arb_string(non_empty: bool, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, usize::from(non_empty)..=max).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Requests the client can render.
fn arb_request() -> impl Strategy<Value = Request> {
    let job = (
        prop::bool::ANY,
        0..3usize,
        0..=usize::MAX,
        arb_string(false, 40),
    )
        .prop_map(|(sweep, model, step, text)| {
            if sweep {
                let model = [ModelKind::Hilp, ModelKind::MultiAmdahl, ModelKind::Gables][model];
                JobSpec::Sweep { model, step }
            } else {
                JobSpec::Spec { text }
            }
        });
    (
        0..5u8,
        arb_string(true, 12),
        job,
        prop::option::of(1e-9f64..1e18),
        prop::option::of(0..=u64::MAX),
        0..=u64::MAX,
    )
        .prop_map(
            |(kind, tenant, job, deadline_seconds, per_point_nodes, id)| match kind {
                0 => Request::Submit(SubmitRequest {
                    tenant,
                    job,
                    deadline_seconds,
                    per_point_nodes,
                }),
                1 => Request::Cancel { id },
                2 => Request::Ping,
                3 => Request::Stats,
                _ => Request::Shutdown,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Nothing a client sends can panic the request or record readers,
    /// or get the spec parser past its CPU limit.
    #[test]
    fn arbitrary_text_never_panics_the_parsers(text in arb_text()) {
        let _ = parse_request(&text);
        let _ = Record::parse(&text);
        if let Ok((soc, _)) = parse_soc(&text) {
            prop_assert!((1..=MAX_CPUS).contains(&soc.cpu_cores));
        }
    }

    /// Every request the client can render parses back to itself.
    #[test]
    fn rendered_requests_parse_back(request in arb_request()) {
        prop_assert_eq!(parse_request(&render_request(&request)), Ok(request));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The service guarantee: any set of jobs submitted concurrently (the
    /// OS schedules the interleaving) produces per-job results
    /// bit-identical to submitting the same jobs serially to a fresh
    /// daemon — sharded threads, fair-share splits and the shared result
    /// store are all result-invariant.
    #[test]
    fn interleaved_submissions_match_serial(
        jobs in prop::collection::vec((1u32..=4, 0u32..=2), 2..5)
    ) {
        // Index 0/1/2 -> no GPU, a small GPU, the paper's default GPU.
        let jobs: Vec<(u32, u32)> = jobs
            .into_iter()
            .map(|(cpus, gpu_idx)| (cpus, [0u32, 4, 16][gpu_idx as usize]))
            .collect();
        let serial_addr = spawn_daemon(&ServerConfig::default());
        let serial: Vec<Signature> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(cpus, gpu))| {
                run_to_signature(&serial_addr, spec_job(&format!("tenant-{i}"), cpus, gpu))
            })
            .collect();

        let concurrent_addr = spawn_daemon(&ServerConfig::default());
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(cpus, gpu))| {
                let addr = concurrent_addr.clone();
                std::thread::spawn(move || {
                    run_to_signature(&addr, spec_job(&format!("tenant-{i}"), cpus, gpu))
                })
            })
            .collect();
        let concurrent: Vec<Signature> = handles
            .into_iter()
            .map(|h| h.join().expect("job thread"))
            .collect();

        prop_assert_eq!(serial, concurrent);
    }
}
