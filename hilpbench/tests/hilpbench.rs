//! Checks that each in-process workload emits every metric `BENCHMARK.json`
//! lists, that a sweep returning too few points fails its pass, and that
//! the `hilpd` wire accounting counts broken jobs as failed operations.

use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use hilp_dse::{evaluate_space, DesignPoint, ModelKind};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::Record;
use hilp_workloads::mobile::mobile_workload;
use hilpbench::grid::check_sweep;
use hilpbench::metrics::{END_TO_END, PER_LAYER};
use hilpbench::reference::{load_jsonl, RefPoint, Reference};
use hilpbench::whatif::check_same;
use hilpbench::wire::{read_job, JobReport};
use hilpbench::{committed_config, run, Pass, Scale, Settings, MOBILE_REFERENCE, WORKLOADS};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// `(name, unit)` of every entry in one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..start + text[start..].find(']').expect("list is closed")];
    let value = |entry: &str, key: &str| -> Option<String> {
        let rest = &entry[entry.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                value(entry, "name").expect("every entry has a name"),
                value(entry, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_emitted_metrics_and_workloads() {
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

fn tiny(seed: u64) -> Settings {
    let root = repo_root();
    Settings {
        scale: Scale::Tiny,
        threads: 2,
        ..Settings::new(seed, root, root)
    }
}

fn check_workload(name: &str) {
    let report = run(name, &tiny(3), 0.0, true).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.attempted > 0, "{name}: no operations attempted");
    assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
    for (metric, unit) in listed("end_to_end").into_iter().chain(listed("per_layer")) {
        let m = report
            .metrics
            .get(metric.as_str())
            .unwrap_or_else(|| panic!("{name} does not emit {metric}"));
        assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
        assert!(!unit.is_empty(), "{metric} has no unit");
    }
    for (metric, _) in END_TO_END {
        assert!(report.metrics[metric].value > 0.0, "{name}: {metric} is 0");
    }
}

#[test]
fn fig7_grid_emits_every_metric() {
    check_workload("fig7-grid");
}

#[test]
fn whatif_exact_emits_every_metric() {
    check_workload("whatif-exact");
}

#[test]
fn mobile_grid_emits_every_metric() {
    check_workload("mobile-grid");
}

#[test]
fn bnb_small_emits_every_metric() {
    check_workload("bnb-small");
}

/// The mobile-grid sweep over the tiny input's SoCs, and their count.
fn tiny_mobile_sweep() -> (Vec<DesignPoint>, usize) {
    let socs: Vec<SocSpec> = tiny(3).socs().into_iter().map(|(_, s)| s).collect();
    let points = evaluate_space(
        &mobile_workload(),
        &socs,
        &Constraints::paper_default(),
        ModelKind::Hilp,
        &committed_config(2),
    )
    .expect("tiny mobile sweep");
    (points, socs.len())
}

#[test]
fn a_sweep_returning_too_few_points_fails_one_op_per_missing_point() {
    let (points, socs) = tiny_mobile_sweep();
    let reference = load_jsonl(&repo_root().join(MOBILE_REFERENCE)).expect("reference loads");
    let mut whole = Pass::default();
    check_sweep(&mut whole, "HILP", &reference, &points, socs);
    assert_eq!(whole.failed, 0, "{:?}", whole.failures);

    let mut short = Pass::default();
    check_sweep(&mut short, "HILP", &reference, &points[..socs - 2], socs);
    assert_eq!(short.failed, 2, "{:?}", short.failures);
}

#[test]
fn a_replay_with_a_point_missing_or_extra_fails_one_op() {
    let (points, _) = tiny_mobile_sweep();
    let mut same = Pass::default();
    check_same(&mut same, "re-sweep", "the recording", &points, &points);
    assert_eq!(same.failed, 0, "{:?}", same.failures);

    let n = points.len();
    for (got, want) in [
        (&points[..n - 1], &points[..]),
        (&points[..], &points[..n - 1]),
    ] {
        let mut uneven = Pass::default();
        check_same(&mut uneven, "re-sweep", "the recording", got, want);
        assert_eq!(uneven.failed, 1, "{:?}", uneven.failures);
        assert!(
            uneven.failures[0].contains("returned"),
            "{:?}",
            uneven.failures
        );
    }
}

/// A reference holding the committed mobile-grid points, and one of them.
fn reference() -> (Reference, String, RefPoint) {
    let reference = load_jsonl(&repo_root().join(MOBILE_REFERENCE)).expect("reference loads");
    let label = "(c1,g0,d0^0)".to_string();
    let point = *reference.get(&label).expect("label is committed");
    (reference, label, point)
}

fn job(event: &str, points: u64) -> String {
    Record::Job {
        t_us: 1,
        event: event.to_string(),
        id: 7,
        tenant: "explorer".to_string(),
        points,
        replayed: 0,
        truncated: 0,
        degraded: 0,
        seconds: 0.001,
        detail: String::new(),
    }
    .to_json()
}

fn point(label: &str, p: &RefPoint) -> String {
    Record::Point {
        t_us: 2,
        job: 7,
        index: 0,
        label: label.to_string(),
        makespan_seconds: p.makespan_seconds,
        energy_joules: p.energy_joules,
        speedup: 1.0,
        avg_wlp: 1.0,
        gap: p.gap,
        seconds: 0.001,
        truncated: String::new(),
        replayed: 0,
        cached: 0,
    }
    .to_json()
}

fn account(lines: &[String]) -> JobReport {
    let (reference, _, _) = reference();
    let mut stream = Cursor::new(lines.iter().map(|l| format!("{l}\n")).collect::<String>());
    read_job(&mut stream, Instant::now(), &reference, |_| {})
}

#[test]
fn a_finished_job_with_matching_points_succeeds() {
    let (_, label, p) = reference();
    let report = account(&[job("accepted", 1), point(&label, &p), job("finished", 1)]);
    assert_eq!(report.failure, None);
    assert_eq!(report.records, 3);
    assert_eq!(report.points.len(), 1);
    assert!(report.accepted_s.is_some() && report.first_point_s.is_some());
}

#[test]
fn a_failed_terminal_record_is_a_failed_op() {
    // A malformed spec job is answered at once with `failed`; that quick
    // answer must not pass as a fast success.
    let report = account(&[job("accepted", 1), job("failed", 0)]);
    assert!(report
        .failure
        .expect("counted as failed")
        .contains("failed"));
}

#[test]
fn a_stream_ending_before_the_terminal_record_is_a_failed_op() {
    let (_, label, p) = reference();
    let report = account(&[job("accepted", 1), point(&label, &p)]);
    assert!(report.failure.expect("counted as failed").contains("ended"));
}

#[test]
fn a_point_mismatching_its_reference_is_one_failed_op() {
    let (_, label, p) = reference();
    let wrong = RefPoint {
        makespan_seconds: p.makespan_seconds * 1.01,
        ..p
    };
    let report = account(&[
        job("accepted", 2),
        point(&label, &wrong),
        point(&label, &wrong),
        job("finished", 2),
    ]);
    // Two bad points, one job: the job is the operation that failed.
    assert!(report
        .failure
        .expect("counted as failed")
        .contains("makespan"));
    assert_eq!(report.points.len(), 2);
}
