//! Client side of the `hilpd` line protocol: hand-rendered request lines
//! and the accounting of one job's response stream.

use std::io::BufRead;
use std::time::Instant;

use hilp_telemetry::{push_json_string, Record};

use crate::reference::{RefPoint, Reference};

/// A `submit` line for the full-space (`step` 1) or subsampled HILP sweep.
#[must_use]
pub fn sweep_request(tenant: &str, step: usize) -> String {
    let mut s = String::from("{\"type\":\"submit\",\"tenant\":");
    push_json_string(&mut s, tenant);
    s.push_str(&format!(
        ",\"job\":\"sweep\",\"model\":\"hilp\",\"step\":{step}}}"
    ));
    s
}

/// A `submit` line for a single-SoC `spec` job.
#[must_use]
pub fn spec_request(tenant: &str, spec: &str) -> String {
    let mut s = String::from("{\"type\":\"submit\",\"tenant\":");
    push_json_string(&mut s, tenant);
    s.push_str(",\"job\":\"spec\",\"spec\":");
    push_json_string(&mut s, spec);
    s.push('}');
    s
}

/// The `shutdown` request line.
pub const SHUTDOWN_REQUEST: &str = "{\"type\":\"shutdown\"}";

/// One streamed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePoint {
    /// The SoC label.
    pub label: String,
    /// Makespan, energy and gap as streamed.
    pub point: RefPoint,
    /// Server-side solve seconds for the point.
    pub seconds: f64,
    /// Answered by identity replay.
    pub replayed: bool,
    /// Answered from the memo cache.
    pub cached: bool,
}

/// The client's account of one job, from submit to terminal record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobReport {
    /// Submit → terminal record (or → the failure that ended the stream).
    pub latency_s: f64,
    /// Submit → `accepted` record.
    pub accepted_s: Option<f64>,
    /// Submit → first streamed point.
    pub first_point_s: Option<f64>,
    /// Wire records read.
    pub records: u64,
    /// Streamed points, in arrival order.
    pub points: Vec<WirePoint>,
    /// Points the terminal record says were replayed.
    pub replayed: u64,
    /// Job seconds the terminal record reports (server-side time).
    pub server_seconds: f64,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
}

/// Reads one job's response stream up to its terminal record, checking
/// every streamed point against `reference` and handing every parsed
/// record to `on_record` as it arrives. The job counts as failed when the
/// stream ends or breaks before the terminal record, when the terminal
/// event is not `finished`, when points were truncated, when the streamed
/// point count disagrees with the terminal record, or when any point
/// disagrees with its reference.
pub fn read_job(
    reader: &mut impl BufRead,
    submitted: Instant,
    reference: &Reference,
    mut on_record: impl FnMut(&Record),
) -> JobReport {
    let mut report = JobReport::default();
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line);
        let at = submitted.elapsed().as_secs_f64();
        report.latency_s = at;
        match read {
            Ok(0) => {
                report.fail("stream ended before the terminal record".to_string());
                return report;
            }
            Err(e) => {
                report.fail(format!("read failed before the terminal record: {e}"));
                return report;
            }
            Ok(_) => {}
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        report.records += 1;
        let record = match Record::parse(text) {
            Ok(record) => record,
            Err(e) => {
                report.fail(format!("unparsable record ({e}): {text}"));
                return report;
            }
        };
        on_record(&record);
        match record {
            Record::Point {
                label,
                makespan_seconds,
                energy_joules,
                gap,
                seconds,
                replayed,
                cached,
                ..
            } => {
                report.first_point_s.get_or_insert(at);
                let point = RefPoint {
                    makespan_seconds,
                    energy_joules,
                    gap,
                };
                if let Err(e) = reference.check(&label, &point) {
                    report.fail(e);
                }
                report.points.push(WirePoint {
                    label,
                    point,
                    seconds,
                    replayed: replayed != 0,
                    cached: cached != 0,
                });
            }
            Record::Job { event, .. } if event == "accepted" => {
                report.accepted_s.get_or_insert(at);
            }
            Record::Job {
                event,
                points,
                replayed,
                truncated,
                seconds,
                detail,
                ..
            } => {
                report.replayed = replayed;
                report.server_seconds = seconds;
                if event != "finished" {
                    report.fail(format!("job ended {event}: {detail}"));
                } else if truncated > 0 {
                    report.fail(format!("{truncated} points truncated"));
                } else if points != report.points.len() as u64 {
                    report.fail(format!(
                        "terminal record counts {points} points, the stream carried {}",
                        report.points.len()
                    ));
                }
                return report;
            }
            _ => {}
        }
    }
}

impl JobReport {
    /// Marks the job failed, keeping the first reason.
    fn fail(&mut self, reason: String) {
        self.failure.get_or_insert(reason);
    }
}
