//! The `hilpd` wire protocol: newline-delimited flat JSON objects in
//! both directions.
//!
//! Requests (client → server) are parsed here into [`Request`];
//! responses (server → client) reuse the telemetry journal schema
//! ([`hilp_telemetry::Record`]) verbatim — a response stream is a valid
//! JSONL journal, so every existing journal tool (trace-summary,
//! `Journal::from_jsonl`) works on captured server traffic. Each
//! response stream for a request ends with a terminal
//! [`hilp_telemetry::Record::Job`] record (any `event` other than
//! `accepted`). See `DESIGN.md` §14 for the full schema.

use hilp_dse::ModelKind;
use hilp_telemetry::{push_json_string, Fields};
use std::fmt::Write as _;
use std::time::Duration;

/// What a submitted job should evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// The committed Fig. 7 scenario: the 372-SoC design space under the
    /// paper's default Rodinia workload and constraints, optionally
    /// subsampled (`step` > 1 keeps every `step`-th SoC; 0 and 1 both
    /// mean the full space).
    Sweep {
        /// Evaluation model.
        model: ModelKind,
        /// Subsample stride over the design space.
        step: usize,
    },
    /// A single SoC described by an inline spec file (see
    /// `hilp_dse::specfile`), evaluated as a one-point HILP sweep under
    /// the paper's default workload.
    Spec {
        /// The spec file contents.
        text: String,
    },
}

/// A parsed `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// What to evaluate.
    pub job: JobSpec,
    /// Requested whole-job wall-clock deadline in seconds (clamped to
    /// the tenant's quota): positive and below 2^64, so that it fits a
    /// [`Duration`].
    pub deadline_seconds: Option<f64>,
    /// Requested deterministic per-point node budget (clamped to the
    /// tenant's quota).
    pub per_point_nodes: Option<u64>,
}

/// One request line from a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; the server answers with an `accepted` job record,
    /// streams `point` records, and finishes with a terminal job record.
    Submit(SubmitRequest),
    /// Cancel the connection's active job (the id must match).
    Cancel {
        /// Server-assigned id of the job to cancel.
        id: u64,
    },
    /// Liveness probe; answered with a `pong` job record.
    Ping,
    /// Server statistics; answered with a `stats` job record.
    Stats,
    /// Ask the daemon to exit once the request is acknowledged.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem (malformed
/// JSON, unknown type, missing or invalid fields).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = Fields::parse(line)?;
    match fields.str("type")? {
        "submit" => {
            let tenant = fields.str("tenant")?.to_string();
            if tenant.is_empty() {
                return Err("tenant must be non-empty".to_string());
            }
            let job = match fields.str("job")? {
                "sweep" => JobSpec::Sweep {
                    model: parse_model(fields.get_str("model").unwrap_or("hilp"))?,
                    step: usize::try_from(
                        fields
                            .get_num("step")
                            .map_or(Ok(0), |_| fields.u64("step"))?,
                    )
                    .map_err(|_| "step overflows usize".to_string())?,
                },
                "spec" => JobSpec::Spec {
                    text: fields.str("spec")?.to_string(),
                },
                other => return Err(format!("unknown job kind {other:?}")),
            };
            // A deadline must fit a `Duration` (below 2^64 s), which is
            // what the job's budget is built from.
            let deadline_seconds = match fields.get_num("deadline") {
                Some(v) if v > 0.0 && Duration::try_from_secs_f64(v).is_ok() => Some(v),
                Some(_) => {
                    return Err(
                        "deadline must be a positive number of seconds below 2^64".to_string()
                    )
                }
                None => None,
            };
            let per_point_nodes = match fields.get_num("nodes") {
                Some(_) => Some(fields.u64("nodes")?),
                None => None,
            };
            Ok(Request::Submit(SubmitRequest {
                tenant,
                job,
                deadline_seconds,
                per_point_nodes,
            }))
        }
        "cancel" => Ok(Request::Cancel {
            id: fields.u64("id")?,
        }),
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// Serializes a request as one wire line (no trailing newline) — the
/// inverse of [`parse_request`].
#[must_use]
pub fn render_request(request: &Request) -> String {
    let mut s = String::with_capacity(64);
    match request {
        Request::Submit(submit) => {
            s.push_str("{\"type\":\"submit\",\"tenant\":");
            push_json_string(&mut s, &submit.tenant);
            match &submit.job {
                JobSpec::Sweep { model, step } => {
                    let _ = write!(
                        s,
                        ",\"job\":\"sweep\",\"model\":\"{}\",\"step\":{step}",
                        model_tag(*model)
                    );
                }
                JobSpec::Spec { text } => {
                    s.push_str(",\"job\":\"spec\",\"spec\":");
                    push_json_string(&mut s, text);
                }
            }
            if let Some(deadline) = submit.deadline_seconds {
                let _ = write!(s, ",\"deadline\":{deadline}");
            }
            if let Some(nodes) = submit.per_point_nodes {
                let _ = write!(s, ",\"nodes\":{nodes}");
            }
            s.push('}');
        }
        Request::Cancel { id } => {
            let _ = write!(s, "{{\"type\":\"cancel\",\"id\":{id}}}");
        }
        Request::Ping => s.push_str("{\"type\":\"ping\"}"),
        Request::Stats => s.push_str("{\"type\":\"stats\"}"),
        Request::Shutdown => s.push_str("{\"type\":\"shutdown\"}"),
    }
    s
}

/// Stable wire tag of a model (lower-case, matching `parse_model`).
#[must_use]
pub fn model_tag(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Hilp => "hilp",
        ModelKind::MultiAmdahl => "ma",
        ModelKind::Gables => "gables",
    }
}

fn parse_model(tag: &str) -> Result<ModelKind, String> {
    match tag {
        "hilp" => Ok(ModelKind::Hilp),
        "ma" => Ok(ModelKind::MultiAmdahl),
        "gables" => Ok(ModelKind::Gables),
        other => Err(format!("unknown model {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Submit(SubmitRequest {
                tenant: "alice".to_string(),
                job: JobSpec::Sweep {
                    model: ModelKind::Hilp,
                    step: 37,
                },
                deadline_seconds: Some(2.5),
                per_point_nodes: Some(100),
            }),
            Request::Submit(SubmitRequest {
                tenant: "bob \"the\" builder".to_string(),
                job: JobSpec::Spec {
                    text: "cpus = 4\ngpu_sms = 16\n".to_string(),
                },
                deadline_seconds: None,
                per_point_nodes: None,
            }),
            Request::Cancel { id: 7 },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            let line = render_request(&request);
            assert_eq!(parse_request(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"type\":\"launch\"}").is_err());
        assert!(parse_request("{\"type\":\"submit\",\"tenant\":\"a\"}").is_err());
        assert!(
            parse_request("{\"type\":\"submit\",\"tenant\":\"\",\"job\":\"sweep\"}").is_err(),
            "empty tenant"
        );
        assert!(parse_request(
            "{\"type\":\"submit\",\"tenant\":\"a\",\"job\":\"sweep\",\"model\":\"magic\"}"
        )
        .is_err());
        assert!(parse_request(
            "{\"type\":\"submit\",\"tenant\":\"a\",\"job\":\"sweep\",\"deadline\":-1}"
        )
        .is_err());
        assert!(parse_request("{\"type\":\"cancel\"}").is_err());
    }

    #[test]
    fn deadlines_that_do_not_fit_a_duration_are_rejected() {
        let submit = |deadline: &str| {
            parse_request(&format!(
                "{{\"type\":\"submit\",\"tenant\":\"a\",\"job\":\"sweep\",\"deadline\":{deadline}}}"
            ))
        };
        for bad in ["1e20", "18446744073709551616", "0", "-1"] {
            let err = submit(bad).expect_err(bad);
            assert!(err.contains("deadline"), "{bad}: {err}");
        }
        // Too far out to be a clock instant, but a valid `Duration`: the
        // job runs with no deadline.
        for good in ["1e19", "0.5"] {
            match submit(good) {
                Ok(Request::Submit(s)) => assert!(s.deadline_seconds.is_some(), "{good}"),
                other => panic!("{good}: {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_defaults_are_full_space_hilp() {
        let parsed = parse_request("{\"type\":\"submit\",\"tenant\":\"a\",\"job\":\"sweep\"}");
        assert_eq!(
            parsed.unwrap(),
            Request::Submit(SubmitRequest {
                tenant: "a".to_string(),
                job: JobSpec::Sweep {
                    model: ModelKind::Hilp,
                    step: 0,
                },
                deadline_seconds: None,
                per_point_nodes: None,
            })
        );
    }
}
