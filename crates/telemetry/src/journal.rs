//! The JSONL search-trace journal: typed records drained from a
//! [`crate::Telemetry`] handle, serialized one JSON object per line.
//!
//! The schema is deliberately flat (string and number fields only) so
//! the zero-dependency writer and parser below stay trivial. Every
//! record carries a `"type"` tag; timestamps are microseconds on the
//! handle's monotonic clock. See `DESIGN.md` §9 for the full schema
//! and a worked example.

use crate::ring::{Event, EventKind};
use crate::{BoundSource, BudgetLayer, IncumbentSource, PruneReason};
use hilp_budget::BudgetKind;
use std::fmt::Write as _;
use std::path::Path;

/// One journal record. See each variant for its JSON shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed span:
    /// `{"type":"span","name":"dse.point","thread":2,"depth":1,"start_us":10,"dur_us":950}`
    Span {
        /// Interned span name (e.g. `sched.bnb`).
        name: String,
        /// Emitting thread id.
        thread: u32,
        /// Nesting depth on that thread (0 = outermost).
        depth: u32,
        /// Start time, µs on the handle's monotonic clock.
        start_us: u64,
        /// Duration in µs.
        dur_us: u64,
    },
    /// A new incumbent:
    /// `{"type":"incumbent","t_us":512,"thread":0,"source":"bnb","node":17,"value":7}`
    Incumbent {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
        /// Which search phase found it.
        source: IncumbentSource,
        /// Search-node id (0 outside a tree search).
        node: u64,
        /// Objective value (makespan in steps for scheduling solves).
        value: f64,
    },
    /// A proven lower bound:
    /// `{"type":"bound","t_us":3,"thread":0,"source":"combinatorial","node":0,"value":5}`
    Bound {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
        /// Where the bound came from.
        source: BoundSource,
        /// Search-node id (0 outside a tree search).
        node: u64,
        /// Bound value.
        value: f64,
    },
    /// A pruned subtree:
    /// `{"type":"prune","t_us":40,"thread":0,"reason":"bound","node":23,"bound":9}`
    Prune {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
        /// Why the subtree was cut.
        reason: PruneReason,
        /// Search-node id.
        node: u64,
        /// The bound that justified the cut.
        bound: f64,
    },
    /// A refinement level solved during a sweep:
    /// `{"type":"level","t_us":88,"thread":1,"point":12,"level":2,"makespan":38}`
    Level {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
        /// Design-point index within the sweep.
        point: u64,
        /// Refinement level number (0 = coarsest).
        level: u64,
        /// Level makespan in time steps.
        makespan: u64,
    },
    /// A budget expired or a cancellation was observed:
    /// `{"type":"budget","t_us":70,"thread":0,"layer":"bnb","kind":"nodes","spent":20000}`
    Budget {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
        /// Which solver layer observed the expiry.
        layer: BudgetLayer,
        /// Which budget constraint tripped.
        kind: BudgetKind,
        /// Work units spent when the budget tripped.
        spent: u64,
    },
    /// A progress message was emitted:
    /// `{"type":"progress","t_us":100,"thread":0}`
    Progress {
        /// Event time in µs.
        t_us: u64,
        /// Emitting thread id.
        thread: u32,
    },
    /// A server job lifecycle event (the journal schema doubles as the
    /// `hilpd` wire format — see `hilp-server`):
    /// `{"type":"job","t_us":10,"event":"accepted","id":3,"tenant":"alice","points":372,"replayed":0,"truncated":0,"degraded":0,"seconds":0,"detail":""}`
    Job {
        /// Event time in µs on the emitting handle's clock.
        t_us: u64,
        /// Lifecycle event tag: `accepted`, `finished`, `rejected`,
        /// `cancelled`, `failed`, `stats`, `pong`, or `shutdown`.
        /// Terminal tags (everything except `accepted`) end a server
        /// response stream.
        event: String,
        /// Server-assigned job id (0 for connection-level responses).
        id: u64,
        /// Tenant the job belongs to (empty for connection-level
        /// responses).
        tenant: String,
        /// Design points in the job (0 until known).
        points: u64,
        /// Points answered by identity replay (their inputs key was in
        /// the result store).
        replayed: u64,
        /// Points whose solve a budget cut short.
        truncated: u64,
        /// 1 when the executing sweep ran with degraded capacity (the
        /// worker-count fallback fired), else 0.
        degraded: u64,
        /// Wall-clock seconds the job took (0 until finished).
        seconds: f64,
        /// Free-form detail: rejection reason, error text, or empty.
        detail: String,
    },
    /// One completed design point of a server job, streamed as it lands
    /// (same wire role as [`Record::Job`]):
    /// `{"type":"point","t_us":52,"job":3,"index":12,"label":"(c4,g16,d2^16)","makespan_seconds":1213.5,"energy_joules":8123.4,"speedup":3.2,"avg_wlp":1.41,"gap":0.01,"seconds":0.02,"truncated":"","replayed":0,"cached":1}`
    Point {
        /// Event time in µs on the emitting handle's clock.
        t_us: u64,
        /// Server job id the point belongs to.
        job: u64,
        /// Design-point index within the job's input order.
        index: u64,
        /// The SoC's `(c,g,d)` label.
        label: String,
        /// Predicted workload execution time (s).
        makespan_seconds: f64,
        /// Energy of the predicted schedule (J); 0 when parsed from a
        /// journal written before the field existed.
        energy_joules: f64,
        /// Predicted speedup over sequential single-core execution.
        speedup: f64,
        /// Average WLP of the predicted schedule.
        avg_wlp: f64,
        /// Optimality gap of the underlying solve.
        gap: f64,
        /// Wall-clock seconds spent solving this point.
        seconds: f64,
        /// Budget-kind tag (`nodes`/`deadline`/`cancelled`) when the
        /// point's solve was cut short, else empty.
        truncated: String,
        /// 1 when the point was answered by identity replay (its inputs
        /// key was in the result store).
        replayed: u64,
        /// 1 when the point was answered by a memo hit (its instance key
        /// was in the result store).
        cached: u64,
    },
    /// Final counter value: `{"type":"counter","name":"bnb.nodes","value":123}`
    Counter {
        /// Counter name (see [`crate::Counter::name`]).
        name: String,
        /// Final value.
        value: u64,
    },
    /// Events lost to ring overflow: `{"type":"dropped","count":42}`
    Dropped {
        /// How many events were overwritten before the drain.
        count: u64,
    },
}

impl Record {
    /// Decodes a ring event, resolving span-name ids against the
    /// interned `names` table. Returns `None` for a name id the table
    /// does not know (only possible for torn rings).
    pub(crate) fn from_event(ev: &Event, names: &[&'static str]) -> Option<Record> {
        Some(match ev.kind {
            EventKind::Span => {
                #[allow(clippy::cast_possible_truncation)]
                let name_id = (ev.a & 0xffff_ffff) as usize;
                #[allow(clippy::cast_possible_truncation)]
                let depth = (ev.a >> 32) as u32;
                Record::Span {
                    name: (*names.get(name_id)?).to_string(),
                    thread: ev.thread,
                    depth,
                    start_us: ev.b,
                    dur_us: ev.c,
                }
            }
            EventKind::Incumbent => Record::Incumbent {
                t_us: ev.t_us,
                thread: ev.thread,
                source: IncumbentSource::from_u64(ev.a)?,
                node: ev.b,
                value: f64::from_bits(ev.c),
            },
            EventKind::Bound => Record::Bound {
                t_us: ev.t_us,
                thread: ev.thread,
                source: BoundSource::from_u64(ev.a)?,
                node: ev.b,
                value: f64::from_bits(ev.c),
            },
            EventKind::Prune => Record::Prune {
                t_us: ev.t_us,
                thread: ev.thread,
                reason: PruneReason::from_u64(ev.a)?,
                node: ev.b,
                bound: f64::from_bits(ev.c),
            },
            EventKind::Level => Record::Level {
                t_us: ev.t_us,
                thread: ev.thread,
                point: ev.a,
                level: ev.b,
                makespan: ev.c,
            },
            EventKind::Progress => Record::Progress {
                t_us: ev.t_us,
                thread: ev.thread,
            },
            EventKind::Budget => Record::Budget {
                t_us: ev.t_us,
                thread: ev.thread,
                layer: BudgetLayer::from_u64(ev.a)?,
                kind: BudgetKind::from_u64(ev.b)?,
                spent: ev.c,
            },
        })
    }

    /// Parses one JSON journal line — the inverse of
    /// [`Record::to_json`]. This is the wire-record parser `hilp-server`
    /// clients use on streamed responses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<Record, String> {
        parse_record(line)
    }

    /// Serializes the record as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            Record::Span {
                name,
                thread,
                depth,
                start_us,
                dur_us,
            } => {
                s.push_str("{\"type\":\"span\",\"name\":");
                push_json_string(&mut s, name);
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"depth\":{depth},\"start_us\":{start_us},\"dur_us\":{dur_us}}}"
                );
            }
            Record::Incumbent {
                t_us,
                thread,
                source,
                node,
                value,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"incumbent\",\"t_us\":{t_us},\"thread\":{thread},\"source\":\"{}\",\"node\":{node},\"value\":{}}}",
                    source.as_str(),
                    fmt_f64(*value)
                );
            }
            Record::Bound {
                t_us,
                thread,
                source,
                node,
                value,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"bound\",\"t_us\":{t_us},\"thread\":{thread},\"source\":\"{}\",\"node\":{node},\"value\":{}}}",
                    source.as_str(),
                    fmt_f64(*value)
                );
            }
            Record::Prune {
                t_us,
                thread,
                reason,
                node,
                bound,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"prune\",\"t_us\":{t_us},\"thread\":{thread},\"reason\":\"{}\",\"node\":{node},\"bound\":{}}}",
                    reason.as_str(),
                    fmt_f64(*bound)
                );
            }
            Record::Level {
                t_us,
                thread,
                point,
                level,
                makespan,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"level\",\"t_us\":{t_us},\"thread\":{thread},\"point\":{point},\"level\":{level},\"makespan\":{makespan}}}"
                );
            }
            Record::Budget {
                t_us,
                thread,
                layer,
                kind,
                spent,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"budget\",\"t_us\":{t_us},\"thread\":{thread},\"layer\":\"{}\",\"kind\":\"{}\",\"spent\":{spent}}}",
                    layer.as_str(),
                    kind.as_str()
                );
            }
            Record::Progress { t_us, thread } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"progress\",\"t_us\":{t_us},\"thread\":{thread}}}"
                );
            }
            Record::Job {
                t_us,
                event,
                id,
                tenant,
                points,
                replayed,
                truncated,
                degraded,
                seconds,
                detail,
            } => {
                let _ = write!(s, "{{\"type\":\"job\",\"t_us\":{t_us},\"event\":");
                push_json_string(&mut s, event);
                let _ = write!(s, ",\"id\":{id},\"tenant\":");
                push_json_string(&mut s, tenant);
                let _ = write!(
                    s,
                    ",\"points\":{points},\"replayed\":{replayed},\"truncated\":{truncated},\"degraded\":{degraded},\"seconds\":{},\"detail\":",
                    fmt_f64(*seconds)
                );
                push_json_string(&mut s, detail);
                s.push('}');
            }
            Record::Point {
                t_us,
                job,
                index,
                label,
                makespan_seconds,
                energy_joules,
                speedup,
                avg_wlp,
                gap,
                seconds,
                truncated,
                replayed,
                cached,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"point\",\"t_us\":{t_us},\"job\":{job},\"index\":{index},\"label\":"
                );
                push_json_string(&mut s, label);
                let _ = write!(
                    s,
                    ",\"makespan_seconds\":{},\"energy_joules\":{},\"speedup\":{},\"avg_wlp\":{},\"gap\":{},\"seconds\":{},\"truncated\":",
                    fmt_f64(*makespan_seconds),
                    fmt_f64(*energy_joules),
                    fmt_f64(*speedup),
                    fmt_f64(*avg_wlp),
                    fmt_f64(*gap),
                    fmt_f64(*seconds)
                );
                push_json_string(&mut s, truncated);
                let _ = write!(s, ",\"replayed\":{replayed},\"cached\":{cached}}}");
            }
            Record::Counter { name, value } => {
                s.push_str("{\"type\":\"counter\",\"name\":");
                push_json_string(&mut s, name);
                let _ = write!(s, ",\"value\":{value}}}");
            }
            Record::Dropped { count } => {
                let _ = write!(s, "{{\"type\":\"dropped\",\"count\":{count}}}");
            }
        }
        s
    }
}

/// Formats a finite `f64` so it round-trips through `str::parse` and is
/// a valid JSON number (non-finite values, which the solvers never
/// produce, are clamped to 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string (the writer
/// half of the flat-object wire helpers).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A drained search-trace journal: an ordered list of [`Record`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// Records in drain order: ring events first (push order), then
    /// final counter values, then an optional overflow marker.
    pub records: Vec<Record>,
}

impl Journal {
    /// Serializes the journal as JSONL (one record per line, trailing
    /// newline included when non-empty).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the journal as JSONL to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Parses a JSONL journal. Blank lines are skipped; any malformed
    /// line is an error naming its line number.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Journal, String> {
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let record = parse_record(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            records.push(record);
        }
        Ok(Journal { records })
    }

    /// Reads and parses a JSONL journal from `path`.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure or the first malformed
    /// line.
    pub fn read_jsonl(path: &Path) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Journal::from_jsonl(&text)
    }
}

// ---------------------------------------------------------------------
// Minimal flat-object JSON parsing (string and number values only).
// Public, because the journal schema doubles as the `hilpd` wire format
// and the server/client need to parse request lines with the same
// zero-dependency machinery.
// ---------------------------------------------------------------------

/// A value in a flat JSON object: the journal (and the `hilpd` wire
/// protocol built on it) restricts itself to string and number fields so
/// this is the entire value universe.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON number written with digits only that fits a `u64`, kept
    /// exactly (an `f64` rounds integers above 2^53).
    Int(u64),
}

fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".to_string());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(&mut chars)?,
            other => return Err(format!("unsupported value start {other:?}")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_string());
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<JsonValue, String> {
    let mut text = String::new();
    while chars
        .peek()
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
    {
        text.push(chars.next().unwrap());
    }
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

/// A parsed flat JSON object: ordered `(key, value)` pairs with typed
/// accessors. This is the parser half of the wire helpers shared by the
/// journal reader and the `hilpd` request protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    /// Parses one flat JSON object (string/number values only).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(line: &str) -> Result<Fields, String> {
        parse_flat_object(line).map(Fields)
    }

    /// The string value of `key`, if present and a string.
    #[must_use]
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Str(s))) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of `key`, if present and a number.
    #[must_use]
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.num(key).ok()
    }

    /// The string value of `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Str(s))) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// The numeric value of `key`.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Num(n))) => Ok(*n),
            Some((_, JsonValue::Int(n))) => Ok(*n as f64),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// The value of `key` as a non-negative integer: exact when written
    /// with digits only, and otherwise (a fraction or an exponent) only up
    /// to 2^53, beyond which an `f64` no longer holds every integer.
    ///
    /// # Errors
    ///
    /// When the field is missing, not a number, negative, fractional,
    /// above `u64::MAX`, or above 2^53 and not written with digits only.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        if let Some((_, JsonValue::Int(n))) = self.0.iter().find(|(k, _)| k == key) {
            return Ok(*n);
        }
        let n = self.num(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("field {key:?} is not a non-negative integer"));
        }
        if n > EXACT {
            return Err(format!(
                "field {key:?} is out of range: above u64::MAX, or above 2^53 \
                 with a fraction or an exponent"
            ));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(n as u64)
    }

    /// The value of `key` as a `u32`.
    ///
    /// # Errors
    ///
    /// When the field is missing, not an integer, or overflows.
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field {key:?} overflows u32"))
    }
}

fn parse_record(line: &str) -> Result<Record, String> {
    let fields = Fields(parse_flat_object(line)?);
    let ty = fields.str("type")?.to_string();
    match ty.as_str() {
        "span" => Ok(Record::Span {
            name: fields.str("name")?.to_string(),
            thread: fields.u32("thread")?,
            depth: fields.u32("depth")?,
            start_us: fields.u64("start_us")?,
            dur_us: fields.u64("dur_us")?,
        }),
        "incumbent" => Ok(Record::Incumbent {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
            source: IncumbentSource::from_str_tag(fields.str("source")?)
                .ok_or_else(|| format!("unknown incumbent source {:?}", fields.str("source")))?,
            node: fields.u64("node")?,
            value: fields.num("value")?,
        }),
        "bound" => Ok(Record::Bound {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
            source: BoundSource::from_str_tag(fields.str("source")?)
                .ok_or_else(|| format!("unknown bound source {:?}", fields.str("source")))?,
            node: fields.u64("node")?,
            value: fields.num("value")?,
        }),
        "prune" => Ok(Record::Prune {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
            reason: PruneReason::from_str_tag(fields.str("reason")?)
                .ok_or_else(|| format!("unknown prune reason {:?}", fields.str("reason")))?,
            node: fields.u64("node")?,
            bound: fields.num("bound")?,
        }),
        "level" => Ok(Record::Level {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
            point: fields.u64("point")?,
            level: fields.u64("level")?,
            makespan: fields.u64("makespan")?,
        }),
        "budget" => Ok(Record::Budget {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
            layer: BudgetLayer::from_str_tag(fields.str("layer")?)
                .ok_or_else(|| format!("unknown budget layer {:?}", fields.str("layer")))?,
            kind: BudgetKind::from_str_tag(fields.str("kind")?)
                .ok_or_else(|| format!("unknown budget kind {:?}", fields.str("kind")))?,
            spent: fields.u64("spent")?,
        }),
        "progress" => Ok(Record::Progress {
            t_us: fields.u64("t_us")?,
            thread: fields.u32("thread")?,
        }),
        "job" => Ok(Record::Job {
            t_us: fields.u64("t_us")?,
            event: fields.str("event")?.to_string(),
            id: fields.u64("id")?,
            tenant: fields.str("tenant")?.to_string(),
            points: fields.u64("points")?,
            replayed: fields.u64("replayed")?,
            truncated: fields.u64("truncated")?,
            degraded: fields.u64("degraded")?,
            seconds: fields.num("seconds")?,
            detail: fields.str("detail")?.to_string(),
        }),
        "point" => Ok(Record::Point {
            t_us: fields.u64("t_us")?,
            job: fields.u64("job")?,
            index: fields.u64("index")?,
            label: fields.str("label")?.to_string(),
            makespan_seconds: fields.num("makespan_seconds")?,
            // Absent in journals written before energy accounting landed;
            // parse those as 0 rather than rejecting the record.
            energy_joules: fields.num("energy_joules").unwrap_or(0.0),
            speedup: fields.num("speedup")?,
            avg_wlp: fields.num("avg_wlp")?,
            gap: fields.num("gap")?,
            seconds: fields.num("seconds")?,
            truncated: fields.str("truncated")?.to_string(),
            replayed: fields.u64("replayed")?,
            cached: fields.u64("cached")?,
        }),
        "counter" => Ok(Record::Counter {
            name: fields.str("name")?.to_string(),
            value: fields.u64("value")?,
        }),
        "dropped" => Ok(Record::Dropped {
            count: fields.u64("count")?,
        }),
        other => Err(format!("unknown record type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> Journal {
        Journal {
            records: vec![
                Record::Bound {
                    t_us: 1,
                    thread: 0,
                    source: BoundSource::Combinatorial,
                    node: 0,
                    value: 5.0,
                },
                Record::Incumbent {
                    t_us: 2,
                    thread: 0,
                    source: IncumbentSource::Heuristic,
                    node: 0,
                    value: 9.0,
                },
                Record::Prune {
                    t_us: 3,
                    thread: 1,
                    reason: PruneReason::Bound,
                    node: 4,
                    bound: 9.5,
                },
                Record::Incumbent {
                    t_us: 4,
                    thread: 0,
                    source: IncumbentSource::Bnb,
                    node: 7,
                    value: 7.0,
                },
                Record::Bound {
                    t_us: 5,
                    thread: 0,
                    source: BoundSource::Proved,
                    node: 0,
                    value: 7.0,
                },
                Record::Span {
                    name: "sched.bnb".to_string(),
                    thread: 0,
                    depth: 1,
                    start_us: 0,
                    dur_us: 6,
                },
                Record::Level {
                    t_us: 6,
                    thread: 0,
                    point: 3,
                    level: 1,
                    makespan: 7,
                },
                Record::Progress { t_us: 7, thread: 0 },
                Record::Budget {
                    t_us: 8,
                    thread: 0,
                    layer: BudgetLayer::Bnb,
                    kind: BudgetKind::Nodes,
                    spent: 12,
                },
                Record::Job {
                    t_us: 9,
                    event: "finished".to_string(),
                    id: 3,
                    tenant: "alice".to_string(),
                    points: 372,
                    replayed: 370,
                    truncated: 0,
                    degraded: 0,
                    seconds: 0.25,
                    detail: String::new(),
                },
                Record::Point {
                    t_us: 10,
                    job: 3,
                    index: 12,
                    label: "(c4,g16,d2^16)".to_string(),
                    makespan_seconds: 1213.5,
                    energy_joules: 8123.25,
                    speedup: 3.25,
                    avg_wlp: 1.5,
                    gap: 0.0,
                    seconds: 0.02,
                    truncated: String::new(),
                    replayed: 0,
                    cached: 1,
                },
                Record::Counter {
                    name: "bnb.nodes".to_string(),
                    value: 12,
                },
                Record::Dropped { count: 2 },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let journal = sample_journal();
        let text = journal.to_jsonl();
        assert_eq!(text.lines().count(), journal.records.len());
        let parsed = Journal::from_jsonl(&text).unwrap();
        assert_eq!(parsed, journal);
    }

    #[test]
    fn every_line_is_a_flat_json_object() {
        for line in sample_journal().to_jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
            parse_flat_object(line).unwrap();
        }
    }

    #[test]
    fn string_escaping_round_trips() {
        let journal = Journal {
            records: vec![Record::Counter {
                name: "weird \"name\"\\with\nescapes\u{1}".to_string(),
                value: 1,
            }],
        };
        let parsed = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
        assert_eq!(parsed, journal);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err =
            Journal::from_jsonl("{\"type\":\"dropped\",\"count\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Journal::from_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
    }

    #[test]
    fn fields_parse_supports_optional_request_fields() {
        let fields =
            Fields::parse("{\"type\":\"submit\",\"tenant\":\"alice\",\"threads\":4}").unwrap();
        assert_eq!(fields.str("type").unwrap(), "submit");
        assert_eq!(fields.get_str("tenant"), Some("alice"));
        assert_eq!(fields.get_num("threads"), Some(4.0));
        assert_eq!(fields.get_str("spec"), None);
        assert_eq!(fields.get_num("tenant"), None);
        assert!(fields.u64("missing").is_err());
        assert!(Fields::parse("not json").is_err());
    }

    #[test]
    fn integer_fields_parse_exactly_up_to_u64_max() {
        let u64_of = |literal: &str| Fields::parse(&format!("{{\"n\":{literal}}}"))?.u64("n");
        // 2^53 + 1 is the first integer an `f64` rounds.
        assert_eq!(u64_of("9007199254740993"), Ok(9_007_199_254_740_993));
        assert_eq!(u64_of("18446744073709551615"), Ok(u64::MAX));
        // u64::MAX + 1 no longer fits, and once saturated it would alias
        // u64::MAX.
        assert!(u64_of("18446744073709551616").is_err());
        assert!(u64_of("1e30").is_err());
        // Fractions and exponents keep their rule at or below 2^53.
        assert_eq!(u64_of("9007199254740992.0"), Ok(1 << 53));
        assert_eq!(u64_of("2e3"), Ok(2000));
        assert!(u64_of("9007199254740994.0").is_err());
        assert!(u64_of("1.5").is_err());
        assert!(u64_of("-1").is_err());
        // Every number still reads as an `f64`.
        let fields = Fields::parse("{\"n\":18446744073709551615}").unwrap();
        assert_eq!(fields.num("n"), Ok(18_446_744_073_709_551_615.0));
    }
}
