//! A line-protocol client for `hilpd`: connect, submit, and stream.
//!
//! The client is synchronous — [`Client::read_record`] blocks on the
//! socket — which matches the protocol's strict per-connection ordering
//! (one active job per connection, records arrive in stream order).

use std::io::{BufRead, BufReader, Write};

use hilp_telemetry::{Fields, Record};

use crate::net::Socket;
use crate::protocol::{render_request, Request, SubmitRequest};

/// The terminal accounting of one job, extracted from its final
/// [`Record::Job`] wire record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Terminal event tag: `finished`, `cancelled`, `failed`, or
    /// `rejected`.
    pub event: String,
    /// Server-assigned job id (0 when the job was rejected before
    /// assignment).
    pub id: u64,
    /// Design points evaluated.
    pub points: u64,
    /// Points answered by identity replay from the daemon's result
    /// store.
    pub replayed: u64,
    /// Points whose solve a budget cut short.
    pub truncated: u64,
    /// The server ran this job at degraded capacity (core count probe
    /// failed or the sweep fell back to serial).
    pub degraded: bool,
    /// Job wall-clock seconds on the server.
    pub seconds: f64,
    /// Failure/rejection detail (empty on success).
    pub detail: String,
}

impl JobOutcome {
    fn from_record(record: &Record) -> Option<JobOutcome> {
        match record {
            Record::Job {
                event,
                id,
                points,
                replayed,
                truncated,
                degraded,
                seconds,
                detail,
                ..
            } if event != "accepted" => Some(JobOutcome {
                event: event.clone(),
                id: *id,
                points: *points,
                replayed: *replayed,
                truncated: *truncated,
                degraded: *degraded != 0,
                seconds: *seconds,
                detail: detail.clone(),
            }),
            _ => None,
        }
    }
}

/// A connection to a running `hilpd`.
pub struct Client {
    reader: BufReader<Socket>,
    writer: Socket,
}

impl Client {
    /// Connects to `addr` — a TCP `host:port`, or a Unix socket path
    /// when the address contains a `/`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = Socket::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut line = render_request(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next wire record, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates socket read errors; an unparsable line becomes an
    /// [`std::io::ErrorKind::InvalidData`] error.
    pub fn read_record(&mut self) -> std::io::Result<Option<Record>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            return Record::parse(line)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
    }

    /// Submits `job` and drains its response stream to the terminal job
    /// record, handing every intermediate record (the `accepted` record
    /// and each streamed point) to `on_record`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a stream that ends before the terminal
    /// record becomes [`std::io::ErrorKind::UnexpectedEof`].
    pub fn run_job(
        &mut self,
        job: SubmitRequest,
        mut on_record: impl FnMut(&Record),
    ) -> std::io::Result<JobOutcome> {
        self.send(&Request::Submit(job))?;
        loop {
            let Some(record) = self.read_record()? else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the stream before the job finished",
                ));
            };
            if let Some(outcome) = JobOutcome::from_record(&record) {
                return Ok(outcome);
            }
            on_record(&record);
        }
    }

    /// Sends `ping` and waits for the `pong` record.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a non-`pong` response becomes
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.send(&Request::Ping)?;
        match self.read_record()? {
            Some(Record::Job { event, .. }) if event == "pong" => Ok(()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected pong, got {other:?}"),
            )),
        }
    }

    /// Asks the daemon to shut down (acknowledged with a `shutdown`
    /// record before the daemon exits).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(&Request::Shutdown)?;
        let _ = self.read_record()?;
        Ok(())
    }
}

/// Extension surface for raw wire lines (used by `hilp watch` to echo
/// records verbatim while still detecting the terminal one).
#[must_use]
pub fn is_terminal_line(line: &str) -> bool {
    Fields::parse(line).is_ok_and(|fields| {
        fields.get_str("type") == Some("job")
            && fields.get_str("event").is_some_and(|e| e != "accepted")
    })
}
