//! HILP as a service: the `hilpd` sweep daemon and its client.
//!
//! The daemon ([`Server`]) accepts sweep jobs over a Unix or TCP socket
//! as newline-delimited JSON, shards each job's design points across
//! the shared worker pool with fair-share thread splitting, and streams
//! per-point results back as they complete. Responses reuse the
//! telemetry journal schema ([`hilp_telemetry::Record`]) as the wire
//! format, so a captured response stream is a valid journal.
//!
//! Three properties carry over from the library sweeps unchanged:
//!
//! * **Determinism** — job results are bit-identical to a serial
//!   offline sweep for any thread share and any interleaving of
//!   concurrent jobs (the solvers are result-invariant in thread
//!   count, and jobs share no mutable evaluation state besides the
//!   result store, whose records are the results themselves).
//! * **Amortization** — every job files the points it answers into
//!   one bounded [`hilp_dse::ResultStore`] kept for the daemon's
//!   lifetime, so any later job asking for an answered point — a
//!   re-submitted sweep, or a spec job for a SoC a sweep solved —
//!   replays it at near-zero cost.
//! * **Graceful budgets** — per-job deadlines and node budgets (clamped
//!   to tenant quotas) truncate points instead of failing jobs, and a
//!   client disconnect cancels its job the same way without disturbing
//!   other tenants.
//!
//! See `DESIGN.md` §14 for the wire protocol and quota semantics, and
//! the README's "Running hilpd" section for a two-terminal example.

#![warn(missing_docs)]

mod net;

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod quota;

pub use client::{Client, JobOutcome};
pub use daemon::{Server, ServerConfig};
pub use protocol::{parse_request, render_request, JobSpec, Request, SubmitRequest};
pub use quota::{TenantLedger, TenantQuota, TenantUsage};
