//! Zero-dependency structured telemetry for the HILP solver stack.
//!
//! The entry point is [`Telemetry`]: a cheaply clonable handle that is
//! either *disabled* (the default — every operation is a single branch
//! on an `Option`, no allocation, no atomics) or *enabled*, in which
//! case it owns:
//!
//! - a fixed set of atomic [`Counter`]s (nodes expanded, prunes by
//!   reason, incumbent updates, simplex pivots, propagation rounds,
//!   inheritance hits, …),
//! - a bounded lock-free event ring receiving one [`Event`] per
//!   incumbent / bound / prune / level / completed span, and
//! - a registry of span names, so spans cost one atomic timestamp pair
//!   plus one ring push.
//!
//! Spans are created with [`Telemetry::span`] (or the [`span!`] macro),
//! nest per thread, and are timed on the monotonic clock. Everything
//! recorded can be drained into a [`Journal`] and written as JSONL — the
//! *search-trace journal* — which [`TraceSummary`] renders as a
//! per-phase time/attribution breakdown.
//!
//! Telemetry is strictly observational: enabling it never changes any
//! solver decision, so results are bit-identical with it on or off.
//! That is why [`Telemetry`] compares equal to every other instance —
//! configs that differ only in telemetry describe the same computation.
//!
//! # Example
//!
//! ```
//! use hilp_telemetry::{Counter, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _solve = tel.span("demo.solve");
//!     tel.incr(Counter::BnbNodes);
//!     tel.incumbent(hilp_telemetry::IncumbentSource::Heuristic, 0, 42.0);
//! }
//! let journal = tel.journal();
//! assert!(journal.to_jsonl().lines().count() >= 2);
//! ```

mod journal;
mod ring;
mod summary;

pub use hilp_budget::BudgetKind;
pub use journal::{
    check_single_solve_replay, push_json_string, Fields, Journal, JsonValue, Record,
};
pub use ring::{Event, EventKind};
pub use summary::{SpanRow, TraceSummary};

use ring::EventRing;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default event-ring capacity (events), per enabled handle.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Where an incumbent solution came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// The multi-start heuristic.
    Heuristic,
    /// A warm incumbent lifted from another solve.
    Warm,
    /// The scheduling branch-and-bound.
    Bnb,
    /// The MILP branch-and-bound (values are in minimization sense).
    Milp,
}

/// Where a proven lower bound came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSource {
    /// The instance's own combinatorial bound.
    Combinatorial,
    /// A bound inherited from another solve (e.g. a dominating design
    /// point); may be weaker than the combinatorial bound.
    External,
    /// The final bound proven by this solve.
    Proved,
    /// The MILP LP-relaxation bound (minimization sense).
    Milp,
}

/// Why a search subtree was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The subtree's bound could not beat the incumbent.
    Bound,
    /// No feasible placement existed.
    Infeasible,
    /// The node budget ran out.
    Budget,
}

macro_rules! tagged_enum_str {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Stable string tag used in the JSONL journal.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Inverse of [`Self::as_str`].
            #[must_use]
            pub fn from_str_tag(s: &str) -> Option<Self> {
                match s {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }

            pub(crate) fn to_u64(self) -> u64 {
                self as u64
            }

            pub(crate) fn from_u64(v: u64) -> Option<Self> {
                [$($ty::$variant),+].into_iter().find(|x| *x as u64 == v)
            }
        }
    };
}

tagged_enum_str!(IncumbentSource {
    Heuristic => "heuristic",
    Warm => "warm",
    Bnb => "bnb",
    Milp => "milp",
});
tagged_enum_str!(BoundSource {
    Combinatorial => "combinatorial",
    External => "external",
    Proved => "proved",
    Milp => "milp",
});
tagged_enum_str!(PruneReason {
    Bound => "bound",
    Infeasible => "infeasible",
    Budget => "budget",
});

/// Which solver layer observed a budget expiry or cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLayer {
    /// The multi-start SGS heuristic (restart boundaries).
    Heuristic,
    /// The scheduling branch-and-bound (node expansion).
    Bnb,
    /// The MILP branch-and-bound (node pops).
    Milp,
    /// The simplex pivot loop.
    Simplex,
    /// The adaptive-refinement loop (level boundaries).
    Refinement,
    /// The design-space sweep (point boundaries).
    Sweep,
    /// The online dispatcher (admission boundaries).
    Online,
}

tagged_enum_str!(BudgetLayer {
    Heuristic => "heuristic",
    Bnb => "bnb",
    Milp => "milp",
    Simplex => "simplex",
    Refinement => "refinement",
    Sweep => "sweep",
    Online => "online",
});

macro_rules! counters {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// The fixed set of solver counters. Each is an atomic `u64`
        /// on the enabled handle; the string form (used in journals and
        /// summaries) is [`Counter::name`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )+
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The counter's stable dotted name (e.g. `bnb.nodes`).
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    HeuristicJobsRequested => "heuristic.jobs_requested",
    HeuristicJobsExecuted => "heuristic.jobs_executed",
    HeuristicJobsCutOff => "heuristic.jobs_cut_off",
    HeuristicBoundTerminations => "heuristic.bound_terminations",
    BnbNodes => "bnb.nodes",
    BnbIncumbents => "bnb.incumbents",
    BnbPrunesBound => "bnb.prunes_bound",
    BnbPrunesInfeasible => "bnb.prunes_infeasible",
    BnbPrunesBudget => "bnb.prunes_budget",
    BnbRounds => "bnb.rounds",
    BnbSteals => "bnb.steals",
    MilpNodes => "milp.nodes",
    MilpIncumbents => "milp.incumbents",
    MilpPrunesBound => "milp.prunes_bound",
    MilpPrunesInfeasible => "milp.prunes_infeasible",
    MilpPresolveRounds => "milp.presolve_rounds",
    MilpPresolveTightenings => "milp.presolve_tightenings",
    SimplexPivots => "lp.simplex_pivots",
    LevelsSolved => "core.levels_solved",
    InheritedBoundLevels => "core.inherited_bound_levels",
    SweepPoints => "dse.points",
    SweepCacheHits => "dse.cache_hits",
    SweepSteals => "dse.steals",
    SweepTruncatedPoints => "dse.truncated_points",
    SweepParallelismFallback => "dse.parallelism_fallback",
    BudgetExpiries => "budget.expiries",
    BudgetCancellations => "budget.cancellations",
    ProgressMessages => "progress.messages",
}

struct Inner {
    epoch: Instant,
    counters: Vec<AtomicU64>,
    ring: EventRing,
    /// Interned span names; a span event stores an index into this.
    span_names: Mutex<Vec<&'static str>>,
}

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
thread_local! {
    /// Dense per-thread id, assigned on first telemetry use.
    static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Current span nesting depth on this thread.
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn current_thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

/// The telemetry handle. See the [crate docs](crate) for an overview.
///
/// Cloning is cheap (an `Arc` bump when enabled, a copy when disabled)
/// and clones share the same counters, ring, and clock epoch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Telemetry is observational only — it never influences solver
/// decisions — so two configs differing only in telemetry describe the
/// same computation and must compare equal.
impl PartialEq for Telemetry {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for Telemetry {}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => write!(f, "Telemetry(enabled, {} events)", inner.ring.pushed()),
        }
    }
}

impl Telemetry {
    /// The no-op handle: every operation is a single `Option` branch.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the [default ring
    /// capacity](DEFAULT_RING_CAPACITY).
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle whose event ring holds at least `events`
    /// entries (rounded up to a power of two) before overwriting the
    /// oldest.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                counters: (0..Counter::ALL.len()).map(|_| AtomicU64::new(0)).collect(),
                ring: EventRing::new(events),
                span_names: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle was created (monotonic clock);
    /// `0` when disabled.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            u64::try_from(i.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        })
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter; `0` when disabled.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters[counter as usize].load(Ordering::Relaxed))
    }

    /// Snapshot of every counter in [`Counter::ALL`] order.
    #[must_use]
    pub fn counters(&self) -> Vec<(Counter, u64)> {
        Counter::ALL.iter().map(|&c| (c, self.counter(c))).collect()
    }

    /// Opens a nestable, monotonic-clock-timed span. The span ends (and
    /// its event is recorded) when the returned guard drops. `name`
    /// must be a static string — names are interned once and referenced
    /// by id from the ring.
    #[must_use = "a span is timed until the returned guard is dropped"]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let Some(inner) = &self.inner else {
            return Span {
                inner: None,
                name_id: 0,
                start_us: 0,
                depth: 0,
            };
        };
        let name_id = inner.intern(name);
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span {
            inner: Some(inner),
            name_id,
            start_us: self.elapsed_us(),
            depth,
        }
    }

    fn push(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(inner) = &self.inner {
            inner.ring.push(&Event {
                t_us: self.elapsed_us(),
                kind,
                thread: current_thread_id(),
                a,
                b,
                c,
            });
        }
    }

    /// Records a new incumbent solution of objective `value` found at
    /// search node `node`.
    #[inline]
    pub fn incumbent(&self, source: IncumbentSource, node: u64, value: f64) {
        if self.inner.is_some() {
            self.push(EventKind::Incumbent, source.to_u64(), node, value.to_bits());
        }
    }

    /// Records a proven lower bound `value` at search node `node`.
    #[inline]
    pub fn bound(&self, source: BoundSource, node: u64, value: f64) {
        if self.inner.is_some() {
            self.push(EventKind::Bound, source.to_u64(), node, value.to_bits());
        }
    }

    /// Records a pruned subtree at search node `node` whose bound was
    /// `bound`.
    #[inline]
    pub fn prune(&self, reason: PruneReason, node: u64, bound: f64) {
        if self.inner.is_some() {
            self.push(EventKind::Prune, reason.to_u64(), node, bound.to_bits());
        }
    }

    /// Records a solved refinement level during a sweep.
    #[inline]
    pub fn level(&self, point: u64, level: u64, makespan: u64) {
        if self.inner.is_some() {
            self.push(EventKind::Level, point, level, makespan);
        }
    }

    /// Records a budget expiry or an observed cancellation at `layer`
    /// after `spent` work units, and bumps the matching counter
    /// ([`Counter::BudgetCancellations`] for
    /// [`BudgetKind::Cancelled`],
    /// [`Counter::BudgetExpiries`] otherwise).
    #[inline]
    pub fn budget_expired(&self, layer: BudgetLayer, kind: hilp_budget::BudgetKind, spent: u64) {
        if self.inner.is_some() {
            self.incr(if kind == hilp_budget::BudgetKind::Cancelled {
                Counter::BudgetCancellations
            } else {
                Counter::BudgetExpiries
            });
            self.push(EventKind::Budget, layer.to_u64(), kind.to_u64(), spent);
        }
    }

    /// Records that a progress message was emitted.
    #[inline]
    pub fn progress(&self) {
        if self.inner.is_some() {
            self.incr(Counter::ProgressMessages);
            self.push(EventKind::Progress, 0, 0, 0);
        }
    }

    /// Drains the ring and counters into a [`Journal`] (non-destructive
    /// snapshot). Span-name ids are resolved to their strings. Counters
    /// with value zero are omitted. Returns an empty journal when
    /// disabled.
    #[must_use]
    pub fn journal(&self) -> Journal {
        let Some(inner) = &self.inner else {
            return Journal::default();
        };
        let names: Vec<&'static str> = inner
            .span_names
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let snap = inner.ring.snapshot();
        let mut records = Vec::with_capacity(snap.events.len() + Counter::ALL.len() + 1);
        for ev in &snap.events {
            if let Some(record) = Record::from_event(ev, &names) {
                records.push(record);
            }
        }
        for (counter, value) in self.counters() {
            if value > 0 {
                records.push(Record::Counter {
                    name: counter.name().to_string(),
                    value,
                });
            }
        }
        if snap.dropped > 0 {
            records.push(Record::Dropped {
                count: snap.dropped,
            });
        }
        Journal { records }
    }
}

impl Inner {
    /// Interns a span name, returning its dense id.
    fn intern(&self, name: &'static str) -> u32 {
        let mut names = self
            .span_names
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(idx) = names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name)
        {
            return u32::try_from(idx).unwrap_or(0);
        }
        names.push(name);
        u32::try_from(names.len() - 1).unwrap_or(0)
    }
}

/// Guard returned by [`Telemetry::span`]: records the span's event when
/// dropped.
pub struct Span<'a> {
    inner: Option<&'a Inner>,
    name_id: u32,
    start_us: u64,
    depth: u32,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner else { return };
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end_us = u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        inner.ring.push(&Event {
            t_us: end_us,
            kind: EventKind::Span,
            thread: current_thread_id(),
            a: u64::from(self.name_id) | (u64::from(self.depth) << 32),
            b: self.start_us,
            c: end_us.saturating_sub(self.start_us),
        });
    }
}

/// Opens a span on a [`Telemetry`] handle that lasts until the end of
/// the enclosing block.
///
/// ```
/// use hilp_telemetry::{span, Telemetry};
///
/// let tel = Telemetry::enabled();
/// {
///     span!(tel, "bnb.node");
///     // ... timed work ...
/// }
/// assert_eq!(tel.journal().records.len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr) => {
        let _hilp_telemetry_span = $tel.span($name);
    };
}

/// Progress reporting that replaces ad-hoc `eprintln!` in the CLIs:
/// messages go to stderr unless `--quiet`, and are always recorded on
/// the telemetry handle (as a counter plus ring event) so traced runs
/// keep a record of what was reported.
#[derive(Clone)]
pub struct Reporter {
    quiet: bool,
    telemetry: Telemetry,
}

impl Reporter {
    /// A reporter that prints to stderr unless `quiet`, recording every
    /// message on `telemetry` (which may be disabled).
    #[must_use]
    pub fn new(quiet: bool, telemetry: &Telemetry) -> Self {
        Reporter {
            quiet,
            telemetry: telemetry.clone(),
        }
    }

    /// Whether messages are suppressed on stderr.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Emits one progress message.
    pub fn say(&self, msg: &str) {
        self.telemetry.progress();
        if !self.quiet {
            eprintln!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.incr(Counter::BnbNodes);
        tel.incumbent(IncumbentSource::Bnb, 1, 5.0);
        {
            let _span = tel.span("noop");
        }
        assert_eq!(tel.counter(Counter::BnbNodes), 0);
        assert!(tel.journal().records.is_empty());
    }

    #[test]
    fn telemetry_compares_equal_regardless_of_state() {
        let off = Telemetry::disabled();
        let on = Telemetry::enabled();
        on.incr(Counter::BnbNodes);
        assert_eq!(off, on);
        assert_eq!(Telemetry::default(), on);
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        tel.add(Counter::SimplexPivots, 3);
        clone.add(Counter::SimplexPivots, 4);
        assert_eq!(tel.counter(Counter::SimplexPivots), 7);
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            let _inner = tel.span("inner");
        }
        let journal = tel.journal();
        let spans: Vec<_> = journal
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Span { name, depth, .. } => Some((name.clone(), *depth)),
                _ => None,
            })
            .collect();
        // Inner drops (and records) first.
        assert_eq!(
            spans,
            vec![("inner".to_string(), 1), ("outer".to_string(), 0)]
        );
    }

    #[test]
    fn span_macro_times_the_enclosing_block() {
        let tel = Telemetry::enabled();
        {
            span!(tel, "macro.block");
            tel.incr(Counter::BnbNodes);
        }
        let journal = tel.journal();
        assert!(journal
            .records
            .iter()
            .any(|r| matches!(r, Record::Span { name, .. } if name == "macro.block")));
    }

    #[test]
    fn counter_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn value_events_round_trip_f64() {
        let tel = Telemetry::enabled();
        tel.incumbent(IncumbentSource::Milp, 7, 1.25);
        tel.bound(BoundSource::Proved, 7, -3.5);
        tel.prune(PruneReason::Budget, 8, 9.0);
        let journal = tel.journal();
        assert!(matches!(
            journal.records[0],
            Record::Incumbent { node: 7, value, .. } if (value - 1.25).abs() < 1e-12
        ));
        assert!(matches!(
            journal.records[1],
            Record::Bound { value, .. } if (value + 3.5).abs() < 1e-12
        ));
        assert!(matches!(
            journal.records[2],
            Record::Prune { bound, .. } if (bound - 9.0).abs() < 1e-12
        ));
    }

    #[test]
    fn budget_events_record_layer_kind_and_counters() {
        let tel = Telemetry::enabled();
        tel.budget_expired(BudgetLayer::Bnb, BudgetKind::Nodes, 500);
        tel.budget_expired(BudgetLayer::Sweep, BudgetKind::Cancelled, 3);
        assert_eq!(tel.counter(Counter::BudgetExpiries), 1);
        assert_eq!(tel.counter(Counter::BudgetCancellations), 1);
        let journal = tel.journal();
        assert!(matches!(
            journal.records[0],
            Record::Budget {
                layer: BudgetLayer::Bnb,
                kind: BudgetKind::Nodes,
                spent: 500,
                ..
            }
        ));
        assert!(matches!(
            journal.records[1],
            Record::Budget {
                layer: BudgetLayer::Sweep,
                kind: BudgetKind::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn reporter_records_progress_messages() {
        let tel = Telemetry::enabled();
        let rep = Reporter::new(true, &tel);
        rep.say("working...");
        rep.say("still working...");
        assert_eq!(tel.counter(Counter::ProgressMessages), 2);
        assert!(rep.is_quiet());
    }
}
