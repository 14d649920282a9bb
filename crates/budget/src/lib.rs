//! Shared solve budgets and cooperative cancellation for the HILP stack.
//!
//! Every solver layer — the scheduling branch-and-bound, the multi-start
//! heuristic, the MILP solver, the simplex pivot loop, the refinement
//! loop, and the design-space sweep — accepts a [`Budget`]: a cheaply
//! clonable handle combining up to three constraints.
//!
//! - A **node budget**: a deterministic work meter (B&B node expansions
//!   and SGS restarts each cost one unit) shared by every phase of a
//!   solve. No clocks are involved, so identical budgets yield
//!   bit-identical results on any machine and any thread count.
//! - A **wall-clock deadline**: checked at the same cooperative points,
//!   but on a stride (see [`DEADLINE_CHECK_STRIDE`]) so the hot paths
//!   stay branch-cheap. Inherently non-deterministic: the point at which
//!   the deadline fires depends on the host.
//! - A **[`CancelToken`]**: an external kill switch (another thread, a
//!   signal handler, a UI) observed cooperatively at the same points.
//!
//! Expiry is *sticky*: once any constraint trips, every subsequent
//! [`Budget::charge`]/[`Budget::check`] reports the same [`BudgetKind`],
//! so a layer that missed the first trip still unwinds promptly.
//!
//! On expiry a layer does not error — it returns its best incumbent plus
//! a proven lower bound as a [`Partial`], the anytime contract the rest
//! of the stack builds on.
//!
//! # Example
//!
//! ```
//! use hilp_budget::{Budget, BudgetKind};
//!
//! let budget = Budget::unlimited().with_node_limit(2);
//! assert_eq!(budget.charge(1), Ok(()));
//! assert_eq!(budget.charge(1), Ok(()));
//! assert_eq!(budget.charge(1), Err(BudgetKind::Nodes));
//! // Sticky: later checks keep reporting the exhaustion.
//! assert_eq!(budget.check(), Err(BudgetKind::Nodes));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Budget::charge`] calls pass between wall-clock reads when
/// a deadline is set. The first call always reads the clock, so a
/// zero-duration deadline stops a solve before any real work happens;
/// afterwards the deadline can overshoot by at most one stride of cheap
/// work units.
pub const DEADLINE_CHECK_STRIDE: u64 = 64;

/// Which budget constraint expired (or fired) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BudgetKind {
    /// The deterministic node/work budget ran out.
    Nodes = 1,
    /// The wall-clock deadline passed.
    Deadline = 2,
    /// The external [`CancelToken`] was triggered.
    Cancelled = 3,
}

impl BudgetKind {
    /// Every kind, in tag order.
    pub const ALL: &'static [BudgetKind] = &[
        BudgetKind::Nodes,
        BudgetKind::Deadline,
        BudgetKind::Cancelled,
    ];

    /// Stable string tag (used in journals and dashboards).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::Nodes => "nodes",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`Self::as_str`].
    #[must_use]
    pub fn from_str_tag(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.as_str() == s)
    }

    /// Stable numeric tag (used in telemetry event payloads).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        self as u64
    }

    /// Inverse of [`Self::to_u64`].
    #[must_use]
    pub fn from_u64(v: u64) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.to_u64() == v)
    }
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An external, thread-safe kill switch. Cloning shares the flag; once
/// [`cancel`](Self::cancel)led, every [`Budget`] watching the token
/// reports [`BudgetKind::Cancelled`] at its next cooperative check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct Inner {
    /// `u64::MAX` when no node limit is set.
    node_limit: u64,
    /// Work units consumed so far (shared by every phase of a solve).
    nodes: AtomicU64,
    /// Total `charge` calls, used to stride the deadline clock reads.
    charges: AtomicU64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Sticky expiry: 0 = live, otherwise a [`BudgetKind`] tag.
    expired: AtomicU8,
}

/// A cooperative solve budget. See the [crate docs](crate) for the
/// model; [`Budget::unlimited`] is the no-op default whose every check
/// is a single `Option` branch.
///
/// Cloning is cheap and clones share the same meters, so one budget can
/// be threaded through heuristic, branch-and-bound, MILP, and refinement
/// phases and they all draw from the same pool.
///
/// Equality compares the *configuration* (node limit, presence of a
/// deadline, presence of a cancel token) — not consumption — so solver
/// configs carrying a budget stay comparable.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        let cfg = |b: &Budget| {
            b.inner
                .as_ref()
                .map(|i| (i.node_limit, i.deadline.is_some(), i.cancel.is_some()))
        };
        cfg(self) == cfg(other)
    }
}

impl Budget {
    /// The no-op budget: never expires, never reads a clock.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget { inner: None }
    }

    /// A budget of `nodes` deterministic work units (B&B node
    /// expansions, SGS restarts).
    #[must_use]
    pub fn nodes(nodes: u64) -> Self {
        Budget::unlimited().with_node_limit(nodes)
    }

    /// A budget expiring `after` from now on the wall clock.
    #[must_use]
    pub fn deadline(after: Duration) -> Self {
        Budget::unlimited().with_deadline(after)
    }

    fn rebuild(
        &self,
        node_limit: u64,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
    ) -> Self {
        Budget {
            inner: Some(Arc::new(Inner {
                node_limit,
                nodes: AtomicU64::new(0),
                charges: AtomicU64::new(0),
                deadline,
                cancel,
                expired: AtomicU8::new(0),
            })),
        }
    }

    /// Adds (or replaces) a node limit. Builders reset the consumption
    /// meters, so configure a budget fully before handing it to a solve.
    #[must_use]
    pub fn with_node_limit(self, nodes: u64) -> Self {
        let (deadline, cancel) = self.parts();
        self.rebuild(nodes, deadline, cancel)
    }

    /// Adds (or replaces) a wall-clock deadline `after` from now. A
    /// deadline too far out to be represented as an [`Instant`] can never
    /// pass, so it leaves the budget without one.
    #[must_use]
    pub fn with_deadline(self, after: Duration) -> Self {
        let limit = self.node_limit().unwrap_or(u64::MAX);
        let cancel = self.parts().1;
        self.rebuild(limit, Instant::now().checked_add(after), cancel)
    }

    /// Adds (or replaces) a wall-clock deadline at an absolute instant —
    /// used by sweeps to give every point the same whole-sweep cutoff.
    #[must_use]
    pub fn with_deadline_at(self, at: Instant) -> Self {
        let limit = self.node_limit().unwrap_or(u64::MAX);
        let cancel = self.parts().1;
        self.rebuild(limit, Some(at), cancel)
    }

    /// Adds (or replaces) an external cancel token.
    #[must_use]
    pub fn with_cancel(self, token: CancelToken) -> Self {
        let limit = self.node_limit().unwrap_or(u64::MAX);
        let deadline = self.parts().0;
        self.rebuild(limit, deadline, Some(token))
    }

    fn parts(&self) -> (Option<Instant>, Option<CancelToken>) {
        match &self.inner {
            None => (None, None),
            Some(i) => (i.deadline, i.cancel.clone()),
        }
    }

    /// Whether this budget can ever expire.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The configured node limit, if any.
    #[must_use]
    pub fn node_limit(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.node_limit)
            .filter(|&l| l != u64::MAX)
    }

    /// Whether a wall-clock deadline is configured.
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.deadline.is_some())
    }

    /// Whether an external [`CancelToken`] is configured.
    #[must_use]
    pub fn has_cancel(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.cancel.is_some())
    }

    /// Whether the *only* way this budget can expire is through its
    /// [`CancelToken`] — no node limit, no deadline. Such a budget is
    /// special for result-reuse machinery (sweep memoization, baseline
    /// replay): as long as the token never fires, the solve is
    /// bit-identical to an unlimited one, because cancel checks are
    /// read-only observations that change nothing until they trip.
    #[must_use]
    pub fn cancel_only(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancel.is_some() && i.deadline.is_none() && i.node_limit == u64::MAX)
    }

    /// Work units consumed so far (0 for an unlimited budget).
    #[must_use]
    pub fn nodes_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.nodes.load(Ordering::Relaxed))
    }

    /// Work units left before the node limit trips; `u64::MAX` when no
    /// node limit is set.
    #[must_use]
    pub fn remaining_nodes(&self) -> u64 {
        match &self.inner {
            None => u64::MAX,
            Some(i) if i.node_limit == u64::MAX => u64::MAX,
            Some(i) => i.node_limit.saturating_sub(i.nodes.load(Ordering::Relaxed)),
        }
    }

    /// The sticky expiry recorded so far, if any. Unlike
    /// [`check`](Self::check) this never reads the clock or the token —
    /// it only reports what a previous check already observed.
    #[must_use]
    pub fn exhausted(&self) -> Option<BudgetKind> {
        self.inner
            .as_ref()
            .and_then(|i| BudgetKind::from_u64(u64::from(i.expired.load(Ordering::Relaxed))))
    }

    fn trip(&self, inner: &Inner, kind: BudgetKind) -> BudgetKind {
        // First writer wins so every layer reports the same kind.
        let _ = inner
            .expired
            .compare_exchange(0, kind as u8, Ordering::Relaxed, Ordering::Relaxed);
        BudgetKind::from_u64(u64::from(inner.expired.load(Ordering::Relaxed))).unwrap_or(kind)
    }

    /// Consumes `n` work units and reports whether the budget still
    /// holds. Cancel and node checks run on every call; the deadline is
    /// read on the [stride](DEADLINE_CHECK_STRIDE), starting with the
    /// first call.
    ///
    /// # Errors
    ///
    /// The [`BudgetKind`] that expired (sticky once tripped).
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), BudgetKind> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(kind) = BudgetKind::from_u64(u64::from(inner.expired.load(Ordering::Relaxed))) {
            return Err(kind);
        }
        if let Some(token) = &inner.cancel {
            if token.is_cancelled() {
                return Err(self.trip(inner, BudgetKind::Cancelled));
            }
        }
        let spent = inner.nodes.fetch_add(n, Ordering::Relaxed) + n;
        if spent > inner.node_limit {
            return Err(self.trip(inner, BudgetKind::Nodes));
        }
        if let Some(deadline) = inner.deadline {
            let calls = inner.charges.fetch_add(1, Ordering::Relaxed);
            if calls % DEADLINE_CHECK_STRIDE == 0 && Instant::now() >= deadline {
                return Err(self.trip(inner, BudgetKind::Deadline));
            }
        }
        Ok(())
    }

    /// Non-consuming interruption check for parallel workers: observes
    /// the sticky flag, the cancel token, and the deadline — but never
    /// the node meter. Node budgets are allocated to a whole phase up
    /// front (so results stay independent of thread interleaving); a
    /// worker aborting mid-phase on node exhaustion would reintroduce
    /// timing dependence. Deadlines and cancellation are wall-clock
    /// phenomena already, so observing them here loses nothing.
    ///
    /// # Errors
    ///
    /// The [`BudgetKind`] that expired (sticky once tripped).
    pub fn check_interrupt(&self) -> Result<(), BudgetKind> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(kind) = BudgetKind::from_u64(u64::from(inner.expired.load(Ordering::Relaxed))) {
            return Err(kind);
        }
        if let Some(token) = &inner.cancel {
            if token.is_cancelled() {
                return Err(self.trip(inner, BudgetKind::Cancelled));
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(inner, BudgetKind::Deadline));
            }
        }
        Ok(())
    }

    /// Non-consuming check, intended for coarse boundaries (refinement
    /// levels, phase entries, admissions): always reads the cancel token
    /// and the clock, and reports node exhaustion without charging.
    ///
    /// # Errors
    ///
    /// The [`BudgetKind`] that expired (sticky once tripped).
    pub fn check(&self) -> Result<(), BudgetKind> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(kind) = BudgetKind::from_u64(u64::from(inner.expired.load(Ordering::Relaxed))) {
            return Err(kind);
        }
        if let Some(token) = &inner.cancel {
            if token.is_cancelled() {
                return Err(self.trip(inner, BudgetKind::Cancelled));
            }
        }
        if inner.nodes.load(Ordering::Relaxed) >= inner.node_limit {
            return Err(self.trip(inner, BudgetKind::Nodes));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(inner, BudgetKind::Deadline));
            }
        }
        Ok(())
    }
}

/// The anytime contract: what a layer hands back when its budget
/// expires. The incumbent is the best feasible answer found, the lower
/// bound is *proven* (never above the true optimum), and the gap is
/// `(incumbent - lower_bound) / incumbent` in the layer's objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// Best feasible solution found before expiry.
    pub incumbent: T,
    /// Proven lower bound on the optimum, in the layer's objective.
    pub lower_bound: f64,
    /// Relative optimality gap of the incumbent.
    pub gap: f64,
    /// Which budget constraint ended the search.
    pub exhausted: BudgetKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            assert_eq!(b.charge(1_000_000), Ok(()));
        }
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.remaining_nodes(), u64::MAX);
        assert_eq!(b.exhausted(), None);
    }

    #[test]
    fn node_budget_trips_exactly_and_stays_tripped() {
        let b = Budget::nodes(3);
        assert_eq!(b.charge(2), Ok(()));
        assert_eq!(b.remaining_nodes(), 1);
        assert_eq!(b.charge(1), Ok(()));
        assert_eq!(b.charge(1), Err(BudgetKind::Nodes));
        assert_eq!(b.check(), Err(BudgetKind::Nodes));
        assert_eq!(b.exhausted(), Some(BudgetKind::Nodes));
    }

    #[test]
    fn zero_deadline_trips_on_first_charge() {
        let b = Budget::deadline(Duration::ZERO);
        assert_eq!(b.charge(1), Err(BudgetKind::Deadline));
        assert_eq!(b.check(), Err(BudgetKind::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::deadline(Duration::from_secs(3600)).with_node_limit(10);
        assert_eq!(b.charge(1), Ok(()));
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn unrepresentable_deadline_never_expires() {
        // `Instant::now() + Duration::MAX` overflows the clock: the budget
        // must neither panic nor ever trip on the deadline, and it keeps
        // its other limits.
        let b = Budget::deadline(Duration::MAX);
        assert!(!b.has_deadline());
        for _ in 0..1000 {
            assert_eq!(b.charge(1), Ok(()));
        }
        assert_eq!(b.check_interrupt(), Ok(()));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.exhausted(), None);
        let capped = Budget::nodes(10).with_deadline(Duration::MAX);
        assert_eq!(capped.node_limit(), Some(10));
        assert_eq!(capped.charge(11), Err(BudgetKind::Nodes));
    }

    #[test]
    fn cancel_token_observed_by_clones() {
        let token = CancelToken::new();
        let b = Budget::nodes(1000).with_cancel(token.clone());
        let clone = b.clone();
        assert_eq!(clone.charge(1), Ok(()));
        token.cancel();
        assert_eq!(clone.charge(1), Err(BudgetKind::Cancelled));
        assert_eq!(b.check(), Err(BudgetKind::Cancelled));
    }

    #[test]
    fn clones_share_the_node_meter() {
        let b = Budget::nodes(10);
        let clone = b.clone();
        assert_eq!(b.charge(6), Ok(()));
        assert_eq!(clone.charge(4), Ok(()));
        assert_eq!(clone.remaining_nodes(), 0);
        assert_eq!(b.charge(1), Err(BudgetKind::Nodes));
    }

    #[test]
    fn first_trip_wins_and_is_reported_consistently() {
        let token = CancelToken::new();
        let b = Budget::nodes(1).with_cancel(token.clone());
        assert_eq!(b.charge(2), Err(BudgetKind::Nodes));
        token.cancel();
        // Sticky: the original cause is preserved even after cancel.
        assert_eq!(b.check(), Err(BudgetKind::Nodes));
    }

    #[test]
    fn equality_compares_configuration_not_consumption() {
        let a = Budget::nodes(5);
        let b = Budget::nodes(5);
        let _ = a.charge(3);
        assert_eq!(a, b);
        assert_ne!(a, Budget::nodes(6));
        assert_ne!(a, Budget::unlimited());
        assert_eq!(Budget::unlimited(), Budget::unlimited());
        assert_ne!(
            Budget::nodes(5),
            Budget::nodes(5).with_deadline(Duration::from_secs(1))
        );
    }

    #[test]
    fn builders_compose() {
        let token = CancelToken::new();
        let b = Budget::unlimited()
            .with_node_limit(7)
            .with_deadline(Duration::from_secs(3600))
            .with_cancel(token);
        assert_eq!(b.node_limit(), Some(7));
        assert!(b.has_deadline());
        assert_eq!(b.charge(7), Ok(()));
        assert_eq!(b.charge(1), Err(BudgetKind::Nodes));
    }

    #[test]
    fn cancel_only_classification() {
        assert!(!Budget::unlimited().cancel_only());
        assert!(!Budget::unlimited().has_cancel());
        let token = CancelToken::new();
        let cancel_only = Budget::unlimited().with_cancel(token.clone());
        assert!(cancel_only.has_cancel());
        assert!(cancel_only.cancel_only());
        // Any other constraint disqualifies the budget.
        assert!(!Budget::nodes(5).cancel_only());
        assert!(!Budget::nodes(5).with_cancel(token.clone()).cancel_only());
        assert!(!Budget::deadline(Duration::from_secs(3600))
            .with_cancel(token.clone())
            .cancel_only());
        // Classification is about configuration, not state: a tripped
        // token does not change the answer.
        token.cancel();
        assert!(cancel_only.cancel_only());
    }

    #[test]
    fn kind_tags_round_trip() {
        for &k in BudgetKind::ALL {
            assert_eq!(BudgetKind::from_str_tag(k.as_str()), Some(k));
            assert_eq!(BudgetKind::from_u64(k.to_u64()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(BudgetKind::from_str_tag("never"), None);
        assert_eq!(BudgetKind::from_u64(0), None);
    }

    #[test]
    fn partial_carries_the_anytime_contract() {
        let p = Partial {
            incumbent: 12u32,
            lower_bound: 9.0,
            gap: 0.25,
            exhausted: BudgetKind::Nodes,
        };
        assert_eq!(p, p.clone());
        assert!(p.lower_bound <= f64::from(p.incumbent));
    }
}
