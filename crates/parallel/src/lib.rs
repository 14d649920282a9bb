//! Shared parallel-execution primitives for the HILP stack.
//!
//! Three pieces live here because more than one crate needs them:
//!
//! - [`WorkQueue`] — the striped work-stealing index queue. The DSE sweep
//!   uses it to hand design points to point-level workers; the
//!   scheduler's parallel branch-and-bound uses it to hand the nodes of
//!   each expansion round to search workers. Claiming is a per-index
//!   CAS, so every index is handed out exactly once no matter how claims
//!   and steals race — which is what lets both callers keep their results
//!   bit-identical for any worker count.
//! - [`ThreadBudget`] — the deterministic split of a caller's total
//!   thread allowance between outer (per-item) workers and inner
//!   (within-item) solver workers, so a sweep can parallelize inside hard
//!   design points without oversubscribing the machine.
//! - [`resolve_threads`] — the one place a requested thread count of `0`
//!   ("every core") becomes a number, so every layer falls back the same
//!   way when the core count cannot be determined.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Threads used for a request of `0` when the core count cannot be
/// determined.
pub const FALLBACK_THREADS: usize = 4;

/// Resolves a requested thread count, where `0` means every available
/// core. Returns the count and whether it fell back to
/// [`FALLBACK_THREADS`] because the core count could not be determined.
/// A non-zero request passes through without probing the host.
#[must_use]
pub fn resolve_threads(requested: usize) -> (usize, bool) {
    resolve_with(requested, || {
        std::thread::available_parallelism()
            .ok()
            .map(NonZeroUsize::get)
    })
}

fn resolve_with(requested: usize, cores: impl FnOnce() -> Option<usize>) -> (usize, bool) {
    if requested > 0 {
        return (requested, false);
    }
    match cores() {
        Some(cores) => (cores, false),
        None => (FALLBACK_THREADS, true),
    }
}

/// An index queue with work stealing over `0..len`. Indices are striped
/// across workers (worker `w` owns indices `w, w + T, ...`), so low
/// indices — for sweeps, the first points of the input; for search
/// rounds, the lexicographically first nodes — are claimed first across
/// all workers; a worker that drains its stripe steals from the others'.
/// The per-index CAS guarantees each index is handed out exactly once no
/// matter how claims and steals race.
#[derive(Debug)]
pub struct WorkQueue {
    claimed: Vec<AtomicBool>,
    cursors: Vec<AtomicUsize>,
}

impl WorkQueue {
    /// A queue handing out the indices `0..len` across `stripes` workers
    /// (`stripes` is clamped to at least one).
    #[must_use]
    pub fn new(len: usize, stripes: usize) -> Self {
        let mut claimed = Vec::new();
        claimed.resize_with(len, || AtomicBool::new(false));
        let mut cursors = Vec::new();
        cursors.resize_with(stripes.max(1), || AtomicUsize::new(0));
        WorkQueue { claimed, cursors }
    }

    fn take_from(&self, stripe: usize) -> Option<usize> {
        let stripes = self.cursors.len();
        loop {
            let k = self.cursors[stripe].fetch_add(1, Ordering::Relaxed);
            let i = stripe + k * stripes;
            if i >= self.claimed.len() {
                return None;
            }
            // Lost races (a steal got here first) just advance the cursor.
            if self.claimed[i]
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(i);
            }
        }
    }

    /// Next index for `worker`: its own stripe first, then steal. The flag
    /// reports whether the index came from another worker's stripe.
    pub fn take(&self, worker: usize) -> Option<(usize, bool)> {
        let stripes = self.cursors.len();
        (0..stripes).find_map(|offset| {
            self.take_from((worker + offset) % stripes)
                .map(|i| (i, offset > 0))
        })
    }
}

/// A deterministic split of a total thread allowance between outer
/// (per-item) workers and inner (within-item) workers.
///
/// Sweeps have two parallel axes: many design points, and — since the
/// branch-and-bound and multi-start heuristic are themselves parallel —
/// workers inside each point's solves. Running `total` point workers that
/// each spawn `total` solver threads would oversubscribe the machine
/// `total`-fold; this split gives the outer axis priority (point-level
/// parallelism has no coordination cost) and hands whatever is left over
/// to the inner axis: `outer = min(total, items)`, `inner = total /
/// outer`. The product never exceeds `total`, and both sides are at
/// least 1.
///
/// The split only shapes *where* threads run; every solver involved is
/// bit-identical for any thread count, so it never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Worker threads for the outer (per-item) axis.
    pub outer: usize,
    /// Worker threads for each item's inner solves.
    pub inner: usize,
}

impl ThreadBudget {
    /// Splits `total` threads over `items` outer work items. With more
    /// items than threads every thread works the outer axis (`inner =
    /// 1`); with fewer items than threads the spare threads move inside
    /// the items.
    #[must_use]
    pub fn split(total: usize, items: usize) -> Self {
        let total = total.max(1);
        let outer = total.min(items.max(1));
        ThreadBudget {
            outer,
            inner: (total / outer).max(1),
        }
    }

    /// Threads actually in use (`outer * inner`, never above the total
    /// the split was built from).
    #[must_use]
    pub fn used(&self) -> usize {
        self.outer * self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn work_queue_hands_out_every_index_exactly_once() {
        let n = 101;
        let queue = WorkQueue::new(n, 4);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let queue = &queue;
                let seen = &seen;
                scope.spawn(move || {
                    while let Some((i, _)) = queue.take(worker) {
                        assert!(seen.lock().unwrap().insert(i), "index {i} handed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), n);
    }

    #[test]
    fn work_queue_respects_order_within_a_single_stripe() {
        // One stripe: a single worker sees the indices in order.
        let queue = WorkQueue::new(3, 1);
        assert_eq!(queue.take(0), Some((0, false)));
        assert_eq!(queue.take(0), Some((1, false)));
        assert_eq!(queue.take(0), Some((2, false)));
        assert_eq!(queue.take(0), None);
    }

    #[test]
    fn stealing_is_flagged() {
        // Two stripes, one worker: index 0 is its own, index 1 is stolen
        // from the idle worker's stripe.
        let queue = WorkQueue::new(2, 2);
        assert_eq!(queue.take(0), Some((0, false)));
        assert_eq!(queue.take(0), Some((1, true)));
        assert_eq!(queue.take(0), None);
    }

    #[test]
    fn empty_queue_and_zero_stripes_are_safe() {
        let queue = WorkQueue::new(0, 0);
        assert_eq!(queue.take(0), None);
    }

    #[test]
    fn interleaved_drain_hands_out_every_index_exactly_once() {
        // Ported from the DSE sweep (the original user of this queue):
        // workers claim in bursts, then a drain pass empties every
        // stripe, and each index still comes out exactly once.
        let queue = WorkQueue::new(23, 4);
        let mut seen = Vec::new();
        let mut steals = 0usize;
        for worker in [0, 3, 1, 2] {
            while let Some((i, _)) = queue.take(worker) {
                seen.push(i);
                if seen.len() % 5 == 0 {
                    break; // interleave workers
                }
            }
        }
        for worker in 0..4 {
            while let Some((i, stolen)) = queue.take(worker) {
                seen.push(i);
                steals += usize::from(stolen);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        // The drain pass exhausts every stripe, so workers whose own
        // stripe is empty must report their claims as steals.
        assert!(steals > 0, "the drain pass must steal across stripes");
    }

    #[test]
    fn nonzero_requests_pass_through_without_probing() {
        let probe = || -> Option<usize> { panic!("a non-zero request must not probe") };
        assert_eq!(resolve_with(3, probe), (3, false));
        assert_eq!(resolve_with(1, || None), (1, false));
    }

    #[test]
    fn zero_requests_take_every_core_or_fall_back() {
        assert_eq!(resolve_with(0, || Some(12)), (12, false));
        assert_eq!(resolve_with(0, || None), (FALLBACK_THREADS, true));
        let (threads, _) = resolve_threads(0);
        assert!(threads >= 1);
    }

    #[test]
    fn split_prefers_the_outer_axis() {
        assert_eq!(
            ThreadBudget::split(8, 372),
            ThreadBudget { outer: 8, inner: 1 }
        );
        assert_eq!(
            ThreadBudget::split(8, 3),
            ThreadBudget { outer: 3, inner: 2 }
        );
        assert_eq!(
            ThreadBudget::split(8, 1),
            ThreadBudget { outer: 1, inner: 8 }
        );
        assert_eq!(
            ThreadBudget::split(3, 2),
            ThreadBudget { outer: 2, inner: 1 }
        );
    }

    #[test]
    fn split_never_oversubscribes_and_never_zeroes() {
        for total in 0..20 {
            for items in 0..20 {
                let split = ThreadBudget::split(total, items);
                assert!(split.outer >= 1 && split.inner >= 1);
                assert!(
                    split.used() <= total.max(1),
                    "{split:?} from {total}/{items}"
                );
            }
        }
    }
}
