//! Per-tenant quota accounting for `hilpd`.
//!
//! Quotas bound *how much* of the shared daemon a tenant can hold at
//! once (concurrent jobs) and how large a budget a single job may carry
//! (wall-clock deadline, per-point node meter). Enforcement is by
//! clamping, not rejection, for the budget axes — a request asking for
//! more than its quota simply runs with the quota — while the
//! concurrency axis rejects outright so one tenant cannot starve the
//! others' thread shares.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Limits applied to every tenant (the daemon currently applies one
/// quota uniformly; per-tenant overrides would slot in here).
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Jobs a tenant may have running at once; further submissions are
    /// rejected until one finishes.
    pub max_concurrent_jobs: usize,
    /// Ceiling on a job's requested wall-clock deadline. `None` leaves
    /// requested deadlines unclamped (an unrequested deadline stays
    /// absent either way — the daemon never imposes one).
    pub max_deadline: Option<Duration>,
    /// Ceiling on a job's requested per-point node budget; clamping
    /// keeps budgeted jobs deterministic (node meters are exact).
    pub max_point_nodes: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_concurrent_jobs: 2,
            max_deadline: None,
            max_point_nodes: None,
        }
    }
}

impl TenantQuota {
    /// The deadline a job actually runs with: the request clamped to the
    /// quota (or the quota alone when the request exceeds it).
    #[must_use]
    pub fn clamp_deadline(&self, requested: Option<Duration>) -> Option<Duration> {
        match (requested, self.max_deadline) {
            (Some(r), Some(max)) => Some(r.min(max)),
            (Some(r), None) => Some(r),
            (None, _) => None,
        }
    }

    /// The per-point node budget a job actually runs with.
    #[must_use]
    pub fn clamp_nodes(&self, requested: Option<u64>) -> Option<u64> {
        match (requested, self.max_point_nodes) {
            (Some(r), Some(max)) => Some(r.min(max)),
            (Some(r), None) => Some(r),
            (None, _) => None,
        }
    }
}

/// Running totals for one tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Jobs currently running.
    pub running: usize,
    /// Jobs that reached a terminal state (finished, cancelled, failed).
    pub jobs_done: u64,
    /// Design points evaluated across all finished jobs.
    pub points: u64,
    /// Points answered by identity replay from the daemon's result
    /// store, which any earlier job (of any tenant) may have filed.
    pub replayed: u64,
    /// Points whose solve a budget cut short.
    pub truncated: u64,
}

/// The daemon's tenant ledger: admission control plus usage accounting.
#[derive(Debug)]
pub struct TenantLedger {
    quota: TenantQuota,
    usage: Mutex<HashMap<String, TenantUsage>>,
}

impl TenantLedger {
    /// A ledger applying `quota` to every tenant.
    #[must_use]
    pub fn new(quota: TenantQuota) -> Self {
        TenantLedger {
            quota,
            usage: Mutex::new(HashMap::new()),
        }
    }

    /// The (uniform) quota tenants run under.
    #[must_use]
    pub fn quota(&self) -> &TenantQuota {
        &self.quota
    }

    /// Admits one job for `tenant`, or explains the rejection. A
    /// successful admission must be paired with exactly one
    /// [`TenantLedger::finish`].
    ///
    /// # Errors
    ///
    /// When the tenant is already at its concurrent-job limit.
    pub fn begin(&self, tenant: &str) -> Result<(), String> {
        let mut usage = self.usage.lock().expect("ledger lock");
        let entry = usage.entry(tenant.to_string()).or_default();
        if entry.running >= self.quota.max_concurrent_jobs {
            return Err(format!(
                "tenant {tenant:?} already has {} running job(s) (limit {})",
                entry.running, self.quota.max_concurrent_jobs
            ));
        }
        entry.running += 1;
        Ok(())
    }

    /// Records a job's terminal accounting (paired with
    /// [`TenantLedger::begin`]).
    pub fn finish(&self, tenant: &str, points: u64, replayed: u64, truncated: u64) {
        let mut usage = self.usage.lock().expect("ledger lock");
        let entry = usage.entry(tenant.to_string()).or_default();
        entry.running = entry.running.saturating_sub(1);
        entry.jobs_done += 1;
        entry.points += points;
        entry.replayed += replayed;
        entry.truncated += truncated;
    }

    /// Snapshot of one tenant's usage (all-zero for unknown tenants).
    #[must_use]
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        self.usage
            .lock()
            .expect("ledger lock")
            .get(tenant)
            .cloned()
            .unwrap_or_default()
    }

    /// Totals across every tenant: `(running, jobs_done, points)`.
    #[must_use]
    pub fn totals(&self) -> (usize, u64, u64) {
        let usage = self.usage.lock().expect("ledger lock");
        usage.values().fold((0, 0, 0), |(r, j, p), u| {
            (r + u.running, j + u.jobs_done, p + u.points)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_limit_rejects_and_releases() {
        let ledger = TenantLedger::new(TenantQuota {
            max_concurrent_jobs: 2,
            ..TenantQuota::default()
        });
        ledger.begin("a").unwrap();
        ledger.begin("a").unwrap();
        assert!(ledger.begin("a").is_err(), "third concurrent job");
        ledger.begin("b").unwrap(); // other tenants unaffected
        ledger.finish("a", 10, 4, 1);
        ledger.begin("a").unwrap();
        let usage = ledger.usage("a");
        assert_eq!(usage.running, 2);
        assert_eq!(usage.jobs_done, 1);
        assert_eq!(usage.points, 10);
        assert_eq!(usage.replayed, 4);
        assert_eq!(usage.truncated, 1);
        assert_eq!(ledger.totals(), (3, 1, 10));
    }

    #[test]
    fn budgets_clamp_to_the_quota() {
        let quota = TenantQuota {
            max_concurrent_jobs: 1,
            max_deadline: Some(Duration::from_secs(10)),
            max_point_nodes: Some(1000),
        };
        assert_eq!(
            quota.clamp_deadline(Some(Duration::from_secs(60))),
            Some(Duration::from_secs(10))
        );
        assert_eq!(
            quota.clamp_deadline(Some(Duration::from_secs(5))),
            Some(Duration::from_secs(5))
        );
        assert_eq!(quota.clamp_deadline(None), None, "no imposed deadline");
        assert_eq!(quota.clamp_nodes(Some(5000)), Some(1000));
        assert_eq!(quota.clamp_nodes(Some(10)), Some(10));
        assert_eq!(TenantQuota::default().clamp_nodes(Some(10)), Some(10));
    }
}
