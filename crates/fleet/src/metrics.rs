//! Fleet-level metrics: what the scheduler counts and reports.
//!
//! Per-job `FabricMetrics` travel inside each job's rank reports; this
//! module covers the service-level view — jobs accepted/rejected (by typed
//! reason)/completed/failed, queue depth and high-water mark, and the same
//! counters broken out per tenant.

use sage_net::wire_struct;

/// Job accounting for one tenant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name (empty = anonymous submissions).
    pub tenant: String,
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs that completed with every rank reporting success.
    pub completed: u64,
    /// Jobs that failed: a rank error, or worker deaths in flight or queued.
    pub failed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
}

/// A scheduler metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers the fleet was built with.
    pub workers: u32,
    /// Workers currently alive.
    pub workers_live: u32,
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs completed with every rank succeeding.
    pub completed: u64,
    /// Jobs that failed: a rank error, or worker deaths in flight or queued.
    pub failed: u64,
    /// Admissions refused because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Admissions refused for wanting more ranks than live workers.
    pub rejected_insufficient: u64,
    /// Admissions refused because the fleet was draining.
    pub rejected_draining: u64,
    /// Admissions refused over a protocol-version mismatch.
    pub rejected_version: u64,
    /// Jobs currently queued (admitted, not yet dispatched).
    pub queue_depth: u32,
    /// Deepest the queue has been.
    pub queue_high_water: u32,
    /// Jobs currently executing.
    pub active: u32,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

impl FleetStats {
    /// Total rejections across all typed reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_insufficient
            + self.rejected_draining
            + self.rejected_version
    }
}

wire_struct!(TenantStats {
    tenant,
    accepted,
    completed,
    failed,
    rejected
});

wire_struct!(FleetStats {
    workers,
    workers_live,
    accepted,
    completed,
    failed,
    rejected_queue_full,
    rejected_insufficient,
    rejected_draining,
    rejected_version,
    queue_depth,
    queue_high_water,
    active,
    tenants,
});
