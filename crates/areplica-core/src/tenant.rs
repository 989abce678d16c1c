//! Tenant context: the data plane's view of control-plane tenancy.
//!
//! The data plane (this crate) never owns tenant policy — it receives a
//! [`TenantCtx`] describing one tenant's SLO, FaaS-concurrency quota,
//! admission policy, and fleet ledger, and threads it through the
//! replication service and engine. The control plane
//! (`areplica-control`) constructs these contexts from its registry.
//!
//! **Default-tenant invariant:** [`TenantCtx::default_tenant`] (also the
//! `Default` impl) carries no id, no SLO override, no quota, and no
//! admission policy. Every tenancy hook in the service, engine, and
//! backends is a no-op for the default tenant, so single-tenant runs
//! produce bit-identical event sequences, traces, and ledgers to the
//! pre-tenancy code.

use std::cell::RefCell;
use std::rc::Rc;

use simkernel::{SimDuration, SimTime};

use crate::fleet::FleetHandle;
use crate::health::HealthHandle;

/// Shared tenant identifier. `Rc<str>` because the id is cloned into
/// every scoped continuation the backend schedules.
pub type TenantId = Rc<str>;

/// Outcome of consulting a tenant's admission policy for one incoming
/// replication event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Process the event now.
    Admit,
    /// Capacity was reserved but is not available yet: process the event
    /// after this delay without re-consulting the policy.
    Queue(SimDuration),
    /// Drop the event; the tenant is over quota beyond the queueing bound.
    Reject,
}

/// Per-tenant admission control over simulated time.
///
/// Implementations must be deterministic: the decision may depend only on
/// `now`, `size`, and prior calls — never on wall clock or unseeded
/// randomness. The control plane's token bucket is the canonical
/// implementation.
pub trait AdmissionPolicy {
    /// Decides whether to admit a replication event of `size` bytes at
    /// simulated time `now`.
    fn admit(&mut self, now: SimTime, size: u64) -> AdmissionDecision;
}

/// Shared handle to a tenant's admission policy.
pub type AdmissionHandle = Rc<RefCell<dyn AdmissionPolicy>>;

/// Everything the data plane needs to know about the tenant it is serving.
///
/// Cheap to clone (ids and policies are behind `Rc`).
#[derive(Clone)]
pub struct TenantCtx {
    /// Tenant identity; `None` is the implicit default tenant.
    id: Option<TenantId>,
    /// Per-tenant SLO overriding the replication rule's SLO when set.
    pub slo: Option<SimDuration>,
    /// FaaS-concurrency quota: cap on simultaneously running function
    /// instances across this tenant's replication tasks.
    pub faas_concurrency: Option<u32>,
    /// Admission policy consulted before each replication event.
    pub admission: Option<AdmissionHandle>,
    /// Optional fleet ledger recording watchdog/janitor activity per
    /// tenant (pure memory; never affects the event sequence).
    pub fleet: Option<FleetHandle>,
    /// Optional breaker set consulted before replication writes
    /// ([`crate::health`]). `None` (the default) skips every health hook,
    /// keeping breaker-less runs byte-identical.
    pub health: Option<HealthHandle>,
}

impl TenantCtx {
    /// The implicit default tenant: unlimited quota, no admission policy.
    /// All tenancy hooks are no-ops.
    pub fn default_tenant() -> Self {
        TenantCtx {
            id: None,
            slo: None,
            faas_concurrency: None,
            admission: None,
            fleet: None,
            health: None,
        }
    }

    /// A named tenant with no policies attached yet.
    pub fn named(id: &str) -> Self {
        TenantCtx {
            id: Some(Rc::from(id)),
            ..TenantCtx::default_tenant()
        }
    }

    /// Sets the per-tenant SLO override.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets the FaaS-concurrency quota.
    pub fn with_faas_concurrency(mut self, limit: u32) -> Self {
        self.faas_concurrency = Some(limit);
        self
    }

    /// Attaches an admission policy.
    pub fn with_admission(mut self, policy: AdmissionHandle) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Attaches a fleet ledger.
    pub fn with_fleet_ledger(mut self, ledger: FleetHandle) -> Self {
        self.fleet = Some(ledger);
        self
    }

    /// Attaches a breaker set consulted before replication writes.
    pub fn with_health(mut self, health: HealthHandle) -> Self {
        self.health = Some(health);
        self
    }

    /// Tenant id, `None` for the default tenant.
    pub fn id(&self) -> Option<&str> {
        self.id.as_deref()
    }

    /// Shared tenant id handle (for backend scope propagation).
    pub fn tenant_id(&self) -> Option<TenantId> {
        self.id.clone()
    }

    /// Whether this is the implicit default tenant.
    pub fn is_default(&self) -> bool {
        self.id.is_none()
    }

    /// Metric name scoped to this tenant: `tenant.<id>.<name>` for named
    /// tenants, `<name>` unchanged for the default tenant (keeping the
    /// default path's metric registry byte-identical).
    pub fn metric(&self, name: &str) -> String {
        match &self.id {
            Some(id) => simtrace::scoped(id, name),
            None => name.to_string(),
        }
    }
}

impl Default for TenantCtx {
    fn default() -> Self {
        TenantCtx::default_tenant()
    }
}

impl std::fmt::Debug for TenantCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCtx")
            .field("id", &self.id)
            .field("slo", &self.slo)
            .field("faas_concurrency", &self.faas_concurrency)
            .field("admission", &self.admission.as_ref().map(|_| "<policy>"))
            .field("health", &self.health.as_ref().map(|_| "<breakers>"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_is_inert() {
        let t = TenantCtx::default_tenant();
        assert!(t.is_default());
        assert!(t.id().is_none());
        assert!(t.slo.is_none());
        assert!(t.faas_concurrency.is_none());
        assert!(t.admission.is_none());
        assert!(t.health.is_none());
        assert_eq!(t.metric("service.tasks"), "service.tasks");
    }

    #[test]
    fn named_tenant_scopes_metrics() {
        let t = TenantCtx::named("acme").with_faas_concurrency(4);
        assert_eq!(t.id(), Some("acme"));
        assert!(!t.is_default());
        assert_eq!(t.metric("service.tasks"), "tenant.acme.service.tasks");
        assert_eq!(t.faas_concurrency, Some(4));
    }
}
