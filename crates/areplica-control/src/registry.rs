//! The deterministic tenant registry.
//!
//! Tenants live in a `BTreeMap` keyed by id: lookups, iteration, and any
//! provisioning loop driven off the registry are ordered by id and
//! therefore independent of registration order — two tenants registered
//! `A, B` or `B, A` produce the same registry state and the same
//! provisioning sequence.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use areplica_core::tenant::TenantCtx;
use simkernel::SimDuration;

use crate::admission::AdmissionConfig;
use crate::fleet::FleetSupervisor;

/// Everything the control plane records about one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant id (registry key).
    pub id: String,
    /// Per-tenant replication SLO; overrides rule SLOs in the data plane.
    pub slo: Option<SimDuration>,
    /// SLO attainment target in (0, 1) for burn-rate monitoring (`None` =
    /// the monitor's default policy target).
    pub slo_target: Option<f64>,
    /// FaaS-concurrency quota across the tenant's replication tasks.
    pub faas_concurrency: Option<u32>,
    /// Admission-control parameters (no admission gate when `None`).
    pub admission: Option<AdmissionConfig>,
}

impl TenantSpec {
    /// A minimal spec: no SLO override, no quota, no admission gate.
    pub fn new(id: &str) -> Self {
        TenantSpec {
            id: id.to_string(),
            slo: None,
            slo_target: None,
            faas_concurrency: None,
            admission: None,
        }
    }

    /// Sets the SLO override.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets the SLO attainment target for burn-rate monitoring.
    pub fn with_slo_target(mut self, target: f64) -> Self {
        self.slo_target = Some(target);
        self
    }

    /// Sets the FaaS-concurrency quota.
    pub fn with_faas_concurrency(mut self, limit: u32) -> Self {
        self.faas_concurrency = Some(limit);
        self
    }

    /// Sets the admission-control parameters.
    pub fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(cfg);
        self
    }
}

/// The tenant registry: id-ordered, registration-order independent.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<String, TenantSpec>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Registers (or replaces) a tenant. Returns the previous spec when
    /// the id was already registered.
    pub fn register(&mut self, spec: TenantSpec) -> Option<TenantSpec> {
        self.tenants.insert(spec.id.clone(), spec)
    }

    /// Looks up a tenant.
    pub fn get(&self, id: &str) -> Option<&TenantSpec> {
        self.tenants.get(id)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// All tenants in id order (deterministic regardless of registration
    /// order).
    pub fn iter(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.values()
    }

    /// Manufactures the data-plane context for one tenant: the seam
    /// between control plane and data plane. Fresh admission state is
    /// built per call (each deployed service instance gets its own
    /// bucket); the fleet supervisor contributes the shared activity
    /// ledger.
    pub fn tenant_ctx(&self, id: &str, fleet: &FleetSupervisor) -> Option<TenantCtx> {
        let spec = self.tenants.get(id)?;
        let mut ctx = TenantCtx::named(&spec.id).with_fleet_ledger(fleet.ledger());
        if let Some(slo) = spec.slo {
            ctx = ctx.with_slo(slo);
        }
        if let Some(limit) = spec.faas_concurrency {
            ctx = ctx.with_faas_concurrency(limit);
        }
        if let Some(cfg) = spec.admission {
            ctx = ctx.with_admission(Rc::new(RefCell::new(cfg.build())));
        }
        Some(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_id_ordered_not_registration_ordered() {
        let mut fwd = TenantRegistry::new();
        fwd.register(TenantSpec::new("noisy"));
        fwd.register(TenantSpec::new("quiet"));
        let mut rev = TenantRegistry::new();
        rev.register(TenantSpec::new("quiet"));
        rev.register(TenantSpec::new("noisy"));
        let a: Vec<&str> = fwd.iter().map(|s| s.id.as_str()).collect();
        let b: Vec<&str> = rev.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec!["noisy", "quiet"]);
    }

    #[test]
    fn tenant_ctx_carries_the_spec() {
        let mut reg = TenantRegistry::new();
        reg.register(
            TenantSpec::new("acme")
                .with_slo(SimDuration::from_secs(60))
                .with_faas_concurrency(8),
        );
        let fleet = FleetSupervisor::new();
        let ctx = reg.tenant_ctx("acme", &fleet).unwrap();
        assert_eq!(ctx.id(), Some("acme"));
        assert_eq!(ctx.slo, Some(SimDuration::from_secs(60)));
        assert_eq!(ctx.faas_concurrency, Some(8));
        assert!(ctx.admission.is_none());
        assert!(reg.tenant_ctx("missing", &fleet).is_none());
    }
}
