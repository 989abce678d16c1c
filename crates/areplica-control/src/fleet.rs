//! The fleet supervisor: control-plane ownership of the data plane's
//! fleet services (watchdog + tombstone janitor).
//!
//! The mechanism lives in [`areplica_core::fleet`] — the engine registers
//! a watch per distributed task and a tombstone cleanup per abort, on the
//! fixed cadence of [`areplica_core::fleet::WATCHDOG_INTERVAL`],
//! [`areplica_core::fleet::WATCHDOG_MAX_CHECKS`] and
//! [`areplica_core::fleet::ABORTED_POOL_TTL`]. The supervisor owns the
//! shared [`FleetLedger`] all tenants' fleet activity is recorded into
//! (BTreeMap-ordered, so reports are deterministic), and renders it.

use areplica_core::fleet::{FleetHandle, FleetLedger};
use simtrace::alert::AlertEvent;

/// The shared fleet activity ledger, spanning tenants.
#[derive(Debug, Default)]
pub struct FleetSupervisor {
    ledger: FleetHandle,
}

impl FleetSupervisor {
    /// A supervisor with an empty ledger.
    pub fn new() -> Self {
        FleetSupervisor::default()
    }

    /// The shared activity ledger handle (cloned into every
    /// [`areplica_core::tenant::TenantCtx`] this supervisor provisions).
    pub fn ledger(&self) -> FleetHandle {
        self.ledger.clone()
    }

    /// Read access to the ledger.
    pub fn with_ledger<R>(&self, f: impl FnOnce(&FleetLedger) -> R) -> R {
        f(&self.ledger.borrow())
    }

    /// Records one burn-rate alert transition into the per-tenant activity
    /// ledger — the hook the SLO monitor ([`crate::slo::SloMonitor`]) calls
    /// on every transition, and the record a future adaptive planner reads.
    pub fn record_alert(&self, ev: AlertEvent) {
        self.ledger.borrow_mut().record_alert(ev);
    }

    /// The deterministic alert log across all tenants (fixed-format lines
    /// grouped by tenant in sorted order; empty string when nothing fired).
    pub fn alert_log(&self) -> String {
        self.ledger.borrow().render_alert_log()
    }

    /// Deterministic per-tenant fleet activity report (one line per tenant
    /// in id order).
    pub fn report(&self) -> String {
        let mut out = String::from("tenant            watches  checks  rescues  cleanups\n");
        for (tenant, s) in self.ledger.borrow().tenants() {
            out.push_str(&format!(
                "{:<17} {:>7} {:>7} {:>8} {:>9}\n",
                tenant, s.watches, s.checks, s.rescues, s.cleanups
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    #[test]
    fn ledger_handle_is_shared() {
        let sup = FleetSupervisor::new();
        let a = sup.ledger();
        let b = sup.ledger();
        assert!(Rc::ptr_eq(&a, &b));
        assert!(sup.report().starts_with("tenant"));
    }
}
