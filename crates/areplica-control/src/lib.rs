//! The AReplica control plane.
//!
//! The data plane ([`areplica_core`]) moves bytes for one tenant at a
//! time; this crate owns everything *about* tenants:
//!
//! * [`registry`] — the deterministic tenant registry: identity, SLO and
//!   attainment target, FaaS-concurrency quota, admission. Stored in a
//!   `BTreeMap`, so iteration (and thus any provisioning loop driven off
//!   it) is ordered and independent of registration order.
//! * [`admission`] — per-tenant token-bucket admission control over
//!   *simulated* time, producing deterministic admit/queue/reject
//!   decisions with no randomness.
//! * [`fleet`] — the fleet supervisor: the activity ledger the core's
//!   watchdog/janitor services record into.
//! * [`slo`] — the SLO monitor: burn-rate alert rules built from tenant
//!   specs, evaluated on sim-time ticks against `simtrace`'s sliding
//!   windows, with fire/resolve transitions recorded in the fleet ledger.
//! * [`breaker`] — per-(tenant, destination) circuit breakers over
//!   windowed error ratios, consulted by the data plane through
//!   [`areplica_core::health::BreakerProbe`]; transitions land in the
//!   fleet ledger next to burn-rate alerts.
//!
//! Layering (a Cargo fact): this crate reaches backends only through
//! `areplica_core::backend` traits. Its manifest lists no `cloudsim`
//! dependency, so a `cloudsim::` path fails to compile here, and
//! `areplica-core` cannot depend on this crate without a cycle. The
//! seam between the two planes is [`areplica_core::tenant::TenantCtx`],
//! which [`TenantRegistry::tenant_ctx`] manufactures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code runs mid-replication: it must not panic, and it must not
// silently discard a `Result`. Tests may unwrap (see clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::let_underscore_must_use
)]

pub mod admission;
pub mod breaker;
pub mod fleet;
pub mod registry;
pub mod slo;

pub use admission::{AdmissionConfig, TokenBucket};
pub use breaker::{BreakerConfig, BreakerSet};
pub use fleet::FleetSupervisor;
pub use registry::{TenantRegistry, TenantSpec};
pub use slo::SloMonitor;
