//! The AReplica control plane: per-(tenant, destination) circuit
//! breakers.
//!
//! * [`breaker`] — circuit breakers over windowed error ratios, consulted
//!   by the data plane through [`areplica_core::health::BreakerProbe`];
//!   each tenant's breaker set keeps its own transitions.
//!
//! An experiment or test describes a tenant to the data plane with
//! [`areplica_core::tenant::TenantCtx`] (its id, SLO and FaaS-concurrency
//! quota), attaching the tenant's [`BreakerSet`] as its health handle.
//! Burn-rate alerting on each tenant's SLO lives in [`simtrace::alert`].
//!
//! Layering (a Cargo fact): this crate reaches backends only through
//! `areplica_core::backend` traits. Its manifest lists no `cloudsim`
//! dependency, so a `cloudsim::` path fails to compile here, and
//! `areplica-core` cannot depend on this crate without a cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code runs mid-replication: it must not panic, and it must not
// silently discard a `Result`. Tests may unwrap (see clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::let_underscore_must_use
)]

pub mod breaker;

pub use breaker::{BreakerConfig, BreakerSet};
