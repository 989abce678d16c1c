//! # areplica-core — serverless SLO-aware object replication
//!
//! The paper's contribution (EUROSYS '26): a serverless cross-cloud/region
//! object replication system built from
//!
//! * a **variability-tolerant replication engine** with decentralized
//!   part-granularity scheduling ([`engine`], Algorithm 1);
//! * **eventual-consistency guarantees** via a per-object replication lock
//!   and optimistic validation ([`lock`], Algorithm 2, §5.2);
//! * a **distribution-aware performance model** ([`model`], §5.3) fitted by
//!   the offline [`profiler`] and kept accurate by the online [`logger`];
//! * an **SLO-compliant strategy planner** ([`planner`], Algorithm 3);
//! * **opportunistic replication reduction**: [`changelog`] propagation and
//!   SLO-bounded [`batching`] (Algorithm 4, §5.4).
//!
//! The library is written against the provider-neutral operation surface in
//! [`backend`] — object stores, KV databases, FaaS runtimes, clock and
//! randomness — so the same engine runs over any [`backend::Backend`]
//! implementation. The default `cloudsim` feature ships [`backend::sim`], an
//! adapter backing those traits with the discrete-event cloud simulator; a
//! real deployment would back them with the providers' SDKs instead.
//! [`AReplica`] wires everything into a deployable service over any backend.
//! See [`backend::sim`] for a runnable end-to-end example; deterministic
//! fault injection is installed on the simulated world (`cloudsim::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code runs mid-replication: it must not panic, and it must not
// silently discard a `Result`. Tests may unwrap (see clippy.toml).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::let_underscore_must_use
)]

pub mod backend;
pub mod batching;
pub mod catchup;
pub mod changelog;
pub mod config;
pub mod engine;
pub mod health;
pub mod lock;
pub mod logger;
pub mod metrics;
pub mod model;
pub mod planner;
pub mod profiler;
pub mod retry;
pub mod service;
pub mod tenant;

#[cfg(feature = "cloudsim")]
pub use backend::sim::build_model_for;
pub use backend::{Backend, Clock, Exec, FunctionRuntime, KvStore, ObjectStore, RngSource};
pub use config::{EngineConfig, ReplicationRule, SchedulingMode};
pub use health::{BreakerProbe, HealthHandle, RecheckAdvice, WriteRoute};
pub use logger::{ObserveOutcome, OnlineLogger};
pub use metrics::{CompletionRecord, Metrics};
pub use model::{ExecSide, PathKey, PerfModel};
pub use planner::{generate_plan, Plan};
pub use profiler::{ProfileError, ProfilerConfig};
pub use retry::{BackoffSchedule, RetryPolicy};
pub use service::{AReplica, AReplicaBuilder};
pub use tenant::{TenantCtx, TenantId};
