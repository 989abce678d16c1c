//! # areplica — serverless replication of object storage across clouds
//!
//! A full reproduction of *"Serverless Replication of Object Storage across
//! Multi-Vendor Clouds and Regions"* (EUROSYS '26) as a Rust workspace:
//! the AReplica system itself, the multi-cloud substrate it runs on, the
//! baselines it is evaluated against, and the trace tooling driving the
//! evaluation.
//!
//! This facade crate re-exports the public API of every workspace member:
//!
//! * [`core`] ([`areplica_core`]) — the data plane: engine, lock,
//!   performance model, planner, profiler, changelog, batching.
//! * [`control`] ([`areplica_control`]) — the control plane: per-tenant
//!   circuit breakers. A tenant is a [`core::TenantCtx`].
//! * [`sim`] ([`cloudsim`]) — the simulated AWS/Azure/GCP world.
//! * [`stats`] — distributions and extreme-value machinery.
//! * [`kernel`] ([`simkernel`]) — the deterministic event simulator.
//! * [`prices`] ([`pricing`]) — price catalogs and cost accounting.
//! * [`baselines`] — Skyplane, S3 RTC, and Azure object replication models.
//! * [`traces`] ([`areplica_traces`]) — IBM-COS-shaped workload synthesis
//!   and replay.
//!
//! ## Quickstart
//!
//! ```
//! use areplica::prelude::*;
//!
//! // A simulated multi-cloud world with the paper's 13 regions.
//! let mut sim = World::paper_sim(42);
//! let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
//! let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
//!
//! // Deploy AReplica on a bucket pair (profiles the paths offline).
//! let service = AReplicaBuilder::new()
//!     .rule(ReplicationRule::new(src, "photos", dst, "photos-mirror"))
//!     .profiler_config(ProfilerConfig {
//!         transfer_samples: 3,
//!         warm_samples: 3,
//!         cold_samples: 3,
//!         notif_samples: 3,
//!         chunks_per_invocation: 2,
//!         mc_trials: 500,
//!     })
//!     .install(&mut sim);
//!
//! // A user writes an object; AReplica replicates it.
//! user_put(&mut sim, src, "photos", "cat.jpg", 1 << 20).unwrap();
//! sim.run_to_completion(u64::MAX);
//!
//! let metrics = service.metrics();
//! assert_eq!(metrics.completions.len(), 1);
//! println!("replicated in {}", metrics.completions[0].delay());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use areplica_control as control;
pub use areplica_core as core;
pub use areplica_traces as traces;
pub use baselines;
pub use cloudsim as sim;
pub use pricing as prices;
pub use simkernel as kernel;
pub use stats;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use areplica_core::{
        AReplica, AReplicaBuilder, CompletionRecord, EngineConfig, ExecSide, Metrics, PerfModel,
        Plan, ProfilerConfig, ReplicationRule, SchedulingMode, TenantCtx,
    };
    pub use cloudsim::world::{user_delete, user_put, CloudSim};
    pub use cloudsim::{Cloud, Geo, RegionId, World};
    pub use pricing::{CostCategory, Money};
    pub use simkernel::{Sim, SimDuration, SimTime};
}
