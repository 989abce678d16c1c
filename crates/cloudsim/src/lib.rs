//! # cloudsim — the deterministic multi-cloud world
//!
//! The substrate the AReplica reproduction runs on: a simulated AWS, Azure,
//! and GCP with
//!
//! * [`objstore`] — object storage with recipe-based content (consistency is
//!   checkable), multipart uploads, ETags, versioning, and event
//!   notifications;
//! * [`clouddb`] — serverless KV databases with atomic transactions;
//! * [`faas`] — cloud-function runtimes with cold starts, warm pools,
//!   scheduler batching, timeouts, retries, a DLQ, and per-ms billing;
//! * [`vm`] — VM provisioning for the Skyplane-style baseline;
//! * [`net`] — the asymmetric, per-instance-variable WAN model;
//! * [`outage`] — deterministic fault-domain outage windows (regional
//!   service blackouts, WAN partitions, brownouts);
//! * [`world`] — the [`World`] aggregate and the timed,
//!   cost-metered operation wrappers everything above is driven through.
//!
//! Ground-truth parameters live in [`params`] and are calibrated to the
//! paper's characterization (Figures 4–9); see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faas;
pub mod net;
pub mod outage;
pub mod params;
pub mod vm;
pub mod world;

// The provider-neutral vocabulary (pure object-store / KV / region state)
// lives in the `cloudapi` crate; re-export it at its historical paths so
// `cloudsim::objstore::...` and friends keep working.
pub use cloudapi::{clouddb, objstore, region};

pub use params::{CloudParams, FnConfig, WorldParams};
pub use pricing::{Cloud, Geo};
pub use region::{RegionId, RegionMeta, RegionRegistry};
pub use simkernel::{EventInfo, PopPolicy};
pub use world::{CloudSim, Executor, World};
