//! # cloudapi — provider-neutral cloud vocabulary
//!
//! The data types shared between the replication core (`areplica-core`) and
//! any backend that executes its operations (the `cloudsim` simulator today;
//! real-SDK shims tomorrow):
//!
//! * [`objstore`] — object-storage state: content recipes, ETags, versions,
//!   events, multipart uploads, and the pure [`objstore::ObjectStore`] state
//!   machine;
//! * [`clouddb`] — serverless KV items, typed attribute [`clouddb::Value`]s,
//!   and the pure [`clouddb::KvDb`] store with atomic transactions;
//! * [`region`] — interned region handles and the registry of region
//!   metadata;
//! * [`faas`] — cloud-function vocabulary: handles, specs, retry policies,
//!   failure reasons, and runtime counters.
//!
//! Everything here is *pure state and plain data* — no latency, no cost
//! metering, no event scheduling. Backends wrap these types with their own
//! timing and billing; `cloudsim` re-exports them at their historical paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod clouddb;
pub mod faas;
pub mod objstore;
pub mod region;

pub use faas::FnConfig;
pub use pricing::{Cloud, Geo};
pub use region::{RegionId, RegionMeta, RegionRegistry};
