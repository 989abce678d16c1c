//! # baselines — the paper's comparison systems
//!
//! * [`skyplane`] — the open-source VM-based replicator: gateway VMs in both
//!   regions, container deployment, relay transfer, and configurable
//!   keep-alive (Figures 4–5 and the Skyplane rows of Tables 1–3).
//! * [`proprietary`] — managed services: AWS S3 Replication Time Control and
//!   Azure object replication, with the measured delay envelopes, burst
//!   queueing (Figure 23), and the versioning/surcharge cost structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod proprietary;
pub mod skyplane;

pub use proprietary::{ManagedConfig, ManagedKind, ManagedReplication, ManagedResult};
pub use skyplane::{Skyplane, SkyplaneConfig, SkyplaneResult};
