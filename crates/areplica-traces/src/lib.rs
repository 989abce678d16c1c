//! # areplica-traces — object-storage trace synthesis and replay
//!
//! The paper's characterization and trace-replay experiments build on the
//! public IBM Cloud Object Storage traces. Those traces are not in the
//! repository, so every run replays a synthetic trace shaped like them.
//! This crate provides
//!
//! * [`record`] — the trace model: timed PUT and DELETE records;
//! * [`synth`] — a seeded synthetic generator matching the published
//!   characterization (Figure 2's size mixture, Figure 3's burstiness);
//! * [`replay`] — scheduling a trace's writes against a simulated bucket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod record;
pub mod replay;
pub mod synth;

pub use record::{Trace, TraceOp, TraceRecord};
pub use replay::{schedule, ReplayConfig, ReplayStats};
pub use synth::{generate, ibm_size_mixture, sample_size, SynthConfig};
