//! # areplica-traces — object-storage trace synthesis, parsing, and replay
//!
//! The paper's characterization and trace-replay experiments build on the
//! public IBM Cloud Object Storage traces. This crate provides
//!
//! * [`record`] — the trace model and the IBM-COS-like text format (so the
//!   real traces can be dropped in when available);
//! * [`synth`] — a seeded synthetic generator matching the published
//!   characterization (Figure 2's size mixture, Figure 3's burstiness);
//! * [`replay`] — scheduling a trace's writes against a simulated bucket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod replay;
pub mod synth;

pub use record::{ParseError, Trace, TraceOp, TraceRecord};
pub use replay::{schedule, ReplayConfig, ReplayStats};
pub use synth::{generate, ibm_size_mixture, sample_size, SynthConfig};
