//! # simkernel — deterministic discrete-event simulation engine
//!
//! The foundation of the AReplica reproduction: a single-threaded,
//! deterministic discrete-event simulator with a nanosecond virtual clock,
//! stable event ordering, seeded per-component RNG streams, and exact metric
//! recorders.
//!
//! ## Design
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-precision virtual time.
//! * [`Sim`] — the executor. Events are `FnOnce(&mut Sim<W>)` continuations
//!   ordered by `(timestamp, sequence number)`, so simultaneous events run in
//!   schedule order and every run replays bit-identically for a given seed.
//! * [`rng::derive_rng`] — label-derived RNG streams decouple components'
//!   randomness from one another.
//! * [`metrics`] — exact histograms / time series for experiment output
//!   (p99.99 queries must not be estimator-approximate).
//! * [`par_map`] — runs independent simulations on worker threads and
//!   returns their results in input order.
//!
//! ## Example
//!
//! ```
//! use simkernel::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42, Vec::<u32>::new());
//! sim.schedule_in(SimDuration::from_secs(1), |sim| sim.world.push(1));
//! sim.schedule_in(SimDuration::from_millis(500), |sim| sim.world.push(2));
//! sim.run_to_completion(u64::MAX);
//! assert_eq!(sim.world, vec![2, 1]);
//! assert_eq!(sim.now().as_secs_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod par;
pub mod rng;
mod sim;
mod time;

pub use metrics::{Histogram, Summary, TimeSeries};
pub use par::par_map;
pub use sim::{CancelToken, EventInfo, PopPolicy, RunStats, Sim};
pub use time::{SimDuration, SimTime};
