//! # bench — the experiment harness
//!
//! Library support for the per-table/per-figure experiment binaries in
//! `src/bin/`. Each experiment lives in [`experiments`] as a function
//! returning a formatted report; the binaries print it and write it under
//! `results/`.
//!
//! The experiments that isolate one design choice at a fixed parallelism
//! (the part-size ablation, Figures 8, 12/17, 16, 18–19 and 20, and Table
//! 4) replicate through one runner, [`runners::replicate_fixed`], on a world
//! set up by [`runners::pair_sim`]; the service-driven ones measure through
//! [`runners::measure_areplica_once`]. The shared-world experiments
//! (multi-tenant fairness, SLO burn-rate alerting and the region outage) run
//! their tenants through one tenant runner: [`runners::install_tenants`]
//! installs each [`runners::TenantLoad`] and schedules its PUTs, and
//! [`runners::run_observed`] ticks the world under alerting and dashboards.
//!
//! Environment knobs:
//!
//! * `AREPLICA_SCALE` — scales trial counts / workload sizes (default 1.0;
//!   set e.g. `0.2` for a quick pass). A value that is not a number in
//!   (0, 10] stops the binary with exit code 2.
//! * `AREPLICA_RESULTS_DIR` — output directory (default `results`). A
//!   directory that cannot be created, or a report, trace or dashboard file
//!   that cannot be written, stops the binary with exit code 2 and an error
//!   naming the path.
//! * `AREPLICA_SEED` — master seed (default 2026). A value that is not an
//!   unsigned 64-bit integer stops the binary with exit code 2.
//! * `AREPLICA_TRACE_OUT` (or the `--trace-out[=DIR]` flag) — enables
//!   deterministic tracing in the experiments that support it and writes
//!   `<name>.trace.json` (Chrome trace-event format) plus
//!   `<name>.metrics.txt` snapshots. Tracing never changes `results/*.txt`.

#![forbid(unsafe_code)]
// Library code must not silently discard a `Result`.
#![warn(clippy::let_underscore_must_use)]

pub mod experiments;
pub mod harness;
pub mod runners;
pub mod walltimer;

pub use harness::{
    dash_out_dir, human_bytes, phase_breakdown, scaled, seed, trace_artifacts, trace_out_dir,
    write_dash, write_report, write_trace, Table,
};
pub use runners::{measure_areplica_once, profile_pairs};
pub use walltimer::WallTimer;
