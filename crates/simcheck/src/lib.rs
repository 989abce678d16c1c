//! simcheck — deterministic schedule exploration for the replication
//! protocol.
//!
//! A loom/DPOR-style checker built on the stack's determinism contract:
//! small replication scenarios (one key, a few concurrent PUT versions, a
//! few replicators) run under an *explored* scheduler — a seeded random walk
//! over event-queue pop order (via [`simkernel::PopPolicy`]) plus
//! schedule-controlled fault injection (via
//! [`areplica_core::backend::faulty::FaultDecider`]) — and a set of
//! safety/liveness oracles inspects the quiesced world after every schedule:
//!
//! * every replica converges to the newest written version, byte for byte;
//! * no multipart upload is left open at any region;
//! * no replication lock is left held (the lock table is empty);
//! * no task state is leaked (the task table is empty);
//! * no task span is left open (`simtrace` span parity);
//! * the run drains (liveness).
//!
//! Every schedule is identified by `(scenario, walk seed)` and replays
//! byte-identically. Failing schedules shrink, delta-debugging style, to a
//! minimal list of non-default scheduling/fault decisions
//! ([`shrink::shrink`]). Tiny horizons can be enumerated exhaustively
//! ([`explore::explore_exhaustive`]).
//!
//! Exploration is test-only: nothing here is linked into the result-producing
//! binaries, and with no policy/decider installed the simulator's behaviour
//! is byte-for-byte unchanged.

pub mod explore;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use explore::{explore_exhaustive, run_schedule, ExhaustiveReport, Failure, RunReport};
pub use oracle::Violation;
pub use scenario::Scenario;
pub use schedule::{Decision, Mode, ScheduleState, Taken, WalkConfig};
pub use shrink::{non_default, shrink, ShrinkResult};
