//! The workspace policy: the protocol resources, trace spans and wall-clock
//! taint xlint tracks along every path. It is code, not configuration:
//! every entry has the one value the workspace uses, and changing it is a
//! reviewed edit here. The token-level determinism rules live in
//! `clippy.toml` and the packages' `[lints.clippy]` tables.

use crate::flow::{Bind, Spec};

/// Match-arm outcomes in which the upload belongs to a peer or is already
/// gone, so the arm owes it nothing.
const UPLOAD_EXEMPT_ARMS: &[&str] = &[
    "Concluded",
    "NothingClaimable",
    "AlreadyConcluded",
    "Gone",
    "NoSuchUpload",
    "Busy",
];

/// Every acquire/release pair the flow walk enforces. A spec's index here
/// is its index in the call summaries; findings come out in this order.
pub const SPECS: &[Spec] = &[
    // Replication locks: the split-brain bug was a lock row acquired and
    // never unlocked on the losing path.
    Spec {
        rule: "protocol-resource-balance",
        kind: "replication lock",
        crates: &["areplica-core"],
        acquire: "try_lock_tx",
        bind: Bind::Reach,
        releases: &["unlock_tx"],
        handoffs: &[],
        exempt_arms: &["Busy"],
    },
    // Abort tombstones: the lost-abort bug was an abort marker written but
    // never concluded on one path.
    Spec {
        rule: "protocol-resource-balance",
        kind: "abort tombstone",
        crates: &["areplica-core"],
        acquire: "abort_tx",
        bind: Bind::Reach,
        releases: &["conclude_aborted"],
        handoffs: &[],
        exempt_arms: &["Gone"],
    },
    // Multipart uploads: the orphaned-rival-upload bug was a second
    // incarnation creating its own upload instead of adopting the pool
    // row's.
    Spec {
        rule: "protocol-resource-balance",
        kind: "multipart upload",
        crates: &["areplica-core"],
        acquire: "create_multipart",
        bind: Bind::CallbackParam(1),
        releases: &["complete_multipart", "abort_multipart_now"],
        handoffs: &["adopt_tx"],
        exempt_arms: UPLOAD_EXEMPT_ARMS,
    },
    Spec {
        rule: "protocol-resource-balance",
        kind: "adopted upload",
        crates: &["areplica-core"],
        acquire: "adopt_tx",
        bind: Bind::TransactCallbackParam(1),
        releases: &["complete_multipart", "abort_multipart_now"],
        handoffs: &[],
        exempt_arms: UPLOAD_EXEMPT_ARMS,
    },
    // Breaker probe tickets: `probe_open` moves a HalfOpen breaker's single
    // probe into flight; every path from it (including the denied-ticket
    // back-off) must reach `probe_resolve`, or the breaker is stuck
    // half-open and the catch-up log is never drained.
    Spec {
        rule: "protocol-resource-balance",
        kind: "breaker probe",
        crates: &["areplica-core"],
        acquire: "probe_open",
        bind: Bind::Reach,
        releases: &["probe_resolve"],
        handoffs: &[],
        exempt_arms: &[],
    },
    // Trace spans opened in the data plane must close on every exit path:
    // the static twin of simtrace's TASK-span parity oracle.
    Spec {
        rule: "span-balance",
        kind: "trace span",
        crates: &["areplica-core"],
        acquire: "span_begin",
        bind: Bind::Return,
        releases: &["span_end", "span_end_tagged"],
        handoffs: &[],
        exempt_arms: &[],
    },
];

/// Crates where `determinism-taint` applies: values derived from the
/// wall-clock escape hatches must not flow into sim state, KV writes or
/// results emission.
pub const TAINT_CRATES: &[&str] = &[
    "areplica-core",
    "areplica-control",
    "cloudsim",
    "simkernel",
    "baselines",
    "bench",
];

/// Identifiers whose values are wall-clock tainted: `bench::WallTimer`, the
/// one escape hatch, and the `Instant` it wraps under the workspace's only
/// `#[expect]` of clippy's wall-clock ban. `SystemTime` has no such
/// exception, so no code can name it.
pub const TAINT_SOURCES: &[&str] = &["WallTimer", "Instant", "elapsed_secs"];

/// Functions a tainted value must not reach: the simulator's schedule,
/// the cloud writes, and every results and observability emit path (their
/// artifacts are byte-compared across runs).
pub const TAINT_SINKS: &[&str] = &[
    "schedule_in",
    "schedule_at",
    "db_transact",
    "put_object",
    "user_put",
    "upload_part",
    "create_multipart",
    "complete_multipart",
    "invoke",
    "invoke_after",
    "write_report",
    "write_dash",
    "observe",
    "flight_dump",
];
