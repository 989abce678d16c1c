//! The variability-tolerant replication engine (§5.1).
//!
//! Two execution paths:
//!
//! * **Streamed** (single replicator, possibly the orchestrator itself):
//!   chunks are replicated sequentially — ranged GET then multipart
//!   `upload_part` (or a direct PUT for single-chunk objects). Matches the
//!   model's `T_transfer = S + Σ C`.
//! * **Distributed** (Algorithm 1): the orchestrator creates a *part pool*
//!   in the cloud database and invokes `n` replicators; each replicator
//!   autonomously claims parts whenever it becomes free, so fast instances
//!   naturally process more parts than slow ones. Two database accesses per
//!   part (claim + status update), exactly as the paper counts.
//!
//!   Claimed parts carry a lease timestamp: if a replicator dies
//!   mid-part, the platform's auto-retry re-runs it and stale leases are
//!   re-claimed, so crashes cannot strand a task.
//!
//! Optimistic validation (§5.2): every source GET carries `If-Match` with
//! the version the orchestrator planned; any mismatch aborts the task, and
//! the caller re-triggers replication of the newest version.
//!
//! The ablation mode [`SchedulingMode::FairDispatch`] assigns each replicator
//! a fixed equal share instead (Figure 12/17's comparison baseline).
//!
//! All cloud operations go through the [`crate::backend`] traits; the engine
//! is generic over any [`Backend`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cloudapi::clouddb::{Item, Value};
use cloudapi::faas::{FnHandle, RetryPolicy};
use cloudapi::objstore::{ETag, StoreError};
use cloudapi::RegionId;
use simkernel::{SimDuration, SimTime};
use simtrace::{names, SpanId};

use crate::backend::{Backend, Exec, FnBody};
use crate::config::{EngineConfig, SchedulingMode};
use crate::model::ExecSide;
use crate::planner::Plan;
use crate::tenant::TenantCtx;

/// The DB table holding distributed-task state (part pools).
pub const TASK_TABLE: &str = "areplica_tasks";

/// Minimum execution-time headroom a replicator requires before claiming
/// another part; below this it exits and lets peers (or its own platform
/// retry) finish the task.
pub const CLAIM_HEADROOM: SimDuration = SimDuration::from_secs(20);

/// How long a claimed part stays reserved before peers may re-claim it.
pub const PART_LEASE: SimDuration = SimDuration::from_secs(60);

/// How often the watchdog inspects a distributed task.
pub const WATCHDOG_INTERVAL: SimDuration = SimDuration::from_secs(90);

/// Maximum watchdog inspections of one task before giving up (bounds
/// runaway tasks).
pub const WATCHDOG_MAX_CHECKS: u32 = 40;

/// How long an aborted task's tombstone outlives the abort before the
/// janitor deletes it. Comfortably beyond any straggler replicator's
/// lifetime (the longest per-cloud function timeout is 1800 s, plus retry
/// backoffs), so every late claim still observes the terminal state before
/// the row disappears.
pub const ABORTED_POOL_TTL: SimDuration = SimDuration::from_secs(3 * 1800);

/// What the engine is asked to replicate.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Source region.
    pub src_region: RegionId,
    /// Source bucket.
    pub src_bucket: String,
    /// Destination region.
    pub dst_region: RegionId,
    /// Destination bucket.
    pub dst_bucket: String,
    /// Object key.
    pub key: String,
    /// The version to replicate.
    pub etag: ETag,
    /// Its write sequence number.
    pub seq: u64,
    /// Its size in bytes.
    pub size: u64,
    /// When the source PUT completed (delay measurement origin).
    pub event_time: SimTime,
}

impl TaskSpec {
    /// Unique task identity (object key + version sequence).
    pub fn task_id(&self) -> String {
        format!("{}#{}", self.key, self.seq)
    }
}

/// Terminal status of a replication task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The version was replicated and is retrievable at the destination.
    Replicated {
        /// ETag of the replicated content.
        etag: ETag,
    },
    /// Validation found a different current version; the task aborted.
    AbortedEtagMismatch {
        /// The source's current ETag, when known.
        current: Option<ETag>,
    },
    /// The source object disappeared before replication.
    SourceGone,
}

impl TaskStatus {
    /// The status's tag in trace spans and counters.
    pub fn tag(self) -> &'static str {
        match self {
            TaskStatus::Replicated { .. } => "replicated",
            TaskStatus::AbortedEtagMismatch { .. } => "aborted_etag_mismatch",
            TaskStatus::SourceGone => "source_gone",
        }
    }
}

/// Per-replicator-instance record (Figure 17's distributions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicatorStat {
    /// When the replicator body began executing.
    pub started: SimTime,
    /// When it exited.
    pub finished: SimTime,
    /// Number of parts it replicated.
    pub chunks: u32,
}

/// The outcome handed to the completion callback.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Terminal status.
    pub status: TaskStatus,
    /// When the terminal state was reached.
    pub completed_at: SimTime,
    /// Replicator functions used (0 when handled locally).
    pub n_funcs: u32,
    /// Where the functions ran.
    pub side: ExecSide,
    /// Whether the orchestrator replicated the object itself.
    pub local: bool,
    /// Live handle to per-replicator stats (replicators still draining after
    /// completion keep appending their records).
    pub replicator_stats: Rc<RefCell<Vec<ReplicatorStat>>>,
}

/// Completion callback.
pub type OnDone<B> = Rc<dyn Fn(&mut B, TaskOutcome)>;

struct TaskCtx<B: Backend> {
    task: TaskSpec,
    cfg: EngineConfig,
    plan: Plan,
    exec_region: RegionId,
    on_done: OnDone<B>,
    done: Cell<bool>,
    stats: Rc<RefCell<Vec<ReplicatorStat>>>,
    span: SpanId,
}

impl<B: Backend> TaskCtx<B> {
    fn finish_once(&self, sim: &mut B, status: TaskStatus) {
        if self.done.replace(true) {
            return;
        }
        if sim.tracer().enabled() {
            let now = sim.now();
            let tags = vec![("status", status.tag().to_string())];
            sim.tracer().span_end_tagged(now, self.span, tags);
        }
        let outcome = TaskOutcome {
            status,
            completed_at: sim.now(),
            n_funcs: if self.plan.local { 0 } else { self.plan.n },
            side: self.plan.side,
            local: self.plan.local,
            replicator_stats: self.stats.clone(),
        };
        (self.on_done)(sim, outcome);
    }
}

/// Records the already-sampled storage-client setup latency as a phase-`S`
/// span (the sample itself is drawn whether or not tracing is on).
fn trace_setup<B: Backend>(sim: &mut B, setup: SimDuration, cloud: cloudapi::Cloud) {
    if sim.tracer().enabled() {
        let now = sim.now();
        let tags = vec![("cloud", format!("{cloud:?}"))];
        sim.tracer()
            .span_complete(now, setup, names::TRANSFER_SETUP, tags);
    }
}

/// Executes a plan for a task.
///
/// `orch` is the orchestrator's own function handle when the engine is called
/// from inside an orchestrator invocation; local plans replicate through it,
/// and the engine finishes its invocation once the orchestrator's own work is
/// done (after the local transfer, or once remote replicators are
/// dispatched). Without a handle (tests, baselines), local plans run on a
/// platform executor at the source.
pub fn execute<B: Backend>(
    sim: &mut B,
    cfg: EngineConfig,
    task: TaskSpec,
    plan: Plan,
    orch: Option<FnHandle>,
    on_done: OnDone<B>,
) {
    execute_for(
        sim,
        TenantCtx::default_tenant(),
        cfg,
        task,
        plan,
        orch,
        on_done,
    );
}

/// [`execute`] on behalf of a specific tenant: the backend's ambient tenant
/// scope is established for the task (attributing FaaS concurrency, cost,
/// and per-tenant RNG streams). With the default tenant this is exactly
/// [`execute`].
pub fn execute_for<B: Backend>(
    sim: &mut B,
    tenant: TenantCtx,
    cfg: EngineConfig,
    task: TaskSpec,
    plan: Plan,
    orch: Option<FnHandle>,
    on_done: OnDone<B>,
) {
    if !tenant.is_default() {
        sim.set_tenant_scope(tenant.tenant_id());
    }
    let exec_region = plan.side.region(task.src_region, task.dst_region);
    let span = if sim.tracer().enabled() {
        let now = sim.now();
        let mut tags = vec![
            ("key", task.key.clone()),
            ("n", plan.n.to_string()),
            ("side", format!("{:?}", plan.side)),
            ("local", plan.local.to_string()),
        ];
        if let Some(id) = tenant.id() {
            tags.push(("tenant", id.to_string()));
        }
        sim.tracer().span_begin(now, names::ENGINE_EXECUTE, tags)
    } else {
        SpanId::NULL
    };
    let ctx = Rc::new(TaskCtx {
        task,
        cfg,
        plan,
        exec_region,
        on_done,
        done: Cell::new(false),
        stats: Rc::new(RefCell::new(Vec::new())),
        span,
    });

    if plan.local {
        let exec = match orch {
            Some(h) => Exec::Function(h),
            None => Exec::Platform {
                region: ctx.task.src_region,
                mbps: 600.0,
            },
        };
        // The orchestrator already paid its own startup; it still needs the
        // storage-client setup before moving bytes.
        let src_cloud = sim.cloud_of(ctx.task.src_region);
        let setup = sim.sample_transfer_setup(src_cloud);
        trace_setup(sim, setup, src_cloud);
        sim.schedule_in(setup, move |sim| {
            // The orchestrator is released once its own transfer loop exits.
            let exit = orch.map(|h| -> StreamExit<B> {
                Box::new(move |sim: &mut B, _chunks| sim.finish_function(h))
            });
            replicate_streamed(sim, exec, ctx, exit);
        });
        return;
    }

    if plan.n <= 1 {
        invoke_single_replicator(sim, ctx);
        if let Some(h) = orch {
            sim.finish_function(h);
        }
    } else {
        start_distributed(sim, ctx, orch);
    }
}

/// Remote single-replicator path: one function runs the streamed loop.
fn invoke_single_replicator<B: Backend>(sim: &mut B, ctx: Rc<TaskCtx<B>>) {
    let region = ctx.exec_region;
    let spec = sim.default_fn_spec(region);
    let body: FnBody<B> = Rc::new(move |sim, handle| {
        let ctx = ctx.clone();
        let started = sim.now();
        let cloud = sim.cloud_of(handle.region);
        let setup = sim.sample_transfer_setup(cloud);
        trace_setup(sim, setup, cloud);
        sim.schedule_in(setup, move |sim| {
            let done_stats = ctx.stats.clone();
            let ctx2 = ctx.clone();
            replicate_streamed(
                sim,
                Exec::Function(handle),
                ctx2,
                Some(Box::new(move |sim: &mut B, chunks: u32| {
                    done_stats.borrow_mut().push(ReplicatorStat {
                        started,
                        finished: sim.now(),
                        chunks,
                    });
                    sim.finish_function(handle);
                })),
            );
        });
    });
    sim.invoke(region, spec, body, RetryPolicy::PLATFORM_DEFAULT);
}

type StreamExit<B> = Box<dyn FnOnce(&mut B, u32)>;

/// Streamed replication: sequential chunk loop, multipart when multi-chunk.
///
/// `exit` runs when the loop ends (for function-hosted replicas: record stats
/// and `finish`).
fn replicate_streamed<B: Backend>(
    sim: &mut B,
    exec: Exec,
    ctx: Rc<TaskCtx<B>>,
    exit: Option<StreamExit<B>>,
) {
    let num_parts = ctx.cfg.num_parts(ctx.task.size);
    if num_parts == 1 {
        stream_single_chunk(sim, exec, ctx, exit);
    } else {
        // Multi-chunk: open a multipart upload first.
        let ctx2 = ctx.clone();
        sim.create_multipart(
            exec,
            ctx.task.dst_region,
            ctx.task.dst_bucket.clone(),
            ctx.task.key.clone(),
            move |sim, upload| {
                #[expect(
                    clippy::expect_used,
                    reason = "destination buckets are created at install time and never deleted mid-simulation"
                )]
                let upload_id = upload.expect("destination bucket must exist");
                stream_chunk_loop(sim, exec, ctx2, upload_id, 0, num_parts, exit);
            },
        );
    }
}

fn stream_single_chunk<B: Backend>(
    sim: &mut B,
    exec: Exec,
    ctx: Rc<TaskCtx<B>>,
    exit: Option<StreamExit<B>>,
) {
    let ctx2 = ctx.clone();
    sim.get_object_range(
        exec,
        ctx.task.src_region,
        ctx.task.src_bucket.clone(),
        ctx.task.key.clone(),
        0,
        ctx.task.size,
        Some(ctx.task.etag),
        move |sim, got| match got {
            Ok((content, read_etag)) => {
                let ctx3 = ctx2.clone();
                sim.put_object(
                    exec,
                    ctx2.task.dst_region,
                    ctx2.task.dst_bucket.clone(),
                    ctx2.task.key.clone(),
                    content,
                    move |sim, put| {
                        #[expect(
                            clippy::expect_used,
                            reason = "destination buckets are created at install time and never deleted mid-simulation"
                        )]
                        put.expect("destination bucket must exist");
                        ctx3.finish_once(sim, TaskStatus::Replicated { etag: read_etag });
                        if let Some(exit) = exit {
                            exit(sim, 1);
                        }
                    },
                );
            }
            Err(e) => {
                abort_from_error(sim, &ctx2, e);
                if let Some(exit) = exit {
                    exit(sim, 0);
                }
            }
        },
    );
}

fn stream_chunk_loop<B: Backend>(
    sim: &mut B,
    exec: Exec,
    ctx: Rc<TaskCtx<B>>,
    upload_id: u64,
    chunk: u32,
    num_parts: u32,
    exit: Option<StreamExit<B>>,
) {
    if chunk >= num_parts {
        let ctx2 = ctx.clone();
        sim.complete_multipart(exec, ctx.task.dst_region, upload_id, move |sim, done| {
            #[expect(
                clippy::expect_used,
                reason = "sequential streaming is the sole completer of this upload and never races a peer"
            )]
            let applied = done.expect("multipart completion");
            ctx2.finish_once(sim, TaskStatus::Replicated { etag: applied.etag });
            if let Some(exit) = exit {
                exit(sim, num_parts);
            }
        });
        return;
    }
    let offset = chunk as u64 * ctx.cfg.part_size;
    let len = ctx.cfg.part_size.min(ctx.task.size - offset);
    let ctx2 = ctx.clone();
    sim.get_object_range(
        exec,
        ctx.task.src_region,
        ctx.task.src_bucket.clone(),
        ctx.task.key.clone(),
        offset,
        len,
        Some(ctx.task.etag),
        move |sim, got| match got {
            Ok((content, _etag)) => {
                let ctx3 = ctx2.clone();
                sim.upload_part(
                    exec,
                    ctx2.task.dst_region,
                    upload_id,
                    chunk + 1,
                    content,
                    move |sim, up| {
                        #[expect(
                            clippy::expect_used,
                            reason = "the streaming uploader owns this upload id; nobody aborts it concurrently"
                        )]
                        up.expect("upload part");
                        stream_chunk_loop(sim, exec, ctx3, upload_id, chunk + 1, num_parts, exit);
                    },
                );
            }
            Err(e) => {
                // The streaming uploader solely owns this upload; drop it so
                // the destination holds no orphaned parts after an abort.
                sim.abort_multipart_now(ctx2.task.dst_region, upload_id)
                    .ok();
                abort_from_error(sim, &ctx2, e);
                if let Some(exit) = exit {
                    exit(sim, chunk);
                }
            }
        },
    );
}

fn abort_from_error<B: Backend>(sim: &mut B, ctx: &Rc<TaskCtx<B>>, e: StoreError) {
    let status = match e {
        StoreError::PreconditionFailed { current } => TaskStatus::AbortedEtagMismatch {
            current: Some(current),
        },
        StoreError::NoSuchKey => TaskStatus::SourceGone,
        other => panic!("unexpected storage error during replication: {other}"),
    };
    trace_abort(sim, ctx, status);
    ctx.finish_once(sim, status);
}

/// Records an [`names::ENGINE_ABORT`] instant for a task that hit a
/// validation failure or a vanished source.
fn trace_abort<B: Backend>(sim: &mut B, ctx: &Rc<TaskCtx<B>>, status: TaskStatus) {
    sim.tracer().counter_add("engine.aborts", 1);
    if sim.tracer().enabled() {
        let now = sim.now();
        let reason = match status {
            TaskStatus::AbortedEtagMismatch { .. } => "etag_mismatch",
            TaskStatus::SourceGone => "source_gone",
            TaskStatus::Replicated { .. } => "replicated",
        };
        let tags = vec![
            ("key", ctx.task.key.clone()),
            ("reason", reason.to_string()),
        ];
        sim.tracer().instant(now, names::ENGINE_ABORT, tags);
    }
}

// ---------------------------------------------------------------------------
// Distributed replication (Algorithm 1).
// ---------------------------------------------------------------------------

/// Outcome of one part-claim transaction.
enum ClaimResult {
    /// A part to replicate.
    Claim(u32),
    /// The pool is drained and nothing is re-claimable right now (peers
    /// hold live leases or another replicator is concluding). The replicator
    /// exits; the platform-side watchdog rescues genuinely stalled tasks
    /// after lease expiry.
    NothingClaimable,
    /// The pool item is gone: a peer (possibly of another live incarnation
    /// of the same task) already concluded the replication.
    Concluded,
    /// All parts are uploaded: the observer should (re-)attempt the
    /// multipart completion. Covers the crash-of-the-last-completer case —
    /// a duplicate completion attempt finds the upload consumed and is a
    /// no-op.
    AllPartsDone,
    /// The task was aborted by a peer; carries the terminal status the
    /// first aborter recorded in the pool, so the observer can (re-)run the
    /// idempotent abort conclusion if the aborter crashed before finishing
    /// it.
    Aborted(TaskStatus),
}

/// `abort_reason` codes recorded in the pool tombstone.
const ABORT_REASON_ETAG_MISMATCH: u64 = 0;
const ABORT_REASON_SOURCE_GONE: u64 = 1;

/// Reconstructs the first aborter's terminal status from the pool tombstone.
fn recorded_abort_status(item: &Item) -> TaskStatus {
    match item.get("abort_reason").and_then(Value::as_uint) {
        Some(ABORT_REASON_SOURCE_GONE) => TaskStatus::SourceGone,
        _ => TaskStatus::AbortedEtagMismatch {
            current: item.get("abort_current").and_then(Value::as_uint).map(ETag),
        },
    }
}

fn pool_item(num_parts: u32, scheduling: SchedulingMode, upload_id: u64) -> Item {
    let mut item = Item::new();
    // Fair dispatch assigns parts statically at invocation, so the shared
    // pending pool stays empty; only the completion set is shared.
    let pending = match scheduling {
        SchedulingMode::PartGranularity => (0..num_parts)
            .rev()
            .map(|p| Value::Uint(p as u64))
            .collect(),
        SchedulingMode::FairDispatch => vec![],
    };
    // The destination multipart upload every replicator of this task must
    // target. Recording it in the pool makes task creation idempotent: a
    // second live incarnation for the same version (the lock is re-entrant
    // by version) adopts this upload instead of opening a rival one whose
    // partial part set could later be completed over the good replica.
    item.insert("upload".into(), Value::Uint(upload_id));
    item.insert("pending".into(), Value::List(pending));
    item.insert("inflight_parts".into(), Value::List(vec![]));
    item.insert("inflight_times".into(), Value::List(vec![]));
    // Completion is tracked as a *set* of done part numbers, not a counter:
    // a slow-but-alive lease holder whose part was re-claimed (and completed)
    // by a rescuer must not double-count on its own late completion, or the
    // task could conclude with another part still missing.
    item.insert("done".into(), Value::List(vec![]));
    item.insert("num_parts".into(), Value::Uint(num_parts as u64));
    item.insert("aborted".into(), Value::Bool(false));
    item
}

/// Unwraps a pool-item schema access. Pool items are created exclusively by
/// [`pool_item`] / the transactions below with a fixed key/type layout, so a
/// shape miss is a bug in this module, never a recoverable runtime condition.
fn shape<T>(v: Option<T>) -> T {
    #[expect(
        clippy::expect_used,
        reason = "pool items are created by this module with a fixed schema; a shape miss is a bug, not a recoverable error"
    )]
    v.expect("pool shape")
}

fn claim_tx(now: SimTime, lease: SimDuration) -> impl FnOnce(&mut Option<Item>) -> ClaimResult {
    move |slot| {
        let Some(item) = slot.as_mut() else {
            // Pool already cleaned up: task finished.
            return ClaimResult::Concluded;
        };
        if item.get("aborted").and_then(Value::as_bool) == Some(true) {
            return ClaimResult::Aborted(recorded_abort_status(item));
        }
        // Fast path: pop the pending list.
        if let Some(Value::Uint(part)) = item
            .get_mut("pending")
            .and_then(Value::as_list_mut)
            .and_then(Vec::pop)
        {
            let t = now.as_nanos();
            shape(item.get_mut("inflight_parts").and_then(Value::as_list_mut))
                .push(Value::Uint(part));
            shape(item.get_mut("inflight_times").and_then(Value::as_list_mut)).push(Value::Uint(t));
            return ClaimResult::Claim(part as u32);
        }
        // Slow path: re-claim a stale lease (peer likely crashed).
        let lease_ns = lease.as_nanos();
        let times = shape(item.get("inflight_times").and_then(Value::as_list)).clone();
        for (idx, t) in times.iter().enumerate() {
            let t = shape(t.as_uint());
            if now.as_nanos().saturating_sub(t) > lease_ns {
                let part = shape(
                    shape(item.get("inflight_parts").and_then(Value::as_list))[idx].as_uint(),
                ) as u32;
                shape(item.get_mut("inflight_times").and_then(Value::as_list_mut))[idx] =
                    Value::Uint(now.as_nanos());
                return ClaimResult::Claim(part);
            }
        }
        // Nothing pending and nothing stale: if every part is already
        // uploaded, the observer should attempt the (idempotent) completion
        // in case the original completer died first. Otherwise peers hold
        // live leases — the watchdog rescues genuinely stalled tasks.
        let completed = item
            .get("done")
            .and_then(Value::as_list)
            .map_or(0, |d| d.len() as u64);
        let num_parts = shape(item.get("num_parts").and_then(Value::as_uint));
        if completed >= num_parts {
            ClaimResult::AllPartsDone
        } else {
            ClaimResult::NothingClaimable
        }
    }
}

/// Outcome of a part-completion transaction.
enum CompleteResult {
    /// `(done_count, num_parts)` after (idempotently) recording the part.
    Progress(u64, u64),
    /// The pool no longer exists: a peer already concluded the task (the
    /// completer was a slow lease holder whose part a rescuer duplicated).
    AlreadyConcluded,
}

/// Idempotently marks a part done; duplicate completions of the same part
/// (lease re-claims) do not advance the count.
fn complete_tx(part: u32) -> impl FnOnce(&mut Option<Item>) -> CompleteResult {
    move |slot| {
        let Some(item) = slot.as_mut() else {
            return CompleteResult::AlreadyConcluded;
        };
        // Drop the in-flight entry (if still present).
        let idx = shape(item.get("inflight_parts").and_then(Value::as_list))
            .iter()
            .position(|v| v.as_uint() == Some(part as u64));
        if let Some(idx) = idx {
            shape(item.get_mut("inflight_parts").and_then(Value::as_list_mut)).remove(idx);
            shape(item.get_mut("inflight_times").and_then(Value::as_list_mut)).remove(idx);
        }
        let done = shape(item.get_mut("done").and_then(Value::as_list_mut));
        if !done.iter().any(|v| v.as_uint() == Some(part as u64)) {
            done.push(Value::Uint(part as u64));
        }
        let count = done.len() as u64;
        let num_parts = shape(item.get("num_parts").and_then(Value::as_uint));
        CompleteResult::Progress(count, num_parts)
    }
}

/// Outcome of an abort transaction.
enum AbortOutcome {
    /// This caller is the first aborter: it owns upload teardown, the
    /// context's terminal status, and the tombstone cleanup.
    First,
    /// A peer already aborted; carries the status it recorded so this
    /// caller can (re-)run the idempotent conclusion in case the first
    /// aborter crashed before finishing it.
    Repeat(TaskStatus),
    /// The pool is gone: a peer already concluded the task successfully and
    /// cleaned up. The abort is moot.
    Gone,
}

/// Marks the task aborted and records why.
///
/// Found by simcheck (see EXPERIMENTS.md): the previous version of this
/// transaction did `slot.get_or_insert_with(Item::new)`, so an aborter that
/// raced a successful conclusion *resurrected* the deleted pool as a bare
/// `{aborted: true}` stub — a row in `areplica_tasks` nothing would ever
/// delete, and one that made any later incarnation of the task read a
/// successful replication as aborted. A gone pool now stays gone.
///
/// The first aborter records its terminal status in the tombstone
/// (`abort_reason` / `abort_current`) so that conclusion ownership is not
/// tied to its in-memory continuation: any later observer can reconstruct
/// the status and finish the teardown if the aborter crashed (see
/// [`conclude_aborted`]).
fn abort_tx(status: TaskStatus) -> impl FnOnce(&mut Option<Item>) -> AbortOutcome {
    move |slot| {
        let Some(item) = slot.as_mut() else {
            return AbortOutcome::Gone;
        };
        if item.get("aborted").and_then(Value::as_bool) == Some(true) {
            return AbortOutcome::Repeat(recorded_abort_status(item));
        }
        item.insert("aborted".into(), Value::Bool(true));
        let (reason, current) = match status {
            TaskStatus::SourceGone => (ABORT_REASON_SOURCE_GONE, None),
            TaskStatus::AbortedEtagMismatch { current } => (ABORT_REASON_ETAG_MISMATCH, current),
            // Aborts are only ever issued with an abort status.
            TaskStatus::Replicated { .. } => (ABORT_REASON_ETAG_MISMATCH, None),
        };
        item.insert("abort_reason".into(), Value::Uint(reason));
        if let Some(etag) = current {
            item.insert("abort_current".into(), Value::Uint(etag.0));
        }
        AbortOutcome::First
    }
}

/// Creates the part pool, or adopts the upload a live peer incarnation
/// already recorded for this version.
///
/// When the caller's freshly opened upload loses the race (a pool with a
/// different `upload` already exists), the losing id is appended to the
/// pool's `orphans` list *inside this transaction*. Found by simcheck (see
/// EXPERIMENTS.md): the losing upload used to be aborted only in the
/// adopter's transaction continuation, so a `PostTransactKill` right after
/// the adoption committed dropped the abort and the rival upload stayed
/// open at the destination forever. Recording it in the pool row hands
/// cleanup ownership to whoever deletes the row — the success-path pool
/// delete or the aborted-pool janitor, both platform-side and crash-free —
/// via [`recorded_orphans`].
fn adopt_tx(
    num_parts: u32,
    scheduling: SchedulingMode,
    upload_id: u64,
) -> impl FnOnce(&mut Option<Item>) -> u64 {
    move |slot| {
        let item = slot.get_or_insert_with(|| pool_item(num_parts, scheduling, upload_id));
        match item.get("upload").and_then(Value::as_uint) {
            Some(existing) => {
                if existing != upload_id {
                    shape(
                        item.entry("orphans".into())
                            .or_insert_with(|| Value::List(Vec::new()))
                            .as_list_mut(),
                    )
                    .push(Value::Uint(upload_id));
                }
                existing
            }
            None => {
                // An abort stub (an abort raced pool creation): record our
                // upload so yet another incarnation adopts it instead of
                // opening a third.
                item.insert("upload".into(), Value::Uint(upload_id));
                upload_id
            }
        }
    }
}

/// Upload ids recorded by losing adopters (see [`adopt_tx`]); whoever
/// deletes the pool row must abort them.
fn recorded_orphans(item: &Item) -> Vec<u64> {
    item.get("orphans")
        .and_then(Value::as_list)
        .map(|l| l.iter().filter_map(Value::as_uint).collect())
        .unwrap_or_default()
}

fn start_distributed<B: Backend>(sim: &mut B, ctx: Rc<TaskCtx<B>>, orch: Option<FnHandle>) {
    let prep_exec = match orch {
        Some(h) => Exec::Function(h),
        None => Exec::Platform {
            region: ctx.task.src_region,
            mbps: 600.0,
        },
    };
    let ctx2 = ctx.clone();
    // 1. Open the multipart upload at the destination.
    sim.create_multipart(
        prep_exec,
        ctx.task.dst_region,
        ctx.task.dst_bucket.clone(),
        ctx.task.key.clone(),
        move |sim, upload| {
            #[expect(
                clippy::expect_used,
                reason = "destination buckets are created at install time and never deleted mid-simulation"
            )]
            let upload_id = upload.expect("destination bucket must exist");
            // 2. Create the part pool in the cloud DB co-located with the
            //    replicators.
            let num_parts = ctx2.cfg.num_parts(ctx2.task.size);
            let scheduling = ctx2.cfg.scheduling;
            let db_region = ctx2.exec_region;
            let task_id = ctx2.task.task_id();
            let ctx3 = ctx2.clone();
            sim.db_transact(
                prep_exec,
                db_region,
                TASK_TABLE.into(),
                task_id,
                adopt_tx(num_parts, scheduling, upload_id),
                move |sim, adopted| {
                    // Testing backdoor (simcheck's seeded-in canary): behave
                    // as the engine did before the adoption fix — ignore the
                    // pool's recorded upload and work our own.
                    let adopted = if ctx3.cfg.unsafe_disable_upload_adoption {
                        upload_id
                    } else {
                        adopted
                    };
                    if adopted != upload_id {
                        // A live incarnation for this same version already
                        // owns the pool (the replication lock is re-entrant
                        // by version): work its upload and discard ours, so
                        // no rival upload with a partial part set can ever
                        // be completed at the destination. The prompt abort
                        // here is best-effort; `adopt_tx` already recorded
                        // the orphan in the pool, so the pool-row delete
                        // re-aborts it if this continuation is lost.
                        sim.tracer().counter_add("engine.upload_adopted", 1);
                        sim.abort_multipart_now(ctx3.task.dst_region, upload_id)
                            .ok();
                    }
                    // 3. Invoke the replicators, pipelined at I per call;
                    //    the orchestrator is then done. The watchdog
                    //    rescues crash-stalled pools.
                    invoke_replicators(sim, ctx3.clone(), adopted, num_parts);
                    if scheduling == SchedulingMode::PartGranularity {
                        watch(sim, ctx3, adopted, 0);
                    }
                    if let Some(h) = orch {
                        sim.finish_function(h);
                    }
                },
            );
        },
    );
}

fn invoke_replicators<B: Backend>(
    sim: &mut B,
    ctx: Rc<TaskCtx<B>>,
    upload_id: u64,
    num_parts: u32,
) {
    let region = ctx.exec_region;
    let spec = sim.default_fn_spec(region);
    let n = ctx.plan.n;
    let mut stagger = SimDuration::ZERO;
    for k in 0..n {
        stagger += sim.sample_invoke_latency(region);
        // Fair dispatch pre-computes each replicator's fixed share.
        let fair_parts: Option<Vec<u32>> = match ctx.cfg.scheduling {
            SchedulingMode::PartGranularity => None,
            SchedulingMode::FairDispatch => Some((0..num_parts).filter(|p| p % n == k).collect()),
        };
        let body = replicator_body(ctx.clone(), upload_id, fair_parts);
        sim.invoke_after(stagger, region, spec, body, RetryPolicy::PLATFORM_DEFAULT);
    }
}

/// What one replicator invocation carries from part to part. The upload id
/// stays a parameter of every step, outside this struct, so that xlint's
/// flow walk keeps following it to `complete_multipart` or an abort.
struct Replicator<B: Backend> {
    handle: FnHandle,
    ctx: Rc<TaskCtx<B>>,
    /// When the replicator body began executing.
    started: SimTime,
    /// Parts this replicator has replicated.
    chunks: Cell<u32>,
    /// Fair dispatch only: the replicator's fixed share of parts and the
    /// index of the next one.
    fair: Option<(Vec<u32>, Cell<usize>)>,
}

/// The body of one replicator invocation: sample and trace the storage
/// client's setup, then replicate parts, claimed from the pool or taken from
/// the fair-dispatch share `fair`.
fn replicator_body<B: Backend>(
    ctx: Rc<TaskCtx<B>>,
    upload_id: u64,
    fair: Option<Vec<u32>>,
) -> FnBody<B> {
    Rc::new(move |sim, handle| {
        let ctx = ctx.clone();
        let fair = fair.clone().map(|parts| (parts, Cell::new(0)));
        let started = sim.now();
        let cloud = sim.cloud_of(handle.region);
        let setup = sim.sample_transfer_setup(cloud);
        trace_setup(sim, setup, cloud);
        sim.schedule_in(setup, move |sim| {
            let r = Rc::new(Replicator {
                handle,
                ctx,
                started,
                chunks: Cell::new(0),
                fair,
            });
            next_part(sim, r, upload_id);
        });
    })
}

fn record_and_finish<B: Backend>(sim: &mut B, r: &Replicator<B>) {
    let finished = sim.now();
    let chunks = r.chunks.get();
    r.ctx.stats.borrow_mut().push(ReplicatorStat {
        started: r.started,
        finished,
        chunks,
    });
    if sim.tracer().enabled() {
        let tags = vec![
            ("key", r.ctx.task.key.clone()),
            ("chunks", chunks.to_string()),
        ];
        sim.tracer().span_complete(
            r.started,
            finished.saturating_since(r.started),
            names::ENGINE_REPLICATOR,
            tags,
        );
    }
    sim.finish_function(r.handle);
}

/// Replicates the replicator's next part: the next claim from the pool, or
/// the next part of its fair-dispatch share (the ablation baseline).
fn next_part<B: Backend>(sim: &mut B, r: Rc<Replicator<B>>, upload_id: u64) {
    let Some((parts, next)) = &r.fair else {
        claim_loop(sim, r, upload_id);
        return;
    };
    let Some(&part) = parts.get(next.get()) else {
        record_and_finish(sim, &r);
        // xlint::allow(protocol-resource-balance, this replicator's fixed share is exhausted; the last peer to upload concludes via conclude_distributed, so the upload outlives any single replicator by design)
        return;
    };
    next.set(next.get() + 1);
    replicate_part(sim, r, upload_id, part);
}

/// The decentralized claim loop (Algorithm 1, REPLICATOR).
fn claim_loop<B: Backend>(sim: &mut B, r: Rc<Replicator<B>>, upload_id: u64) {
    // Stop claiming when the execution limit looms: a platform retry (or a
    // peer, via the lease) takes over.
    let now = sim.now();
    match sim.remaining_exec_time(r.handle) {
        Some(remaining) if remaining > CLAIM_HEADROOM => {}
        _ => {
            record_and_finish(sim, &r);
            // xlint::allow(protocol-resource-balance, out of exec headroom: the part lease hands outstanding work to a peer or a platform retry, and the watchdog re-aborts any orphaned upload)
            return;
        }
    }
    let db_region = r.ctx.exec_region;
    let task_id = r.ctx.task.task_id();
    sim.db_transact(
        Exec::Function(r.handle),
        db_region,
        TASK_TABLE.into(),
        task_id,
        claim_tx(now, PART_LEASE),
        move |sim, claim| match claim {
            ClaimResult::Claim(part) => {
                sim.tracer().counter_add("engine.claims", 1);
                if sim.tracer().enabled() {
                    let now = sim.now();
                    let tags = vec![("part", part.to_string())];
                    sim.tracer().instant(now, names::ENGINE_CLAIM, tags);
                }
                replicate_part(sim, r, upload_id, part)
            }
            ClaimResult::AllPartsDone => conclude_distributed(sim, r, upload_id),
            ClaimResult::Concluded => finish_concluded(sim, &r),
            ClaimResult::NothingClaimable => record_and_finish(sim, &r),
            ClaimResult::Aborted(recorded) => {
                // Re-run the idempotent abort conclusion before retiring:
                // if the first aborter crashed right after its transaction
                // committed, this observer (a peer, a platform retry, or a
                // watchdog rescuer) owns the teardown it left behind.
                conclude_aborted(sim, &r.ctx, upload_id, recorded);
                record_and_finish(sim, &r);
            }
        },
    );
}

/// A replicator found the pool gone: a peer — possibly of another live
/// incarnation of this task (the replication lock is re-entrant by version) —
/// already concluded. Surface the idempotent completion on this incarnation's
/// context too, so its task span closes and the service releases the lock,
/// then retire the replicator. `finish_once` makes the duplicate harmless for
/// an incarnation whose own concluder already reported.
fn finish_concluded<B: Backend>(sim: &mut B, r: &Replicator<B>) {
    let etag = r.ctx.task.etag;
    r.ctx.finish_once(sim, TaskStatus::Replicated { etag });
    record_and_finish(sim, r);
}

/// Downloads and uploads one part, updates the pool, and concludes the task
/// when the last part lands (Algorithm 1 lines 10–13).
fn replicate_part<B: Backend>(sim: &mut B, r: Rc<Replicator<B>>, upload_id: u64, part: u32) {
    let task = &r.ctx.task;
    let part_size = r.ctx.cfg.part_size;
    let offset = part as u64 * part_size;
    let len = part_size.min(task.size - offset);
    let exec = Exec::Function(r.handle);
    sim.get_object_range(
        exec,
        task.src_region,
        task.src_bucket.clone(),
        task.key.clone(),
        offset,
        len,
        Some(task.etag),
        move |sim, got| match got {
            Ok((content, _etag)) => {
                sim.upload_part(
                    exec,
                    r.ctx.task.dst_region,
                    upload_id,
                    part + 1,
                    content,
                    move |sim, up| {
                        if matches!(up, Err(StoreError::NoSuchUpload)) {
                            // The upload vanished mid-part: a peer concluded
                            // the task, or an aborter discarded the upload.
                            // The claim loop reads the pool's terminal state
                            // and retires this replicator accordingly.
                            claim_loop(sim, r, upload_id);
                            return;
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "NoSuchUpload is handled above; any other part failure is a simulator bug"
                        )]
                        up.expect("upload part");
                        let db_region = r.ctx.exec_region;
                        let task_id = r.ctx.task.task_id();
                        sim.db_transact(
                            exec,
                            db_region,
                            TASK_TABLE.into(),
                            task_id,
                            complete_tx(part),
                            move |sim, outcome| match outcome {
                                CompleteResult::Progress(completed, num_parts) => {
                                    r.chunks.set(r.chunks.get() + 1);
                                    if completed == num_parts {
                                        conclude_distributed(sim, r, upload_id);
                                    } else {
                                        next_part(sim, r, upload_id);
                                    }
                                }
                                CompleteResult::AlreadyConcluded => finish_concluded(sim, &r),
                            },
                        );
                    },
                );
            }
            Err(e) => handle_part_error(sim, r, upload_id, e),
        },
    );
}

/// The replicator that delivers the last part completes the multipart upload
/// and concludes the task.
fn conclude_distributed<B: Backend>(sim: &mut B, r: Rc<Replicator<B>>, upload_id: u64) {
    let exec = Exec::Function(r.handle);
    let dst_region = r.ctx.task.dst_region;
    sim.complete_multipart(exec, dst_region, upload_id, move |sim, done| {
        match done {
            Ok(applied) => {
                let ctx = &r.ctx;
                ctx.finish_once(sim, TaskStatus::Replicated { etag: applied.etag });
                // Clean up the pool so stragglers and the watchdog see
                // a terminal state. Deleting the row also assumes cleanup
                // ownership of any orphan uploads losing adopters recorded
                // (their own prompt aborts may have died with them).
                let db_region = ctx.exec_region;
                let exec_p = Exec::Platform {
                    region: db_region,
                    mbps: 1000.0,
                };
                sim.db_transact(
                    exec_p,
                    db_region,
                    TASK_TABLE.into(),
                    ctx.task.task_id(),
                    |slot| {
                        let orphans = slot.as_ref().map(recorded_orphans).unwrap_or_default();
                        *slot = None;
                        orphans
                    },
                    move |sim, orphans| {
                        for orphan in orphans {
                            sim.abort_multipart_now(dst_region, orphan).ok();
                        }
                    },
                );
            }
            // The upload is gone: either a peer (possibly of another live
            // incarnation) completed it, or an aborter discarded it. The
            // pool state distinguishes the two — re-enter the claim loop,
            // which maps pool-gone to `Concluded` and aborted to `Aborted`.
            Err(StoreError::NoSuchUpload) => {
                claim_loop(sim, r, upload_id);
                return;
            }
            Err(e) => panic!("unexpected multipart completion error: {e}"),
        }
        record_and_finish(sim, &r);
    });
}

fn handle_part_error<B: Backend>(sim: &mut B, r: Rc<Replicator<B>>, upload_id: u64, e: StoreError) {
    let status = match e {
        StoreError::PreconditionFailed { current } => TaskStatus::AbortedEtagMismatch {
            current: Some(current),
        },
        StoreError::NoSuchKey => TaskStatus::SourceGone,
        other => panic!("unexpected storage error during part replication: {other}"),
    };
    trace_abort(sim, &r.ctx, status);
    let db_region = r.ctx.exec_region;
    let task_id = r.ctx.task.task_id();
    sim.db_transact(
        Exec::Function(r.handle),
        db_region,
        TASK_TABLE.into(),
        task_id,
        abort_tx(status),
        move |sim, outcome| {
            match outcome {
                AbortOutcome::First => {
                    conclude_aborted(sim, &r.ctx, upload_id, status);
                }
                AbortOutcome::Repeat(recorded) => {
                    // Normally a no-op (the first aborter concluded and set
                    // the context done); if the first aborter crashed after
                    // its transaction committed, this observer finishes the
                    // teardown it left behind.
                    conclude_aborted(sim, &r.ctx, upload_id, recorded);
                }
                AbortOutcome::Gone => {
                    // A peer concluded the task successfully before this
                    // abort landed; surface the completion on this context
                    // and retire.
                    finish_concluded(sim, &r);
                    return;
                }
            }
            record_and_finish(sim, &r);
        },
    );
}

/// Idempotent abort conclusion: discard the destination upload, report the
/// terminal status on this task context (which releases the replication
/// lock and hands off any pending version), and schedule the tombstone
/// janitor.
///
/// Found by simcheck (see EXPERIMENTS.md): this sequence used to run only
/// in the first aborter's transaction continuation. A `PostTransactKill`
/// of that incarnation right after `abort_tx` committed dropped the
/// continuation, and every later observer — the platform retry, peers, the
/// watchdog — treated the `aborted` tombstone as "someone else is
/// concluding" and retired. The task then stalled forever: lock held,
/// destination upload open, pending overwrite never replicated. Conclusion
/// is now a function of the *recorded* pool state that any observer
/// re-runs; the `done` guard plus idempotent teardown make duplicates
/// harmless.
///
/// Discarding the upload also protects correctness: without it, a straggler
/// peer observing a full `done` set could still complete a stale upload
/// over whatever the retriggered task writes. Peers with part uploads (or a
/// completion) in flight get `NoSuchUpload`, which every caller treats as
/// terminal.
fn conclude_aborted<B: Backend>(
    sim: &mut B,
    ctx: &Rc<TaskCtx<B>>,
    upload_id: u64,
    status: TaskStatus,
) {
    if ctx.done.get() {
        // xlint::allow(protocol-resource-balance, idempotence guard: the observer that set `done` already discarded the destination upload in its own conclusion)
        return;
    }
    sim.abort_multipart_now(ctx.task.dst_region, upload_id).ok();
    ctx.finish_once(sim, status);
    // The janitor deletes the tombstone after [`ABORTED_POOL_TTL`]. TTL
    // reaping is a free background process, so it goes through
    // [`KvStore::db_ttl_expire`](crate::backend::KvStore::db_ttl_expire)
    // rather than the metered request path.
    //
    // Found by simcheck (see EXPERIMENTS.md): aborted pools were terminal
    // but never deleted — `{aborted: true}` rows accumulated in
    // `areplica_tasks` forever, one per aborted distributed task. The
    // delete is guarded on `aborted` so it can never reap a live pool;
    // reaping also aborts any orphan uploads losing adopters recorded in
    // the tombstone (see [`adopt_tx`]).
    let (db_region, dst_region) = (ctx.exec_region, ctx.task.dst_region);
    let task_id = ctx.task.task_id();
    sim.schedule_in(ABORTED_POOL_TTL, move |sim| {
        let expired = sim.db_ttl_expire(db_region, TASK_TABLE, &task_id, |item| {
            item.get("aborted").and_then(Value::as_bool) == Some(true)
        });
        if let Some(item) = expired {
            for orphan in recorded_orphans(&item) {
                sim.abort_multipart_now(dst_region, orphan).ok();
            }
        }
    });
}

/// The dead-letter watchdog a production deployment runs beside the
/// engine. If every replicator (and its platform retries) died while
/// holding part leases, the pool stalls with live-looking leases that
/// nobody will ever re-claim. Every [`WATCHDOG_INTERVAL`] of simulated
/// time, until the task concludes or [`WATCHDOG_MAX_CHECKS`] inspections
/// have run, the watchdog reads the pool row. A row that still exists is a
/// stall, and the watchdog invokes one rescue replicator, whose claim loop
/// drains stale leases and re-runs the idempotent conclusion.
///
/// An `aborted` tombstone counts as a stall too: the rescue maps it to its
/// recorded terminal status and re-runs the conclusion (found by simcheck,
/// see EXPERIMENTS.md).
fn watch<B: Backend>(sim: &mut B, ctx: Rc<TaskCtx<B>>, upload_id: u64, checks: u32) {
    sim.schedule_in(WATCHDOG_INTERVAL, move |sim| {
        if ctx.done.get() || checks >= WATCHDOG_MAX_CHECKS {
            return;
        }
        let exec = Exec::Platform {
            region: ctx.exec_region,
            mbps: 1000.0,
        };
        let (db_region, task_id) = (ctx.exec_region, ctx.task.task_id());
        sim.db_get(
            exec,
            db_region,
            TASK_TABLE.into(),
            task_id,
            move |sim, item| {
                if item.is_some() && !ctx.done.get() {
                    invoke_rescue_replicator(sim, ctx.clone(), upload_id);
                    watch(sim, ctx, upload_id, checks + 1);
                }
            },
        );
    });
}

/// Invokes one extra replicator to drain stale leases of a stalled task.
fn invoke_rescue_replicator<B: Backend>(sim: &mut B, ctx: Rc<TaskCtx<B>>, upload_id: u64) {
    sim.tracer().counter_add("engine.rescues", 1);
    let region = ctx.exec_region;
    let spec = sim.default_fn_spec(region);
    let body = replicator_body(ctx, upload_id, None);
    sim.invoke(region, spec, body, RetryPolicy::PLATFORM_DEFAULT);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudapi::clouddb::KvDb;

    fn fresh_pool(db: &mut KvDb, task: &str, num_parts: u32) {
        db.put(
            TASK_TABLE,
            task,
            pool_item(num_parts, SchedulingMode::PartGranularity, 77),
        );
    }

    fn claim_at(db: &mut KvDb, task: &str, now: SimTime) -> ClaimResult {
        db.transact(TASK_TABLE, task, claim_tx(now, PART_LEASE))
    }

    #[test]
    fn lease_expiry_boundary_is_exclusive() {
        // Pinned semantics: a lease is re-claimable strictly *after* it has
        // aged past PART_LEASE — at exactly `now - claimed_at == lease` the
        // claim is still live. The strict comparison keeps the lease holder
        // safe through its whole advertised window: with an inclusive bound,
        // two replicators whose clocks read the same instant could both
        // believe they own the part at the boundary nanosecond.
        let mut db = KvDb::new();
        fresh_pool(&mut db, "t#1", 1);
        let t0 = SimTime::from_nanos(1_000);
        assert!(matches!(
            claim_at(&mut db, "t#1", t0),
            ClaimResult::Claim(0)
        ));

        // The pending list is empty now; the only claim path is the stale
        // re-claim. At exactly lease age: not expired.
        let at_lease = t0 + PART_LEASE;
        assert!(matches!(
            claim_at(&mut db, "t#1", at_lease),
            ClaimResult::NothingClaimable
        ));

        // One nanosecond past the lease: re-claimable.
        let past_lease = t0 + PART_LEASE + SimDuration::from_nanos(1);
        assert!(matches!(
            claim_at(&mut db, "t#1", past_lease),
            ClaimResult::Claim(0)
        ));
    }

    #[test]
    fn stale_reclaim_refreshes_the_lease() {
        // Re-claiming a stale part must reset its lease clock, or a third
        // replicator would immediately re-claim it again.
        let mut db = KvDb::new();
        fresh_pool(&mut db, "t#1", 1);
        let t0 = SimTime::from_nanos(0);
        assert!(matches!(
            claim_at(&mut db, "t#1", t0),
            ClaimResult::Claim(0)
        ));
        let t1 = t0 + PART_LEASE + SimDuration::from_nanos(1);
        assert!(matches!(
            claim_at(&mut db, "t#1", t1),
            ClaimResult::Claim(0)
        ));
        // Immediately after the re-claim the lease is fresh again.
        assert!(matches!(
            claim_at(&mut db, "t#1", t1),
            ClaimResult::NothingClaimable
        ));
    }

    #[test]
    fn claim_on_missing_pool_is_concluded() {
        let mut db = KvDb::new();
        assert!(matches!(
            claim_at(&mut db, "gone#1", SimTime::from_nanos(5)),
            ClaimResult::Concluded
        ));
    }

    #[test]
    fn abort_does_not_resurrect_a_concluded_pool() {
        // Regression (found by simcheck): aborting after the pool was
        // success-deleted used to re-create it as a `{aborted: true}` stub
        // that leaked forever and masked the successful replication.
        let mut db = KvDb::new();
        let status = TaskStatus::AbortedEtagMismatch {
            current: Some(ETag(99)),
        };
        assert!(matches!(
            db.transact(TASK_TABLE, "t#1", abort_tx(status)),
            AbortOutcome::Gone
        ));
        assert_eq!(db.table_len(TASK_TABLE), 0, "abort resurrected the pool");

        fresh_pool(&mut db, "t#2", 2);
        assert!(matches!(
            db.transact(TASK_TABLE, "t#2", abort_tx(status)),
            AbortOutcome::First
        ));
        // A repeat abort (and any later claim) reads back the status the
        // first aborter recorded — conclusion ownership survives its crash.
        assert!(matches!(
            db.transact(TASK_TABLE, "t#2", abort_tx(TaskStatus::SourceGone)),
            AbortOutcome::Repeat(s) if s == status
        ));
        assert!(matches!(
            claim_at(&mut db, "t#2", SimTime::from_nanos(10)),
            ClaimResult::Aborted(s) if s == status
        ));
    }

    #[test]
    fn completion_is_idempotent_per_part() {
        let mut db = KvDb::new();
        fresh_pool(&mut db, "t#1", 2);
        let t0 = SimTime::from_nanos(0);
        assert!(matches!(
            claim_at(&mut db, "t#1", t0),
            ClaimResult::Claim(0)
        ));
        match db.transact(TASK_TABLE, "t#1", complete_tx(0)) {
            CompleteResult::Progress(done, total) => {
                assert_eq!((done, total), (1, 2));
            }
            CompleteResult::AlreadyConcluded => panic!("pool exists"),
        }
        // A duplicate completion of the same part does not advance the count.
        match db.transact(TASK_TABLE, "t#1", complete_tx(0)) {
            CompleteResult::Progress(done, total) => {
                assert_eq!((done, total), (1, 2));
            }
            CompleteResult::AlreadyConcluded => panic!("pool exists"),
        }
    }
}
