//! The provider-backend abstraction the replication core runs against.
//!
//! Every module in this crate — the [`crate::engine`], the
//! [`crate::service`], the [`crate::profiler`], [`crate::changelog`]
//! propagation — performs its cloud operations through the traits defined
//! here instead of calling any concrete platform directly:
//!
//! * [`ObjectStore`] — timed object-storage operations (PUT, ranged GET
//!   with `If-Match`, DELETE, server-side COPY, multipart uploads) plus
//!   bucket-event subscriptions;
//! * [`KvStore`] — serverless KV reads and atomic read-modify-write
//!   transactions (the op-metered substrate of Algorithms 1 and 2);
//! * [`FunctionRuntime`] — asynchronous function invocation with the
//!   paper's `I`/`D`/`P` semantics, execution time limits, platform
//!   retries, and a DLQ;
//! * [`Clock`] — virtual time: scheduling, stepping, and timers;
//! * [`RngSource`] — labelled deterministic RNG streams;
//! * [`Backend`] — the umbrella trait adding region metadata, workflow
//!   timers, and sandbox construction for offline profiling.
//!
//! Operations are continuation-passing: a backend delivers each result by
//! calling the supplied closure with `&mut Self`, which lets a simulated
//! backend apply latency and cost models, and lets a real-SDK backend drive
//! an async reactor. The traits are generic over `Self` (not object-safe —
//! [`KvStore::db_transact`] is generic in its transaction result), so
//! engine code is written as `fn f<B: Backend>(sim: &mut B, ...)`.
//!
//! Two backends ship with the crate:
//!
//! * [`sim`] (feature `cloudsim`, on by default) — the deterministic
//!   multi-cloud simulator the paper reproduction runs on;
//! * [`faulty`] — a wrapper over any backend that injects the transient
//!   storage failures, invocation drops, and function deaths a scripted
//!   [`faulty::FaultDecider`] asks for, to exercise the engine's recovery
//!   paths.
//!
//! All vocabulary types (regions, ETags, KV items, function handles) come
//! from the provider-neutral `cloudapi` crate.

use std::rc::Rc;

use cloudapi::clouddb::Item;
use cloudapi::faas::{FailureReason, FnHandle, FnSpec, InvocationId, RetryPolicy};
use cloudapi::objstore::{Content, ETag, ObjectEvent, ObjectStat, PutApplied, StoreError};
use cloudapi::{Cloud, RegionId};
use rand::rngs::StdRng;
use simkernel::{CancelToken, SimDuration, SimTime};

pub mod faulty;
#[cfg(feature = "cloudsim")]
pub mod sim;

/// Who is performing a data-plane operation, as far as the replication core
/// is concerned: one of its function invocations, or the platform/control
/// plane itself. (Backends may know further executor kinds — VMs, external
/// clients — but the core never issues operations as them.)
#[derive(Clone, Copy, Debug)]
pub enum Exec {
    /// A running cloud-function invocation.
    Function(FnHandle),
    /// The cloud platform itself (watchdogs, lock janitors), with a fixed
    /// region and modelled bandwidth.
    Platform {
        /// Region the traffic originates from.
        region: RegionId,
        /// Modelled bandwidth in Mbps.
        mbps: f64,
    },
}

/// A function body: re-invocable on platform retry, handed the handle of
/// the invocation serving it.
pub type FnBody<B> = Rc<dyn Fn(&mut B, FnHandle)>;

/// A bucket-notification handler.
pub type NotifHandler<B> = Rc<dyn Fn(&mut B, RegionId, ObjectEvent)>;

/// Virtual time: reading the clock, scheduling work, and driving execution.
pub trait Clock: Sized {
    /// The current time.
    fn now(&self) -> SimTime;

    /// Schedules `cb` to run after `delay`.
    fn schedule_in(&mut self, delay: SimDuration, cb: impl FnOnce(&mut Self) + 'static);

    /// Executes the next pending event; returns `false` when idle.
    fn step(&mut self) -> bool;

    /// Runs until idle or `max_events` events have executed; returns the
    /// number of events executed.
    fn run_to_completion(&mut self, max_events: u64) -> u64;
}

/// Labelled deterministic RNG streams derived from the backend's seed.
pub trait RngSource {
    /// A reproducible RNG stream for `label`, independent of every other
    /// label's stream.
    fn derive_rng(&mut self, label: &str) -> StdRng;
}

/// Timed object-storage operations plus synchronous control-plane access.
///
/// The `*_now` methods and the `user_*` methods apply instantly at the
/// current time — they model actions by the bucket owner or test driver,
/// outside the replication data path, and are not cost-metered.
pub trait ObjectStore: Clock {
    /// Creates a bucket (idempotent).
    fn create_bucket(&mut self, region: RegionId, bucket: &str);

    /// Subscribes `handler` to the bucket's write/delete events.
    fn subscribe_bucket(
        &mut self,
        region: RegionId,
        bucket: &str,
        handler: NotifHandler<Self>,
    ) -> Result<(), StoreError>;

    /// Stats an object without modelled latency (owner-side peek).
    fn stat_now(&self, region: RegionId, bucket: &str, key: &str)
        -> Result<ObjectStat, StoreError>;

    /// Reads full content without modelled latency (owner-side peek).
    fn read_full_now(
        &self,
        region: RegionId,
        bucket: &str,
        key: &str,
    ) -> Result<(Content, ETag), StoreError>;

    /// Aborts a multipart upload without modelled latency (cleanup).
    fn abort_multipart_now(&mut self, region: RegionId, upload_id: u64) -> Result<(), StoreError>;

    /// An external user PUT of `size` fresh bytes; fans out notifications.
    fn user_put(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        size: u64,
    ) -> Result<PutApplied, StoreError>;

    /// An external user PUT with explicit content (COPY/concat scenarios).
    fn user_put_content(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        content: Content,
    ) -> Result<PutApplied, StoreError>;

    /// HEAD request from `exec`.
    fn stat_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<ObjectStat, StoreError>) + 'static,
    );

    /// Ranged GET with optional `If-Match` validation (§5.2).
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors one provider API request: every parameter is a field of that request"
    )]
    fn get_object_range(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        offset: u64,
        len: u64,
        if_match: Option<ETag>,
        cb: impl FnOnce(&mut Self, Result<(Content, ETag), StoreError>) + 'static,
    );

    /// Simple PUT of fully-assembled content.
    fn put_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    );

    /// DELETE of an object.
    fn delete_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    );

    /// Server-side COPY within `region` (no cross-region bytes).
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors one provider API request: every parameter is a field of that request"
    )]
    fn copy_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        src_key: String,
        dst_key: String,
        if_match: Option<ETag>,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    );

    /// Starts a multipart upload; yields the upload id.
    fn create_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<u64, StoreError>) + 'static,
    );

    /// Uploads one part (1-based `part_number`; re-uploads replace).
    fn upload_part(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        part_number: u32,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<(), StoreError>) + 'static,
    );

    /// Completes a multipart upload, applying the assembled object.
    fn complete_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    );
}

/// Serverless KV database access with per-operation metering.
pub trait KvStore: Sized {
    /// Reads an item.
    fn db_get(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        cb: impl FnOnce(&mut Self, Option<Item>) + 'static,
    );

    /// Atomic read-modify-write: `f` is applied at the operation's
    /// completion instant, serializing all transactions on the same item —
    /// the conditional-update semantics Algorithms 1 and 2 require. The
    /// transaction commits even if the calling executor dies; only the
    /// callback delivery depends on its liveness.
    fn db_transact<T: 'static>(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        f: impl FnOnce(&mut Option<Item>) -> T + 'static,
        cb: impl FnOnce(&mut Self, T) + 'static,
    );

    /// Background TTL expiry: removes and returns the item iff `guard`
    /// accepts it. Models DynamoDB/Cosmos TTL reaping — a free background
    /// process, not a billed request — so it takes no executor, draws no
    /// request latency, and meters nothing. Callers schedule it at the TTL
    /// instant with [`Clock::schedule_in`].
    fn db_ttl_expire(
        &mut self,
        region: RegionId,
        table: &str,
        key: &str,
        guard: impl FnOnce(&Item) -> bool,
    ) -> Option<Item>;
}

/// Asynchronous cloud-function invocation with the paper's `I`/`D`/`P`
/// semantics: invocation API latency, cold-start delay, scheduler
/// postponement, concurrency quotas, timeouts, platform retries, and a DLQ.
pub trait FunctionRuntime: Sized {
    /// The default resource spec for functions in `region`.
    fn default_fn_spec(&self, region: RegionId) -> FnSpec;

    /// Asynchronously invokes `body` in `region`.
    fn invoke(
        &mut self,
        region: RegionId,
        spec: FnSpec,
        body: FnBody<Self>,
        policy: RetryPolicy,
    ) -> InvocationId {
        self.invoke_after(SimDuration::ZERO, region, spec, body, policy)
    }

    /// Invokes `body` after an additional client-side `delay` (pipelined
    /// invoke loops pay `I` per call before the request even departs).
    fn invoke_after(
        &mut self,
        delay: SimDuration,
        region: RegionId,
        spec: FnSpec,
        body: FnBody<Self>,
        policy: RetryPolicy,
    ) -> InvocationId;

    /// Completes `handle`'s invocation successfully (bills and releases the
    /// instance to the warm pool).
    fn finish_function(&mut self, handle: FnHandle);

    /// Fails `handle`'s invocation; the platform retries per the policy the
    /// invocation was started with, then parks it on the DLQ.
    fn fail_function(&mut self, handle: FnHandle, reason: FailureReason);

    /// Time left before `handle` hits its execution limit, or `None` if the
    /// invocation is no longer live. Replicators use this to stop claiming
    /// parts they cannot finish (Algorithm 1).
    fn remaining_exec_time(&self, handle: FnHandle) -> Option<SimDuration>;

    /// Samples the per-call invocation API latency `I` for `region`.
    fn sample_invoke_latency(&mut self, region: RegionId) -> SimDuration;
}

/// The complete operation surface the replication core requires.
pub trait Backend: Clock + RngSource + ObjectStore + KvStore + FunctionRuntime + 'static {
    /// The cloud a region belongs to.
    fn cloud_of(&self, region: RegionId) -> Cloud;

    /// Samples the transfer-client setup overhead `S` for a cloud.
    fn sample_transfer_setup(&mut self, cloud: Cloud) -> SimDuration;

    /// A managed-workflow timer (Step Functions `Wait` and equivalents),
    /// used by SLO-bounded batching. Fires `cb` after `delay`; the returned
    /// token cancels it.
    fn workflow_delay(
        &mut self,
        region: RegionId,
        delay: SimDuration,
        cb: impl FnOnce(&mut Self) + 'static,
    ) -> CancelToken;

    /// A fresh, isolated backend over the same ground truth, seeded with
    /// `seed` — the sandbox the offline [`crate::profiler`] measures
    /// against without perturbing production state.
    fn profiling_sandbox(&self, seed: u64) -> Self;

    /// The backend's [`simtrace::Tracer`]. Disabled by default; recording
    /// draws no randomness and schedules no events, so enabling it cannot
    /// perturb results. Instrumentation sites guard tag construction on
    /// [`simtrace::Tracer::enabled`].
    fn tracer(&mut self) -> &mut simtrace::Tracer;

    /// Sets the ambient tenant scope: subsequent operations (and the
    /// continuations they schedule) are attributed to this tenant — cost
    /// ledger entries, per-tenant RNG streams, FaaS concurrency accounting,
    /// and trace tags. `None` is the implicit default tenant, for which
    /// every tenancy mechanism is a no-op. Backends without multi-tenant
    /// accounting ignore this.
    fn set_tenant_scope(&mut self, tenant: Option<Rc<str>>) {
        let _ = tenant;
    }

    /// The current ambient tenant scope (`None` on backends without
    /// multi-tenant accounting, and for the default tenant).
    fn tenant_scope(&self) -> Option<Rc<str>> {
        None
    }

    /// Caps a tenant's simultaneously running function instances across all
    /// regions, beneath the shared per-region platform limits. `None`
    /// removes the cap. Backends without multi-tenant accounting ignore
    /// this.
    fn set_tenant_concurrency_limit(&mut self, tenant: &str, limit: Option<u32>) {
        let _ = (tenant, limit);
    }
}
