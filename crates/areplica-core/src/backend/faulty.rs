//! A fault-injecting [`Backend`] wrapper.
//!
//! [`Faulty`] decorates any backend with deterministic, scripted injection
//! of the failure classes the engine's recovery machinery exists for:
//!
//! * **transient GET failures** — the ranged read never reaches the store
//!   and the caller retries after a fixed backoff;
//! * **transient PUT failures** — the bytes *do* land (an ambiguous PUT:
//!   the store applied it but the client saw an error), the result is
//!   discarded, and the caller re-uploads the same part, exercising the
//!   idempotent replace-on-re-upload part semantics;
//! * **invocation drops** — the invoke request is swallowed and a fake
//!   [`InvocationId`] returned, as a lost async invocation;
//! * **lease-holder death** — right after a successful part upload the
//!   uploading function is crashed and its continuation dropped, leaving
//!   the part's lease in-flight so peers (stale-lease re-claim) or the
//!   watchdog (rescue replicator) must finish the task;
//! * **post-transaction death** — a function is crashed right after one of
//!   its DB transactions commits ([`FaultSite::PostTransactKill`]), the
//!   classic "orchestrator died between persisting and acting" serverless
//!   failure.
//!
//! Every fault decision is made by the installed [`FaultDecider`]: the
//! wrapper consults it at every [`FaultSite`], in deterministic call order,
//! and the decider scripts exactly which occurrences fault (schedule
//! exploration in `crates/simcheck` records and replays these decisions).
//! Without a decider nothing faults, which is what the profiling sandbox
//! needs.
//!
//! Continuations are marshalled through a due-queue: callbacks handed to
//! the inner backend only enqueue, and [`Clock::step`] drains the queue
//! before advancing the inner backend, which is how a wrapper whose inner
//! callbacks receive `&mut B` can resume engine code expecting
//! `&mut Faulty<B>`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cloudapi::clouddb::Item;
use cloudapi::faas::{FailureReason, FnHandle, FnSpec, InvocationId, RetryPolicy};
use cloudapi::objstore::{Content, ETag, ObjectStat, PutApplied, StoreError};
use cloudapi::{Cloud, RegionId};
use rand::rngs::StdRng;
use simkernel::{CancelToken, SimDuration, SimTime};

use super::{
    Backend, Clock, Exec, FnBody, FunctionRuntime, KvStore, NotifHandler, ObjectStore, RngSource,
};

/// How injected faults play out: the retry backoff, and which region's
/// outage sites the decider is consulted at.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Client-side backoff before retrying a faulted GET or PUT.
    pub retry_backoff: SimDuration,
    /// When set, the decider is additionally consulted at
    /// [`FaultSite::OutageOpen`] / [`FaultSite::OutageClose`] around
    /// data-plane writes toward this region, so a schedule can open and
    /// close a regional object-store outage at adversarial points. While a
    /// window is open, writes toward the region are black-holed and retried
    /// after `retry_backoff` (each retry re-consults the close site), so the
    /// platform's retry budget is never consumed and liveness is preserved;
    /// a window that refuses to close is forced shut after
    /// [`FORCED_OUTAGE_CLOSE`] consecutive denials. `None` (the default)
    /// consults neither site, leaving existing decision streams untouched.
    pub outage_region: Option<RegionId>,
}

/// Most outage windows one schedule may open (see
/// [`FaultPlan::outage_region`]).
pub const MAX_OUTAGES: u32 = 2;

/// Consecutive [`FaultSite::OutageClose`] denials after which an open
/// window is forced shut, bounding how long a schedule can black-hole a
/// region (a script that ends mid-window would otherwise never close it).
pub const FORCED_OUTAGE_CLOSE: u32 = 12;

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            retry_backoff: SimDuration::from_millis(250),
            outage_region: None,
        }
    }
}

/// Counts of the faults actually injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// PUTs that landed but reported failure.
    pub injected_put_faults: u64,
    /// GETs failed before reaching the store.
    pub injected_get_faults: u64,
    /// Invoke requests swallowed.
    pub dropped_invocations: u64,
    /// Functions crashed mid-upload.
    pub lease_holder_kills: u64,
    /// Functions crashed right after a committed DB transaction.
    pub post_transact_kills: u64,
    /// Outage windows opened (see [`FaultPlan::outage_region`]).
    pub outages_opened: u64,
    /// Writes black-holed by an open outage window.
    pub outage_blocked_ops: u64,
}

/// A point in the wrapped backend's operation stream where a fault can be
/// injected. Sites are consulted in deterministic call/delivery order, so a
/// scripted [`FaultDecider`] sees a reproducible decision sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A ranged GET may fail transiently (client retries after backoff).
    TransientGet,
    /// A `put_object`/`upload_part` may land but report failure (ambiguous
    /// PUT; client retries).
    TransientPut,
    /// An `invoke` request may be silently lost.
    InvocationDrop,
    /// A function may be crashed right after one of its successful part
    /// uploads, dropping its continuation (lease stays in-flight).
    KillAfterUpload,
    /// A function may be crashed right after one of its DB transactions
    /// commits — the write survives, the continuation does not, and the
    /// platform retries the whole function body.
    PostTransactKill,
    /// A regional outage window may open at this write toward
    /// [`FaultPlan::outage_region`] (consulted only while no window is
    /// open and the [`MAX_OUTAGES`] budget remains).
    OutageOpen,
    /// The open outage window may close at this blocked write (consulted
    /// on every black-holed retry while a window is open).
    OutageClose,
}

/// Schedule-controlled fault injection: when installed via
/// [`Faulty::set_fault_decider`], every fault decision is delegated here and
/// the decider returns whether the fault fires at this occurrence of `site`.
pub trait FaultDecider {
    /// Decides whether the fault at this site occurrence is injected.
    fn decide(&mut self, site: FaultSite) -> bool;
}

type SharedDecider = Rc<RefCell<dyn FaultDecider>>;

struct FaultState {
    plan: FaultPlan,
    fake_invocations: u64,
    outage_active: bool,
    outage_denials: u32,
    stats: FaultStats,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            fake_invocations: 0,
            outage_active: false,
            outage_denials: 0,
            stats: FaultStats::default(),
        }
    }
}

type Due<B> = Rc<RefCell<VecDeque<Box<dyn FnOnce(&mut Faulty<B>)>>>>;

/// A backend that injects the faults its [`FaultDecider`] scripts into the
/// backend it wraps. See the module docs for the injection semantics.
pub struct Faulty<B: Backend> {
    inner: B,
    due: Due<B>,
    state: Rc<RefCell<FaultState>>,
    decider: Option<SharedDecider>,
}

impl<B: Backend> Faulty<B> {
    /// Wraps `inner`; nothing faults until a decider is installed.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Faulty {
            inner,
            due: Rc::new(RefCell::new(VecDeque::new())),
            state: Rc::new(RefCell::new(FaultState::new(plan))),
            decider: None,
        }
    }

    /// Installs a [`FaultDecider`]; from now on every fault decision is
    /// scripted by it.
    pub fn set_fault_decider(&mut self, decider: SharedDecider) {
        self.decider = Some(decider);
    }

    /// The faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.borrow().stats
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    fn should_fault(&self, site: FaultSite) -> bool {
        self.decider
            .as_ref()
            .is_some_and(|d| d.borrow_mut().decide(site))
    }

    /// Consults the outage decision sites for a data-plane write toward
    /// `region`. Returns the backoff to retry after when the write is
    /// black-holed by an active (or just-opened) outage window, `None`
    /// when it may proceed. Off-target regions and plans without
    /// [`FaultPlan::outage_region`] never reach a decision site, so
    /// pre-outage decision streams replay unchanged.
    fn outage_gate(&mut self, region: RegionId) -> Option<SimDuration> {
        if self.state.borrow().plan.outage_region != Some(region) {
            return None;
        }
        if self.state.borrow().outage_active {
            // Liveness backstop: a window denied closure too many times is
            // forced shut without consulting the decider, so a truncated
            // script cannot black-hole the region forever.
            if self.state.borrow().outage_denials >= FORCED_OUTAGE_CLOSE {
                let mut st = self.state.borrow_mut();
                st.outage_active = false;
                st.outage_denials = 0;
                return None;
            }
            if self.should_fault(FaultSite::OutageClose) {
                let mut st = self.state.borrow_mut();
                st.outage_active = false;
                st.outage_denials = 0;
                return None;
            }
            let mut st = self.state.borrow_mut();
            st.outage_denials += 1;
            st.stats.outage_blocked_ops += 1;
            Some(st.plan.retry_backoff)
        } else {
            // The open site is only consulted while budget remains — the
            // budget check is deterministic state, so record and replay
            // consult the same sites in the same order.
            if self.state.borrow().stats.outages_opened >= MAX_OUTAGES as u64
                || !self.should_fault(FaultSite::OutageOpen)
            {
                return None;
            }
            let mut st = self.state.borrow_mut();
            st.outage_active = true;
            st.outage_denials = 0;
            st.stats.outages_opened += 1;
            st.stats.outage_blocked_ops += 1;
            Some(st.plan.retry_backoff)
        }
    }

    /// Enqueues the continuation `cb(result)` for the next [`Clock::step`].
    fn resume_with<T: 'static>(due: &Due<B>, cb: impl FnOnce(&mut Self, T) + 'static, result: T) {
        due.borrow_mut()
            .push_back(Box::new(move |this| cb(this, result)));
    }
}

impl<B: Backend> Clock for Faulty<B> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_in(&mut self, delay: SimDuration, cb: impl FnOnce(&mut Self) + 'static) {
        let due = self.due.clone();
        self.inner.schedule_in(delay, move |_inner| {
            due.borrow_mut().push_back(Box::new(cb));
        });
    }

    fn step(&mut self) -> bool {
        let next = self.due.borrow_mut().pop_front();
        match next {
            Some(cb) => {
                cb(self);
                true
            }
            None => self.inner.step(),
        }
    }

    fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut executed = 0;
        while executed < max_events && self.step() {
            executed += 1;
        }
        executed
    }
}

impl<B: Backend> RngSource for Faulty<B> {
    fn derive_rng(&mut self, label: &str) -> StdRng {
        self.inner.derive_rng(label)
    }
}

impl<B: Backend> ObjectStore for Faulty<B> {
    fn create_bucket(&mut self, region: RegionId, bucket: &str) {
        self.inner.create_bucket(region, bucket);
    }

    fn subscribe_bucket(
        &mut self,
        region: RegionId,
        bucket: &str,
        handler: NotifHandler<Self>,
    ) -> Result<(), StoreError> {
        let due = self.due.clone();
        self.inner.subscribe_bucket(
            region,
            bucket,
            Rc::new(move |_inner, region, ev| {
                let handler = handler.clone();
                due.borrow_mut()
                    .push_back(Box::new(move |this| handler(this, region, ev)));
            }),
        )
    }

    fn stat_now(
        &self,
        region: RegionId,
        bucket: &str,
        key: &str,
    ) -> Result<ObjectStat, StoreError> {
        self.inner.stat_now(region, bucket, key)
    }

    fn read_full_now(
        &self,
        region: RegionId,
        bucket: &str,
        key: &str,
    ) -> Result<(Content, ETag), StoreError> {
        self.inner.read_full_now(region, bucket, key)
    }

    fn abort_multipart_now(&mut self, region: RegionId, upload_id: u64) -> Result<(), StoreError> {
        self.inner.abort_multipart_now(region, upload_id)
    }

    fn user_put(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        size: u64,
    ) -> Result<PutApplied, StoreError> {
        self.inner.user_put(region, bucket, key, size)
    }

    fn user_put_content(
        &mut self,
        region: RegionId,
        bucket: &str,
        key: &str,
        content: Content,
    ) -> Result<PutApplied, StoreError> {
        self.inner.user_put_content(region, bucket, key, content)
    }

    fn stat_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<ObjectStat, StoreError>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner
            .stat_object(exec, region, bucket, key, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }

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
    ) {
        if self.should_fault(FaultSite::TransientGet) {
            let backoff = {
                let mut st = self.state.borrow_mut();
                st.stats.injected_get_faults += 1;
                st.plan.retry_backoff
            };
            self.schedule_in(backoff, move |this| {
                this.get_object_range(exec, region, bucket, key, offset, len, if_match, cb);
            });
            return;
        }
        let due = self.due.clone();
        self.inner.get_object_range(
            exec,
            region,
            bucket,
            key,
            offset,
            len,
            if_match,
            move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            },
        );
    }

    fn put_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        // An op toward a downed region never reaches the store (and gets no
        // transient-fault decision): black-hole and retry after backoff.
        if let Some(backoff) = self.outage_gate(region) {
            self.schedule_in(backoff, move |this| {
                this.put_object(exec, region, bucket, key, content, cb);
            });
            return;
        }
        if self.should_fault(FaultSite::TransientPut) {
            let backoff = {
                let mut st = self.state.borrow_mut();
                st.stats.injected_put_faults += 1;
                st.plan.retry_backoff
            };
            // Ambiguous PUT: the store applies the write, the client sees an
            // error and retries the full operation.
            self.inner.put_object(
                exec,
                region,
                bucket.clone(),
                key.clone(),
                content.clone(),
                |_inner, _res| {},
            );
            self.schedule_in(backoff, move |this| {
                this.put_object(exec, region, bucket, key, content, cb);
            });
            return;
        }
        let due = self.due.clone();
        self.inner
            .put_object(exec, region, bucket, key, content, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }

    fn delete_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner
            .delete_object(exec, region, bucket, key, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }

    fn copy_object(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        src_key: String,
        dst_key: String,
        if_match: Option<ETag>,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner.copy_object(
            exec,
            region,
            bucket,
            src_key,
            dst_key,
            if_match,
            move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            },
        );
    }

    fn create_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        bucket: String,
        key: String,
        cb: impl FnOnce(&mut Self, Result<u64, StoreError>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner
            .create_multipart(exec, region, bucket, key, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }

    fn upload_part(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        part_number: u32,
        content: Content,
        cb: impl FnOnce(&mut Self, Result<(), StoreError>) + 'static,
    ) {
        if let Some(backoff) = self.outage_gate(region) {
            self.schedule_in(backoff, move |this| {
                this.upload_part(exec, region, upload_id, part_number, content, cb);
            });
            return;
        }
        if self.should_fault(FaultSite::TransientPut) {
            let backoff = {
                let mut st = self.state.borrow_mut();
                st.stats.injected_put_faults += 1;
                st.plan.retry_backoff
            };
            // Ambiguous PUT: the part lands, the client sees an error and
            // re-uploads — part re-upload must replace, not duplicate.
            self.inner.upload_part(
                exec,
                region,
                upload_id,
                part_number,
                content.clone(),
                |_inner, _res| {},
            );
            self.schedule_in(backoff, move |this| {
                this.upload_part(exec, region, upload_id, part_number, content, cb);
            });
            return;
        }
        let due = self.due.clone();
        let state = self.state.clone();
        let decider = self.decider.clone();
        self.inner.upload_part(
            exec,
            region,
            upload_id,
            part_number,
            content,
            move |_inner, res| {
                due.clone().borrow_mut().push_back(Box::new(move |this| {
                    if let (Ok(()), Some(d), Exec::Function(handle)) = (&res, &decider, exec) {
                        if d.borrow_mut().decide(FaultSite::KillAfterUpload) {
                            state.borrow_mut().stats.lease_holder_kills += 1;
                            this.fail_function(handle, FailureReason::Crash);
                            // The continuation dies with its function: the
                            // part's lease stays in-flight until a peer
                            // re-claims it stale or the watchdog dispatches
                            // a rescue replicator.
                            return;
                        }
                    }
                    cb(this, res);
                }));
            },
        );
    }

    fn complete_multipart(
        &mut self,
        exec: Exec,
        region: RegionId,
        upload_id: u64,
        cb: impl FnOnce(&mut Self, Result<PutApplied, StoreError>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner
            .complete_multipart(exec, region, upload_id, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }
}

impl<B: Backend> KvStore for Faulty<B> {
    fn db_get(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        cb: impl FnOnce(&mut Self, Option<Item>) + 'static,
    ) {
        let due = self.due.clone();
        self.inner
            .db_get(exec, region, table, key, move |_inner, res| {
                Faulty::resume_with(&due, cb, res);
            });
    }

    fn db_transact<T: 'static>(
        &mut self,
        exec: Exec,
        region: RegionId,
        table: String,
        key: String,
        f: impl FnOnce(&mut Option<Item>) -> T + 'static,
        cb: impl FnOnce(&mut Self, T) + 'static,
    ) {
        let due = self.due.clone();
        let state = self.state.clone();
        let decider = self.decider.clone();
        self.inner
            .db_transact(exec, region, table, key, f, move |_inner, res| {
                due.borrow_mut().push_back(Box::new(move |this| {
                    if let (Some(d), Exec::Function(handle)) = (&decider, exec) {
                        if d.borrow_mut().decide(FaultSite::PostTransactKill) {
                            state.borrow_mut().stats.post_transact_kills += 1;
                            this.fail_function(handle, FailureReason::Crash);
                            // The transaction committed before the crash; the
                            // caller's incarnation dies without observing the
                            // result, and the platform retries the whole
                            // function body against the already-updated row.
                            return;
                        }
                    }
                    cb(this, res);
                }));
            });
    }

    fn db_ttl_expire(
        &mut self,
        region: RegionId,
        table: &str,
        key: &str,
        guard: impl FnOnce(&Item) -> bool,
    ) -> Option<Item> {
        // Background reaping is not a request; no fault site applies.
        self.inner.db_ttl_expire(region, table, key, guard)
    }
}

impl<B: Backend> FunctionRuntime for Faulty<B> {
    fn default_fn_spec(&self, region: RegionId) -> FnSpec {
        self.inner.default_fn_spec(region)
    }

    fn invoke_after(
        &mut self,
        delay: SimDuration,
        region: RegionId,
        spec: FnSpec,
        body: FnBody<Self>,
        policy: RetryPolicy,
    ) -> InvocationId {
        if self.should_fault(FaultSite::InvocationDrop) {
            let mut st = self.state.borrow_mut();
            st.stats.dropped_invocations += 1;
            st.fake_invocations += 1;
            // A lost async invoke: the caller gets an id that will never
            // run. High ids keep clear of anything the inner backend mints.
            return InvocationId(u64::MAX - st.fake_invocations);
        }
        let due = self.due.clone();
        self.inner.invoke_after(
            delay,
            region,
            spec,
            Rc::new(move |_inner: &mut B, handle| {
                let body = body.clone();
                due.borrow_mut()
                    .push_back(Box::new(move |this: &mut Faulty<B>| body(this, handle)));
            }),
            policy,
        )
    }

    fn finish_function(&mut self, handle: FnHandle) {
        self.inner.finish_function(handle);
    }

    fn fail_function(&mut self, handle: FnHandle, reason: FailureReason) {
        self.inner.fail_function(handle, reason);
    }

    fn remaining_exec_time(&self, handle: FnHandle) -> Option<SimDuration> {
        self.inner.remaining_exec_time(handle)
    }

    fn sample_invoke_latency(&mut self, region: RegionId) -> SimDuration {
        self.inner.sample_invoke_latency(region)
    }
}

impl<B: Backend> Backend for Faulty<B> {
    fn cloud_of(&self, region: RegionId) -> Cloud {
        self.inner.cloud_of(region)
    }

    fn sample_transfer_setup(&mut self, cloud: Cloud) -> SimDuration {
        self.inner.sample_transfer_setup(cloud)
    }

    fn workflow_delay(
        &mut self,
        region: RegionId,
        delay: SimDuration,
        cb: impl FnOnce(&mut Self) + 'static,
    ) -> CancelToken {
        let due = self.due.clone();
        self.inner.workflow_delay(region, delay, move |_inner| {
            due.borrow_mut().push_back(Box::new(cb));
        })
    }

    fn profiling_sandbox(&self, seed: u64) -> Self {
        // Profiling measures the healthy backend: the sandbox gets no
        // decider, so it injects no faults.
        Faulty::new(self.inner.profiling_sandbox(seed), FaultPlan::default())
    }

    fn tracer(&mut self) -> &mut simtrace::Tracer {
        self.inner.tracer()
    }

    // Tenancy hooks forward explicitly: the trait defaults are no-ops, and
    // silently dropping scope here would detach the inner backend's cost and
    // quota attribution from the tenant issuing the operations.
    fn set_tenant_scope(&mut self, tenant: Option<Rc<str>>) {
        self.inner.set_tenant_scope(tenant);
    }

    fn tenant_scope(&self) -> Option<Rc<str>> {
        self.inner.tenant_scope()
    }

    fn set_tenant_concurrency_limit(&mut self, tenant: &str, limit: Option<u32>) {
        self.inner.set_tenant_concurrency_limit(tenant, limit);
    }
}
