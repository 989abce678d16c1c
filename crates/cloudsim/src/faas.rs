//! Simulated cloud-function runtime (Lambda / Azure Functions / Cloud Run
//! Functions surface).
//!
//! Captures the lifecycle the paper's performance model reasons about:
//! invocation API latency `I`, cold-start delay `D`, scale-out scheduler
//! batching `P`, warm-instance reuse, per-region concurrency quotas, hard
//! execution time limits, platform auto-retry with a dead-letter queue, and
//! per-millisecond billing.
//!
//! Function *bodies* are `Rc<dyn Fn(&mut CloudSim, FnHandle)>` written in
//! continuation-passing style: each step schedules its follow-up through the
//! world's storage/DB/transfer wrappers, which automatically drop
//! continuations of dead invocations.
//!
//! Instances live in a dense table indexed by id: ids are issued in order
//! from 1 and never reused, so a liveness check, the world's per-request
//! executor profile and a warm-pool candidate each cost one slot read.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use pricing::CostCategory;
use simkernel::{SimDuration, SimTime};

use crate::fault::Faults;
use crate::net::sample_instance_factor;
use crate::region::RegionId;
use crate::world::{CloudSim, World};

pub use cloudapi::faas::{
    DlqEntry, FaasStats, FailureReason, FnHandle, FnSpec, InstanceId, InvocationId, RetryPolicy,
};

/// A function body, re-runnable on platform retry.
pub type FnBody = Rc<dyn Fn(&mut CloudSim, FnHandle)>;

struct ExecState {
    started: SimTime,
    deadline: SimTime,
    /// The executing attempt, kept so `fail` can re-invoke its body.
    pending: Pending,
}

struct Instance {
    spec: FnSpec,
    speed_factor: f64,
    exec: Option<ExecState>,
    /// Tenant the instance belongs to (`None` = the implicit default
    /// tenant). Warm reuse never crosses tenants, so one tenant's warm pool
    /// cannot change another tenant's cold/warm pattern.
    tenant: Option<Rc<str>>,
}

struct Pending {
    invocation: InvocationId,
    spec: FnSpec,
    body: FnBody,
    attempt: u32,
    policy: RetryPolicy,
    /// Captured from the ambient tenant scope at invoke time.
    tenant: Option<Rc<str>>,
}

/// Every instance ever started, by id: slot `id − 1` holds instance `id`
/// until it is reclaimed or fails, then stays empty. Ids are issued only by
/// [`InstanceTable::push`], in order from 1, and never reused, so an id that
/// was never issued (0, or past the end) reads as absent.
#[derive(Default)]
struct InstanceTable {
    slots: Vec<Option<Instance>>,
}

impl InstanceTable {
    fn slot(id: InstanceId) -> Option<usize> {
        usize::try_from(id.0).ok()?.checked_sub(1)
    }

    fn get(&self, id: InstanceId) -> Option<&Instance> {
        self.slots.get(Self::slot(id)?)?.as_ref()
    }

    fn get_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        self.slots.get_mut(Self::slot(id)?)?.as_mut()
    }

    fn remove(&mut self, id: InstanceId) -> Option<Instance> {
        self.slots.get_mut(Self::slot(id)?)?.take()
    }

    /// Stores a new instance under the next id.
    fn push(&mut self, instance: Instance) -> InstanceId {
        self.slots.push(Some(instance));
        InstanceId(self.slots.len() as u64)
    }
}

#[derive(Default)]
struct RegionFaas {
    /// Idle instances and their expiry times. Expiry is lazy: warm reuse
    /// skips expired entries and `accept` prunes them, so an idle instance
    /// queues no reclaim event.
    warm: Vec<(InstanceId, SimTime)>,
    active: u32,
    queued: VecDeque<Pending>,
}

/// Per-tenant FaaS concurrency accounting on the shared regional quota.
#[derive(Default)]
struct TenantFaas {
    /// Concurrency quota across all regions (`None` = unlimited).
    limit: Option<u32>,
    /// Instances currently reserved or executing for the tenant.
    active: u32,
    /// High-water mark of `active` (the quota-conformance oracle's input).
    peak: u32,
    /// Invocations deferred because the tenant was at its quota.
    throttled: u64,
    /// Invocations waiting for a tenant slot (admitted before the regional
    /// queue: a quota is a promise about the tenant, not the region).
    queued: VecDeque<(RegionId, Pending)>,
}

/// The multi-region function runtime.
#[derive(Default)]
pub struct FaasRuntime {
    regions: BTreeMap<RegionId, RegionFaas>,
    instances: InstanceTable,
    tenants: BTreeMap<Rc<str>, TenantFaas>,
    /// Per-tenant performance degradation (≥ 1.0 = that many times
    /// slower). Models the instance-level performance drift serverless
    /// platforms exhibit over time; experiments inject it mid-run to
    /// exercise SLO burn-rate monitoring. Empty (all 1.0) in every
    /// result-producing run, so default behavior is untouched.
    slowdowns: BTreeMap<Rc<str>, f64>,
    /// Live invocations by execution deadline. One watchdog event, armed at
    /// the earliest deadline, fails the due ones, so an invocation queues no
    /// timeout event of its own.
    deadlines: BTreeMap<(SimTime, InvocationId), FnHandle>,
    /// Due time of the armed watchdog event, if one is queued.
    watchdog: Option<SimTime>,
    next_invocation: u64,
    /// Dead-letter queue (inspectable by tests and experiments).
    pub dlq: Vec<DlqEntry>,
    /// Runtime counters.
    pub stats: FaasStats,
}

impl FaasRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        FaasRuntime::default()
    }

    /// `handle`'s instance and its execution, while `handle`'s invocation is
    /// still the one executing there.
    fn live(&self, handle: FnHandle) -> Option<(&Instance, &ExecState)> {
        let instance = self.instances.get(handle.instance)?;
        let exec = instance.exec.as_ref()?;
        (exec.pending.invocation == handle.invocation).then_some((instance, exec))
    }

    /// True while `handle`'s invocation is still the one executing on its
    /// instance (continuations must check this, and the world wrappers do).
    pub fn is_live(&self, handle: FnHandle) -> bool {
        self.live(handle).is_some()
    }

    /// Time left before `handle`'s invocation hits its execution limit, or
    /// `None` if the invocation is not live. Replicator bodies use this to
    /// stop claiming parts they cannot finish.
    pub fn remaining_time(&self, handle: FnHandle, now: SimTime) -> Option<SimDuration> {
        self.live(handle)
            .map(|(_, exec)| exec.deadline.saturating_since(now))
    }

    /// The spec and speed factor of `handle`'s instance, or `None` if the
    /// invocation is not live, from one lookup. The speed factor is the
    /// instance's persistent one divided by the owning tenant's injected
    /// slowdown, if any.
    pub fn live_spec(&self, handle: FnHandle) -> Option<(FnSpec, f64)> {
        let (instance, _) = self.live(handle)?;
        let slow = instance
            .tenant
            .as_ref()
            .and_then(|t| self.slowdowns.get(t))
            .copied()
            .unwrap_or(1.0);
        Some((instance.spec, instance.speed_factor / slow.max(1e-9)))
    }

    /// Number of currently active (reserved or executing) instances.
    pub fn active_in(&self, region: RegionId) -> u32 {
        self.regions.get(&region).map_or(0, |r| r.active)
    }

    /// Number of idle warm instances that are unexpired at `now`.
    pub fn warm_in(&self, region: RegionId, now: SimTime) -> usize {
        self.regions
            .get(&region)
            .map_or(0, |r| r.warm.iter().filter(|&&(_, exp)| exp > now).count())
    }

    /// Sets (or clears) a tenant's cross-region FaaS concurrency quota.
    pub fn set_tenant_limit(&mut self, tenant: &str, limit: Option<u32>) {
        self.tenants.entry(Rc::from(tenant)).or_default().limit = limit;
    }

    /// Injects a performance slowdown for one tenant's instances: every
    /// transfer driven by the tenant's functions runs `factor`× slower
    /// (1.0 clears the injection). Deterministic — it scales already-sampled
    /// speed factors and draws no randomness — and visible only to runs
    /// that call it, so committed results never change.
    pub fn set_tenant_slowdown(&mut self, tenant: &str, factor: f64) {
        if factor == 1.0 {
            self.slowdowns.remove(tenant);
        } else {
            self.slowdowns.insert(Rc::from(tenant), factor.max(1e-9));
        }
    }

    /// A tenant's currently active instance count.
    pub fn tenant_active(&self, tenant: &str) -> u32 {
        self.tenants.get(tenant).map_or(0, |t| t.active)
    }

    /// High-water mark of a tenant's concurrent instances over the run.
    pub fn tenant_peak(&self, tenant: &str) -> u32 {
        self.tenants.get(tenant).map_or(0, |t| t.peak)
    }

    /// Invocations the tenant's quota deferred so far.
    pub fn tenant_throttled(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.throttled)
    }

    fn acquire(&mut self, tenant: &Option<Rc<str>>) {
        if let Some(t) = tenant {
            let ta = self.tenants.entry(t.clone()).or_default();
            ta.active += 1;
            ta.peak = ta.peak.max(ta.active);
        }
    }

    fn release(&mut self, tenant: &Option<Rc<str>>) {
        if let Some(t) = tenant {
            if let Some(ta) = self.tenants.get_mut(t) {
                ta.active = ta.active.saturating_sub(1);
            }
        }
    }
}

/// The default spec for a region (the evaluation's per-cloud configuration).
pub fn default_spec(world: &World, region: RegionId) -> FnSpec {
    let cloud = world.regions.cloud(region);
    let cp = world.params.cloud(cloud);
    FnSpec {
        config: cp.default_fn_config,
        timeout: cp.fn_timeout,
    }
}

/// Asynchronously invokes a function in `region`.
///
/// The invocation is accepted after the sampled API latency `I`; execution
/// begins once a warm instance is reused or a cold instance boots (subject to
/// the scale-out scheduler and the concurrency quota). Returns the
/// [`InvocationId`] immediately (fire-and-forget, like an async Lambda
/// invoke).
pub fn invoke(
    sim: &mut CloudSim,
    region: RegionId,
    spec: FnSpec,
    body: FnBody,
    policy: RetryPolicy,
) -> InvocationId {
    invoke_after(sim, SimDuration::ZERO, region, spec, body, policy)
}

/// Like [`invoke`], but the API call is issued after `delay` — used to model
/// the orchestrator's pipelined `I × n` invocation loop.
///
/// An installed fault decider may swallow the request
/// ([`FaultSite::InvocationDrop`](crate::fault::FaultSite::InvocationDrop)):
/// the caller gets an id that never runs. Platform retries re-enter past
/// this check, so they are never dropped.
pub fn invoke_after(
    sim: &mut CloudSim,
    delay: SimDuration,
    region: RegionId,
    spec: FnSpec,
    body: FnBody,
    policy: RetryPolicy,
) -> InvocationId {
    if let Some(dropped) = sim.world.faults.as_mut().and_then(Faults::drop_invocation) {
        return dropped;
    }
    let now = sim.now();
    let world = &mut sim.world;
    world.faas.next_invocation += 1;
    let invocation = InvocationId(world.faas.next_invocation);
    let cloud = world.regions.cloud(region);
    let request_fee = pricing::Money::from_dollars(
        world.catalog.cloud(cloud).function.per_million_requests / 1e6,
    );
    world.charge(cloud, CostCategory::FunctionRequests, request_fee);
    let api_latency = {
        let d = world.params.cloud(cloud).invoke_latency.clone();
        SimDuration::from_secs_f64(d.sample_nonneg(world.faas_rng_mut()))
    };
    let tenant = world.tenant_scope();
    if world.trace.enabled() {
        let label = world.regions.label(region);
        let mut tags = vec![("region", label)];
        if let Some(t) = &tenant {
            tags.push(("tenant", t.to_string()));
        }
        world.trace.span_complete(
            now + delay,
            api_latency,
            simtrace::names::FAAS_INVOKE_API,
            tags,
        );
        world.trace.counter_add("faas.invocations", 1);
    }
    let pending = Pending {
        invocation,
        spec,
        body,
        attempt: 0,
        policy,
        tenant,
    };
    sim.schedule_in(delay + api_latency, move |sim| {
        accept(sim, region, pending);
    });
    invocation
}

fn accept(sim: &mut CloudSim, region: RegionId, pending: Pending) {
    let now = sim.now();
    let world = &mut sim.world;
    world.set_tenant_scope(pending.tenant.clone());
    world.faas.stats.attempts += 1;

    // Prune expired warm instances, in one pass over the region's list.
    let faas = &mut world.faas;
    let rf = faas.regions.entry(region).or_default();
    rf.warm.retain(|&(id, exp)| {
        let live = exp > now;
        if !live {
            faas.instances.remove(id);
        }
        live
    });

    try_start(sim, region, pending);
}

fn try_start(sim: &mut CloudSim, region: RegionId, pending: Pending) {
    let now = sim.now();
    let cloud = sim.world.regions.cloud(region);
    let limit = sim.world.params.cloud(cloud).concurrency_limit;

    let world = &mut sim.world;
    world.set_tenant_scope(pending.tenant.clone());

    // Tenant quota gate — checked before warm reuse, because the quota caps
    // the tenant's concurrency regardless of where the instance comes from
    // (warm reuse bypasses only the *regional* limit, matching platforms).
    if let Some(t) = pending.tenant.clone() {
        let ta = world.faas.tenants.entry(t.clone()).or_default();
        if let Some(lim) = ta.limit {
            if ta.active >= lim {
                ta.throttled += 1;
                world.faas.stats.throttled += 1;
                if world.trace.enabled() {
                    let label = world.regions.label(region);
                    world.trace.instant(
                        now,
                        "faas.tenant_throttled",
                        vec![("region", label), ("tenant", t.to_string())],
                    );
                    world
                        .trace
                        .counter_add(&simtrace::scoped(&t, "faas.throttled"), 1);
                }
                let ta = world.faas.tenants.entry(t).or_default();
                ta.queued.push_back((region, pending));
                return;
            }
        }
    }

    let world = &mut sim.world;
    let rf = world.faas.regions.entry(region).or_default();

    // Warm reuse: LIFO keeps recently used instances hot, matching real
    // platforms' placement preference. Reuse never crosses tenants. The
    // dequeue paths arrive here without `accept`'s prune, so an expired
    // entry is skipped here.
    let instances = &world.faas.instances;
    let reusable = |&(id, exp): &(InstanceId, SimTime)| {
        exp > now
            && instances
                .get(id)
                .is_some_and(|i| i.spec.config == pending.spec.config && i.tenant == pending.tenant)
    };
    if let Some(pos) = rf.warm.iter().rposition(reusable) {
        let (instance, _) = rf.warm.remove(pos);
        rf.active += 1;
        world.faas.acquire(&pending.tenant);
        world.faas.stats.warm_starts += 1;
        if world.trace.enabled() {
            let label = world.regions.label(region);
            world
                .trace
                .instant(now, "faas.warm", vec![("region", label)]);
            world.trace.counter_add("faas.warm_starts", 1);
        }
        exec_begin(sim, region, instance, pending);
        return;
    }

    if rf.active < limit {
        rf.active += 1;
        world.faas.acquire(&pending.tenant);
        world.faas.stats.cold_starts += 1;
        let speed_factor = {
            let (params, rng) = world.faas_rng_and_params();
            sample_instance_factor(params, cloud, rng)
        };
        let instance = world.faas.instances.push(Instance {
            spec: pending.spec,
            speed_factor,
            exec: None,
            tenant: pending.tenant.clone(),
        });
        // Scale-out batching: new instances only materialize on the
        // platform scheduler's next tick (GCP documents 5 s; Azure behaves
        // similarly; AWS scales immediately).
        let period_s = world.params.cloud(cloud).scheduler_period_s;
        let sched_wait = if period_s > 0.0 {
            let period = SimDuration::from_secs_f64(period_s);
            let ticks = now.as_nanos() / period.as_nanos() + 1;
            SimTime::from_nanos(ticks * period.as_nanos()) - now
        } else {
            SimDuration::ZERO
        };
        let cold = {
            let d = world.params.cloud(cloud).cold_start.clone();
            SimDuration::from_secs_f64(d.sample_nonneg(world.faas_rng_mut()))
        };
        if world.trace.enabled() {
            let label = world.regions.label(region);
            if !sched_wait.is_zero() {
                world.trace.span_complete(
                    now,
                    sched_wait,
                    simtrace::names::FAAS_POSTPONE,
                    vec![("region", label.clone())],
                );
            }
            world.trace.span_complete(
                now + sched_wait,
                cold,
                simtrace::names::FAAS_COLD_START,
                vec![("region", label)],
            );
            world.trace.counter_add("faas.cold_starts", 1);
            world
                .trace
                .histogram_record("faas.cold_start_secs", cold.as_secs_f64());
        }
        sim.schedule_in(sched_wait + cold, move |sim| {
            exec_begin(sim, region, instance, pending);
        });
        return;
    }

    // Concurrency limit reached: queue until capacity frees up.
    world.faas.stats.throttled += 1;
    if world.trace.enabled() {
        let label = world.regions.label(region);
        world
            .trace
            .instant(now, "faas.throttled", vec![("region", label)]);
        world.trace.counter_add("faas.throttled", 1);
    }
    rf.queued.push_back(pending);
}

fn exec_begin(sim: &mut CloudSim, region: RegionId, instance: InstanceId, pending: Pending) {
    let now = sim.now();
    let deadline = now + pending.spec.timeout;
    let invocation = pending.invocation;
    let body = pending.body.clone();
    // The body's operations are attributed to the invocation's tenant.
    sim.world.set_tenant_scope(pending.tenant.clone());
    let inst = sim
        .world
        .faas
        .instances
        .get_mut(instance)
        .expect("exec_begin on destroyed instance");
    inst.exec = Some(ExecState {
        started: now,
        deadline,
        pending,
    });
    let handle = FnHandle {
        instance,
        invocation,
        region,
    };

    // Hard execution limit, enforced by the watchdog. A drained run still
    // ends no earlier than the deadline (the clock hold): experiments that
    // run several phases in one world start each phase at that instant.
    sim.world
        .faas
        .deadlines
        .insert((deadline, invocation), handle);
    sim.hold_until(deadline);
    arm_watchdog(sim, deadline);

    body(sim, handle);
}

/// Queues a watchdog event at `at`, unless one is armed no later.
fn arm_watchdog(sim: &mut CloudSim, at: SimTime) {
    if sim.world.faas.watchdog.is_some_and(|armed| armed <= at) {
        return;
    }
    sim.world.faas.watchdog = Some(at);
    sim.schedule_at(at, move |sim| watchdog(sim, at));
}

/// Times out every live invocation whose deadline has passed, in deadline
/// order, then re-arms at the next deadline. A watchdog that an earlier one
/// superseded does nothing.
fn watchdog(sim: &mut CloudSim, armed: SimTime) {
    if sim.world.faas.watchdog != Some(armed) {
        return;
    }
    let now = sim.now();
    // Still armed while failing, so an invocation that a failure dequeues,
    // whose deadline is later, arms nothing.
    while let Some(entry) = sim.world.faas.deadlines.first_entry() {
        if entry.key().0 > now {
            break;
        }
        let handle = entry.remove();
        if sim.world.faas.is_live(handle) {
            sim.world.faas.stats.timeouts += 1;
            if sim.world.trace.enabled() {
                let label = sim.world.regions.label(handle.region);
                sim.world
                    .trace
                    .instant(now, "faas.timeout", vec![("region", label)]);
                sim.world.trace.counter_add("faas.timeouts", 1);
            }
            fail(sim, handle, FailureReason::Timeout);
        }
    }
    sim.world.faas.watchdog = None;
    if let Some(&(next, _)) = sim.world.faas.deadlines.keys().next() {
        arm_watchdog(sim, next);
    }
}

fn bill_execution(sim: &mut CloudSim, handle: FnHandle) -> SimDuration {
    let now = sim.now();
    let world = &mut sim.world;
    let inst = world
        .faas
        .instances
        .get(handle.instance)
        .expect("billing a destroyed instance");
    let exec = inst.exec.as_ref().expect("billing an idle instance");
    let dur = now - exec.started;
    let cloud = world.regions.cloud(handle.region);
    let prices = world.catalog.cloud(cloud).function;
    let secs = dur.as_secs_f64();
    let dollars = secs * inst.spec.config.memory_gb() * prices.per_gb_second
        + secs * inst.spec.config.vcpus * prices.per_vcpu_second;
    world.charge(
        cloud,
        CostCategory::FunctionCompute,
        pricing::Money::from_dollars(dollars),
    );
    dur
}

/// Completes an invocation normally: bills compute, returns the instance to
/// the warm pool, and admits queued work.
///
/// No-op if the invocation is no longer live (e.g. it already timed out).
pub fn finish(sim: &mut CloudSim, handle: FnHandle) {
    if !sim.world.faas.is_live(handle) {
        return;
    }
    let tenant = sim
        .world
        .faas
        .instances
        .get(handle.instance)
        .and_then(|i| i.tenant.clone());
    // Billing (and any follow-on work) is attributed to the instance's
    // tenant — this covers completions delivered outside the body's own
    // causal chain.
    sim.world.set_tenant_scope(tenant.clone());
    bill_execution(sim, handle);
    let now = sim.now();
    let cloud = sim.world.regions.cloud(handle.region);
    let expiry = sim.world.params.cloud(cloud).warm_idle_expiry;
    let expires_at = now + expiry;
    let faas = &mut sim.world.faas;
    let exec = faas
        .instances
        .get_mut(handle.instance)
        .and_then(|i| i.exec.take())
        .expect("finish on an idle instance");
    faas.deadlines.remove(&(exec.deadline, handle.invocation));
    let rf = faas.regions.entry(handle.region).or_default();
    rf.active -= 1;
    // The slot expires lazily (see `RegionFaas::warm`); as with deadlines,
    // a drained run still ends no earlier than the expiry.
    rf.warm.push((handle.instance, expires_at));
    sim.hold_until(expires_at);
    sim.world.faas.release(&tenant);
    dequeue_tenant(sim, &tenant);
    dequeue_next(sim, handle.region);
}

/// Fails the current attempt: bills compute, destroys the instance, and
/// either schedules a platform retry or parks the event on the DLQ.
pub fn fail(sim: &mut CloudSim, handle: FnHandle, reason: FailureReason) {
    if !sim.world.faas.is_live(handle) {
        return;
    }
    let tenant = sim
        .world
        .faas
        .instances
        .get(handle.instance)
        .and_then(|i| i.tenant.clone());
    sim.world.set_tenant_scope(tenant.clone());
    bill_execution(sim, handle);
    if reason == FailureReason::Crash {
        sim.world.faas.stats.crashes += 1;
        sim.world.trace.counter_add("faas.crashes", 1);
    }
    let faas = &mut sim.world.faas;
    let exec = faas.instances.remove(handle.instance).and_then(|i| i.exec);
    if let Some(exec) = &exec {
        faas.deadlines.remove(&(exec.deadline, handle.invocation));
    }
    if let Some(rf) = faas.regions.get_mut(&handle.region) {
        rf.active -= 1;
    }
    sim.world.faas.release(&tenant);

    if let Some(ExecState { pending, .. }) = exec {
        let attempt = pending.attempt;
        if attempt < pending.policy.max_retries {
            sim.world.faas.stats.retries += 1;
            if sim.world.trace.enabled() {
                let at = sim.now();
                let label = sim.world.regions.label(handle.region);
                sim.world.trace.instant(
                    at,
                    "faas.retry",
                    vec![("region", label), ("reason", format!("{reason:?}"))],
                );
                sim.world.trace.counter_add("faas.retries", 1);
            }
            let region = handle.region;
            // Platform retry back-off (compressed relative to Lambda's
            // minute-scale async retry to keep simulations tractable; the
            // paper's experiments never exercise retries on the happy path).
            let backoff = SimDuration::from_millis(500) * (attempt as u64 + 1);
            let retry = Pending {
                attempt: attempt + 1,
                ..pending
            };
            sim.schedule_in(backoff, move |sim| accept(sim, region, retry));
        } else {
            sim.world.faas.stats.dlq += 1;
            if sim.world.trace.enabled() {
                let at = sim.now();
                let label = sim.world.regions.label(handle.region);
                sim.world.trace.instant(
                    at,
                    "faas.dlq",
                    vec![("region", label), ("reason", format!("{reason:?}"))],
                );
                sim.world.trace.counter_add("faas.dlq", 1);
            }
            let at = sim.now();
            sim.world.faas.dlq.push(DlqEntry {
                invocation: handle.invocation,
                region: handle.region,
                reason,
                at,
            });
        }
    }
    dequeue_tenant(sim, &tenant);
    dequeue_next(sim, handle.region);
}

/// Starts a tenant-queued invocation if the tenant is back below its quota.
/// Checked before the regional queue: a freed slot belongs to the tenant
/// that held it.
fn dequeue_tenant(sim: &mut CloudSim, tenant: &Option<Rc<str>>) {
    let Some(t) = tenant else { return };
    let next = {
        let Some(ta) = sim.world.faas.tenants.get_mut(t) else {
            return;
        };
        let below = match ta.limit {
            Some(lim) => ta.active < lim,
            None => true,
        };
        if below {
            ta.queued.pop_front()
        } else {
            None
        }
    };
    if let Some((region, pending)) = next {
        try_start(sim, region, pending);
    }
}

fn dequeue_next(sim: &mut CloudSim, region: RegionId) {
    let cloud = sim.world.regions.cloud(region);
    let limit = sim.world.params.cloud(cloud).concurrency_limit;
    let next = {
        let rf = sim.world.faas.regions.entry(region).or_default();
        if rf.active < limit {
            rf.queued.pop_front()
        } else {
            None
        }
    };
    if let Some(pending) = next {
        try_start(sim, region, pending);
    }
}
