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

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use pricing::CostCategory;
use simkernel::{SimDuration, SimTime};

use crate::net::sample_instance_factor;
use crate::region::RegionId;
use crate::world::{CloudSim, World};

pub use cloudapi::faas::{
    DlqEntry, FaasStats, FailureReason, FnHandle, FnSpec, InstanceId, InvocationId, RetryPolicy,
};

/// A function body, re-runnable on platform retry.
pub type FnBody = Rc<dyn Fn(&mut CloudSim, FnHandle)>;

#[derive(Debug)]
struct ExecState {
    invocation: InvocationId,
    started: SimTime,
    deadline: SimTime,
}

#[derive(Debug)]
struct Instance {
    spec: FnSpec,
    speed_factor: f64,
    exec: Option<ExecState>,
    /// Bumped on every reuse; guards warm-expiry races.
    use_count: u64,
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

#[derive(Default)]
struct RegionFaas {
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
    instances: BTreeMap<InstanceId, Instance>,
    tenants: BTreeMap<Rc<str>, TenantFaas>,
    /// Per-tenant performance degradation (≥ 1.0 = that many times
    /// slower). Models the instance-level performance drift serverless
    /// platforms exhibit over time; experiments inject it mid-run to
    /// exercise SLO burn-rate monitoring. Empty (all 1.0) in every
    /// result-producing run, so default behavior is untouched.
    slowdowns: BTreeMap<Rc<str>, f64>,
    next_instance: u64,
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

    /// True while `handle`'s invocation is still the one executing on its
    /// instance (continuations must check this, and the world wrappers do).
    pub fn is_live(&self, handle: FnHandle) -> bool {
        self.instances
            .get(&handle.instance)
            .and_then(|i| i.exec.as_ref())
            .is_some_and(|e| e.invocation == handle.invocation)
    }

    /// Time left before `handle`'s invocation hits its execution limit, or
    /// `None` if the invocation is not live. Replicator bodies use this to
    /// stop claiming parts they cannot finish.
    pub fn remaining_time(&self, handle: FnHandle, now: SimTime) -> Option<SimDuration> {
        let exec = self.instances.get(&handle.instance)?.exec.as_ref()?;
        if exec.invocation != handle.invocation {
            return None;
        }
        Some(exec.deadline.saturating_since(now))
    }

    /// The persistent speed factor of an instance (1.0 if unknown — only
    /// possible for a dead instance whose transfers are being dropped),
    /// divided by the owning tenant's injected slowdown, if any.
    pub fn speed_factor(&self, instance: InstanceId) -> f64 {
        self.instances.get(&instance).map_or(1.0, |i| {
            let slow = i
                .tenant
                .as_ref()
                .and_then(|t| self.slowdowns.get(t))
                .copied()
                .unwrap_or(1.0);
            i.speed_factor / slow.max(1e-9)
        })
    }

    /// The spec of an instance, if alive.
    pub fn instance_spec(&self, instance: InstanceId) -> Option<FnSpec> {
        self.instances.get(&instance).map(|i| i.spec)
    }

    /// Number of currently active (reserved or executing) instances.
    pub fn active_in(&self, region: RegionId) -> u32 {
        self.regions.get(&region).map_or(0, |r| r.active)
    }

    /// Number of idle warm instances.
    pub fn warm_in(&self, region: RegionId) -> usize {
        self.regions.get(&region).map_or(0, |r| r.warm.len())
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
pub fn invoke_after(
    sim: &mut CloudSim,
    delay: SimDuration,
    region: RegionId,
    spec: FnSpec,
    body: FnBody,
    policy: RetryPolicy,
) -> InvocationId {
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
    // A FaaS outage window postpones acceptance: a dead or black-holed
    // regional scheduler holds the invoke until the window closes (the
    // paper's scheduler-postponement shape); a brownout multiplies the API
    // latency. The no-outage path is one emptiness check.
    let api_latency = if world.outage.is_empty() {
        api_latency
    } else {
        let gate = world
            .outage
            .shaping(now + delay, region, crate::outage::Service::Faas);
        crate::outage::OutageSchedule::shape(gate, api_latency)
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
            faas.instances.remove(&id);
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
    // platforms' placement preference. Reuse never crosses tenants.
    if let Some(pos) = rf.warm.iter().rposition(|(id, _)| {
        world
            .faas
            .instances
            .get(id)
            .is_some_and(|i| i.spec.config == pending.spec.config && i.tenant == pending.tenant)
    }) {
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
        world.faas.next_instance += 1;
        let instance = InstanceId(world.faas.next_instance);
        let speed_factor = {
            let (params, rng) = world.faas_rng_and_params();
            sample_instance_factor(params, cloud, rng)
        };
        world.faas.instances.insert(
            instance,
            Instance {
                spec: pending.spec,
                speed_factor,
                exec: None,
                use_count: 0,
                tenant: pending.tenant.clone(),
            },
        );
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
    // The body's operations are attributed to the invocation's tenant.
    sim.world.set_tenant_scope(pending.tenant.clone());
    {
        let inst = sim
            .world
            .faas
            .instances
            .get_mut(&instance)
            .expect("exec_begin on destroyed instance");
        inst.use_count += 1;
        inst.exec = Some(ExecState {
            invocation,
            started: now,
            deadline,
        });
    }
    let handle = FnHandle {
        instance,
        invocation,
        region,
    };
    // Park the retry context so fail() can re-invoke the same body.
    sim.world.faas_retry_contexts.insert(
        invocation,
        (
            pending.body.clone(),
            pending.attempt,
            pending.policy,
            pending.spec,
            pending.tenant.clone(),
        ),
    );

    // Hard timeout guard.
    sim.schedule_at(deadline, move |sim| {
        if sim.world.faas.is_live(handle) {
            sim.world.faas.stats.timeouts += 1;
            if sim.world.trace.enabled() {
                let at = sim.now();
                let label = sim.world.regions.label(handle.region);
                sim.world
                    .trace
                    .instant(at, "faas.timeout", vec![("region", label)]);
                sim.world.trace.counter_add("faas.timeouts", 1);
            }
            fail(sim, handle, FailureReason::Timeout);
        }
    });

    (pending.body)(sim, handle);
}

fn bill_execution(sim: &mut CloudSim, handle: FnHandle) -> SimDuration {
    let now = sim.now();
    let world = &mut sim.world;
    let inst = world
        .faas
        .instances
        .get(&handle.instance)
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
        .get(&handle.instance)
        .and_then(|i| i.tenant.clone());
    // Billing (and any follow-on work) is attributed to the instance's
    // tenant — this covers completions delivered outside the body's own
    // causal chain.
    sim.world.set_tenant_scope(tenant.clone());
    bill_execution(sim, handle);
    sim.world.faas_retry_contexts.remove(&handle.invocation);
    let now = sim.now();
    let cloud = sim.world.regions.cloud(handle.region);
    let expiry = sim.world.params.cloud(cloud).warm_idle_expiry;
    let expires_at = now + expiry;
    let use_count = {
        let inst = sim
            .world
            .faas
            .instances
            .get_mut(&handle.instance)
            .expect("finish on destroyed instance");
        inst.exec = None;
        inst.use_count
    };
    {
        let rf = sim.world.faas.regions.entry(handle.region).or_default();
        rf.active -= 1;
        rf.warm.push((handle.instance, expires_at));
    }
    sim.world.faas.release(&tenant);
    // Reclaim the warm slot when it expires unused.
    let instance = handle.instance;
    let region = handle.region;
    sim.schedule_at(expires_at, move |sim| {
        let still_unused = sim
            .world
            .faas
            .instances
            .get(&instance)
            .is_some_and(|i| i.use_count == use_count && i.exec.is_none());
        if still_unused {
            sim.world.faas.instances.remove(&instance);
            if let Some(rf) = sim.world.faas.regions.get_mut(&region) {
                rf.warm.retain(|(id, _)| *id != instance);
            }
        }
    });
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
        .get(&handle.instance)
        .and_then(|i| i.tenant.clone());
    sim.world.set_tenant_scope(tenant.clone());
    bill_execution(sim, handle);
    if reason == FailureReason::Crash {
        sim.world.faas.stats.crashes += 1;
        sim.world.trace.counter_add("faas.crashes", 1);
    }
    sim.world.faas.instances.remove(&handle.instance);
    if let Some(rf) = sim.world.faas.regions.get_mut(&handle.region) {
        rf.active -= 1;
    }
    sim.world.faas.release(&tenant);

    let ctx = sim.world.faas_retry_contexts.remove(&handle.invocation);
    if let Some((body, attempt, policy, spec, ctx_tenant)) = ctx {
        if attempt < policy.max_retries {
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
            let invocation = handle.invocation;
            // Platform retry back-off (compressed relative to Lambda's
            // minute-scale async retry to keep simulations tractable; the
            // paper's experiments never exercise retries on the happy path).
            let backoff = SimDuration::from_millis(500) * (attempt as u64 + 1);
            sim.schedule_in(backoff, move |sim| {
                let pending = Pending {
                    invocation,
                    spec,
                    body,
                    attempt: attempt + 1,
                    policy,
                    tenant: ctx_tenant,
                };
                accept(sim, region, pending);
            });
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
