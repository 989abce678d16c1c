//! The simulated multi-cloud world and its operation wrappers.
//!
//! [`World`] aggregates every per-region service (object stores, KV
//! databases, the function runtime, VMs, the network) plus the price catalog
//! and cost ledger. The free functions in this module are the *timed*
//! operation wrappers: they sample latencies from the ground-truth
//! parameters, meter costs, apply state changes at completion time, and
//! deliver results to continuation callbacks.
//!
//! Continuations passed by function bodies are automatically dropped when the
//! executing instance has died (timeout/crash) before completion, so bodies
//! never observe operations from a previous life.

use std::collections::BTreeMap;
use std::rc::Rc;

use pricing::{Cloud, CostCategory, CostLedger, Money, PriceCatalog};
use rand::rngs::StdRng;
use rand::Rng;
use simkernel::{rng::derive_rng, Sim, SimDuration};
use stats::Dist;

use crate::clouddb::{Item, KvDb};
use crate::faas::{FaasRuntime, FnBody, FnHandle, FnSpec, InvocationId, RetryPolicy};
use crate::net::{sample_leg_duration, Direction, ExecProfile, NetState};
use crate::objstore::{
    BlobId, Content, ETag, NotificationTarget, ObjectEvent, ObjectStat, ObjectStore, PutApplied,
    StoreError,
};
use crate::outage::{Gate, OutageSchedule, Service as OutageService};
use crate::params::WorldParams;
use crate::region::{RegionId, RegionRegistry};
use crate::vm::{VmService, VmState};

/// The simulator type every event runs against.
pub type CloudSim = Sim<World>;

/// A notification handler invoked when a subscribed bucket changes.
pub type NotifHandler = Rc<dyn Fn(&mut CloudSim, RegionId, ObjectEvent)>;

/// Who is performing a data-plane operation.
#[derive(Clone, Copy, Debug)]
pub enum Executor {
    /// A running cloud-function invocation.
    Function(FnHandle),
    /// A provisioned VM (the Skyplane baseline's gateways).
    Vm(crate::vm::VmId),
    /// The cloud platform itself or an external client, with a fixed
    /// region and bandwidth (used by proprietary-replication baselines and
    /// trace drivers).
    Platform {
        /// Region the traffic originates from.
        region: RegionId,
        /// Modelled bandwidth in Mbps.
        mbps: f64,
    },
}

/// Parked state needed to re-invoke a failed function: `(body, attempt,
/// retry policy, spec, owning tenant)`.
pub(crate) type RetryContext = (FnBody, u32, RetryPolicy, FnSpec, Option<Rc<str>>);

/// The complete simulated world.
pub struct World {
    /// Ground-truth performance parameters.
    pub params: WorldParams,
    /// Price catalog.
    pub catalog: PriceCatalog,
    /// Cost ledger all operations meter into.
    pub ledger: CostLedger,
    /// Region registry.
    pub regions: RegionRegistry,
    /// Function runtime.
    pub faas: FaasRuntime,
    /// VM service.
    pub vms: VmService,
    /// Network state (concurrent legs).
    pub net: NetState,
    /// Fault-domain outage windows the operation wrappers consult. Empty by
    /// default: the no-outage path performs one emptiness check per
    /// operation, draws no extra randomness, and schedules no extra events,
    /// so pre-outage runs stay byte-identical.
    pub outage: OutageSchedule,
    /// Deterministic trace/metrics collector. Disabled by default; the
    /// operation wrappers record spans and counters into it when enabled.
    /// Recording draws no randomness and schedules no events, so enabling
    /// it cannot perturb simulation results.
    pub trace: simtrace::Tracer,
    objstores: Vec<ObjectStore>,
    dbs: Vec<KvDb>,
    notif_handlers: BTreeMap<u64, NotifHandler>,
    next_handler: u64,
    next_blob: u64,
    faas_rng: StdRng,
    net_rng: StdRng,
    db_rng: StdRng,
    pub(crate) faas_retry_contexts: BTreeMap<InvocationId, RetryContext>,
    /// Master seed, kept so per-tenant RNG streams can be derived lazily.
    seed: u64,
    /// The ambient tenant scope: which tenant the operation currently being
    /// issued is attributed to. `None` is the implicit default tenant — the
    /// single-tenant path every pre-tenancy experiment runs on, with
    /// unchanged ledger writes and RNG streams. The timed operation wrappers
    /// capture the scope at call time and re-establish it when their
    /// continuations fire, so attribution follows causal chains without the
    /// core threading a tenant through every callback.
    tenant_scope: Option<Rc<str>>,
    /// Per-tenant cost attribution: every `charge` under a tenant scope is
    /// dual-written here in addition to the global ledger.
    tenant_ledgers: BTreeMap<Rc<str>, CostLedger>,
    /// Lazily-derived per-(tenant, stream) RNG streams. Tenants draw from
    /// their own streams so one tenant's load cannot perturb another
    /// tenant's sampled latencies — the property that makes a tenant's
    /// shared-run cost bit-equal to its solo run.
    tenant_rngs: BTreeMap<(Rc<str>, &'static str), StdRng>,
}

impl World {
    /// Builds a world over the given regions with explicit parameters.
    pub fn new(
        seed: u64,
        regions: RegionRegistry,
        params: WorldParams,
        catalog: PriceCatalog,
    ) -> World {
        let n = regions.len();
        World {
            params,
            catalog,
            ledger: CostLedger::new(),
            regions,
            faas: FaasRuntime::new(),
            vms: VmService::new(),
            net: NetState::new(),
            outage: OutageSchedule::new(),
            trace: simtrace::Tracer::new(),
            objstores: (0..n).map(|_| ObjectStore::new()).collect(),
            dbs: (0..n).map(|_| KvDb::new()).collect(),
            notif_handlers: BTreeMap::new(),
            next_handler: 0,
            next_blob: 0,
            faas_rng: derive_rng(seed, "world:faas"),
            net_rng: derive_rng(seed, "world:net"),
            db_rng: derive_rng(seed, "world:db"),
            faas_retry_contexts: BTreeMap::new(),
            seed,
            tenant_scope: None,
            tenant_ledgers: BTreeMap::new(),
            tenant_rngs: BTreeMap::new(),
        }
    }

    /// The standard world: the paper's 13 regions, calibrated ground truth,
    /// and public list prices.
    pub fn paper(seed: u64) -> World {
        World::new(
            seed,
            RegionRegistry::paper_regions(),
            WorldParams::paper_defaults(),
            PriceCatalog::paper_defaults(),
        )
    }

    /// Convenience: a ready-to-run simulator over [`World::paper`].
    pub fn paper_sim(seed: u64) -> CloudSim {
        Sim::new(seed, World::paper(seed))
    }

    /// Records a charge on the ledger. Under a tenant scope the charge is
    /// also attributed to that tenant's ledger.
    pub fn charge(&mut self, cloud: Cloud, category: CostCategory, amount: Money) {
        if let Some(tenant) = &self.tenant_scope {
            self.tenant_ledgers
                .entry(tenant.clone())
                .or_default()
                .charge(cloud, category, amount);
        }
        self.ledger.charge(cloud, category, amount);
    }

    /// The ambient tenant scope (see the field docs).
    pub fn tenant_scope(&self) -> Option<Rc<str>> {
        self.tenant_scope.clone()
    }

    /// Sets the ambient tenant scope. Drivers set it around the external
    /// events of a tenant (e.g. its `user_put`s); the operation wrappers
    /// propagate it along causal chains from there.
    pub fn set_tenant_scope(&mut self, scope: Option<Rc<str>>) {
        self.tenant_scope = scope;
    }

    /// A tenant's attributed cost ledger, if it has been charged at all.
    pub fn tenant_ledger(&self, tenant: &str) -> Option<&CostLedger> {
        self.tenant_ledgers.get(tenant)
    }

    /// Tenants with attributed charges, in deterministic order.
    pub fn tenant_ledgers(&self) -> impl Iterator<Item = (&str, &CostLedger)> {
        self.tenant_ledgers.iter().map(|(t, l)| (&**t, l))
    }

    /// The object store of a region.
    pub fn objstore(&self, region: RegionId) -> &ObjectStore {
        &self.objstores[region.index()]
    }

    /// Mutable object store of a region.
    pub fn objstore_mut(&mut self, region: RegionId) -> &mut ObjectStore {
        &mut self.objstores[region.index()]
    }

    /// The KV database of a region.
    pub fn db(&self, region: RegionId) -> &KvDb {
        &self.dbs[region.index()]
    }

    /// Mutable KV database of a region.
    pub fn db_mut(&mut self, region: RegionId) -> &mut KvDb {
        &mut self.dbs[region.index()]
    }

    /// Mints a fresh blob identity (a distinct written content).
    pub fn alloc_blob(&mut self) -> BlobId {
        self.next_blob += 1;
        BlobId(self.next_blob)
    }

    /// Registers a notification handler; subscribe buckets to the returned
    /// target via [`subscribe_bucket`].
    pub fn register_handler(&mut self, handler: NotifHandler) -> NotificationTarget {
        self.next_handler += 1;
        self.notif_handlers.insert(self.next_handler, handler);
        NotificationTarget(self.next_handler)
    }

    /// RNG stream for FaaS timing draws (per-tenant under a tenant scope).
    pub fn faas_rng_mut(&mut self) -> &mut StdRng {
        match self.tenant_scope.clone() {
            None => &mut self.faas_rng,
            Some(t) => self.tenant_rng(t, "faas"),
        }
    }

    /// RNG stream for network/VM draws (per-tenant under a tenant scope).
    pub fn net_rng_mut(&mut self) -> &mut StdRng {
        match self.tenant_scope.clone() {
            None => &mut self.net_rng,
            Some(t) => self.tenant_rng(t, "net"),
        }
    }

    /// RNG stream for DB latency draws (per-tenant under a tenant scope).
    pub fn db_rng_mut(&mut self) -> &mut StdRng {
        match self.tenant_scope.clone() {
            None => &mut self.db_rng,
            Some(t) => self.tenant_rng(t, "db"),
        }
    }

    fn tenant_rng(&mut self, tenant: Rc<str>, stream: &'static str) -> &mut StdRng {
        let seed = self.seed;
        self.tenant_rngs
            .entry((tenant.clone(), stream))
            .or_insert_with(|| derive_rng(seed, &format!("tenant:{tenant}:{stream}")))
    }

    /// Resolves an executor to its profile, or `None` if it is dead.
    pub fn exec_profile(&self, exec: Executor) -> Option<ExecProfile> {
        match exec {
            Executor::Function(h) => {
                if !self.faas.is_live(h) {
                    return None;
                }
                let region = h.region;
                let cloud = self.regions.cloud(region);
                let spec = self.faas.instance_spec(h.instance)?;
                let (down, up) = self.params.cloud(cloud).nic_mbps(cloud, spec.config);
                Some(ExecProfile {
                    region,
                    cloud,
                    down_mbps: down,
                    up_mbps: up,
                    speed_factor: self.faas.speed_factor(h.instance),
                })
            }
            Executor::Vm(id) => {
                if self.vms.state(id) != Some(VmState::Running) {
                    return None;
                }
                let region = self.vms.region(id)?;
                let cloud = self.regions.cloud(region);
                let mbps = self.params.cloud(cloud).vm_bandwidth_mbps;
                let factor = self.vms.vms.get(&id).map(|v| v.speed_factor).unwrap_or(1.0);
                Some(ExecProfile {
                    region,
                    cloud,
                    down_mbps: mbps,
                    up_mbps: mbps,
                    speed_factor: factor,
                })
            }
            Executor::Platform { region, mbps } => Some(ExecProfile {
                region,
                cloud: self.regions.cloud(region),
                down_mbps: mbps,
                up_mbps: mbps,
                speed_factor: 1.0,
            }),
        }
    }

    /// True if the executor can still observe operation completions.
    pub fn exec_alive(&self, exec: Executor) -> bool {
        match exec {
            Executor::Function(h) => self.faas.is_live(h),
            Executor::Vm(id) => self.vms.state(id) == Some(VmState::Running),
            Executor::Platform { .. } => true,
        }
    }

    /// One-way WAN propagation delay between two regions, in seconds.
    pub fn wan_propagation_s(&self, a: RegionId, b: RegionId) -> f64 {
        0.06 * self.regions.geo(a).distance_factor(self.regions.geo(b))
    }
}

/// Schedules `cb` with the current tenant scope captured and re-established
/// when the event fires, so operation continuations stay attributed to the
/// tenant that issued the operation. On the default-tenant path the captured
/// scope is `None` and re-establishing it is a no-op.
pub fn schedule_scoped(
    sim: &mut CloudSim,
    delay: SimDuration,
    cb: impl FnOnce(&mut CloudSim) + 'static,
) {
    let scope = sim.world.tenant_scope.clone();
    sim.schedule_in(delay, move |sim| {
        sim.world.tenant_scope = scope;
        cb(sim);
    });
}

/// Appends the ambient tenant as a span tag (only under a tenant scope, so
/// default-path trace output is unchanged).
fn tenant_tag(world: &World, tags: &mut Vec<(&'static str, String)>) {
    if let Some(t) = &world.tenant_scope {
        tags.push(("tenant", t.to_string()));
    }
}

/// Samples a crash for the executor (fault injection); returns `true` and
/// fails the instance if a crash fires.
fn maybe_crash(sim: &mut CloudSim, exec: Executor) -> bool {
    let p = sim.world.params.crash_probability;
    if p <= 0.0 {
        return false;
    }
    if let Executor::Function(handle) = exec {
        let roll: f64 = sim.world.net_rng_mut().gen();
        if roll < p {
            crate::faas::fail(sim, handle, crate::faas::FailureReason::Crash);
            return true;
        }
    }
    false
}

/// Runs one WAN/LAN transfer leg for `exec`, calling `cb` at completion.
///
/// Meters egress on the source cloud when the leg leaves a region. The
/// callback is dropped (never called) if the executor dies first.
pub fn run_leg(
    sim: &mut CloudSim,
    exec: Executor,
    remote: RegionId,
    dir: Direction,
    bytes: u64,
    cb: impl FnOnce(&mut CloudSim) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let (from, to) = match dir {
        Direction::Download => (remote, profile.region),
        Direction::Upload => (profile.region, remote),
    };
    let n_active = sim.world.net.begin_leg(from, to);
    let dur = if sim.world.tenant_scope.is_some() {
        // Tenant-scoped legs draw from the tenant's own stream; the ground
        // truth is cloned to split the borrow (off the default path).
        let params = sim.world.params.clone();
        let regions = sim.world.regions.clone();
        sample_leg_duration(
            &params,
            &regions,
            &profile,
            remote,
            dir,
            bytes,
            n_active,
            sim.world.net_rng_mut(),
        )
    } else {
        // Direct field access splits the borrows (params/regions shared,
        // RNG exclusive) without cloning per leg.
        let world = &mut sim.world;
        sample_leg_duration(
            &world.params,
            &world.regions,
            &profile,
            remote,
            dir,
            bytes,
            n_active,
            &mut world.net_rng,
        )
    };
    // A partitioned (or browned-out) WAN link shapes the leg: transfers on a
    // dead link hang until the window closes rather than erroring — a WAN
    // path that dies mid-transfer looks like a hung connection, not an RST.
    let dur = if sim.world.outage.is_empty() {
        dur
    } else {
        OutageSchedule::shape(sim.world.outage.link_shaping(sim.now(), from, to), dur)
    };
    if sim.world.trace.enabled() {
        let now = sim.now();
        let from_label = sim.world.regions.label(from);
        let to_label = sim.world.regions.label(to);
        let mut tags = vec![
            ("from", from_label),
            ("to", to_label),
            ("bytes", bytes.to_string()),
        ];
        tenant_tag(&sim.world, &mut tags);
        sim.world
            .trace
            .span_complete(now, dur, simtrace::names::NET_LEG, tags);
        sim.world.trace.counter_add("net.legs", 1);
        sim.world
            .trace
            .histogram_record("net.leg_secs", dur.as_secs_f64());
    }
    if from != to {
        let (src_cloud, src_geo) = {
            let r = &sim.world.regions;
            (r.cloud(from), r.geo(from))
        };
        let (dst_cloud, dst_geo) = {
            let r = &sim.world.regions;
            (r.cloud(to), r.geo(to))
        };
        let cost = sim
            .world
            .catalog
            .egress_cost(src_cloud, src_geo, dst_cloud, dst_geo, bytes);
        sim.world.charge(src_cloud, CostCategory::Egress, cost);
    }
    schedule_scoped(sim, dur, move |sim| {
        sim.world.net.end_leg(from, to);
        if sim.world.exec_alive(exec) {
            cb(sim);
        }
    });
}

/// Applies the objstore outage gate to a control-plane round trip issued at
/// the current instant: `Ok` carries the (possibly browned-out or stalled)
/// RTT to proceed with, `Err` carries the RTT after which the operation must
/// fail with [`StoreError::Unavailable`]. On the no-outage path this is one
/// emptiness check.
fn objstore_gate(
    sim: &mut CloudSim,
    region: RegionId,
    rtt: SimDuration,
) -> Result<SimDuration, SimDuration> {
    if sim.world.outage.is_empty() {
        return Ok(rtt);
    }
    match sim
        .world
        .outage
        .gate(sim.now(), region, OutageService::ObjStore)
    {
        Gate::Fail => Err(rtt),
        g => Ok(OutageSchedule::shape(g, rtt)),
    }
}

/// Samples a storage-API round trip from `exec`'s region to `region`.
fn storage_api_rtt(world: &mut World, exec_region: RegionId, region: RegionId) -> SimDuration {
    let cloud = world.regions.cloud(exec_region);
    let base = {
        let d = world.params.cloud(cloud).storage_api_rtt.clone();
        d.sample_nonneg(world.db_rng_mut())
    };
    let prop = 2.0 * world.wan_propagation_s(exec_region, region);
    SimDuration::from_secs_f64(base + prop)
}

fn charge_put_request(world: &mut World, region: RegionId) {
    let cloud = world.regions.cloud(region);
    let fee = world.catalog.cloud(cloud).storage.per_1k_put / 1_000.0;
    world.charge(
        cloud,
        CostCategory::StorageRequests,
        Money::from_dollars(fee),
    );
}

fn charge_get_request(world: &mut World, region: RegionId) {
    let cloud = world.regions.cloud(region);
    let fee = world.catalog.cloud(cloud).storage.per_10k_get / 10_000.0;
    world.charge(
        cloud,
        CostCategory::StorageRequests,
        Money::from_dollars(fee),
    );
}

/// Fans out bucket notifications for an applied write.
pub fn fanout_notifications(sim: &mut CloudSim, region: RegionId, applied: &PutApplied) {
    let cloud = sim.world.regions.cloud(region);
    for target in &applied.targets {
        let handler = sim.world.notif_handlers.get(&target.0).cloned();
        if let Some(handler) = handler {
            let delay = {
                let d = sim.world.params.cloud(cloud).notif_delay.clone();
                SimDuration::from_secs_f64(d.sample_nonneg(sim.world.net_rng_mut()))
            };
            if sim.world.trace.enabled() {
                let now = sim.now();
                let label = sim.world.regions.label(region);
                sim.world
                    .trace
                    .span_complete(now, delay, "notif.deliver", vec![("region", label)]);
                sim.world.trace.counter_add("notif.deliveries", 1);
            }
            let ev = applied.event.clone();
            schedule_scoped(sim, delay, move |sim| handler(sim, region, ev));
        }
    }
}

/// Subscribes a bucket's write events to a registered handler.
pub fn subscribe_bucket(
    world: &mut World,
    region: RegionId,
    bucket: &str,
    target: NotificationTarget,
) -> Result<(), StoreError> {
    world.objstore_mut(region).subscribe(bucket, target)
}

/// An *external* user PUT: applies instantly at the current simulated time
/// (the trace replayer's event timestamps are PUT completion times) and fans
/// out notifications. Returns the applied result. The user's own request is
/// not metered — replication cost accounting starts at the notification.
pub fn user_put(
    sim: &mut CloudSim,
    region: RegionId,
    bucket: &str,
    key: &str,
    size: u64,
) -> Result<PutApplied, StoreError> {
    let blob = sim.world.alloc_blob();
    let now = sim.now();
    let applied =
        sim.world
            .objstore_mut(region)
            .apply_put(bucket, key, Content::fresh(blob, size), now)?;
    sim.world.trace.counter_add("store.user_puts", 1);
    fanout_notifications(sim, region, &applied);
    Ok(applied)
}

/// An external user PUT with explicit content (for COPY/concat scenarios).
pub fn user_put_content(
    sim: &mut CloudSim,
    region: RegionId,
    bucket: &str,
    key: &str,
    content: Content,
) -> Result<PutApplied, StoreError> {
    let now = sim.now();
    let applied = sim
        .world
        .objstore_mut(region)
        .apply_put(bucket, key, content, now)?;
    fanout_notifications(sim, region, &applied);
    Ok(applied)
}

/// An external user DELETE.
pub fn user_delete(
    sim: &mut CloudSim,
    region: RegionId,
    bucket: &str,
    key: &str,
) -> Result<PutApplied, StoreError> {
    let now = sim.now();
    let applied = sim
        .world
        .objstore_mut(region)
        .apply_delete(bucket, key, now)?;
    sim.world.trace.counter_add("store.user_deletes", 1);
    fanout_notifications(sim, region, &applied);
    Ok(applied)
}

/// Records a storage/DB control-plane round trip as a complete span plus a
/// per-op counter. The latency is already sampled at the call site, so this
/// draws nothing and schedules nothing.
fn trace_api_call(
    sim: &mut CloudSim,
    region: RegionId,
    rtt: SimDuration,
    name: &'static str,
    counter: &str,
) {
    if sim.world.trace.enabled() {
        let now = sim.now();
        let label = sim.world.regions.label(region);
        let mut tags = vec![("region", label)];
        tenant_tag(&sim.world, &mut tags);
        sim.world.trace.span_complete(now, rtt, name, tags);
        sim.world.trace.counter_add(counter, 1);
    }
}

/// Stats an object from `exec` (HEAD request).
pub fn stat_object(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    key: String,
    cb: impl FnOnce(&mut CloudSim, Result<ObjectStat, StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    trace_api_call(sim, region, rtt, "store.stat", "store.ops.stat");
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_get_request(&mut sim.world, region);
        let result = sim.world.objstore(region).stat(&bucket, &key);
        cb(sim, result);
    });
}

/// Ranged GET: resolves the range against the version current at request
/// arrival, then transfers the bytes to the executor.
#[allow(clippy::too_many_arguments)]
pub fn get_object_range(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    key: String,
    offset: u64,
    len: u64,
    if_match: Option<ETag>,
    cb: impl FnOnce(&mut CloudSim, Result<(Content, ETag), StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    if sim.world.trace.enabled() {
        let now = sim.now();
        let label = sim.world.regions.label(region);
        sim.world.trace.span_complete(
            now,
            rtt,
            simtrace::names::STORE_GET_RANGE,
            vec![("region", label), ("key", key.clone())],
        );
        sim.world.trace.counter_add("store.ops.get_range", 1);
    }
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_get_request(&mut sim.world, region);
        let resolved = sim
            .world
            .objstore(region)
            .read_range(&bucket, &key, offset, len, if_match);
        match resolved {
            Ok((content, etag)) => {
                let bytes = content.size();
                run_leg(sim, exec, region, Direction::Download, bytes, move |sim| {
                    cb(sim, Ok((content, etag)));
                });
            }
            Err(e) => cb(sim, Err(e)),
        }
    });
}

/// Simple PUT of fully-assembled content: transfers the bytes, then applies
/// the write and fans out notifications.
pub fn put_object(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    key: String,
    content: Content,
    cb: impl FnOnce(&mut CloudSim, Result<PutApplied, StoreError>) + 'static,
) {
    if !sim.world.outage.is_empty() {
        match sim
            .world
            .outage
            .gate(sim.now(), region, OutageService::ObjStore)
        {
            // Brownout shapes control-plane RTTs and link legs; the upload
            // wire itself is browned out via a link window.
            Gate::Clear | Gate::Slow(_) => {}
            Gate::Stall(d) => {
                // Black-holed store: the client hangs, then the request goes
                // through after the window closes. Re-entering re-checks the
                // gate, so overlapping windows chain.
                schedule_scoped(sim, d, move |sim| {
                    put_object(sim, exec, region, bucket, key, content, cb);
                });
                return;
            }
            Gate::Fail => {
                let Some(profile) = sim.world.exec_profile(exec) else {
                    return;
                };
                let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
                schedule_scoped(sim, rtt, move |sim| {
                    if sim.world.exec_alive(exec) {
                        cb(sim, Err(StoreError::Unavailable));
                    }
                });
                return;
            }
        }
    }
    let bytes = content.size();
    if sim.world.trace.enabled() {
        let now = sim.now();
        let label = sim.world.regions.label(region);
        sim.world.trace.instant(
            now,
            simtrace::names::STORE_PUT,
            vec![
                ("region", label),
                ("key", key.clone()),
                ("bytes", bytes.to_string()),
            ],
        );
        sim.world.trace.counter_add("store.ops.put", 1);
    }
    run_leg(sim, exec, region, Direction::Upload, bytes, move |sim| {
        charge_put_request(&mut sim.world, region);
        let now = sim.now();
        let result = sim
            .world
            .objstore_mut(region)
            .apply_put(&bucket, &key, content, now);
        if let Ok(applied) = &result {
            fanout_notifications(sim, region, applied);
        }
        cb(sim, result);
    });
}

/// DELETE an object from an executor.
pub fn delete_object(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    key: String,
    cb: impl FnOnce(&mut CloudSim, Result<PutApplied, StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    trace_api_call(sim, region, rtt, "store.delete", "store.ops.delete");
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_put_request(&mut sim.world, region);
        let now = sim.now();
        let result = sim
            .world
            .objstore_mut(region)
            .apply_delete(&bucket, &key, now);
        if let Ok(applied) = &result {
            fanout_notifications(sim, region, applied);
        }
        cb(sim, result);
    });
}

/// Server-side COPY within `region` (control-plane round trip, no WAN
/// transfer — this is what makes changelog propagation near-free).
#[allow(clippy::too_many_arguments)]
pub fn copy_object(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    src_key: String,
    dst_key: String,
    if_match: Option<ETag>,
    cb: impl FnOnce(&mut CloudSim, Result<PutApplied, StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    trace_api_call(sim, region, rtt, "store.copy", "store.ops.copy");
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_put_request(&mut sim.world, region);
        let now = sim.now();
        let result = sim
            .world
            .objstore_mut(region)
            .copy_object(&bucket, &src_key, &dst_key, if_match, now);
        if let Ok(applied) = &result {
            fanout_notifications(sim, region, applied);
        }
        cb(sim, result);
    });
}

/// Starts a multipart upload (control-plane round trip).
pub fn create_multipart(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    bucket: String,
    key: String,
    cb: impl FnOnce(&mut CloudSim, Result<u64, StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    trace_api_call(
        sim,
        region,
        rtt,
        "store.create_multipart",
        "store.ops.create_multipart",
    );
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_put_request(&mut sim.world, region);
        let result = sim
            .world
            .objstore_mut(region)
            .create_multipart(&bucket, &key);
        cb(sim, result);
    });
}

/// Uploads one part: transfers the bytes, then records the part.
pub fn upload_part(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    upload_id: u64,
    part_number: u32,
    content: Content,
    cb: impl FnOnce(&mut CloudSim, Result<(), StoreError>) + 'static,
) {
    if !sim.world.outage.is_empty() {
        match sim
            .world
            .outage
            .gate(sim.now(), region, OutageService::ObjStore)
        {
            Gate::Clear | Gate::Slow(_) => {}
            Gate::Stall(d) => {
                schedule_scoped(sim, d, move |sim| {
                    upload_part(sim, exec, region, upload_id, part_number, content, cb);
                });
                return;
            }
            Gate::Fail => {
                let Some(profile) = sim.world.exec_profile(exec) else {
                    return;
                };
                let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
                schedule_scoped(sim, rtt, move |sim| {
                    if sim.world.exec_alive(exec) {
                        cb(sim, Err(StoreError::Unavailable));
                    }
                });
                return;
            }
        }
    }
    let bytes = content.size();
    if sim.world.trace.enabled() {
        sim.world.trace.counter_add("store.ops.upload_part", 1);
    }
    run_leg(sim, exec, region, Direction::Upload, bytes, move |sim| {
        charge_put_request(&mut sim.world, region);
        let result = sim
            .world
            .objstore_mut(region)
            .upload_part(upload_id, part_number, content);
        cb(sim, result);
    });
}

/// Completes a multipart upload (control-plane round trip), applying the
/// assembled object and fanning out notifications.
pub fn complete_multipart(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    upload_id: u64,
    cb: impl FnOnce(&mut CloudSim, Result<PutApplied, StoreError>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let rtt = storage_api_rtt(&mut sim.world, profile.region, region);
    let rtt = match objstore_gate(sim, region, rtt) {
        Ok(rtt) => rtt,
        Err(rtt) => {
            schedule_scoped(sim, rtt, move |sim| {
                if sim.world.exec_alive(exec) {
                    cb(sim, Err(StoreError::Unavailable));
                }
            });
            return;
        }
    };
    trace_api_call(
        sim,
        region,
        rtt,
        simtrace::names::STORE_COMMIT,
        "store.ops.complete_multipart",
    );
    schedule_scoped(sim, rtt, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_put_request(&mut sim.world, region);
        let now = sim.now();
        let result = sim
            .world
            .objstore_mut(region)
            .complete_multipart(upload_id, now);
        if let Ok(applied) = &result {
            fanout_notifications(sim, region, applied);
        }
        cb(sim, result);
    });
}

/// Reads an item from a region's KV database.
pub fn db_get(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    table: String,
    key: String,
    cb: impl FnOnce(&mut CloudSim, Option<Item>) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let latency = db_op_latency(&mut sim.world, profile.region, region);
    // The KV API has no error channel here; a hard-errored or black-holed
    // DB region stalls the operation to window close (a timed-out
    // connection), a brownout multiplies its latency.
    let latency = if sim.world.outage.is_empty() {
        latency
    } else {
        let g = sim
            .world
            .outage
            .shaping(sim.now(), region, OutageService::CloudDb);
        OutageSchedule::shape(g, latency)
    };
    trace_api_call(sim, region, latency, "db.get", "db.ops.get");
    schedule_scoped(sim, latency, move |sim| {
        if !sim.world.exec_alive(exec) {
            return;
        }
        charge_db(&mut sim.world, region, 1, 0);
        let item = sim.world.db_mut(region).get(&table, &key);
        cb(sim, item);
    });
}

/// Atomic read-modify-write on a region's KV database.
///
/// `f` is applied at the operation's completion instant, which serializes all
/// transactions on the same item through the event queue — the conditional-
/// write semantics Algorithms 1 and 2 require.
pub fn db_transact<T: 'static>(
    sim: &mut CloudSim,
    exec: Executor,
    region: RegionId,
    table: String,
    key: String,
    f: impl FnOnce(&mut Option<Item>) -> T + 'static,
    cb: impl FnOnce(&mut CloudSim, T) + 'static,
) {
    if maybe_crash(sim, exec) {
        return;
    }
    let Some(profile) = sim.world.exec_profile(exec) else {
        return;
    };
    let latency = db_op_latency(&mut sim.world, profile.region, region);
    let latency = if sim.world.outage.is_empty() {
        latency
    } else {
        let g = sim
            .world
            .outage
            .shaping(sim.now(), region, OutageService::CloudDb);
        OutageSchedule::shape(g, latency)
    };
    trace_api_call(sim, region, latency, "db.transact", "db.ops.transact");
    schedule_scoped(sim, latency, move |sim| {
        // The transaction commits server-side even if the caller died; only
        // the callback delivery depends on liveness (matching DynamoDB).
        charge_db(&mut sim.world, region, 1, 1);
        let result = sim.world.db_mut(region).transact(&table, &key, f);
        if sim.world.exec_alive(exec) {
            cb(sim, result);
        }
    });
}

fn db_op_latency(world: &mut World, exec_region: RegionId, db_region: RegionId) -> SimDuration {
    let cloud = world.regions.cloud(db_region);
    let base = {
        let d = world.params.cloud(cloud).db_latency.clone();
        d.sample_nonneg(world.db_rng_mut())
    };
    let prop = 2.0 * world.wan_propagation_s(exec_region, db_region);
    SimDuration::from_secs_f64(base + prop)
}

fn charge_db(world: &mut World, region: RegionId, reads: u64, writes: u64) {
    let cloud = world.regions.cloud(region);
    let prices = world.catalog.cloud(cloud).db;
    let dollars = reads as f64 * prices.per_million_reads / 1e6
        + writes as f64 * prices.per_million_writes / 1e6;
    world.charge(cloud, CostCategory::DbOps, Money::from_dollars(dollars));
}

/// A managed-workflow timer (Step Functions `Wait` / Durable Functions
/// timers / Google Workflows sleep), used by SLO-bounded batching. Bills two
/// state transitions and fires `cb` after `delay`.
pub fn workflow_delay(
    sim: &mut CloudSim,
    region: RegionId,
    delay: SimDuration,
    cb: impl FnOnce(&mut CloudSim) + 'static,
) -> simkernel::CancelToken {
    let cloud = sim.world.regions.cloud(region);
    let fee = sim.world.catalog.cloud(cloud).workflow.per_1k_transitions / 1_000.0 * 2.0;
    sim.world
        .charge(cloud, CostCategory::Workflow, Money::from_dollars(fee));
    let scope = sim.world.tenant_scope.clone();
    sim.schedule_cancellable_in(delay, move |sim| {
        sim.world.tenant_scope = scope;
        cb(sim)
    })
}

/// Charges the S3 Replication Time Control surcharge for replicated bytes.
pub fn charge_rtc_fee(world: &mut World, bytes: u64) {
    let fee =
        Money::from_dollars(world.catalog.s3_rtc_per_gb).scale(bytes as f64 / pricing::GIB as f64);
    world.charge(Cloud::Aws, CostCategory::RtcFee, fee);
}

/// Charges storage capacity for `bytes` held for `duration` in `region`
/// (used to account versioning overhead in the proprietary baselines).
pub fn charge_storage(world: &mut World, region: RegionId, bytes: u64, duration: SimDuration) {
    let cloud = world.regions.cloud(region);
    let per_gb_month = world.catalog.cloud(cloud).storage.per_gb_month;
    let months = duration.as_secs_f64() / (30.0 * 24.0 * 3600.0);
    let dollars = per_gb_month * (bytes as f64 / pricing::GIB as f64) * months;
    world.charge(
        cloud,
        CostCategory::StorageCapacity,
        Money::from_dollars(dollars),
    );
}

/// Samples the per-call invocation API latency `I` for a region — exposed so
/// orchestrators can model their pipelined `I × n` invoke loop.
pub fn sample_invoke_latency(world: &mut World, region: RegionId) -> SimDuration {
    let cloud = world.regions.cloud(region);
    let d = world.params.cloud(cloud).invoke_latency.clone();
    SimDuration::from_secs_f64(d.sample_nonneg(world.faas_rng_mut()))
}

/// Samples the transfer client setup overhead `S` for a cloud.
pub fn sample_transfer_setup(world: &mut World, cloud: Cloud) -> SimDuration {
    let d = world.params.cloud(cloud).transfer_setup.clone();
    SimDuration::from_secs_f64(d.sample_nonneg(world.net_rng_mut()))
}

/// Returns a `Dist` snapshot of a ground-truth parameter for assertions in
/// characterization experiments (not used by AReplica itself, which must
/// learn parameters through profiling).
pub fn ground_truth_notif_delay(world: &World, cloud: Cloud) -> Dist {
    world.params.cloud(cloud).notif_delay.clone()
}
