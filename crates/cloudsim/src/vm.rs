//! Simulated VM service (EC2 / Azure VMs / GCE), used by the Skyplane-style
//! baseline.
//!
//! VMs take tens of seconds to provision (slowest on Azure), get much larger
//! NICs than functions, and bill per second with a minimum billed duration —
//! the combination that makes VM-based replication slow to react and costly
//! for small objects (Figures 4–5).

use pricing::CostCategory;
use simkernel::{SimDuration, SimTime};
use stats::Dist;

use std::collections::BTreeMap;

use crate::region::RegionId;
use crate::world::CloudSim;

/// Handle to a provisioned VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u64);

/// VM lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// OS boot in progress; not yet billed.
    Provisioning,
    /// Running (billed from `running_since`).
    Running,
    /// Shut down; terminal.
    Stopped,
}

#[derive(Debug)]
pub(crate) struct Vm {
    pub region: RegionId,
    pub state: VmState,
    pub running_since: SimTime,
    pub speed_factor: f64,
}

/// The multi-region VM service.
#[derive(Debug, Default)]
pub struct VmService {
    pub(crate) vms: BTreeMap<VmId, Vm>,
    next: u64,
    /// Total VMs ever provisioned (stats).
    pub provisioned: u64,
}

impl VmService {
    /// Creates an empty service.
    pub fn new() -> Self {
        VmService::default()
    }

    /// The lifecycle state of a VM.
    pub fn state(&self, vm: VmId) -> Option<VmState> {
        self.vms.get(&vm).map(|v| v.state)
    }

    /// The region a VM runs in.
    pub fn region(&self, vm: VmId) -> Option<RegionId> {
        self.vms.get(&vm).map(|v| v.region)
    }
}

/// Provisions a VM; `on_ready` fires when the OS is running (billing starts
/// then; container deployment is the caller's next, billed, step).
pub fn provision(
    sim: &mut CloudSim,
    region: RegionId,
    on_ready: impl FnOnce(&mut CloudSim, VmId) + 'static,
) -> VmId {
    let world = &mut sim.world;
    world.vms.next += 1;
    world.vms.provisioned += 1;
    let id = VmId(world.vms.next);
    let cloud = world.regions.cloud(region);
    let provision_time = {
        let d = world.params.cloud(cloud).vm_provision.clone();
        SimDuration::from_secs_f64(d.sample_nonneg(world.net_rng_mut()))
    };
    let speed_factor = Dist::lognormal_mean_cv(1.0, 0.05).sample(world.net_rng_mut());
    world.vms.vms.insert(
        id,
        Vm {
            region,
            state: VmState::Provisioning,
            running_since: SimTime::ZERO,
            speed_factor,
        },
    );
    sim.schedule_in(provision_time, move |sim| {
        let now = sim.now();
        if let Some(vm) = sim.world.vms.vms.get_mut(&id) {
            if vm.state == VmState::Provisioning {
                vm.state = VmState::Running;
                vm.running_since = now;
                on_ready(sim, id);
            }
        }
    });
    id
}

/// Samples this cloud's container deployment time (the Skyplane gateway
/// image pull + start), which the baseline runs after `on_ready`.
pub fn sample_container_startup(sim: &mut CloudSim, region: RegionId) -> SimDuration {
    let cloud = sim.world.regions.cloud(region);
    let d = sim.world.params.cloud(cloud).container_startup.clone();
    SimDuration::from_secs_f64(d.sample_nonneg(sim.world.net_rng_mut()))
}

/// Shuts a VM down, billing its running time (with the minimum billed
/// duration applied). Idempotent on already-stopped VMs.
pub fn shutdown(sim: &mut CloudSim, vm: VmId) {
    let now = sim.now();
    let world = &mut sim.world;
    let Some(v) = world.vms.vms.get_mut(&vm) else {
        return;
    };
    match v.state {
        VmState::Stopped => {}
        VmState::Provisioning => {
            // Cancelled before running: clouds do not bill unbooted VMs.
            v.state = VmState::Stopped;
        }
        VmState::Running => {
            v.state = VmState::Stopped;
            let cloud = world.regions.cloud(v.region);
            let prices = world.catalog.cloud(cloud).vm;
            let ran = (now - v.running_since).as_secs_f64();
            let billed_secs = ran.max(prices.min_billed_seconds as f64);
            let dollars = prices.per_hour * billed_secs / 3600.0;
            world.charge(
                cloud,
                CostCategory::VmCompute,
                pricing::Money::from_dollars(dollars),
            );
        }
    }
}
