//! A Skyplane-style VM-based replication baseline (§2, Figures 4–5).
//!
//! For each region pair, Skyplane provisions gateway VMs in the source and
//! destination regions, deploys its gateway container on them, relays the
//! object source-bucket → source-gateway → destination-gateway →
//! destination-bucket, and (by default) deprovisions. The result is the
//! paper's Figure 4 breakdown: only ~2% of the time is data transfer, while
//! over 99% of the cost is the VMs.
//!
//! A keep-alive policy (Figure 5's 5-min / 1-min / 20-s variants) leaves the
//! gateways running for a configurable idle window so subsequent transfers
//! skip provisioning.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use cloudsim::net::Direction;
use cloudsim::vm::{self, VmId};
use cloudsim::world::{self, CloudSim, Executor};
use cloudsim::RegionId;
use simkernel::{CancelToken, SimDuration, SimTime};
use stats::Dist;

/// Configuration of the Skyplane baseline.
#[derive(Debug, Clone)]
pub struct SkyplaneConfig {
    /// Gateways per region (the paper uses 1 by default, 8 for the 100 GB
    /// bulk experiment).
    pub vms_per_region: u32,
    /// Keep gateways alive for this long after going idle (`None` =
    /// deprovision right after each job, the default open-source behaviour).
    pub keep_alive: Option<SimDuration>,
    /// Job orchestration overhead distribution, seconds (Figure 4's
    /// "Others": planning, chunking, dispatch — ~18 s).
    pub job_overhead: Dist,
}

impl Default for SkyplaneConfig {
    fn default() -> Self {
        SkyplaneConfig {
            vms_per_region: 1,
            keep_alive: None,
            job_overhead: Dist::normal(18.0, 2.5),
        }
    }
}

/// Result of one replication job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyplaneResult {
    /// When the job was submitted.
    pub submitted: SimTime,
    /// When the object became retrievable at the destination.
    pub completed: SimTime,
}

/// Completion callback.
pub type OnJobDone = Rc<dyn Fn(&mut CloudSim, SkyplaneResult)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GatewayState {
    Down,
    Provisioning,
    Ready,
}

struct PairState {
    src_vms: Vec<VmId>,
    dst_vms: Vec<VmId>,
    state: GatewayState,
    queue: VecDeque<Job>,
    busy: bool,
    idle_timer: Option<CancelToken>,
    /// Pending readiness countdown during provisioning.
    awaiting: u32,
}

struct Job {
    src_bucket: String,
    dst_bucket: String,
    key: String,
    submitted: SimTime,
    on_done: OnJobDone,
}

struct SkyState {
    cfg: SkyplaneConfig,
    pairs: BTreeMap<(RegionId, RegionId), PairState>,
    /// Phase timeline (timestamp, phase label) for breakdown reporting
    /// (Figure 4).
    timeline: Vec<(SimTime, &'static str)>,
}

/// The Skyplane baseline instance.
pub struct Skyplane {
    state: Rc<RefCell<SkyState>>,
}

impl Skyplane {
    /// Creates a baseline with the given configuration.
    pub fn new(cfg: SkyplaneConfig) -> Skyplane {
        Skyplane {
            state: Rc::new(RefCell::new(SkyState {
                cfg,
                pairs: BTreeMap::new(),
                timeline: Vec::new(),
            })),
        }
    }

    /// A second handle sharing the same gateway fleet and queues (for moving
    /// into event closures).
    pub fn clone_handle(&self) -> Skyplane {
        Skyplane {
            state: self.state.clone(),
        }
    }

    /// The recorded phase timeline: `(timestamp, phase)` pairs with phases
    /// `provision_start`, `gateways_ready`, `transfer_start`,
    /// `job_complete`. Used by the Figure 4 breakdown experiment.
    pub fn timeline(&self) -> Vec<(SimTime, &'static str)> {
        self.state.borrow().timeline.clone()
    }

    /// Submits a replication job for the current version of
    /// `src_bucket/key`, calling `on_done` when it is retrievable at the
    /// destination.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors a Skyplane job submission: every parameter is a field of that request"
    )]
    pub fn replicate(
        &self,
        sim: &mut CloudSim,
        src_region: RegionId,
        src_bucket: &str,
        dst_region: RegionId,
        dst_bucket: &str,
        key: &str,
        on_done: OnJobDone,
    ) {
        let job = Job {
            src_bucket: src_bucket.to_string(),
            dst_bucket: dst_bucket.to_string(),
            key: key.to_string(),
            submitted: sim.now(),
            on_done,
        };
        let st = self.state.clone();
        enqueue(sim, st, src_region, dst_region, job);
    }
}

type St = Rc<RefCell<SkyState>>;

fn enqueue(sim: &mut CloudSim, st: St, src: RegionId, dst: RegionId, job: Job) {
    let need_provision = {
        let mut s = st.borrow_mut();
        let pair = s.pairs.entry((src, dst)).or_insert_with(|| PairState {
            src_vms: Vec::new(),
            dst_vms: Vec::new(),
            state: GatewayState::Down,
            queue: VecDeque::new(),
            busy: false,
            idle_timer: None,
            awaiting: 0,
        });
        // A queued job cancels any pending idle shutdown.
        if let Some(t) = pair.idle_timer.take() {
            t.cancel();
        }
        pair.queue.push_back(job);
        if pair.state == GatewayState::Down {
            pair.state = GatewayState::Provisioning;
            true
        } else {
            false
        }
    };
    if need_provision {
        let now = sim.now();
        st.borrow_mut().timeline.push((now, "provision_start"));
    }
    if need_provision {
        provision_gateways(sim, st.clone(), src, dst);
    }
    pump(sim, st, src, dst);
}

/// Provisions `vms_per_region` gateways in each region and deploys the
/// gateway container on each.
fn provision_gateways(sim: &mut CloudSim, st: St, src: RegionId, dst: RegionId) {
    let n = st.borrow().cfg.vms_per_region;
    st.borrow_mut()
        .pairs
        .get_mut(&(src, dst))
        .expect("pair exists")
        .awaiting = 2 * n;
    for (region, is_src) in [(src, true), (dst, false)] {
        for _ in 0..n {
            let st2 = st.clone();
            vm::provision(sim, region, move |sim, vm_id| {
                // Container deployment on the freshly booted VM.
                let startup = vm::sample_container_startup(sim, region);
                let st3 = st2.clone();
                sim.schedule_in(startup, move |sim| {
                    let ready = {
                        let mut s = st3.borrow_mut();
                        let pair = s.pairs.get_mut(&(src, dst)).expect("pair exists");
                        if is_src {
                            pair.src_vms.push(vm_id);
                        } else {
                            pair.dst_vms.push(vm_id);
                        }
                        pair.awaiting -= 1;
                        if pair.awaiting == 0 {
                            pair.state = GatewayState::Ready;
                            true
                        } else {
                            false
                        }
                    };
                    if ready {
                        let now = sim.now();
                        st3.borrow_mut().timeline.push((now, "gateways_ready"));
                        pump(sim, st3, src, dst);
                    }
                });
            });
        }
    }
}

/// Starts the next queued job if the gateways are ready and idle.
fn pump(sim: &mut CloudSim, st: St, src: RegionId, dst: RegionId) {
    let job = {
        let mut s = st.borrow_mut();
        let Some(pair) = s.pairs.get_mut(&(src, dst)) else {
            return;
        };
        if pair.state != GatewayState::Ready || pair.busy {
            return;
        }
        match pair.queue.pop_front() {
            Some(job) => {
                pair.busy = true;
                job
            }
            None => {
                // Idle: arm the keep-alive shutdown (or shut down now).
                arm_idle_shutdown(sim, &mut s, src, dst, st.clone());
                return;
            }
        }
    };
    run_job(sim, st, src, dst, job);
}

fn arm_idle_shutdown(sim: &mut CloudSim, s: &mut SkyState, src: RegionId, dst: RegionId, st: St) {
    let keep = s.cfg.keep_alive;
    let pair = s.pairs.get_mut(&(src, dst)).expect("pair exists");
    match keep {
        None => shutdown_pair(sim, pair),
        Some(idle) => {
            let token = sim.schedule_cancellable_in(idle, move |sim| {
                let mut s = st.borrow_mut();
                if let Some(pair) = s.pairs.get_mut(&(src, dst)) {
                    if !pair.busy && pair.queue.is_empty() && pair.state == GatewayState::Ready {
                        shutdown_pair(sim, pair);
                    }
                }
            });
            pair.idle_timer = Some(token);
        }
    }
}

fn shutdown_pair(sim: &mut CloudSim, pair: &mut PairState) {
    for vm_id in pair.src_vms.drain(..).chain(pair.dst_vms.drain(..)) {
        vm::shutdown(sim, vm_id);
    }
    pair.state = GatewayState::Down;
    pair.awaiting = 0;
}

/// Runs one job across the gateway fleet.
fn run_job(sim: &mut CloudSim, st: St, src: RegionId, dst: RegionId, job: Job) {
    // Job orchestration overhead before any bytes move.
    let overhead = {
        let mut s = st.borrow_mut();
        let d = s.cfg.job_overhead.clone();
        let sample = d.sample_nonneg(sim.rng());
        let _ = &mut s;
        SimDuration::from_secs_f64(sample)
    };
    sim.schedule_in(overhead, move |sim| {
        let now = sim.now();
        st.borrow_mut().timeline.push((now, "transfer_start"));
        let stat = sim.world.objstore(src).stat(&job.src_bucket, &job.key);
        let Ok(stat) = stat else {
            // Object deleted before the job ran; report completion.
            let now = sim.now();
            finish_job(sim, st, src, dst, job, now);
            return;
        };
        let (content, _etag) = sim
            .world
            .objstore(src)
            .read_full(&job.src_bucket, &job.key)
            .expect("object just statted");
        let (src_vms, dst_vms) = {
            let s = st.borrow();
            let pair = &s.pairs[&(src, dst)];
            (pair.src_vms.clone(), pair.dst_vms.clone())
        };
        let n = src_vms.len().min(dst_vms.len()).max(1);
        let share = stat.size.div_ceil(n as u64);
        let remaining = Rc::new(RefCell::new(n));
        // Custody of the job moves to whichever share finishes last; only
        // one job runs per pair at a time (the `busy` gate).
        let job_slot = Rc::new(RefCell::new(Some(job)));
        for i in 0..n {
            let offset = i as u64 * share;
            let len = share.min(stat.size.saturating_sub(offset));
            let st2 = st.clone();
            let remaining = remaining.clone();
            let content2 = content.clone();
            let job_slot = job_slot.clone();
            relay_share(sim, src_vms[i], dst_vms[i], src, dst, len, move |sim| {
                let mut rem = remaining.borrow_mut();
                *rem -= 1;
                if *rem == 0 {
                    drop(rem);
                    let job = job_slot
                        .borrow_mut()
                        .take()
                        .expect("last share takes the job exactly once");
                    // All shares landed: apply the destination write.
                    let now = sim.now();
                    let applied = sim
                        .world
                        .objstore_mut(dst)
                        .apply_put(&job.dst_bucket, &job.key, content2.clone(), now)
                        .expect("destination bucket exists");
                    world::fanout_notifications(sim, dst, &applied);
                    finish_job(sim, st2, src, dst, job, now);
                }
            });
        }
    });
}

fn finish_job(
    sim: &mut CloudSim,
    st: St,
    src: RegionId,
    dst: RegionId,
    job: Job,
    completed: SimTime,
) {
    let result = SkyplaneResult {
        submitted: job.submitted,
        completed,
    };
    (job.on_done)(sim, result);
    {
        let mut s = st.borrow_mut();
        s.timeline.push((completed, "job_complete"));
        if let Some(pair) = s.pairs.get_mut(&(src, dst)) {
            pair.busy = false;
        }
    }
    pump(sim, st, src, dst);
}

/// Relays one share: source gateway pulls from the bucket, pushes over the
/// WAN to the destination gateway, which stages it for the bucket write.
fn relay_share(
    sim: &mut CloudSim,
    src_vm: VmId,
    dst_vm: VmId,
    src: RegionId,
    dst: RegionId,
    len: u64,
    done: impl FnOnce(&mut CloudSim) + 'static,
) {
    if len == 0 {
        done(sim);
        return;
    }
    // Leg 1: bucket -> source gateway (local).
    world::run_leg(
        sim,
        Executor::Vm(src_vm),
        src,
        Direction::Download,
        len,
        move |sim| {
            // Leg 2: source gateway -> destination gateway (WAN; egress billed).
            world::run_leg(
                sim,
                Executor::Vm(src_vm),
                dst,
                Direction::Upload,
                len,
                move |sim| {
                    // Leg 3: destination gateway -> bucket (local).
                    world::run_leg(
                        sim,
                        Executor::Vm(dst_vm),
                        dst,
                        Direction::Upload,
                        len,
                        move |sim| {
                            done(sim);
                        },
                    );
                },
            );
        },
    );
}
