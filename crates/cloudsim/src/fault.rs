//! Scripted fault injection inside the simulated world.
//!
//! A [`FaultDecider`] installed with
//! [`World::set_fault_decider`](crate::World::set_fault_decider) decides each
//! [`FaultSite`] where the world answers the request: transient GET and
//! ambiguous PUT failures (retried after [`RETRY_BACKOFF`]), swallowed
//! invocations, functions crashed right after a part upload or a committed
//! DB transaction, and outage windows over an armed region's object store.
//! Sites are consulted in deterministic call and delivery order, each ahead
//! of its request's own random draws, fees and spans, so a scripted decider
//! sees a reproducible decision sequence (schedule exploration in
//! `crates/simcheck` records and replays it). Without a decider, the
//! default, nothing faults and each site costs one `None` check.

use cloudapi::faas::InvocationId;
use cloudapi::RegionId;
use simkernel::SimDuration;

/// Client-side back-off before a faulted GET or PUT, or a write black-holed
/// by an outage window, is retried.
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(250);

/// Most outage windows one run may open (see
/// [`World::set_fault_decider`](crate::World::set_fault_decider)).
pub const MAX_OUTAGES: u32 = 2;

/// Consecutive [`FaultSite::OutageClose`] denials after which an open
/// window is forced shut, bounding how long a schedule can black-hole a
/// region (a script that ends mid-window would otherwise never close it).
pub const FORCED_OUTAGE_CLOSE: u32 = 12;

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
    /// Outage windows opened.
    pub outages_opened: u64,
    /// Writes black-holed by an open outage window.
    pub outage_blocked_ops: u64,
}

/// A point in the world's request stream where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A ranged GET may fail transiently (retried after the back-off).
    TransientGet,
    /// A `put_object`/`upload_part` may land but report failure (ambiguous
    /// PUT; retried after the back-off).
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
    /// A regional outage window may open at this write toward the armed
    /// region (consulted only while no window is open and the
    /// [`MAX_OUTAGES`] budget remains).
    OutageOpen,
    /// The open outage window may close at this blocked write (consulted
    /// on every black-holed retry while a window is open).
    OutageClose,
}

/// Schedule-controlled fault injection: the decider returns whether the
/// fault fires at this occurrence of `site`.
pub trait FaultDecider {
    /// Decides whether the fault at this site occurrence is injected.
    fn decide(&mut self, site: FaultSite) -> bool;
}

/// What an installed decider does to a data-plane write.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// The write goes ahead.
    Clear,
    /// An open outage window black-holes the write; it is retried
    /// after the back-off.
    Blocked,
    /// The write lands but reports failure; it is retried after the
    /// back-off.
    Ambiguous,
}

/// An installed decider and the state of the faults it has fired.
pub(crate) struct Faults {
    decider: Box<dyn FaultDecider>,
    outage_region: Option<RegionId>,
    outage_active: bool,
    outage_denials: u32,
    fake_invocations: u64,
    pub(crate) stats: FaultStats,
}

impl Faults {
    pub(crate) fn new(decider: Box<dyn FaultDecider>, outage_region: Option<RegionId>) -> Self {
        Faults {
            decider,
            outage_region,
            outage_active: false,
            outage_denials: 0,
            fake_invocations: 0,
            stats: FaultStats::default(),
        }
    }

    /// Consults the decider at a point-fault site, counting a fired fault.
    pub(crate) fn fires(&mut self, site: FaultSite) -> bool {
        if !self.decider.decide(site) {
            return false;
        }
        let stats = &mut self.stats;
        match site {
            FaultSite::TransientGet => stats.injected_get_faults += 1,
            FaultSite::TransientPut => stats.injected_put_faults += 1,
            FaultSite::InvocationDrop => stats.dropped_invocations += 1,
            FaultSite::KillAfterUpload => stats.lease_holder_kills += 1,
            FaultSite::PostTransactKill => stats.post_transact_kills += 1,
            // Counted by `outage_blocks`, which owns the window.
            FaultSite::OutageOpen | FaultSite::OutageClose => {}
        }
        true
    }

    /// The outage sites, then the transient-PUT site, for a write toward
    /// `region`. A black-holed write gets no transient-fault decision.
    pub(crate) fn write(&mut self, region: RegionId) -> WriteFault {
        if self.outage_blocks(region) {
            WriteFault::Blocked
        } else if self.fires(FaultSite::TransientPut) {
            WriteFault::Ambiguous
        } else {
            WriteFault::Clear
        }
    }

    /// A fake id for a swallowed invocation, if the decider drops it. High
    /// ids keep clear of anything the runtime mints.
    pub(crate) fn drop_invocation(&mut self) -> Option<InvocationId> {
        if !self.fires(FaultSite::InvocationDrop) {
            return None;
        }
        self.fake_invocations += 1;
        Some(InvocationId(u64::MAX - self.fake_invocations))
    }

    /// Consults the outage decision sites for a data-plane write toward
    /// `region`. Returns whether the write is black-holed by an active (or
    /// just-opened) outage window, to be retried after [`RETRY_BACKOFF`].
    /// Writes toward other regions, and runs without an armed region, never
    /// reach a decision site, so pre-outage decision streams replay
    /// unchanged.
    fn outage_blocks(&mut self, region: RegionId) -> bool {
        if self.outage_region != Some(region) {
            return false;
        }
        if self.outage_active {
            // Liveness backstop: a window denied closure too many times is
            // forced shut without consulting the decider, so a truncated
            // script cannot black-hole the region forever.
            if self.outage_denials >= FORCED_OUTAGE_CLOSE
                || self.decider.decide(FaultSite::OutageClose)
            {
                self.outage_active = false;
                self.outage_denials = 0;
                return false;
            }
            self.outage_denials += 1;
            self.stats.outage_blocked_ops += 1;
            true
        } else {
            // The open site is only consulted while budget remains — the
            // budget check is deterministic state, so record and replay
            // consult the same sites in the same order.
            if self.stats.outages_opened >= MAX_OUTAGES as u64
                || !self.decider.decide(FaultSite::OutageOpen)
            {
                return false;
            }
            self.outage_active = true;
            self.outage_denials = 0;
            self.stats.outages_opened += 1;
            self.stats.outage_blocked_ops += 1;
            true
        }
    }
}
