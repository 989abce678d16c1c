//! Shared measurement runners used by the experiment modules.
//!
//! The fixed-plan experiments (the part-size ablation and Figures 8, 12/17,
//! 16, 18–19 and 20, with Table 4) each isolate one design choice by
//! replicating one object at a fixed parallelism: [`pair_sim`] sets up their
//! world and [`replicate_fixed`] drives one replication on the engine. The
//! service-driven experiments measure through [`measure_areplica_once`].

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::engine::{self, TaskOutcome, TaskSpec, TaskStatus};
use areplica_core::model::ExecSide;
use areplica_core::{build_model_for, AReplica, EngineConfig, PerfModel, Plan, ProfilerConfig};
use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, RegionId, World};
use pricing::CostSnapshot;
use simkernel::SimDuration;

/// Most events one [`replicate_fixed`] call may run: a backstop against a
/// replication that never drains, far above what the largest (100 GB, 512
/// replicators) needs.
const EVENT_BACKSTOP: u64 = 100_000_000;

/// The standard profiler budget experiments use (tuned for fidelity at an
/// affordable one-off cost per binary).
pub fn experiment_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 6,
        cold_samples: 5,
        transfer_samples: 6,
        chunks_per_invocation: 3,
        notif_samples: 8,
        mc_trials: 2500,
        ..ProfilerConfig::default()
    }
}

/// Profiles `pairs` against a sandbox copy of `sim`'s world.
pub fn profile_pairs(sim: &CloudSim, pairs: &[(RegionId, RegionId)]) -> PerfModel {
    build_model_for(
        &sim.world.regions,
        &sim.world.params,
        &sim.world.catalog,
        pairs,
        &experiment_profiler(),
    )
    .expect("profiling")
}

/// A fresh paper-world simulator with the harness seed offset.
pub fn fresh_sim(seed_offset: u64) -> CloudSim {
    World::paper_sim(crate::harness::seed().wrapping_add(seed_offset))
}

/// A fresh simulator (as [`fresh_sim`]) with bucket `src` at `src`'s region
/// and bucket `dst` at `dst`'s, returning the `(src, dst)` region pair.
pub fn pair_sim(
    seed_offset: u64,
    src: (Cloud, &str),
    dst: (Cloud, &str),
) -> (CloudSim, (RegionId, RegionId)) {
    let mut sim = fresh_sim(seed_offset);
    let src = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    sim.world.objstore_mut(src).create_bucket("src");
    sim.world.objstore_mut(dst).create_bucket("dst");
    (sim, (src, dst))
}

/// Replicates one object at a fixed plan, without the service: writes `key`
/// of `size` into bucket `src`, executes `n` replicators on `side` toward
/// bucket `dst` under `cfg`, and runs until the event queue drains. Returns
/// the replication time in seconds (from the write to the completion) and
/// the outcome, whose `replicator_stats` are complete once the queue drains.
pub fn replicate_fixed(
    sim: &mut CloudSim,
    cfg: &EngineConfig,
    (src, dst): (RegionId, RegionId),
    key: &str,
    size: u64,
    n: u32,
    side: ExecSide,
) -> (f64, TaskOutcome) {
    let put = world::user_put(sim, src, "src", key, size).expect("source bucket exists");
    let start = sim.now();
    let done: Rc<RefCell<Option<TaskOutcome>>> = Rc::default();
    let slot = done.clone();
    engine::execute(
        sim,
        cfg.clone(),
        TaskSpec {
            src_region: src,
            src_bucket: "src".into(),
            dst_region: dst,
            dst_bucket: "dst".into(),
            key: key.into(),
            etag: put.etag,
            seq: put.event.seq,
            size,
            event_time: start,
        },
        // The engine reads neither the prediction nor the SLO verdict.
        Plan {
            n,
            side,
            local: false,
            predicted: SimDuration::ZERO,
            slo_met: false,
        },
        None,
        Rc::new(move |_, outcome| *slot.borrow_mut() = Some(outcome)),
    );
    sim.run_to_completion(EVENT_BACKSTOP);
    let outcome = done.take().expect("replication completed");
    assert!(
        matches!(outcome.status, TaskStatus::Replicated { .. }),
        "replication of {key} ended {:?}",
        outcome.status
    );
    ((outcome.completed_at - start).as_secs_f64(), outcome)
}

/// Runs the simulator until the service has recorded `target` completions
/// (or the event queue drains). Returns whether the target was reached.
pub fn wait_for_completions(sim: &mut CloudSim, service: &AReplica, target: usize) -> bool {
    loop {
        if service.metrics().completions.len() >= target {
            return true;
        }
        if !sim.step() {
            return service.metrics().completions.len() >= target;
        }
    }
}

/// Measures one AReplica replication: writes `key` of `size` into the rule's
/// source bucket, runs until the completion lands, and returns
/// `(delay_seconds, cost_delta)`.
pub fn measure_areplica_once(
    sim: &mut CloudSim,
    service: &AReplica,
    src: RegionId,
    bucket: &str,
    key: &str,
    size: u64,
) -> (f64, CostSnapshot) {
    let before = sim.world.ledger.snapshot();
    let target = service.metrics().completions.len() + 1;
    world::user_put(sim, src, bucket, key, size).expect("source bucket exists");
    let ok = wait_for_completions(sim, service, target);
    assert!(ok, "replication of {key} never completed");
    let delay = {
        let m = service.metrics();
        m.completions
            .last()
            .expect("completion")
            .delay()
            .as_secs_f64()
    };
    // Let stragglers (slow replicators draining, unlock writes) settle so
    // their cost lands in this measurement, not the next one.
    let settle = sim.now() + simkernel::SimDuration::from_secs(30);
    sim.run_until(settle);
    (delay, sim.world.ledger.since(&before))
}
