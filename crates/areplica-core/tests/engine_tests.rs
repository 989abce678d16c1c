//! Direct engine tests: the streamed and distributed paths, abort handling,
//! crash rescue via leases and the watchdog, and scheduling-mode behaviour.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::engine::{self, TaskOutcome, TaskSpec, TaskStatus};
use areplica_core::model::ExecSide;
use areplica_core::{EngineConfig, Plan, SchedulingMode};
use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, RegionId, World};
use simkernel::{SimDuration, SimTime};

struct Setup {
    sim: CloudSim,
    src: RegionId,
    dst: RegionId,
}

fn setup(seed: u64) -> Setup {
    let mut sim = World::paper_sim(seed);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    sim.world.objstore_mut(src).create_bucket("src");
    sim.world.objstore_mut(dst).create_bucket("dst");
    Setup { sim, src, dst }
}

fn task_for(s: &mut Setup, key: &str, size: u64) -> TaskSpec {
    let put = world::user_put(&mut s.sim, s.src, "src", key, size).unwrap();
    TaskSpec {
        src_region: s.src,
        src_bucket: "src".into(),
        dst_region: s.dst,
        dst_bucket: "dst".into(),
        key: key.into(),
        etag: put.etag,
        seq: put.event.seq,
        size,
        event_time: s.sim.now(),
    }
}

fn plan(n: u32, local: bool) -> Plan {
    Plan {
        n,
        side: ExecSide::Source,
        local,
        predicted: SimDuration::from_secs(30),
        slo_met: false,
    }
}

fn run_task(s: &mut Setup, task: TaskSpec, p: Plan, cfg: EngineConfig) -> TaskOutcome {
    let out: Rc<RefCell<Option<TaskOutcome>>> = Rc::default();
    let out2 = out.clone();
    engine::execute(
        &mut s.sim,
        cfg,
        task,
        p,
        None,
        Rc::new(move |_, o| *out2.borrow_mut() = Some(o)),
    );
    s.sim.run_to_completion(50_000_000);
    let o = out.borrow().clone();
    o.expect("task reached a terminal state")
}

#[test]
fn streamed_single_chunk_direct_put() {
    let mut s = setup(41);
    let task = task_for(&mut s, "tiny", 4 << 20);
    let out = run_task(&mut s, task, plan(1, true), EngineConfig::default());
    assert!(matches!(out.status, TaskStatus::Replicated { .. }));
    let (a, _) = s
        .sim
        .world
        .objstore(s.src)
        .read_full("src", "tiny")
        .unwrap();
    let (b, _) = s
        .sim
        .world
        .objstore(s.dst)
        .read_full("dst", "tiny")
        .unwrap();
    assert!(a.same_bytes(&b));
}

#[test]
fn streamed_multi_chunk_multipart() {
    let mut s = setup(42);
    let task = task_for(&mut s, "mid", 40 << 20); // 5 chunks
    let out = run_task(&mut s, task, plan(1, false), EngineConfig::default());
    assert!(matches!(out.status, TaskStatus::Replicated { .. }));
    assert_eq!(out.n_funcs, 1);
    let (a, ae) = s.sim.world.objstore(s.src).read_full("src", "mid").unwrap();
    let (b, be) = s.sim.world.objstore(s.dst).read_full("dst", "mid").unwrap();
    assert!(a.same_bytes(&b));
    assert_eq!(ae, be);
}

#[test]
fn distributed_replication_balances_chunks() {
    let mut s = setup(43);
    let task = task_for(&mut s, "big", 256 << 20); // 32 chunks
    let out = run_task(&mut s, task, plan(8, false), EngineConfig::default());
    assert!(matches!(out.status, TaskStatus::Replicated { .. }));
    // Let stragglers record their stats.
    let settle = s.sim.now() + SimDuration::from_secs(30);
    s.sim.run_until(settle);
    let stats = out.replicator_stats.borrow();
    assert_eq!(stats.len(), 8, "every replicator records a stat");
    let total: u32 = stats.iter().map(|r| r.chunks).sum();
    assert_eq!(total, 32, "all chunks replicated exactly once");
    let (a, _) = s.sim.world.objstore(s.src).read_full("src", "big").unwrap();
    let (b, _) = s.sim.world.objstore(s.dst).read_full("dst", "big").unwrap();
    assert!(a.same_bytes(&b));
    assert!(b.is_single_source());
}

#[test]
fn fair_dispatch_assigns_equal_shares() {
    let mut s = setup(44);
    let cfg = EngineConfig {
        scheduling: SchedulingMode::FairDispatch,
        ..EngineConfig::default()
    };
    let task = task_for(&mut s, "fair", 256 << 20); // 32 chunks
    let out = run_task(&mut s, task, plan(8, false), cfg);
    assert!(matches!(out.status, TaskStatus::Replicated { .. }));
    let settle = s.sim.now() + SimDuration::from_secs(60);
    s.sim.run_until(settle);
    let stats = out.replicator_stats.borrow();
    assert_eq!(stats.len(), 8);
    for r in stats.iter() {
        assert_eq!(r.chunks, 4, "fair dispatch gives each replicator 32/8 = 4");
    }
}

#[test]
fn abort_on_source_overwrite_midway() {
    let mut s = setup(45);
    let task = task_for(&mut s, "racy", 512 << 20);
    // Overwrite the source shortly after the task starts.
    let src = s.src;
    s.sim
        .schedule_at(SimTime::from_nanos(1_500_000_000), move |sim| {
            world::user_put(sim, src, "src", "racy", 600 << 20).unwrap();
        });
    let out = run_task(&mut s, task, plan(4, false), EngineConfig::default());
    match out.status {
        TaskStatus::AbortedEtagMismatch { current } => {
            assert!(current.is_some(), "abort reports the newer version");
        }
        other => panic!("expected abort, got {other:?}"),
    }
    // The destination never received a hybrid object: either nothing or a
    // consistent object.
    if let Ok((content, _)) = s.sim.world.objstore(s.dst).read_full("dst", "racy") {
        assert!(content.is_single_source());
    }
}

#[test]
fn source_deletion_midway_reports_gone() {
    let mut s = setup(46);
    let task = task_for(&mut s, "vanish", 256 << 20);
    let src = s.src;
    s.sim
        .schedule_at(SimTime::from_nanos(1_500_000_000), move |sim| {
            world::user_delete(sim, src, "src", "vanish").unwrap();
        });
    let out = run_task(&mut s, task, plan(4, false), EngineConfig::default());
    assert!(matches!(
        out.status,
        TaskStatus::SourceGone | TaskStatus::AbortedEtagMismatch { .. }
    ));
}

#[test]
fn watchdog_rescues_task_after_total_replicator_loss() {
    // Kill replicators aggressively (high crash rate, no platform retries):
    // the part-pool leases expire and the watchdog's rescue replicator must
    // finish the task. This is the deep fault-tolerance path.
    let mut s = setup(47);
    s.sim.world.params.crash_probability = 0.10;
    let task = task_for(&mut s, "doomed", 128 << 20); // 16 chunks
    let out: Rc<RefCell<Option<TaskOutcome>>> = Rc::default();
    let out2 = out.clone();
    engine::execute(
        &mut s.sim,
        EngineConfig::default(),
        task,
        plan(4, false),
        None,
        Rc::new(move |_, o| *out2.borrow_mut() = Some(o)),
    );
    // Stop crashing after the initial fleet dies so the rescue can work.
    s.sim
        .schedule_at(SimTime::from_nanos(20_000_000_000), |sim| {
            sim.world.params.crash_probability = 0.0;
        });
    s.sim.run_to_completion(100_000_000);
    let o = out
        .borrow()
        .clone()
        .expect("watchdog must conclude the task");
    assert!(matches!(o.status, TaskStatus::Replicated { .. }));
    let (a, _) = s
        .sim
        .world
        .objstore(s.src)
        .read_full("src", "doomed")
        .unwrap();
    let (b, _) = s
        .sim
        .world
        .objstore(s.dst)
        .read_full("dst", "doomed")
        .unwrap();
    assert!(a.same_bytes(&b));
}

#[test]
fn parallelism_improves_large_object_latency() {
    let mut s = setup(48);
    let t1 = task_for(&mut s, "obj-serial", 512 << 20);
    let start = s.sim.now();
    run_task(&mut s, t1, plan(1, false), EngineConfig::default());
    let serial = (s.sim.now() - start).as_secs_f64();

    let t2 = task_for(&mut s, "obj-parallel", 512 << 20);
    let start = s.sim.now();
    let out = run_task(&mut s, t2, plan(16, false), EngineConfig::default());
    // run_task runs to completion; measure to the outcome timestamp instead.
    let parallel = (out.completed_at - start).as_secs_f64();
    assert!(
        parallel < serial / 3.0,
        "16-way ({parallel:.1}s) should be >3x faster than serial ({serial:.1}s)"
    );
}

#[test]
fn zero_byte_object_replicates() {
    let mut s = setup(49);
    let task = task_for(&mut s, "empty", 0);
    let out = run_task(&mut s, task, plan(1, true), EngineConfig::default());
    assert!(matches!(out.status, TaskStatus::Replicated { .. }));
    assert_eq!(
        s.sim
            .world
            .objstore(s.dst)
            .stat("dst", "empty")
            .unwrap()
            .size,
        0
    );
}
