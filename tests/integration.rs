//! Workspace-level integration tests: AReplica and the baselines competing
//! on the same workloads, trace replay through the full stack, and
//! cross-crate invariants.

use std::cell::RefCell;
use std::rc::Rc;

use areplica::baselines::{ManagedConfig, ManagedReplication, Skyplane, SkyplaneConfig};
use areplica::prelude::*;
use areplica::sim::world;
use areplica::traces::{self, ReplayConfig, SynthConfig};

fn quick_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 600,
    }
}

#[test]
fn areplica_beats_skyplane_and_rtc_head_to_head() {
    // The paper's headline: on a 1 MB object AReplica replicates in ~1.5 s
    // vs ~20 s for S3 RTC and ~75 s for Skyplane, at the lowest cost.
    let mut sim = World::paper_sim(1001);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();

    // AReplica.
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "a-src", dst, "a-dst").with_batching(false))
        .profiler_config(quick_profiler())
        .install(&mut sim);
    let before = sim.world.ledger.snapshot();
    user_put(&mut sim, src, "a-src", "obj", 1 << 20).unwrap();
    while service.metrics().completions.is_empty() && sim.step() {}
    let areplica_delay = service.metrics().completions[0].delay().as_secs_f64();
    sim.run_until(sim.now() + SimDuration::from_secs(30));
    let areplica_cost = sim.world.ledger.since(&before).grand_total().as_dollars();

    // Skyplane (cold).
    sim.world.objstore_mut(src).create_bucket("s-src");
    sim.world.objstore_mut(dst).create_bucket("s-dst");
    world::user_put(&mut sim, src, "s-src", "obj", 1 << 20).unwrap();
    let before = sim.world.ledger.snapshot();
    let sky = Skyplane::new(SkyplaneConfig::default());
    let sky_done: Rc<RefCell<Option<f64>>> = Rc::default();
    let sd = sky_done.clone();
    sky.replicate(
        &mut sim,
        src,
        "s-src",
        dst,
        "s-dst",
        "obj",
        Rc::new(move |_, r| {
            *sd.borrow_mut() = Some((r.completed - r.submitted).as_secs_f64());
        }),
    );
    while sky_done.borrow().is_none() && sim.step() {}
    let sky_delay = sky_done.borrow().unwrap();
    sim.run_until(sim.now() + SimDuration::from_secs(30));
    let sky_cost = sim.world.ledger.since(&before).grand_total().as_dollars();

    // S3 RTC.
    let rtc_done: Rc<RefCell<Option<f64>>> = Rc::default();
    let rd = rtc_done.clone();
    let _rtc = ManagedReplication::install(
        &mut sim,
        ManagedConfig::s3_rtc(),
        src,
        "r-src",
        dst,
        "r-dst",
        Rc::new(move |_, r| *rd.borrow_mut() = Some(r.delay().as_secs_f64())),
    );
    let before = sim.world.ledger.snapshot();
    world::user_put(&mut sim, src, "r-src", "obj", 1 << 20).unwrap();
    while rtc_done.borrow().is_none() && sim.step() {}
    let rtc_delay = rtc_done.borrow().unwrap();
    let rtc_cost = sim.world.ledger.since(&before).grand_total().as_dollars();

    // Delay ordering: AReplica << RTC << Skyplane.
    assert!(
        areplica_delay < rtc_delay * 0.4,
        "AReplica {areplica_delay:.2}s vs RTC {rtc_delay:.2}s"
    );
    assert!(
        rtc_delay < sky_delay,
        "RTC {rtc_delay:.2}s vs Skyplane {sky_delay:.2}s"
    );
    // Cost ordering: AReplica ~ RTC, both orders of magnitude below Skyplane.
    assert!(
        sky_cost > areplica_cost * 100.0,
        "Skyplane {sky_cost} vs AReplica {areplica_cost}"
    );
    assert!(rtc_cost < sky_cost);
}

#[test]
fn trace_replay_through_full_stack() {
    // A short bursty trace replayed against AReplica: every live source
    // object must end up at the destination, deletes propagated, and the
    // delay tail bounded.
    let mut sim = World::paper_sim(1002);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let service = AReplicaBuilder::new()
        .rule(
            ReplicationRule::new(src, "bucket", dst, "mirror").with_slo(SimDuration::from_secs(10)),
        )
        .profiler_config(quick_profiler())
        .install(&mut sim);

    let cfg = SynthConfig {
        duration: SimDuration::from_mins(5),
        mean_ops_per_sec: 2.0,
        key_space: 200,
        ..SynthConfig::ibm_cos_like()
    };
    let trace = traces::generate(&cfg, 77);
    let stats = traces::schedule(
        &mut sim,
        &trace,
        src,
        "bucket",
        &ReplayConfig {
            max_object_size: Some(64 << 20),
            ..Default::default()
        },
    );
    assert!(stats.puts > 100, "trace too small: {} puts", stats.puts);
    sim.run_to_completion(u64::MAX);

    // Destination converged to the source's live state for every key that
    // was not overwritten mid-flight.
    let m = service.metrics();
    assert!(m.completions.len() as u64 >= stats.puts / 2);
    let mut verified = 0;
    for rec in &m.completions {
        if let Ok((src_content, src_etag)) = sim.world.objstore(src).read_full("bucket", &rec.key) {
            let (dst_content, dst_etag) = sim
                .world
                .objstore(dst)
                .read_full("mirror", &rec.key)
                .unwrap_or_else(|e| panic!("missing replica for {}: {e}", rec.key));
            assert!(
                src_content.same_bytes(&dst_content),
                "diverged replica for {}",
                rec.key
            );
            assert_eq!(src_etag, dst_etag);
            verified += 1;
        }
    }
    assert!(verified > 50, "verified only {verified} replicas");

    // The delay tail stays bounded (the Figure 23 property, small scale).
    let mut delays: Vec<f64> = m
        .completions
        .iter()
        .map(|c| c.delay().as_secs_f64())
        .collect();
    delays.sort_by(f64::total_cmp);
    let p99 = delays[(delays.len() as f64 * 0.99) as usize - 1];
    assert!(p99 < 15.0, "p99 delay {p99}");
}

#[test]
fn deterministic_end_to_end_replay() {
    // The same seed must produce bit-identical metrics across runs — the
    // property every experiment's reproducibility rests on.
    fn run() -> Vec<(String, u64, f64)> {
        let mut sim = World::paper_sim(1003);
        let src = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
        let dst = sim.world.regions.lookup(Cloud::Gcp, "us-east1").unwrap();
        let service = AReplicaBuilder::new()
            .rule(ReplicationRule::new(src, "b", dst, "m"))
            .profiler_config(quick_profiler())
            .install(&mut sim);
        for i in 0..5u64 {
            let key = format!("k{i}");
            let size = 1 << 20 << (i % 3);
            user_put(&mut sim, src, "b", &key, size).unwrap();
            sim.run_to_completion(u64::MAX);
        }
        let collected: Vec<(String, u64, f64)> = service
            .metrics()
            .completions
            .iter()
            .map(|c| (c.key.clone(), c.size, c.delay().as_secs_f64()))
            .collect();
        collected
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must replay identically");
    assert_eq!(a.len(), 5);
}

#[test]
fn ledger_costs_are_attributed_to_the_right_clouds() {
    let mut sim = World::paper_sim(1004);
    let src = sim.world.regions.lookup(Cloud::Gcp, "us-east1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "b", dst, "m"))
        .profiler_config(quick_profiler())
        .install(&mut sim);
    user_put(&mut sim, src, "b", "obj", 32 << 20).unwrap();
    sim.run_to_completion(u64::MAX);
    assert_eq!(service.metrics().completions.len(), 1);
    // Egress out of GCP must be billed to GCP, not AWS.
    let gcp_egress = sim.world.ledger.cloud_total(Cloud::Gcp);
    assert!(gcp_egress > Money::ZERO);
    let egress_total = sim.world.ledger.category_total(CostCategory::Egress);
    // 32 MB at GCP's internet egress rate ($0.12/GB).
    let expected = 0.12 * 32.0 / 1024.0;
    assert!(
        (egress_total.as_dollars() - expected).abs() / expected < 0.05,
        "egress {egress_total} vs expected ~{expected}"
    );
    assert!(sim.world.ledger.cloud_total(Cloud::Azure).is_zero());
}
