//! Figure 21: replication time and cost of a COPY operation (100 MB – 100 GB,
//! AWS us-east-1 → us-east-2) for Skyplane, S3 RTC, AReplica replicating the
//! full object, and AReplica propagating the changelog. Changelog
//! propagation does not change the time much on this fast link, but removes
//! the cross-region transfer cost entirely.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::{changelog, AReplicaBuilder, ReplicationRule};
use baselines::{ManagedConfig, ManagedReplication, Skyplane, SkyplaneConfig};
use cloudsim::world;
use cloudsim::Cloud;
use simkernel::SimDuration;

use crate::harness::Table;
use crate::runners::{fresh_sim, profile_pairs};

fn sizes() -> Vec<u64> {
    let mut v = vec![100 << 20, 1 << 30, 10 << 30];
    if crate::harness::scale() >= 0.5 {
        v.push(100 << 30);
    }
    v
}

/// AReplica COPY with changelog on or off: seeds the base object, replicates
/// it, then measures the COPY's replication.
fn areplica_copy(size: u64, with_changelog: bool, seed_offset: u64) -> (f64, f64) {
    let mut sim = fresh_sim(seed_offset);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    sim.world.params.cloud_mut(Cloud::Aws).concurrency_limit = 1024;
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(
            ReplicationRule::new(src, "src", dst, "dst")
                .with_changelog(with_changelog)
                .with_batching(false),
        )
        .model(model)
        .install(&mut sim);
    world::user_put(&mut sim, src, "src", "base", size).unwrap();
    sim.run_while_pending(|_| !service.metrics().completions.is_empty());
    let settle = sim.now() + SimDuration::from_secs(30);
    sim.run_until(settle);

    // Measure the COPY.
    let before = sim.world.ledger.snapshot();
    changelog::user_copy(
        &mut sim,
        src,
        "src".into(),
        "base".into(),
        "copy".into(),
        |_, _| {},
    )
    .expect("source object was seeded above");
    sim.run_while_pending(|_| service.metrics().completions.len() >= 2);
    let delay = service
        .metrics()
        .completions
        .last()
        .expect("copy completion")
        .delay()
        .as_secs_f64();
    let settle = sim.now() + SimDuration::from_secs(30);
    sim.run_until(settle);
    let cost = sim.world.ledger.since(&before).grand_total().as_dollars();
    (delay, cost)
}

fn skyplane_copy(size: u64, seed_offset: u64) -> (f64, f64) {
    let mut sim = fresh_sim(seed_offset);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    sim.world.objstore_mut(src).create_bucket("src");
    sim.world.objstore_mut(dst).create_bucket("dst");
    world::user_put(&mut sim, src, "src", "base", size).unwrap();
    // The user-side COPY happens locally; Skyplane must replicate the new
    // object in full.
    let now = sim.now();
    sim.world
        .objstore_mut(src)
        .copy_object("src", "base", "copy", None, now)
        .unwrap();
    let vms = if size >= 10 << 30 { 8 } else { 1 };
    let sky = Skyplane::new(SkyplaneConfig {
        vms_per_region: vms,
        ..SkyplaneConfig::default()
    });
    let before = sim.world.ledger.snapshot();
    let done: Rc<RefCell<Option<f64>>> = Rc::default();
    let d2 = done.clone();
    sky.replicate(
        &mut sim,
        src,
        "src",
        dst,
        "dst",
        "copy",
        Rc::new(move |_, r| {
            *d2.borrow_mut() = Some((r.completed - r.submitted).as_secs_f64());
        }),
    );
    sim.run_to_completion(50_000_000);
    let settle = sim.now() + SimDuration::from_secs(10);
    sim.run_until(settle);
    let delay = done.borrow().expect("completed");
    (
        delay,
        sim.world.ledger.since(&before).grand_total().as_dollars(),
    )
}

fn rtc_copy(size: u64, seed_offset: u64) -> (f64, f64) {
    let mut sim = fresh_sim(seed_offset);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let done: Rc<RefCell<Option<f64>>> = Rc::default();
    let d2 = done.clone();
    let _svc = ManagedReplication::install(
        &mut sim,
        ManagedConfig::s3_rtc(),
        src,
        "src",
        dst,
        "dst",
        Rc::new(move |_, r| {
            *d2.borrow_mut() = Some(r.delay().as_secs_f64());
        }),
    );
    let before = sim.world.ledger.snapshot();
    // The COPY produces a new version event which RTC replicates in full.
    world::user_put(&mut sim, src, "src", "copy", size).unwrap();
    sim.run_to_completion(10_000_000);
    let delay = done.borrow().expect("completed");
    (
        delay,
        sim.world.ledger.since(&before).grand_total().as_dollars(),
    )
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut time_table = Table::new([
        "size",
        "Skyplane (s)",
        "S3 RTC (s)",
        "AReplica-full (s)",
        "AReplica-log (s)",
    ]);
    let mut cost_table = Table::new([
        "size",
        "Skyplane ($)",
        "S3 RTC ($)",
        "AReplica-full ($)",
        "AReplica-log ($)",
    ]);
    for (i, size) in sizes().into_iter().enumerate() {
        let i = i as u64;
        let (sk_t, sk_c) = skyplane_copy(size, 0x2100 + i);
        let (rt_t, rt_c) = rtc_copy(size, 0x2110 + i);
        let (af_t, af_c) = areplica_copy(size, false, 0x2120 + i);
        let (al_t, al_c) = areplica_copy(size, true, 0x2130 + i);
        let label = crate::harness::human_bytes(size);
        time_table.row([
            label.clone(),
            format!("{sk_t:.1}"),
            format!("{rt_t:.1}"),
            format!("{af_t:.1}"),
            format!("{al_t:.1}"),
        ]);
        cost_table.row([
            label,
            format!("{sk_c:.4}"),
            format!("{rt_c:.4}"),
            format!("{af_c:.4}"),
            format!("{al_c:.6}"),
        ]);
    }
    format!(
        "Figure 21 — COPY propagation (AWS us-east-1 -> us-east-2)\n\n(a) Time\n{}\n(b) Cost\n{}\n\
         paper reference: changelog propagation barely changes the time on this\n\
         fast intra-cloud link but eliminates the cross-region replication cost.\n",
        time_table.render(),
        cost_table.render(),
    )
}
