//! Figure 16: bulk replication of a 100 GB object — AReplica's massively
//! parallel serverless path vs Skyplane with 8 VMs per region. AReplica
//! finishes in about a minute (76–91% faster); cost is dominated by the
//! fixed egress either way.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::model::ExecSide;
use areplica_core::EngineConfig;
use baselines::{Skyplane, SkyplaneConfig};
use cloudsim::world;
use cloudsim::Cloud;
use pricing::CostSnapshot;
use simkernel::SimDuration;

use crate::harness::Table;
use crate::runners::{pair_sim, replicate_fixed};

/// `(source, destination, AReplica function count)` per bulk pair.
type BulkPair = ((Cloud, &'static str), (Cloud, &'static str), u32);

const PAIRS: &[BulkPair] = &[
    ((Cloud::Aws, "us-east-1"), (Cloud::Aws, "ca-central-1"), 512),
    ((Cloud::Aws, "us-east-1"), (Cloud::Azure, "eastus"), 256),
    (
        (Cloud::Aws, "us-east-1"),
        (Cloud::Gcp, "asia-northeast1"),
        512,
    ),
    (
        (Cloud::Azure, "eastus"),
        (Cloud::Aws, "ap-northeast-1"),
        512,
    ),
    ((Cloud::Azure, "eastus"), (Cloud::Azure, "uksouth"), 256),
    ((Cloud::Gcp, "us-east1"), (Cloud::Azure, "uksouth"), 256),
    (
        (Cloud::Gcp, "us-east1"),
        (Cloud::Gcp, "asia-northeast1"),
        512,
    ),
];

/// Scaled object size: 100 GB at full scale.
fn object_size() -> u64 {
    let gb = (100.0 * crate::harness::scale()).max(8.0) as u64;
    gb << 30
}

fn areplica_bulk(
    pair_idx: u64,
    src: (Cloud, &str),
    dst: (Cloud, &str),
    n: u32,
) -> (f64, CostSnapshot) {
    let (mut sim, pair) = pair_sim(0x1600 + pair_idx, src, dst);
    // Lift the default quota for 512-way bulk (the paper notes quotas are
    // adjustable and AReplica uses 128-512 instances here).
    for cloud in [Cloud::Aws, Cloud::Azure, Cloud::Gcp] {
        sim.world.params.cloud_mut(cloud).concurrency_limit = 1024;
    }
    let before = sim.world.ledger.snapshot();
    let cfg = EngineConfig::default();
    let size = object_size();
    let (t, _) = replicate_fixed(&mut sim, &cfg, pair, "bulk", size, n, ExecSide::Source);
    // Drain replicators before costing.
    let settle = sim.now() + SimDuration::from_secs(30);
    sim.run_until(settle);
    (t, sim.world.ledger.since(&before))
}

fn skyplane_bulk(pair_idx: u64, src: (Cloud, &str), dst: (Cloud, &str)) -> (f64, CostSnapshot) {
    let (mut sim, (src_r, dst_r)) = pair_sim(0x1700 + pair_idx, src, dst);
    world::user_put(&mut sim, src_r, "src", "bulk", object_size()).unwrap();
    let before = sim.world.ledger.snapshot();
    let sky = Skyplane::new(SkyplaneConfig {
        vms_per_region: 8,
        ..SkyplaneConfig::default()
    });
    let done: Rc<RefCell<Option<f64>>> = Rc::default();
    let d2 = done.clone();
    sky.replicate(
        &mut sim,
        src_r,
        "src",
        dst_r,
        "dst",
        "bulk",
        Rc::new(move |_, r| {
            *d2.borrow_mut() = Some((r.completed - r.submitted).as_secs_f64());
        }),
    );
    sim.run_to_completion(10_000_000);
    let t = done.borrow().expect("skyplane bulk completed");
    let settle = sim.now() + SimDuration::from_secs(10);
    sim.run_until(settle);
    (t, sim.world.ledger.since(&before))
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let size = object_size();
    let mut table = Table::new([
        "pair",
        "AReplica n",
        "AReplica (s)",
        "Skyplane 8VM (s)",
        "time Δ",
        "AReplica ($)",
        "Skyplane ($)",
    ]);
    for (i, &(src, dst, n)) in PAIRS.iter().enumerate() {
        let (at, acost) = areplica_bulk(i as u64, src, dst, n);
        let (st, scost) = skyplane_bulk(i as u64, src, dst);
        table.row([
            format!("{}-{} -> {}-{}", src.0, src.1, dst.0, dst.1),
            n.to_string(),
            format!("{at:.0}"),
            format!("{st:.0}"),
            format!("{:+.0}%", 100.0 * (at - st) / st),
            format!("{:.2}", acost.grand_total().as_dollars()),
            format!("{:.2}", scost.grand_total().as_dollars()),
        ]);
    }
    format!(
        "Figure 16 — bulk replication of a {} object\n\n{}\n\
         paper reference: AReplica replicates 100 GB in about a minute (76-91% faster);\n\
         costs converge because fixed egress dominates at this size.\n",
        crate::harness::human_bytes(size),
        table.render(),
    )
}
