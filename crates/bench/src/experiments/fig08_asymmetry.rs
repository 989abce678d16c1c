//! Figure 8: asymmetric behaviours of different cloud functions — a 1 GB
//! object replicated pairwise between AWS us-east-1, Azure eastus, and GCP
//! us-east1, with the replicator functions run at either end. The achieved
//! speed depends not only on the (src, dst) pair but on *where* the
//! functions run.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::engine::{self, TaskSpec, TaskStatus};
use areplica_core::model::ExecSide;
use areplica_core::{EngineConfig, Plan};
use cloudsim::world;
use cloudsim::Cloud;
use simkernel::SimDuration;

use crate::harness::{mean, scaled, Table};
use crate::runners::fresh_sim;

/// Measures the end-to-end replication time of a 1 GB object with 16
/// replicators on the given side.
fn measure(
    seed_offset: u64,
    src: (Cloud, &str),
    dst: (Cloud, &str),
    side: ExecSide,
    trials: usize,
) -> f64 {
    let mut sim = fresh_sim(seed_offset);
    let src_r = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst_r = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    sim.world.objstore_mut(src_r).create_bucket("src");
    sim.world.objstore_mut(dst_r).create_bucket("dst");
    let size: u64 = 1 << 30;
    let mut times = Vec::new();
    for t in 0..trials {
        let key = format!("obj-{t}");
        let put = world::user_put(&mut sim, src_r, "src", &key, size).unwrap();
        let start = sim.now();
        let done: Rc<RefCell<Option<f64>>> = Rc::default();
        let d2 = done.clone();
        engine::execute(
            &mut sim,
            EngineConfig::default(),
            TaskSpec {
                src_region: src_r,
                src_bucket: "src".into(),
                dst_region: dst_r,
                dst_bucket: "dst".into(),
                key,
                etag: put.etag,
                seq: put.event.seq,
                size,
                event_time: start,
            },
            Plan {
                n: 16,
                side,
                local: false,
                predicted: SimDuration::from_secs(30),
                slo_met: false,
            },
            None,
            Rc::new(move |sim, outcome| {
                assert!(matches!(outcome.status, TaskStatus::Replicated { .. }));
                *d2.borrow_mut() = Some((sim.now() - start).as_secs_f64());
            }),
        );
        sim.run_to_completion(10_000_000);
        times.push(done.borrow().expect("completed"));
    }
    mean(&times)
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let trials = scaled(3, 2);
    let spots: [(Cloud, &str); 3] = [
        (Cloud::Aws, "us-east-1"),
        (Cloud::Azure, "eastus"),
        (Cloud::Gcp, "us-east1"),
    ];
    let mut table = Table::new(["pair", "fns at src (s)", "fns at dst (s)", "speed ratio"]);
    let mut i = 0u64;
    for (a_idx, &a) in spots.iter().enumerate() {
        for (b_idx, &b) in spots.iter().enumerate() {
            if a_idx == b_idx {
                continue;
            }
            let at_src = measure(0x800 + i, a, b, ExecSide::Source, trials);
            let at_dst = measure(0x900 + i, a, b, ExecSide::Destination, trials);
            table.row([
                format!("{}-{} -> {}-{}", a.0, a.1, b.0, b.1),
                format!("{at_src:.1}"),
                format!("{at_dst:.1}"),
                format!("{:.2}x", at_src.max(at_dst) / at_src.min(at_dst)),
            ]);
            i += 1;
        }
    }
    format!(
        "Figure 8 — asymmetric behaviours: 1 GB pairwise replication, 16 functions,\n\
         executed at the source vs the destination\n\n{}\n\
         paper reference: speeds depend on where the functions run, not just the pair;\n\
         a replication system must choose the platform/region for its functions.\n",
        table.render(),
    )
}
