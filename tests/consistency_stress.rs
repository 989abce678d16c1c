//! Consistency stress: a hostile workload — hot keys overwritten at high
//! rate, interleaved deletes, instance crashes — after which every live
//! source object must be byte-identical at the destination and no replica
//! may be a mixed-version hybrid (§5.2's guarantees, adversarially).

use std::cell::Cell;
use std::rc::Rc;

use areplica::prelude::*;
use areplica::sim::fault::{FaultDecider, FaultSite};
use areplica::sim::world;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 500,
    }
}

/// Crashes the calling function at each kill site (after a part upload or
/// a committed DB transaction) with probability `rate` while `armed` holds.
struct MildKills {
    armed: Rc<Cell<bool>>,
    rate: f64,
    rng: StdRng,
}

impl FaultDecider for MildKills {
    fn decide(&mut self, site: FaultSite) -> bool {
        self.armed.get()
            && matches!(
                site,
                FaultSite::KillAfterUpload | FaultSite::PostTransactKill
            )
            && self.rng.gen_bool(self.rate)
    }
}

#[test]
fn hostile_workload_converges_consistently() {
    let mut sim = World::paper_sim(4242);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "b", dst, "m"))
        .profiler_config(quick_profiler())
        .install(&mut sim);
    // Mild crash injection throughout.
    let armed = Rc::new(Cell::new(true));
    let kills = MildKills {
        armed: armed.clone(),
        rate: 0.02,
        rng: StdRng::seed_from_u64(0x5EED),
    };
    sim.world.set_fault_decider(Box::new(kills), None);

    let mut rng = StdRng::seed_from_u64(99);
    let keys = ["hot-a", "hot-b", "hot-c", "big-x", "big-y"];
    // 150 operations over ~5 minutes: overwrites dominate, sizes mixed,
    // ~10% deletes (with re-creates possible afterwards).
    for i in 0..150u64 {
        let at = SimTime::from_nanos(i * 2_000_000_000 + rng.gen_range(0..1_500_000_000));
        let key = keys[rng.gen_range(0..keys.len())];
        let op_roll: f64 = rng.gen();
        let size = if key.starts_with("big") {
            rng.gen_range(100u64 << 20..300 << 20)
        } else {
            rng.gen_range(10u64 << 10..4 << 20)
        };
        sim.schedule_at(at, move |sim| {
            if op_roll < 0.1 {
                let _ = world::user_delete(sim, src, "b", key);
            } else {
                world::user_put(sim, src, "b", key, size).unwrap();
            }
        });
    }
    // Stop injecting faults near the end so the system can converge.
    sim.schedule_at(SimTime::from_nanos(320_000_000_000), move |_| {
        armed.set(false);
    });
    sim.run_to_completion(u64::MAX);

    // Convergence: every live source key is byte-identical at the mirror;
    // every deleted key is absent.
    for key in keys {
        match sim.world.objstore(src).read_full("b", key) {
            Ok((src_content, src_etag)) => {
                let (dst_content, dst_etag) = sim
                    .world
                    .objstore(dst)
                    .read_full("m", key)
                    .unwrap_or_else(|e| panic!("{key} missing at mirror: {e}"));
                assert!(
                    src_content.same_bytes(&dst_content),
                    "{key} diverged at the mirror"
                );
                assert_eq!(src_etag, dst_etag, "{key} etag mismatch");
                assert!(
                    dst_content.is_single_source(),
                    "{key} is a mixed-version hybrid"
                );
            }
            Err(_) => {
                assert!(
                    sim.world.objstore(dst).read_full("m", key).is_err(),
                    "{key} deleted at source but alive at mirror"
                );
            }
        }
    }
    // The workload actually exercised the interesting machinery.
    let m = service.metrics();
    assert!(
        m.completions.len() > 80,
        "only {} completions",
        m.completions.len()
    );
    let faults = sim.world.fault_stats();
    assert!(faults.lease_holder_kills + faults.post_transact_kills > 0);
    assert!(sim.world.faas.stats.crashes > 0, "no crashes were injected");
}
