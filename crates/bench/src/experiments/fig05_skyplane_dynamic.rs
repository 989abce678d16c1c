//! Figure 5: Skyplane handling a dynamic workload (a moderate tenant's
//! 60-minute trace) with VM idle-shutdown policies of 5 min, 1 min, and
//! 20 s. The paper: delays reach minutes whenever provisioning is on the
//! path, and aggressive shutdown saves <30% of VM cost vs keep-alive.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_traces::{generate, SynthConfig, TraceOp};
use baselines::{Skyplane, SkyplaneConfig};
use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, RegionId};
use pricing::CostCategory;
use simkernel::{SimDuration, SimTime};
use stats::Dist;

use crate::harness::{mean, percentile, scaled, seed, Table};
use crate::runners::fresh_sim;

fn tenant_trace(minutes: u64) -> areplica_traces::Trace {
    // A moderate tenant: sparse writes with occasional bursts, small-to-
    // medium objects (the Figure 5 workload).
    let cfg = SynthConfig {
        duration: SimDuration::from_mins(minutes),
        mean_ops_per_sec: 0.05,
        burst_prob: 0.06,
        key_space: 500,
        delete_fraction: 0.0,
        ..SynthConfig::ibm_cos_like()
    };
    generate(&cfg, seed() ^ 0x05)
}

struct PolicyOutcome {
    label: String,
    delays: Vec<f64>,
    vm_cost: f64,
}

fn run_policy(
    label: &str,
    keep_alive: SimDuration,
    trace: &areplica_traces::Trace,
    seed_offset: u64,
) -> PolicyOutcome {
    let mut sim = fresh_sim(seed_offset);
    let use1 = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let use2 = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    sim.world.objstore_mut(use1).create_bucket("src");
    sim.world.objstore_mut(use2).create_bucket("dst");

    let sky = Skyplane::new(SkyplaneConfig {
        keep_alive: Some(keep_alive),
        // Per-object coordination once gateways exist is much cheaper than
        // a cold job (Figure 5 replays a stream, not one-shot jobs).
        job_overhead: Dist::normal(2.0, 0.4),
        ..SkyplaneConfig::default()
    });
    let delays: Rc<RefCell<Vec<f64>>> = Rc::default();

    for r in &trace.records {
        if let TraceOp::Put { size } = r.op {
            let key = r.key.clone();
            // Cap sizes: the tenant's objects top out in the tens of MB.
            let size = size.min(64 << 20);
            let sky2 = sky.clone_handle();
            let delays2 = delays.clone();
            sim.schedule_in(r.at.to_duration(), move |sim: &mut CloudSim| {
                world::user_put(sim, use1, "src", &key, size).unwrap();
                schedule_replication(sim, &sky2, use1, use2, &key, delays2.clone());
            });
        }
    }
    sim.run_to_completion(50_000_000);
    let collected = delays.borrow().clone();
    PolicyOutcome {
        label: label.to_string(),
        delays: collected,
        vm_cost: sim
            .world
            .ledger
            .category_total(CostCategory::VmCompute)
            .as_dollars(),
    }
}

fn schedule_replication(
    sim: &mut CloudSim,
    sky: &Skyplane,
    src: RegionId,
    dst: RegionId,
    key: &str,
    delays: Rc<RefCell<Vec<f64>>>,
) {
    sky.replicate(
        sim,
        src,
        "src",
        dst,
        "dst",
        key,
        Rc::new(move |_, r| {
            delays
                .borrow_mut()
                .push((r.completed - r.submitted).as_secs_f64());
        }),
    );
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let minutes = scaled(60, 15) as u64;
    let trace = tenant_trace(minutes);
    let puts = trace
        .records
        .iter()
        .filter(|r| matches!(r.op, TraceOp::Put { .. }))
        .count();

    let policies = [
        ("5 min", SimDuration::from_mins(5)),
        ("1 min", SimDuration::from_mins(1)),
        ("20 sec", SimDuration::from_secs(20)),
    ];
    let outcomes: Vec<PolicyOutcome> = policies
        .iter()
        .enumerate()
        .map(|(i, (label, ka))| run_policy(label, *ka, &trace, 0x500 + i as u64))
        .collect();

    let mut table = Table::new([
        "shutdown policy",
        "p50 delay (s)",
        "p90",
        "max",
        "VM cost ($)",
        "cost vs 5min",
    ]);
    let keepalive_cost = outcomes[0].vm_cost;
    for o in &outcomes {
        table.row([
            o.label.clone(),
            format!("{:.1}", percentile(&o.delays, 50.0)),
            format!("{:.1}", percentile(&o.delays, 90.0)),
            format!("{:.1}", o.delays.iter().copied().fold(0.0, f64::max)),
            format!("{:.4}", o.vm_cost),
            format!(
                "{:+.1}%",
                100.0 * (o.vm_cost - keepalive_cost) / keepalive_cost
            ),
        ]);
    }
    let mean_delay = mean(&outcomes[2].delays);
    let _ = SimTime::ZERO;
    format!(
        "Figure 5 — Skyplane on a dynamic workload ({minutes} min tenant trace, {puts} PUTs,\n\
         AWS us-east-1 -> us-east-2, one VM per region, idle shutdown policies)\n\n{}\n\
         20-sec policy mean delay: {mean_delay:.1} s\n\
         paper reference: delays reach minutes when provisioning is on the path; the\n\
         20-sec policy saves <30% VM cost vs keep-alive while inflating delays.\n",
        table.render(),
    )
}
