//! Figure 9: performance variability of function instances — five instances
//! repeatedly transfer from AWS us-east-1 to Azure eastus for a minute; the
//! per-instance bandwidth differs by more than 2x with no predictable
//! pattern.

use std::cell::RefCell;
use std::rc::Rc;

use cloudsim::faas::{self, RetryPolicy};
use cloudsim::net::Direction;
use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, Executor};
use simkernel::{SimDuration, SimTime};

use crate::harness::{mean, Table};
use crate::runners::fresh_sim;

/// Runs the experiment and returns the report.
/// Per-instance `(time, Mbps)` samples for each chunk transfer.
type Traces = Rc<RefCell<Vec<Vec<(f64, f64)>>>>;

pub fn run() -> String {
    let mut sim = fresh_sim(0x09);
    // Run the instances on Azure (the high-variability cloud) downloading
    // from AWS us-east-1, mirroring the paper's AWS->Azure setup.
    let azure = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let aws = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let spec = faas::default_spec(&sim.world, azure);
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);
    let chunk: u64 = 32 << 20;

    // Each instance records (time, Mbps) per chunk transfer.
    let traces: Traces = Rc::new(RefCell::new(vec![Vec::new(); 5]));
    for instance_idx in 0..5usize {
        let traces = traces.clone();
        let body: faas::FnBody = Rc::new(move |sim: &mut CloudSim, handle| {
            transfer_loop(
                sim,
                handle,
                instance_idx,
                traces.clone(),
                aws,
                chunk,
                horizon,
            );
        });
        faas::invoke(&mut sim, azure, spec, body, RetryPolicy::default());
    }
    sim.run_to_completion(1_000_000);

    let traces = traces.borrow();
    let mut table = Table::new([
        "instance",
        "chunks",
        "mean Mbps",
        "min",
        "max",
        "10s-bucket Mbps (0..60s)",
    ]);
    let mut means = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let rates: Vec<f64> = t.iter().map(|(_, r)| *r).collect();
        let m = mean(&rates);
        means.push(m);
        // Coarse time series in six 10-second buckets.
        let mut buckets = vec![Vec::new(); 6];
        for (at, r) in t {
            let b = ((at / 10.0) as usize).min(5);
            buckets[b].push(*r);
        }
        let series: Vec<String> = buckets
            .iter()
            .map(|b| {
                if b.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.0}", mean(b))
                }
            })
            .collect();
        table.row([
            format!("instance {}", i + 1),
            t.len().to_string(),
            format!("{m:.0}"),
            format!("{:.0}", rates.iter().copied().fold(f64::MAX, f64::min)),
            format!("{:.0}", rates.iter().copied().fold(0.0, f64::max)),
            series.join(" "),
        ]);
    }
    let spread =
        means.iter().copied().fold(0.0, f64::max) / means.iter().copied().fold(f64::MAX, f64::min);
    format!(
        "Figure 9 — per-instance bandwidth variability (5 Azure-eastus instances\n\
         repeatedly downloading 32 MB chunks from AWS us-east-1 for 60 s)\n\n{}\n\
         slowest-to-fastest instance spread: {spread:.2}x\n\
         paper reference: instances differ by >2x with no predictable pattern.\n",
        table.render(),
    )
}

fn transfer_loop(
    sim: &mut CloudSim,
    handle: faas::FnHandle,
    idx: usize,
    traces: Traces,
    remote: cloudsim::RegionId,
    chunk: u64,
    horizon: SimTime,
) {
    if sim.now() >= horizon {
        faas::finish(sim, handle);
        return;
    }
    let started = sim.now();
    world::run_leg(
        sim,
        Executor::Function(handle),
        remote,
        Direction::Download,
        chunk,
        move |sim| {
            let secs = (sim.now() - started).as_secs_f64();
            let mbps = chunk as f64 * 8.0 / (secs * 1e6);
            traces.borrow_mut()[idx].push((started.as_secs_f64(), mbps));
            transfer_loop(sim, handle, idx, traces.clone(), remote, chunk, horizon);
        },
    );
}
