//! Figure 8: asymmetric behaviours of different cloud functions — a 1 GB
//! object replicated pairwise between AWS us-east-1, Azure eastus, and GCP
//! us-east1, with the replicator functions run at either end. The achieved
//! speed depends not only on the (src, dst) pair but on *where* the
//! functions run.

use areplica_core::model::ExecSide;
use areplica_core::EngineConfig;
use cloudsim::Cloud;

use crate::harness::{mean, scaled, Table};
use crate::runners::{pair_sim, replicate_fixed};

/// Measures the end-to-end replication time of a 1 GB object with 16
/// replicators on the given side.
fn measure(
    seed_offset: u64,
    src: (Cloud, &str),
    dst: (Cloud, &str),
    side: ExecSide,
    trials: usize,
) -> f64 {
    let (mut sim, pair) = pair_sim(seed_offset, src, dst);
    let cfg = EngineConfig::default();
    let times: Vec<f64> = (0..trials)
        .map(|t| {
            let key = format!("obj-{t}");
            replicate_fixed(&mut sim, &cfg, pair, &key, 1 << 30, 16, side).0
        })
        .collect();
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
