//! Figures 18 & 19: accuracy of the performance model — predicted vs actual
//! replication-time distributions for a 1 GB object with 1 and 32 function
//! instances, on a fast/stable path (AWS us-east-1 → Azure eastus) and a
//! slow/fluctuating one (Azure eastus → GCP asia-northeast1).

use areplica_core::model::{ExecSide, PathKey};
use areplica_core::EngineConfig;
use cloudsim::Cloud;

use crate::harness::{mean, scaled, std_dev, trace_artifacts, trace_out_dir, Table};
use crate::runners::{fresh_sim, measure_areplica_once, pair_sim, profile_pairs, replicate_fixed};

/// Runs `trials` actual replications with fixed parallelism `n`, functions
/// at the source.
pub fn actual_times(
    src: (Cloud, &str),
    dst: (Cloud, &str),
    n: u32,
    trials: usize,
    seed_offset: u64,
) -> Vec<f64> {
    let (mut sim, pair) = pair_sim(seed_offset, src, dst);
    let cfg = EngineConfig::default();
    (0..trials)
        .map(|t| {
            let key = format!("obj-{t}");
            replicate_fixed(&mut sim, &cfg, pair, &key, 1 << 30, n, ExecSide::Source).0
        })
        .collect()
}

/// Predicted T_rep distribution stats (mean, std, p50, p99) for the path.
pub fn predicted_stats(src: (Cloud, &str), dst: (Cloud, &str), n: u32) -> (f64, f64, f64, f64) {
    let sim = fresh_sim(0x1800);
    let src_r = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst_r = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    let mut model = profile_pairs(&sim, &[(src_r, dst_r)]);
    let path = PathKey {
        src: src_r,
        dst: dst_r,
        side: ExecSide::Source,
    };
    let dist = model
        .t_rep_dist(path, 1 << 30, n, false)
        .expect("path profiled");
    (
        dist.mean(),
        dist.std_dev(),
        dist.quantile(0.5),
        dist.quantile(0.99),
    )
}

fn section(
    label: &str,
    src: (Cloud, &str),
    dst: (Cloud, &str),
    trials: usize,
    seed_offset: u64,
) -> String {
    let mut table = Table::new([
        "n",
        "actual mean±σ (s)",
        "actual p99",
        "predicted mean±σ (s)",
        "predicted p99",
        "over-est",
    ]);
    for (i, n) in [1u32, 32].into_iter().enumerate() {
        let actual = actual_times(src, dst, n, trials, seed_offset + i as u64);
        let (pm, ps, _p50, p99) = predicted_stats(src, dst, n);
        let am = mean(&actual);
        let asd = std_dev(&actual);
        let mut sorted = actual.clone();
        sorted.sort_by(f64::total_cmp);
        let ap99 = sorted[((sorted.len() as f64 * 0.99) as usize).min(sorted.len() - 1)];
        table.row([
            n.to_string(),
            format!("{am:.2}±{asd:.2}"),
            format!("{ap99:.2}"),
            format!("{pm:.2}±{ps:.2}"),
            format!("{p99:.2}"),
            format!("{:+.0}%", 100.0 * (pm - am) / am),
        ]);
    }
    format!("{label}\n{}", table.render())
}

/// Traced mini-run surfacing the online logger's drift decisions: a small
/// service-driven workload on the Figure-18 path whose `logger.*` counters
/// and `logger.window` events land in the metrics snapshot. Runs in its own
/// sim (fresh seed) so the figure's own numbers stay untouched.
fn drift_trace_run() -> (String, String) {
    use areplica_core::{AReplicaBuilder, ReplicationRule};

    let mut sim = fresh_sim(0x1890);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src", dst, "dst"))
        .model(model)
        .install(&mut sim);
    // One full logger window (16 observations) plus slack, so at least one
    // window eviction (drift decision) lands in the counters.
    for t in 0..20 {
        let key = format!("drift-{t}");
        measure_areplica_once(&mut sim, &service, src, "src", &key, 4 << 20);
    }
    trace_artifacts(&sim.world.trace)
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let trials = scaled(40, 10);
    if let Some(dir) = trace_out_dir() {
        crate::harness::write_trace(&dir, "fig18_model_accuracy.drift", &drift_trace_run());
    }
    let fig18 = section(
        "Figure 18 — AWS us-east-1 -> Azure eastus (fast, stable)",
        (Cloud::Aws, "us-east-1"),
        (Cloud::Azure, "eastus"),
        trials,
        0x1810,
    );
    let fig19 = section(
        "Figure 19 — Azure eastus -> GCP asia-northeast1 (slow, fluctuating)",
        (Cloud::Azure, "eastus"),
        (Cloud::Gcp, "asia-northeast1"),
        trials,
        0x1910,
    );
    format!(
        "{fig18}\n{fig19}\n\
         paper reference: the model overestimates somewhat (a deliberate upper bound) but\n\
         tracks the relative performance and the variance differences across paths.\n"
    )
}
