//! Figure 20: effectiveness of dynamic region selection — replicating a
//! 128 MB object with a single function statically at the source, statically
//! at the destination, or wherever the planner's model says is faster.
//! Certain regions have very distinct characteristics; neither static choice
//! wins everywhere.

use areplica_core::model::ExecSide;
use areplica_core::planner::generate_plan;
use areplica_core::EngineConfig;
use cloudsim::Cloud;

use crate::harness::{mean, scaled, Table};
use crate::runners::{fresh_sim, pair_sim, replicate_fixed};

const SIZE: u64 = 128 << 20;

fn measure_side(
    src: (Cloud, &str),
    dst: (Cloud, &str),
    side: ExecSide,
    trials: usize,
    seed_offset: u64,
) -> f64 {
    let (mut sim, pair) = pair_sim(seed_offset, src, dst);
    let cfg = EngineConfig::default();
    let times: Vec<f64> = (0..trials)
        .map(|t| {
            let key = format!("obj-{t}");
            replicate_fixed(&mut sim, &cfg, pair, &key, SIZE, 1, side).0
        })
        .collect();
    mean(&times)
}

/// The planner's dynamic choice of side for a single-function plan.
///
/// Side ranking on high-variability clouds needs more profiling samples than
/// the default budget (at Azure's instance cv of ~0.45, six instances cannot
/// reliably order a ~25% gap), so this experiment doubles the sample count —
/// the one-off onboarding cost §4 describes.
fn dynamic_side(src: (Cloud, &str), dst: (Cloud, &str)) -> ExecSide {
    let sim = fresh_sim(0x2000);
    let src_r = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst_r = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    let mut model = areplica_core::build_model_for(
        &sim.world.regions.clone(),
        &sim.world.params.clone(),
        &sim.world.catalog.clone(),
        &[(src_r, dst_r)],
        &areplica_core::ProfilerConfig {
            transfer_samples: 20,
            chunks_per_invocation: 4,
            ..crate::runners::experiment_profiler()
        },
    )
    .expect("profiling");
    // A relaxed SLO lets the planner stay at a single instance; force n = 1
    // comparisons by restricting max parallelism (the figure isolates the
    // side choice).
    let cfg = EngineConfig {
        max_parallelism: 1,
        local_threshold: 0, // not orchestrator-local: a real remote function
        ..EngineConfig::default()
    };
    let plan = generate_plan(&mut model, &cfg, src_r, dst_r, SIZE, None, 0.99).expect("profiled");
    plan.side
}

fn section(
    title: &str,
    src: (Cloud, &'static str),
    dsts: &[(Cloud, &'static str)],
    trials: usize,
    seed_base: u64,
) -> String {
    let mut table = Table::new([
        "destination",
        "src-side (s)",
        "dst-side (s)",
        "dynamic (s)",
        "dynamic picks",
    ]);
    for (i, &dst) in dsts.iter().enumerate() {
        let at_src = measure_side(src, dst, ExecSide::Source, trials, seed_base + 2 * i as u64);
        let at_dst = measure_side(
            src,
            dst,
            ExecSide::Destination,
            trials,
            seed_base + 2 * i as u64 + 1,
        );
        let side = dynamic_side(src, dst);
        let dynamic = match side {
            ExecSide::Source => at_src,
            ExecSide::Destination => at_dst,
        };
        table.row([
            format!("{}-{}", dst.0, dst.1),
            format!("{at_src:.1}"),
            format!("{at_dst:.1}"),
            format!("{dynamic:.1}"),
            match side {
                ExecSide::Source => "source",
                ExecSide::Destination => "destination",
            }
            .to_string(),
        ]);
    }
    format!("{title}\n{}", table.render())
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let trials = scaled(4, 2);
    let a = section(
        "(a) From Azure southeastasia",
        (Cloud::Azure, "southeastasia"),
        &[
            (Cloud::Gcp, "europe-west6"),
            (Cloud::Gcp, "us-east1"),
            (Cloud::Gcp, "asia-northeast1"),
        ],
        trials,
        0x2010,
    );
    let b = section(
        "(b) From GCP europe-west6",
        (Cloud::Gcp, "europe-west6"),
        &[
            (Cloud::Azure, "westus2"),
            (Cloud::Azure, "southeastasia"),
            (Cloud::Azure, "uksouth"),
        ],
        trials,
        0x2020,
    );
    format!(
        "Figure 20 — effectiveness of dynamic region selection (128 MB, single function)\n\n{a}\n{b}\n\
         paper reference: neither statically-source nor statically-destination wins\n\
         everywhere; the model-driven dynamic choice tracks the better side.\n",
    )
}
