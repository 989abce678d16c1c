//! Criterion micro-benchmarks of Algorithm 3's plan generation: the planner
//! runs on the critical path of every replication, so it must be fast even
//! when Monte-Carlo distributions are cold. The warm cases time the model's
//! quantile memo; the drift case times re-planning after a rescale; the cold
//! cases time the max-of-n bootstrap.

use areplica_core::model::{ExecSide, LocParams, PathKey, PathParams, PerfModel};
use areplica_core::{generate_plan, EngineConfig};
use cloudsim::{Cloud, RegionRegistry};
use criterion::{criterion_group, criterion_main, Criterion};
use stats::Dist;
use std::hint::black_box;

fn build_model() -> (PerfModel, cloudsim::RegionId, cloudsim::RegionId) {
    let regions = RegionRegistry::paper_regions();
    let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
    let mut m = PerfModel::new(8 << 20, 2000, 1);
    for r in [src, dst] {
        m.set_loc(
            r,
            LocParams {
                invoke: Dist::normal(0.03, 0.01),
                cold: Dist::normal(0.3, 0.1),
                postpone: Dist::Constant(0.0),
            },
        );
    }
    for side in ExecSide::BOTH {
        m.set_path(
            PathKey { src, dst, side },
            PathParams::new(
                Dist::normal(0.25, 0.05),
                Dist::normal(0.2, 0.04),
                Dist::normal(0.22, 0.05),
            ),
        );
    }
    (m, src, dst)
}

fn bench_planner(c: &mut Criterion) {
    let cfg = EngineConfig::default();

    c.bench_function("plan_small_object_warm", |b| {
        let (mut model, src, dst) = build_model();
        // Warm the caches once.
        generate_plan(&mut model, &cfg, src, dst, 1 << 20, None, 0.99).unwrap();
        b.iter(|| {
            let plan =
                generate_plan(&mut model, &cfg, src, dst, black_box(1 << 20), None, 0.99).unwrap();
            black_box(plan)
        })
    });

    c.bench_function("plan_1gb_warm_cache", |b| {
        let (mut model, src, dst) = build_model();
        generate_plan(&mut model, &cfg, src, dst, 1 << 30, None, 0.99).unwrap();
        b.iter(|| {
            let plan =
                generate_plan(&mut model, &cfg, src, dst, black_box(1 << 30), None, 0.99).unwrap();
            black_box(plan)
        })
    });

    c.bench_function("plan_mixed_sizes_after_drift_rescale", |b| {
        // The online logger's drift correction rescales a path, which drops
        // its memoised quantiles and max-of-n distributions; the next plans
        // rebuild them from the cached standardized maxima and shift draws.
        let (mut model, src, dst) = build_model();
        let sizes: Vec<u64> = (0..16).map(|i| (3u64 << 20) << (i % 10)).collect();
        for &size in &sizes {
            generate_plan(&mut model, &cfg, src, dst, size, None, 0.99).unwrap();
        }
        let path = PathKey {
            src,
            dst,
            side: ExecSide::Source,
        };
        let mut factor = 1.01;
        b.iter(|| {
            model.rescale_path_chunks(path, factor);
            factor = 1.0 / factor;
            for &size in &sizes {
                let plan =
                    generate_plan(&mut model, &cfg, src, dst, black_box(size), None, 0.99).unwrap();
                black_box(plan);
            }
        })
    });

    c.bench_function("plan_unique_part_counts_cold", |b| {
        // bulk-xcloud's shape: every object has a part count of its own, so
        // the last level, n = part count, bootstraps a fresh max-of-n.
        let part_size = cfg.part_size;
        b.iter(|| {
            let (mut model, src, dst) = build_model();
            for parts in 33..=127u64 {
                let size = black_box(parts * part_size);
                let plan = generate_plan(&mut model, &cfg, src, dst, size, None, 0.99).unwrap();
                black_box(plan);
            }
        })
    });

    c.bench_function("plan_1gb_cold_monte_carlo", |b| {
        // Cold cache every iteration: measures the bootstrap cost the paper
        // bounds with the on-demand simulation budget.
        b.iter(|| {
            let (mut model, src, dst) = build_model();
            let plan =
                generate_plan(&mut model, &cfg, src, dst, black_box(1 << 30), None, 0.99).unwrap();
            black_box(plan)
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_planner
}
criterion_main!(benches);
