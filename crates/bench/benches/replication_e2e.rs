//! Criterion end-to-end benchmark: one full small-object replication through
//! notification, lock, plan, transfer, and unlock — the per-object work the
//! trace replay multiplies by a million.

use areplica_core::{AReplicaBuilder, ProfilerConfig, ReplicationRule};
use cloudsim::world::user_put;
use cloudsim::{Cloud, World};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_replication(c: &mut Criterion) {
    // Profile once; reuse the model across iterations.
    let probe = World::paper_sim(1);
    let src = probe.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = probe.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let model = areplica_core::build_model_for(
        &probe.world.regions.clone(),
        &probe.world.params.clone(),
        &probe.world.catalog.clone(),
        &[(src, dst)],
        &ProfilerConfig {
            warm_samples: 3,
            cold_samples: 3,
            transfer_samples: 3,
            chunks_per_invocation: 2,
            notif_samples: 3,
            mc_trials: 500,
        },
    )
    .expect("profiling");

    c.bench_function("e2e_replicate_1mb_sim", |b| {
        b.iter(|| {
            let mut sim = World::paper_sim(2);
            let service = AReplicaBuilder::new()
                .rule(ReplicationRule::new(src, "s", dst, "d"))
                .model(model.clone())
                .install(&mut sim);
            user_put(&mut sim, src, "s", "k", 1 << 20).unwrap();
            sim.run_to_completion(u64::MAX);
            let n = service.metrics().completions.len();
            black_box(n)
        })
    });

    c.bench_function("e2e_replicate_128mb_distributed_sim", |b| {
        b.iter(|| {
            let mut sim = World::paper_sim(3);
            let service = AReplicaBuilder::new()
                .rule(ReplicationRule::new(src, "s", dst, "d"))
                .model(model.clone())
                .install(&mut sim);
            user_put(&mut sim, src, "s", "k", 128 << 20).unwrap();
            sim.run_to_completion(u64::MAX);
            let n = service.metrics().completions.len();
            black_box(n)
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
    targets = bench_replication
}
criterion_main!(benches);
