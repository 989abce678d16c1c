//! Criterion micro-benchmark of the discrete-event simulator kernel:
//! event throughput bounds how large a trace replay is practical.

use criterion::{criterion_group, criterion_main, Criterion};
use simkernel::{Sim, SimDuration};
use std::hint::black_box;

fn bench_event_throughput(c: &mut Criterion) {
    c.bench_function("des_100k_chained_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1, 0u64);
            fn tick(sim: &mut Sim<u64>) {
                sim.world += 1;
                if sim.world < 100_000 {
                    sim.schedule_in(SimDuration::from_nanos(10), tick);
                }
            }
            sim.schedule_in(SimDuration::ZERO, tick);
            sim.run_to_completion(u64::MAX);
            black_box(sim.world)
        })
    });

    // The same chain with 100 k far events pending 10–60 min ahead of the
    // clock, standing in for the later records of a trace scheduled up front.
    c.bench_function("des_chain_with_100k_far_timers", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1, 0u64);
            let span = SimDuration::from_mins(50).as_nanos();
            for i in 0..100_000u64 {
                let spread = SimDuration::from_nanos(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % span);
                sim.schedule_in(SimDuration::from_mins(10) + spread, |_| {});
            }
            fn tick(sim: &mut Sim<u64>) {
                sim.world += 1;
                if sim.world < 100_000 {
                    sim.schedule_in(SimDuration::from_nanos(10), tick);
                }
            }
            sim.schedule_in(SimDuration::ZERO, tick);
            sim.run_to_completion(100_000);
            black_box(sim.world)
        })
    });

    c.bench_function("des_10k_scheduled_upfront", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1, 0u64);
            for i in 0..10_000u64 {
                sim.schedule_in(SimDuration::from_nanos(i), |sim| sim.world += 1);
            }
            sim.run_to_completion(u64::MAX);
            black_box(sim.world)
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
    targets = bench_event_throughput
}
criterion_main!(benches);
