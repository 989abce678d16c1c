//! Criterion micro-benchmarks of the distribution machinery: Monte-Carlo
//! max-of-n vs the Gumbel extreme-value approximation (§5.3's "for large n,
//! resampling will be too time-consuming").

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stats::{
    extend_ascending, gumbel_max_of_normals, monte_carlo_max, std_normal_maxima, Dist,
    EmpiricalDist,
};
use std::hint::black_box;

fn bench_max_of_n(c: &mut Criterion) {
    let parent = Dist::normal(10.0, 2.0);

    for n in [8usize, 64] {
        c.bench_function(&format!("monte_carlo_max_n{n}_3000trials"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let d = monte_carlo_max(black_box(&parent), n, 3000, &mut rng);
                black_box(d.quantile(0.99))
            })
        });
    }

    // The model's bootstrap at its 3,000 trials: the same maxima as
    // `monte_carlo_max`, with only the draws that can be a trial's maximum
    // transformed.
    for n in [8usize, 16, 64, 127] {
        c.bench_function(&format!("std_normal_maxima_n{n}_3000trials"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(std_normal_maxima(black_box(n), 3000, &mut rng)))
        });
    }

    // One new key's bootstrap staged the way a planner miss stages it: 32,
    // 64, …, 2,048, then 2,500 trials, each batch drawn, sorted alone and
    // merged into the held maxima.
    c.bench_function("staged_bootstrap_n64_2500trials", |b| {
        let stages: Vec<usize> = std::iter::successors(Some(32), |t| Some(t * 2))
            .take_while(|&t| t < 2500)
            .chain([2500])
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut maxima = Vec::new();
            for &trials in &stages {
                let batch = std_normal_maxima(64, trials - maxima.len(), &mut rng);
                maxima.reserve_exact(batch.len());
                extend_ascending(&mut maxima, batch);
            }
            black_box(maxima)
        })
    });

    // Sorting a model-sized sample, as `t_rep_dist` does for its shifted sums.
    c.bench_function("empirical_new_3000", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.5..40.0)).collect();
        b.iter(|| black_box(EmpiricalDist::new(black_box(samples.clone()))))
    });

    c.bench_function("gumbel_max_n512", |b| {
        b.iter(|| {
            let d = gumbel_max_of_normals(black_box(10.0), 2.0, 512);
            black_box(d.quantile(0.99))
        })
    });

    c.bench_function("normal_quantile", |b| {
        let d = Dist::normal(10.0, 2.0);
        b.iter(|| black_box(d.quantile(black_box(0.9999))))
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
    targets = bench_max_of_n
}
criterion_main!(benches);
