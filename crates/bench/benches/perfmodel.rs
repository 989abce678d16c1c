//! Criterion micro-benchmarks of the distribution machinery: Monte-Carlo
//! max-of-n vs the Gumbel extreme-value approximation (§5.3's "for large n,
//! resampling will be too time-consuming").

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{gumbel_max_of_normals, monte_carlo_max, std_normal_maxima, Dist};
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

    // The model's bootstrap: the same maxima as `monte_carlo_max`, with the
    // draws that cannot set a maximum left untransformed.
    for n in [64usize, 127] {
        c.bench_function(&format!("std_normal_maxima_n{n}_2500trials"), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(std_normal_maxima(black_box(n), 2500, &mut rng)))
        });
    }

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
