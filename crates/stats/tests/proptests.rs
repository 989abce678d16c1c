//! Property-based tests of the distribution algebra.

use proptest::prelude::*;
use stats::{Dist, EmpiricalDist};

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    range.prop_filter("finite", |x| x.is_finite())
}

/// Few distinct values, so vectors drawn from them are full of duplicates.
const FEW: [f64; 6] = [2.5, 0.0, -7.25, 0.1, 1e6, 3.0];

fn from_few(indices: Vec<usize>) -> Vec<f64> {
    indices.into_iter().map(|i| FEW[i]).collect()
}

proptest! {
    #[test]
    fn normal_quantiles_are_monotone(
        mu in finite_f64(-100.0..100.0),
        sigma in finite_f64(0.01..50.0),
        q1 in 0.01f64..0.99,
        q2 in 0.01f64..0.99,
    ) {
        let d = Dist::normal(mu, sigma);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(d.quantile(lo) <= d.quantile(hi) + 1e-9);
    }

    #[test]
    fn quantile_cdf_roundtrip_normal(
        mu in finite_f64(-10.0..10.0),
        sigma in finite_f64(0.1..10.0),
        q in 0.01f64..0.99,
    ) {
        let d = Dist::normal(mu, sigma);
        let x = d.quantile(q);
        prop_assert!((d.cdf(x) - q).abs() < 1e-5, "cdf(quantile({q})) = {}", d.cdf(x));
    }

    #[test]
    fn lognormal_mean_cv_recovers_moments(
        mean in finite_f64(0.1..1000.0),
        cv in finite_f64(0.01..2.0),
    ) {
        let d = Dist::lognormal_mean_cv(mean, cv);
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
        prop_assert!((d.std_dev() / d.mean() - cv).abs() < 1e-9);
    }

    #[test]
    fn iid_sum_mean_is_linear(
        mu in finite_f64(0.1..50.0),
        sigma in finite_f64(0.0..10.0),
        k in 1u64..200,
    ) {
        let d = Dist::normal(mu, sigma);
        let s = d.iid_sum(k);
        prop_assert!((s.mean() - mu * k as f64).abs() < 1e-6);
        // Variance linear in k.
        let var = s.std_dev() * s.std_dev();
        prop_assert!((var - sigma * sigma * k as f64).abs() < 1e-6);
    }

    #[test]
    fn scale_is_homogeneous(
        mu in finite_f64(0.1..50.0),
        sigma in finite_f64(0.01..10.0),
        k in finite_f64(0.1..10.0),
        q in 0.05f64..0.95,
    ) {
        let d = Dist::normal(mu, sigma);
        let scaled = d.scale(k);
        prop_assert!((scaled.quantile(q) - k * d.quantile(q)).abs() < 1e-6);
    }

    #[test]
    fn empirical_quantiles_bounded_by_samples(
        mut samples in proptest::collection::vec(finite_f64(-1000.0..1000.0), 1..100),
        q in 0.0f64..1.0,
    ) {
        let e = EmpiricalDist::new(samples.clone()).unwrap();
        samples.sort_by(f64::total_cmp);
        let v = e.quantile(q);
        prop_assert!(v >= samples[0] - 1e-9 && v <= samples[samples.len() - 1] + 1e-9);
    }

    #[test]
    fn quantile_of_sums_matches_the_sorted_quantile(
        // N = 1 and 2; duplicate-heavy; mostly distinct; both signed zeros.
        mut base in prop_oneof![
            proptest::collection::vec(0usize..FEW.len(), 1..3).prop_map(from_few),
            proptest::collection::vec(0usize..FEW.len(), 3..60).prop_map(from_few),
            proptest::collection::vec(finite_f64(-1000.0..1000.0), 1..300),
            proptest::collection::vec(prop_oneof![Just(-0.0), Just(0.0), Just(1.0)], 1..100),
        ],
        // A −0.0 shift leaves every base value as it is, signed zeros
        // included, so the sums keep the base's ties; zero shifts of either
        // sign interleave the signed zeros.
        shifts in prop_oneof![
            Just(vec![-0.0; 300]),
            proptest::collection::vec(prop_oneof![Just(-0.0), Just(0.0)], 300..301),
            proptest::collection::vec(finite_f64(-50.0..50.0), 300..301),
        ],
        // The bound may be loose.
        slack in prop_oneof![Just(0.0), finite_f64(0.0..10.0)],
        q_any in 0.0f64..1.0,
    ) {
        base.sort_by(f64::total_cmp);
        let len = base.len();
        let shift_max = shifts[..len].iter().copied().fold(f64::NEG_INFINITY, f64::max) + slack;
        let sums = (0..len).map(|i| base[i] + shifts[i]).collect();
        let sorted = EmpiricalDist::new(sums).unwrap();
        for q in [0.0, 0.5, 0.99, 0.9999, 1.0, q_any] {
            let fused =
                stats::quantile_of_sums(len, q, |i| base[i], |i| shifts[i], shift_max).unwrap();
            prop_assert_eq!(fused.to_bits(), sorted.quantile(q).to_bits(), "q = {}", q);
        }
    }

    #[test]
    fn empirical_cdf_is_monotone(
        samples in proptest::collection::vec(finite_f64(-100.0..100.0), 1..60),
        x1 in finite_f64(-150.0..150.0),
        x2 in finite_f64(-150.0..150.0),
    ) {
        let e = EmpiricalDist::new(samples).unwrap();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(e.cdf(lo) <= e.cdf(hi));
    }

    #[test]
    fn fit_normal_roundtrips_moments(
        samples in proptest::collection::vec(finite_f64(-100.0..100.0), 2..200),
    ) {
        let d = stats::fit_normal(&samples).unwrap();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((d.mean() - mean).abs() < 1e-6);
    }

    #[test]
    fn max_of_n_dominates_parent_quantile(
        mu in finite_f64(1.0..20.0),
        sigma in finite_f64(0.1..5.0),
        n in 2usize..40,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let parent = Dist::normal(mu, sigma);
        let max_dist = stats::max_of_n(&parent, n, 400, &mut rng);
        // The median of the max must exceed the parent's median.
        prop_assert!(max_dist.quantile(0.5) > parent.quantile(0.5) - 1e-9);
    }

    #[test]
    fn gumbel_mean_grows_with_n(
        mu in finite_f64(0.0..10.0),
        sigma in finite_f64(0.1..5.0),
        n1 in 130usize..400,
        extra in 100usize..4000,
    ) {
        let a = stats::gumbel_max_of_normals(mu, sigma, n1);
        let b = stats::gumbel_max_of_normals(mu, sigma, n1 + extra);
        prop_assert!(b.mean() > a.mean());
    }
}
