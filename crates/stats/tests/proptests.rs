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

/// Values at the edges of the float line: signed zeros, subnormals, the
/// extreme magnitudes and the infinities.
const EDGES: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1e-300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One NaN-free value for `sort_ascending`: an edge value, a duplicate-prone
/// one, a signed zero, any float bit pattern, or an ordinary float.
fn sort_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        (0usize..FEW.len()).prop_map(|i| FEW[i]),
        prop_oneof![Just(-0.0), Just(0.0)],
        (0u64..=u64::MAX)
            .prop_map(f64::from_bits)
            .prop_filter("not NaN", |x| !x.is_nan()),
        finite_f64(-1e3..1e3),
    ]
}

/// Inputs for `sort_ascending` of up to 5,000 values, as drawn, sorted or
/// reversed.
fn sort_inputs() -> impl Strategy<Value = Vec<f64>> {
    let len = prop_oneof![0usize..8, 0usize..5_001];
    (len, 0u8..3).prop_flat_map(|(len, order)| {
        proptest::collection::vec(sort_value(), len).prop_map(move |mut v| {
            if order > 0 {
                v.sort_by(ascending);
            }
            if order > 1 {
                v.reverse();
            }
            v
        })
    })
}

/// The order `EmpiricalDist::new` promises: a stable sort by `partial_cmp`.
fn ascending(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("NaN-free")
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
        // sign interleave the signed zeros; one repeated shift, or a few
        // distinct ones, tie the cursor's order.
        mut shifts in prop_oneof![
            Just(vec![-0.0; 300]),
            proptest::collection::vec(prop_oneof![Just(-0.0), Just(0.0)], 300..301),
            finite_f64(-50.0..50.0).prop_map(|s| vec![s; 300]),
            proptest::collection::vec(0usize..FEW.len(), 300..301).prop_map(from_few),
            proptest::collection::vec(finite_f64(-50.0..50.0), 300..301),
        ],
        // Shifts as drawn, rising with the base, or falling with it.
        trend in 0u8..3,
        // Tied shifts in ascending or descending index order.
        ties_descending in prop_oneof![Just(false), Just(true)],
        q_any in 0.0f64..1.0,
    ) {
        base.sort_by(f64::total_cmp);
        let len = base.len();
        let shifts = &mut shifts[..len];
        match trend {
            1 => shifts.sort_by(f64::total_cmp),
            2 => shifts.sort_by(|a, b| b.total_cmp(a)),
            _ => {}
        }
        let mut by_shift: Vec<u32> = (0..len as u32).collect();
        by_shift.sort_by(|&i, &j| {
            let by_index = if ties_descending { j.cmp(&i) } else { i.cmp(&j) };
            shifts[j as usize].partial_cmp(&shifts[i as usize]).unwrap().then(by_index)
        });
        let sums = (0..len).map(|i| base[i] + shifts[i]).collect();
        let sorted = EmpiricalDist::new(sums).unwrap();
        // q = 0 reads all len sums, q = 1 the largest alone.
        for q in [0.0, 0.5, 0.99, 0.9999, 1.0, q_any] {
            let fused =
                stats::quantile_of_sums(len, q, |i| base[i], |i| shifts[i], &by_shift).unwrap();
            prop_assert_eq!(fused.to_bits(), sorted.quantile(q).to_bits(), "q = {}", q);
        }
    }

    #[test]
    fn sort_ascending_is_the_stable_comparison_sort(values in sort_inputs()) {
        let mut expected = values.clone();
        expected.sort_by(ascending);
        let mut radix = values;
        stats::sort_ascending(&mut radix);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&radix), bits(&expected));
    }

    #[test]
    fn extend_ascending_sorts_the_prefix_and_batch_as_one(
        values in sort_inputs(),
        // An empty prefix, an empty batch, or a split anywhere between.
        split in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
    ) {
        // The inputs' duplicates, signed zeros, subnormals and infinities
        // fall on both sides of the split; sorted inputs put the whole
        // batch at or above the prefix, reversed ones below it.
        let at = (split * values.len() as f64).round() as usize;
        let mut expected = values.clone();
        expected.sort_by(ascending);
        let mut merged = values[..at].to_vec();
        stats::sort_ascending(&mut merged);
        stats::extend_ascending(&mut merged, values[at..].to_vec());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&merged), bits(&expected));
    }

    #[test]
    fn std_normal_maxima_match_monte_carlo_bit_for_bit(
        seed in 0u64..=u64::MAX,
        n in 1usize..=127,
        trials in 1usize..=64,
    ) {
        use rand::SeedableRng;
        let parent = Dist::normal(0.0, 1.0);
        let mut full_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng = full_rng.clone();
        let full = stats::monte_carlo_max(&parent, n, trials, &mut full_rng);
        let maxima = stats::std_normal_maxima(n, trials, &mut rng);
        let pruned = stats::monte_carlo_max_from_std(&parent, &maxima).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(pruned.samples()), bits(full.samples()));
        prop_assert!(rng == full_rng, "stream drift at n={} trials={}", n, trials);
    }

    #[test]
    fn std_normal_maxima_in_batches_match_one_call(
        seed in 0u64..=u64::MAX,
        n in 1usize..=127,
        batches in proptest::collection::vec(1usize..=64, 1..6),
    ) {
        use rand::SeedableRng;
        let trials = batches.iter().sum();
        let mut one_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng = one_rng.clone();
        let one = stats::std_normal_maxima(n, trials, &mut one_rng);
        let staged: Vec<f64> = batches
            .iter()
            .flat_map(|&batch| stats::std_normal_maxima(n, batch, &mut rng))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&staged), bits(&one), "n={} batches={:?}", n, batches);
        prop_assert!(rng == one_rng, "stream drift at n={} batches={:?}", n, batches);
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
        let max_dist = stats::monte_carlo_max(&parent, n, 400, &mut rng);
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
