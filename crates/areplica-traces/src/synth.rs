//! Synthetic trace generation matching the IBM COS characterization (§2).
//!
//! The generator reproduces the two properties the paper's Figures 2–3 show
//! and the evaluation depends on:
//!
//! * **Size mixture** — small objects dominate by count (~80% of PUTs are at
//!   or below 1 MB) while large objects dominate capacity, with a tail out
//!   to multiple GB. Modelled as a four-component lognormal mixture.
//! * **Bursty arrivals** — per-minute write rates fluctuate sharply: a
//!   mean-reverting AR(1) log-rate process modulated by occasional
//!   multi-minute bursts, with Poisson arrivals inside each minute.
//!
//! Key popularity is Zipf-like, so hot objects receive repeated updates
//! (exercising locks and SLO-bounded batching). A configurable fraction of
//! operations are DELETEs of previously written keys.

use rand::rngs::StdRng;
use rand::Rng;
use simkernel::rng::derive_rng;
use simkernel::SimDuration;
use stats::{sample_std_normal, Dist};

use crate::record::{SimDurationMs, Trace, TraceOp, TraceRecord};

/// A size-mixture component.
#[derive(Debug, Clone)]
pub struct SizeComponent {
    /// Mixture weight (relative).
    pub weight: f64,
    /// Size distribution (bytes).
    pub dist: Dist,
    /// Hard bounds applied to draws.
    pub min: u64,
    /// Upper bound.
    pub max: u64,
}

/// Synthetic generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Trace length.
    pub duration: SimDuration,
    /// Mean write operations per second.
    pub mean_ops_per_sec: f64,
    /// AR(1) coefficient of the per-minute log-rate (0 = iid, 1 = random
    /// walk).
    pub rate_ar1: f64,
    /// Standard deviation of the per-minute log-rate innovations.
    pub rate_sigma: f64,
    /// Probability that a given minute starts a burst.
    pub burst_prob: f64,
    /// Burst amplitude multiplier distribution.
    pub burst_multiplier: Dist,
    /// Burst length in minutes.
    pub burst_minutes: u32,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Zipf exponent for key popularity (0 = uniform).
    pub zipf_s: f64,
    /// Fraction of write ops that are DELETEs (of live keys).
    pub delete_fraction: f64,
    /// The size mixture.
    pub size_mixture: Vec<SizeComponent>,
    /// Size cap applied to the hottest keys (the most popular ~1% of the
    /// keyspace): frequently-updated objects in production object stores are
    /// small (configs, markers, counters), while multi-hundred-MB objects
    /// are effectively write-once. `None` disables the correlation.
    pub hot_key_size_cap: Option<u64>,
}

impl SynthConfig {
    /// The IBM-COS-shaped defaults used by the experiments.
    pub fn ibm_cos_like() -> SynthConfig {
        SynthConfig {
            duration: SimDuration::from_mins(60),
            mean_ops_per_sec: 20.0,
            rate_ar1: 0.75,
            rate_sigma: 0.55,
            burst_prob: 0.04,
            burst_multiplier: Dist::lognormal_mean_cv(4.0, 0.5),
            burst_minutes: 3,
            key_space: 50_000,
            zipf_s: 0.9,
            delete_fraction: 0.05,
            size_mixture: ibm_size_mixture(),
            hot_key_size_cap: Some(16 << 20),
        }
    }
}

/// The four-component size mixture calibrated to Figure 2: ~80% of PUTs at
/// or below 1 MB, capacity dominated by the large components.
pub fn ibm_size_mixture() -> Vec<SizeComponent> {
    vec![
        // Tiny metadata-ish objects: tens of bytes to tens of KB.
        SizeComponent {
            weight: 0.42,
            dist: Dist::lognormal_mean_cv(8_000.0, 3.0),
            min: 32,
            max: 256 << 10,
        },
        // Small objects: tens of KB to ~1 MB.
        SizeComponent {
            weight: 0.38,
            dist: Dist::lognormal_mean_cv(220_000.0, 1.6),
            min: 8 << 10,
            max: 1 << 20,
        },
        // Medium: 1–64 MB.
        SizeComponent {
            weight: 0.155,
            dist: Dist::lognormal_mean_cv(9e6, 1.4),
            min: 1 << 20,
            max: 64 << 20,
        },
        // Large: 64 MB to 1 GB.
        SizeComponent {
            weight: 0.0449,
            dist: Dist::lognormal_mean_cv(1.6e8, 1.2),
            min: 64 << 20,
            max: 1 << 30,
        },
        // Rare giant tail: the trace's "over 99.99% of the objects are below
        // 1 GB" leaves only ~1 in 10,000 PUTs here.
        SizeComponent {
            weight: 0.0001,
            dist: Dist::lognormal_mean_cv(1.8e9, 0.6),
            min: 1 << 30,
            max: 4 << 30,
        },
    ]
}

/// Samples one object size from the mixture.
pub fn sample_size(mixture: &[SizeComponent], rng: &mut StdRng) -> u64 {
    let total: f64 = mixture.iter().map(|c| c.weight).sum();
    let mut pick = rng.gen_range(0.0..total);
    for c in mixture {
        if pick < c.weight {
            let raw = c.dist.sample_nonneg(rng) as u64;
            return raw.clamp(c.min, c.max);
        }
        pick -= c.weight;
    }
    let last = mixture.last().expect("non-empty mixture");
    (last.dist.sample_nonneg(rng) as u64).clamp(last.min, last.max)
}

/// Zipf-ish key index sampler via inverse-power transform (approximate but
/// fast and deterministic; exactness of the exponent is irrelevant here).
fn sample_key_index(key_space: u64, s: f64, rng: &mut StdRng) -> u64 {
    if s <= 0.0 {
        return rng.gen_range(0..key_space);
    }
    // Inverse CDF of a bounded Pareto-like pmf.
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let n = key_space as f64;
    let exponent = 1.0 - s;
    let idx = if exponent.abs() < 1e-9 {
        n.powf(u) - 1.0
    } else {
        ((u * (n.powf(exponent) - 1.0)) + 1.0).powf(1.0 / exponent) - 1.0
    };
    (idx as u64).min(key_space - 1)
}

/// Generates a trace deterministically from `seed`.
pub fn generate(cfg: &SynthConfig, seed: u64) -> Trace {
    let mut rng = derive_rng(seed, "trace:synth");
    let minutes = (cfg.duration.as_secs_f64() / 60.0).ceil() as u64;
    let mut records = Vec::new();

    // Per-minute log-rate AR(1) around log(mean).
    let mut log_rate_dev = 0.0f64;
    let mut burst_left = 0u32;
    let mut burst_mult = 1.0f64;
    // Live keys: a Vec for O(1) victim sampling plus a set for O(1)
    // membership checks.
    let mut live_keys: Vec<u64> = Vec::new();
    let mut live_set: std::collections::HashSet<u64> = std::collections::HashSet::new();

    for minute in 0..minutes {
        log_rate_dev = cfg.rate_ar1 * log_rate_dev
            + cfg.rate_sigma
                * (1.0 - cfg.rate_ar1 * cfg.rate_ar1).sqrt()
                * sample_std_normal(&mut rng);
        if burst_left == 0 && rng.gen_range(0.0f64..1.0) < cfg.burst_prob {
            burst_left = cfg.burst_minutes;
            burst_mult = cfg.burst_multiplier.sample_nonneg(&mut rng).max(1.0);
        }
        let mult = if burst_left > 0 {
            burst_left -= 1;
            burst_mult
        } else {
            1.0
        };
        let rate = cfg.mean_ops_per_sec * log_rate_dev.exp() * mult;
        let ops_this_minute = sample_poisson(rate * 60.0, &mut rng);

        let minute_start_ms = minute * 60_000;
        // Pre-sorted arrival offsets keep generation order equal to time
        // order, so the live-key tracking (a DELETE only targets keys whose
        // PUT precedes it in time) stays causally valid.
        let mut offsets: Vec<u64> = (0..ops_this_minute)
            .map(|_| rng.gen_range(0..60_000u64))
            .collect();
        offsets.sort_unstable();
        for off in offsets {
            let at = SimDurationMs(minute_start_ms + off);
            let is_delete =
                !live_keys.is_empty() && rng.gen_range(0.0f64..1.0) < cfg.delete_fraction;
            if is_delete {
                let idx = rng.gen_range(0..live_keys.len());
                let key_id = live_keys.swap_remove(idx);
                live_set.remove(&key_id);
                records.push(TraceRecord {
                    at,
                    key: format!("obj-{key_id:08x}"),
                    op: TraceOp::Delete,
                });
            } else {
                let key_id = sample_key_index(cfg.key_space, cfg.zipf_s, &mut rng);
                if live_set.insert(key_id) {
                    live_keys.push(key_id);
                }
                let mut size = sample_size(&cfg.size_mixture, &mut rng);
                // Popularity-size correlation: hot keys stay small.
                if let Some(cap) = cfg.hot_key_size_cap {
                    if key_id < cfg.key_space / 100 {
                        size = size.min(cap);
                    }
                }
                records.push(TraceRecord {
                    at,
                    key: format!("obj-{key_id:08x}"),
                    op: TraceOp::Put { size },
                });
            }
        }
    }
    // Generation order is already time order (offsets sorted per minute);
    // a stable sort preserves causal PUT-before-DELETE order at equal
    // millisecond timestamps.
    records.sort_by_key(|r| r.at);
    // Clamp to the requested duration.
    let max_ms = cfg.duration.as_nanos() / 1_000_000;
    records.retain(|r| r.at.0 < max_ms);
    Trace { records }
}

/// Poisson sampler (Knuth's method for small means, normal approximation for
/// large ones).
pub fn sample_poisson(mean: f64, rng: &mut StdRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 500.0 {
        let draw = mean + mean.sqrt() * sample_std_normal(rng);
        return draw.max(0.0).round() as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_generation() {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(5),
            ..SynthConfig::ibm_cos_like()
        };
        assert_eq!(generate(&cfg, 7), generate(&cfg, 7));
        assert_ne!(generate(&cfg, 7), generate(&cfg, 8));
    }

    #[test]
    fn size_mixture_matches_figure2_shape() {
        let mixture = ibm_size_mixture();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let sizes: Vec<u64> = (0..n).map(|_| sample_size(&mixture, &mut rng)).collect();
        let below_1mb = sizes.iter().filter(|&&s| s <= 1 << 20).count() as f64 / n as f64;
        // Paper: ~80% of PUT requests are <= 1 MB.
        assert!(
            (0.72..=0.88).contains(&below_1mb),
            "fraction <= 1MB: {below_1mb}"
        );
        // "over 99.99% of the objects are below 1GB".
        let below_1gb = sizes.iter().filter(|&&s| s <= 1 << 30).count() as f64 / n as f64;
        assert!(below_1gb >= 0.9995, "fraction <= 1GB: {below_1gb}");
        // Capacity is dominated by objects above 1 MB (Figure 2's capacity
        // bars), even though they are a minority by count.
        let big_bytes: u64 = sizes.iter().filter(|&&s| s > 1 << 20).sum();
        let total: u64 = sizes.iter().sum();
        assert!(
            big_bytes as f64 / total as f64 > 0.9,
            "capacity share of >1MB objects: {}",
            big_bytes as f64 / total as f64
        );
    }

    #[test]
    fn rates_are_bursty() {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(120),
            ..SynthConfig::ibm_cos_like()
        };
        let trace = generate(&cfg, 3);
        // Per-minute op counts.
        let mut counts = vec![0u64; 120];
        for r in &trace.records {
            counts[(r.at.0 / 60_000) as usize] += 1;
        }
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / counts.len() as f64;
        let cv = var.sqrt() / mean;
        // Figure 3: sharp minute-to-minute variation. A Poisson process with
        // constant rate would have cv ~ 1/sqrt(mean*60) << 0.2.
        assert!(cv > 0.4, "per-minute cv {cv}");
        assert!(mean > 200.0, "mean per-minute ops {mean}");
    }

    #[test]
    fn hot_keys_receive_repeated_updates() {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(30),
            ..SynthConfig::ibm_cos_like()
        };
        let trace = generate(&cfg, 5);
        let mut per_key = std::collections::BTreeMap::new();
        for r in &trace.records {
            if matches!(r.op, TraceOp::Put { .. }) {
                *per_key.entry(&r.key).or_insert(0u64) += 1;
            }
        }
        let max_updates = per_key.values().copied().max().unwrap_or(0);
        assert!(max_updates >= 5, "hottest key updated {max_updates} times");
    }

    #[test]
    fn deletes_only_target_live_keys() {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(20),
            delete_fraction: 0.2,
            ..SynthConfig::ibm_cos_like()
        };
        let trace = generate(&cfg, 9);
        let mut live = std::collections::HashSet::new();
        let mut deletes = 0;
        for r in &trace.records {
            match r.op {
                TraceOp::Put { .. } => {
                    live.insert(r.key.clone());
                }
                TraceOp::Delete => {
                    deletes += 1;
                    assert!(live.remove(&r.key), "delete of dead key {}", r.key);
                }
            }
        }
        assert!(deletes > 0, "no deletes generated");
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        for mean in [0.5, 5.0, 60.0, 2_000.0] {
            let n = 3_000;
            let total: u64 = (0..n).map(|_| sample_poisson(mean, &mut rng)).sum();
            let sample_mean = total as f64 / n as f64;
            assert!(
                (sample_mean - mean).abs() / mean < 0.1,
                "mean {mean}: got {sample_mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn respects_duration_bound() {
        let cfg = SynthConfig {
            duration: SimDuration::from_mins(7),
            ..SynthConfig::ibm_cos_like()
        };
        let trace = generate(&cfg, 4);
        assert!(trace.duration() < SimDuration::from_mins(7));
        assert!(!trace.is_empty());
    }
}
