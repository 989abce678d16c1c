//! The benchmark's three workloads: how each trace is generated from the
//! workload seed, and which replication rules replay it.
//!
//! Every trace comes from [`areplica_traces::generate`] with a
//! [`SynthConfig`]; the seed is the only source of variation. A `rate_scale`
//! multiplies arrival rates (1.0 is the benchmark size; the tests use tiny
//! scales) without moving the time window, so `trace-burst` keeps its burst.

use areplica_traces::record::SimDurationMs;
use areplica_traces::synth::SizeComponent;
use areplica_traces::{generate, SynthConfig, Trace, TraceOp, TraceRecord};
use cloudsim::Cloud;
use simkernel::SimDuration;
use stats::Dist;

/// The bucket every workload writes to.
pub const SRC_BUCKET: &str = "bench-src";

/// `trace-burst`: mean production rate (fig23's full-scale ~275 ops/s).
const BURST_BASE_OPS: f64 = 275.0;
/// `trace-burst`: window length; the burst sits in its middle and the rest
/// of the window is the recovery under normal traffic.
const BURST_WINDOW_S: u64 = 160;
/// `trace-burst`: the burst starts this far into the window...
const BURST_START_S: u64 = 40;
/// ...and lasts this long...
const BURST_LEN_S: u64 = 60;
/// ...at this multiple of the mean rate, the same for every seed. (The
/// synthesiser's random bursts average 4x; at 4x about half the seeds tip
/// the model's drift correction into a much longer tail, see README.)
const BURST_MULT: f64 = 3.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IBM-COS-shaped production trace with one burst, AWS us-east-1 ->
    /// us-east-2, SLO 10 s at p99.99, batching on (fig23's configuration).
    TraceBurst,
    /// Large objects on unique keys, AWS us-east-1 -> Azure eastus, no SLO.
    BulkXcloud,
    /// Small hot objects with deletes, one bucket fanned out to three
    /// clouds, SLO 10 s, batching on.
    HotFanout,
}

/// One replication rule of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleSpec {
    /// Destination region.
    pub dst: (Cloud, &'static str),
    /// Destination bucket.
    pub dst_bucket: &'static str,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TraceBurst,
        Workload::BulkXcloud,
        Workload::HotFanout,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceBurst => "trace-burst",
            Workload::BulkXcloud => "bulk-xcloud",
            Workload::HotFanout => "hot-fanout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The source region.
    pub fn src(self) -> (Cloud, &'static str) {
        (Cloud::Aws, "us-east-1")
    }

    /// The replication rules, one per destination.
    pub fn rules(self) -> &'static [RuleSpec] {
        match self {
            Workload::TraceBurst => &[RuleSpec {
                dst: (Cloud::Aws, "us-east-2"),
                dst_bucket: "mirror-aws",
            }],
            Workload::BulkXcloud => &[RuleSpec {
                dst: (Cloud::Azure, "eastus"),
                dst_bucket: "mirror-azure",
            }],
            Workload::HotFanout => &[
                RuleSpec {
                    dst: (Cloud::Aws, "us-east-2"),
                    dst_bucket: "mirror-aws",
                },
                RuleSpec {
                    dst: (Cloud::Azure, "eastus"),
                    dst_bucket: "mirror-azure",
                },
                RuleSpec {
                    dst: (Cloud::Gcp, "us-east1"),
                    dst_bucket: "mirror-gcp",
                },
            ],
        }
    }

    /// The rules' SLO; `None` lets the planner pick the fastest plan.
    pub fn slo(self) -> Option<SimDuration> {
        match self {
            Workload::TraceBurst | Workload::HotFanout => Some(SimDuration::from_secs(10)),
            Workload::BulkXcloud => None,
        }
    }

    /// The delay that `slo_attainment` is measured against: the rule's SLO,
    /// or for `bulk-xcloud`, which has none, a reporting-only objective that
    /// the planner never sees.
    pub fn attainment_objective(self) -> SimDuration {
        self.slo()
            .unwrap_or(SimDuration::from_secs(BULK_OBJECTIVE_S))
    }

    /// The percentile the rules plan for.
    pub fn percentile(self) -> f64 {
        match self {
            Workload::TraceBurst => 0.9999,
            Workload::BulkXcloud | Workload::HotFanout => 0.99,
        }
    }

    /// AWS account concurrency quota, where the workload raises it.
    pub fn aws_concurrency(self) -> Option<u32> {
        match self {
            // fig23 replays hundreds of concurrent replications at the
            // paper's adjustable ceiling.
            Workload::TraceBurst => Some(2000),
            Workload::BulkXcloud | Workload::HotFanout => None,
        }
    }

    /// Generates the workload's trace (PUTs and DELETEs) from `seed`.
    pub fn trace(self, seed: u64, rate_scale: f64) -> Trace {
        match self {
            Workload::TraceBurst => trace_burst(seed, rate_scale),
            Workload::BulkXcloud => generate(&bulk_config(rate_scale), seed),
            Workload::HotFanout => hot_fanout(seed, rate_scale),
        }
    }

    /// The `trace-burst` burst interval, as `[start, end)` in trace time.
    pub fn burst_window() -> (SimDuration, SimDuration) {
        (
            SimDuration::from_secs(BURST_START_S),
            SimDuration::from_secs(BURST_START_S + BURST_LEN_S),
        )
    }
}

/// `bulk-xcloud`'s reporting-only delay objective.
const BULK_OBJECTIVE_S: u64 = 10;

/// `trace-burst`: normal production traffic over the whole window, plus a
/// second generated stream at `(BURST_MULT - 1)` times the mean rate over
/// the burst interval. Both streams draw from the same key space, so the
/// burst hits the same hot keys.
///
/// The per-minute rate noise is off, so every seed carries the same load
/// and seeds differ only in arrivals, keys and sizes. DELETEs are off too:
/// a DELETE that lands while a multipart replication of the same key is in
/// flight can leave the replica alive after the source is gone (an open
/// race the convergence check rejects).
fn trace_burst(seed: u64, rate_scale: f64) -> Trace {
    let base = SynthConfig {
        duration: SimDuration::from_secs(BURST_WINDOW_S),
        mean_ops_per_sec: BURST_BASE_OPS * rate_scale,
        rate_sigma: 0.0,
        burst_prob: 0.0,
        delete_fraction: 0.0,
        ..SynthConfig::ibm_cos_like()
    };
    let burst = SynthConfig {
        duration: SimDuration::from_secs(BURST_LEN_S),
        mean_ops_per_sec: BURST_BASE_OPS * (BURST_MULT - 1.0) * rate_scale,
        ..base.clone()
    };
    let mut records = generate(&base, seed).records;
    let shift = BURST_START_S * 1000;
    records.extend(
        generate(&burst, seed ^ 0xb025_7000_0000_0000)
            .records
            .into_iter()
            .map(|mut r| {
                r.at = SimDurationMs(r.at.0 + shift);
                r
            }),
    );
    records.sort_by_key(|r| r.at);
    Trace { records }
}

/// `bulk-xcloud`: ~0.5 objects/s on unique keys, lognormal sizes with a
/// 1 GB mean clamped to 256 MB..8 GB, no deletes.
fn bulk_config(rate_scale: f64) -> SynthConfig {
    SynthConfig {
        duration: SimDuration::from_mins(8),
        mean_ops_per_sec: 0.5 * rate_scale,
        rate_sigma: 0.0,
        burst_prob: 0.0,
        // Keys drawn uniformly from 2^40: repeats are vanishingly rare.
        key_space: 1 << 40,
        zipf_s: 0.0,
        delete_fraction: 0.0,
        size_mixture: vec![SizeComponent {
            weight: 1.0,
            dist: Dist::lognormal_mean_cv((1u64 << 30) as f64, 0.8),
            min: 256 << 20,
            max: 8 << 30,
        }],
        hot_key_size_cap: None,
        ..SynthConfig::ibm_cos_like()
    }
}

/// `hot-fanout`'s PUT stream: objects up to 1 MB (the IBM mixture's two
/// small components), Zipf 1.1 over 2,000 keys.
fn hot_config(rate_scale: f64) -> SynthConfig {
    SynthConfig {
        duration: SimDuration::from_mins(10),
        mean_ops_per_sec: 60.0 * rate_scale,
        rate_sigma: 0.0,
        burst_prob: 0.0,
        key_space: 2_000,
        zipf_s: 1.1,
        delete_fraction: 0.0,
        size_mixture: areplica_traces::ibm_size_mixture()
            .into_iter()
            .filter(|c| c.max <= 1 << 20)
            .collect(),
        hot_key_size_cap: None,
        ..SynthConfig::ibm_cos_like()
    }
}

/// `hot-fanout`'s DELETEs come this long after its last PUT.
const DELETE_QUIET_MS: u64 = 30_000;
/// Spacing of `hot-fanout`'s DELETEs.
const DELETE_GAP_MS: u64 = 10;

/// `hot-fanout`: the hot PUT stream, then — once every PUT has had
/// [`DELETE_QUIET_MS`] to replicate — a DELETE of every key it wrote. Two
/// open races in delete handling need a PUT close to a DELETE of the same
/// key: a re-create a fraction of a second after a DELETE can leave one
/// destination without the object, and a DELETE landing while the previous
/// PUT's batched replication is pending can leave one destination with the
/// old version. The convergence check catches both, so DELETEs here are
/// kept clear of PUTs.
fn hot_fanout(seed: u64, rate_scale: f64) -> Trace {
    let cfg = hot_config(rate_scale);
    let mut records = generate(&cfg, seed).records;
    let mut seen = std::collections::HashSet::new();
    let keys: Vec<String> = records
        .iter()
        .filter(|r| seen.insert(r.key.as_str()))
        .map(|r| r.key.clone())
        .collect();
    let start = cfg.duration.as_nanos() / 1_000_000 + DELETE_QUIET_MS;
    records.extend((0..).zip(keys).map(|(i, key)| TraceRecord {
        at: SimDurationMs(start + i * DELETE_GAP_MS),
        key,
        op: TraceOp::Delete,
    }));
    Trace { records }
}
