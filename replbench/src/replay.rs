//! Set-up, replay and the deterministic outcome of one run.
//!
//! Everything here goes through the repository's public API: the trace
//! generator and `schedule`, the profiler (via `profile_pairs`),
//! `AReplicaBuilder::install`, the simulator, the service's metrics and the
//! world's ledger.

use std::time::Instant;

use areplica_core::{AReplica, AReplicaBuilder, ObjectStore, PerfModel, ReplicationRule};
use areplica_traces::{ReplayConfig, Trace, TraceOp};
use bench::runners::profile_pairs;
use cloudsim::{CloudSim, RegionId, World};
use pricing::CostCategory;

use crate::speed::{Elapsed, RefClock};
use crate::workload::{Workload, SRC_BUCKET};

/// Host time of each set-up phase, in reference seconds (see [`crate::speed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Trace generation.
    pub generate_s: f64,
    /// Profiling the rules' region pairs into a performance model.
    pub profile_s: f64,
    /// Installing the service.
    pub install_s: f64,
    /// Scheduling the trace's writes into the simulator.
    pub schedule_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.profile_s + self.install_s + self.schedule_s
    }
}

/// A world with the service installed and the trace scheduled, ready to run.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The simulator.
    pub sim: CloudSim,
    /// The installed service.
    pub service: AReplica,
    /// The scheduled trace.
    pub trace: Trace,
    /// The profiled model as installed (before any online adjustment).
    pub profiled_model: PerfModel,
    /// Source region.
    pub src: RegionId,
    /// Destination region and bucket of each rule.
    pub dsts: Vec<(RegionId, &'static str)>,
    /// Host time of each set-up phase.
    pub setup: SetupTimes,
}

/// Generates the trace, profiles, installs and schedules. With `traced`,
/// the world's tracer records from the first replayed event on.
pub fn prepare(workload: Workload, seed: u64, rate_scale: f64, traced: bool) -> Prepared {
    let mut clock = RefClock::new();
    let (trace, generate_s) = clock.lap(|| workload.trace(seed, rate_scale));

    let mut sim = World::paper_sim(seed ^ 0x5eed_f00d);
    let lookup = |sim: &CloudSim, (cloud, name)| {
        sim.world
            .regions
            .lookup(cloud, name)
            .expect("workload regions are paper regions")
    };
    let src = lookup(&sim, workload.src());
    let dsts: Vec<(RegionId, &'static str)> = workload
        .rules()
        .iter()
        .map(|r| (lookup(&sim, r.dst), r.dst_bucket))
        .collect();
    if let Some(limit) = workload.aws_concurrency() {
        sim.world
            .params
            .cloud_mut(cloudsim::Cloud::Aws)
            .concurrency_limit = limit;
    }

    let pairs: Vec<(RegionId, RegionId)> = dsts.iter().map(|&(dst, _)| (src, dst)).collect();
    let (profiled_model, profile_s) = clock.lap(|| profile_pairs(&sim, &pairs));

    let mut builder = AReplicaBuilder::new().model(profiled_model.clone());
    for &(dst, dst_bucket) in &dsts {
        let mut rule = ReplicationRule::new(src, SRC_BUCKET, dst, dst_bucket)
            .with_percentile(workload.percentile());
        if let Some(slo) = workload.slo() {
            rule = rule.with_slo(slo);
        }
        builder = builder.rule(rule);
    }
    let (service, install_s) = clock.lap(|| builder.install(&mut sim));

    sim.world.trace.set_enabled(traced);

    let (_, schedule_s) = clock.lap(|| {
        areplica_traces::schedule(&mut sim, &trace, src, SRC_BUCKET, &ReplayConfig::default())
    });

    Prepared {
        workload,
        sim,
        service,
        trace,
        profiled_model,
        src,
        dsts,
        setup: SetupTimes {
            generate_s,
            profile_s,
            install_s,
            schedule_s,
        },
    }
}

/// Everything a run determines in simulated terms. Two runs of one seed
/// must produce equal outcomes, traced or not, on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Trace write records (PUT and DELETE) attempted at the source.
    pub attempted: u64,
    /// Records whose key's final source state is missing from a destination.
    pub failed: u64,
    /// The first diverged keys, with their source and replica ETags.
    pub diverged: Vec<String>,
    /// PUT records.
    pub puts: u64,
    /// Bytes the PUTs wrote at the source.
    pub bytes_written: u64,
    /// Replications completed.
    pub completions: u64,
    /// Median replication delay (sim s).
    pub delay_p50_s: f64,
    /// Delay at the highest standard percentile with at least ten samples
    /// beyond it (sim s).
    pub delay_tail_s: f64,
    /// The percentile `delay_tail_s` sits at.
    pub tail_percentile: f64,
    /// Completions within the workload's objective.
    pub slo_attainment: f64,
    /// Ledger totals per cost category, in nano-dollars.
    pub cost_nanos: Vec<(CostCategory, i64)>,
    /// Updates absorbed by batching.
    pub batched_skips: u64,
    /// Tasks aborted on an ETag mismatch and re-triggered.
    pub aborted_retries: u64,
    /// DELETEs propagated.
    pub deletes_propagated: u64,
    /// Replications that found their SLO already violated.
    pub slo_previolated: u64,
    /// Replications satisfied by changelog propagation.
    pub changelog_applied: u64,
    /// Online model adjustments.
    pub model_adjustments: u64,
    /// Cached max-of-n distributions in the service's model.
    pub cached_max_dists: usize,
    /// Kernel events executed.
    pub events: u64,
    /// Kernel events cancelled.
    pub cancelled: u64,
    /// Peak live event-queue depth.
    pub peak_depth: u64,
    /// FNV-1a over every completion's (key, ETag, delay ns), in order.
    pub delays_digest: u64,
}

impl SimOutcome {
    /// Ledger grand total in dollars.
    pub fn cost_usd(&self) -> f64 {
        self.cost_nanos.iter().map(|&(_, n)| n).sum::<i64>() as f64 / 1e9
    }

    /// Dollars in the given categories.
    pub fn cost_in(&self, categories: &[CostCategory]) -> f64 {
        self.cost_nanos
            .iter()
            .filter(|(c, _)| categories.contains(c))
            .map(|&(_, n)| n)
            .sum::<i64>() as f64
            / 1e9
    }

    /// Source GiB written.
    pub fn gb_written(&self) -> f64 {
        self.bytes_written as f64 / (1u64 << 30) as f64
    }

    /// Ledger total per source GiB written.
    pub fn cost_per_gb_usd(&self) -> f64 {
        self.cost_usd() / self.gb_written()
    }

    /// Failed records over attempted records.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The sim metrics as fixed text: equal outcomes render byte-identically.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sim attempted {}\nsim failed {}\nsim puts {}\nsim bytes_written {}\n\
             sim completions {}\nsim delay_p50_s {:.9}\nsim delay_tail_s {:.9} (p{} over {})\n\
             sim slo_attainment {:.9}\nsim cost_usd {:.9}\nsim cost_per_gb_usd {:.9}\n\
             sim batched_skips {}\nsim aborted_retries {}\nsim deletes_propagated {}\n\
             sim slo_previolated {}\nsim changelog_applied {}\nsim model_adjustments {}\n\
             sim cached_max_dists {}\nsim kernel_events {}\nsim kernel_cancelled {}\n\
             sim kernel_peak_depth {}\nsim delays_digest {:016x}\n",
            self.attempted,
            self.failed,
            self.puts,
            self.bytes_written,
            self.completions,
            self.delay_p50_s,
            self.delay_tail_s,
            self.tail_percentile,
            self.completions,
            self.slo_attainment,
            self.cost_usd(),
            self.cost_per_gb_usd(),
            self.batched_skips,
            self.aborted_retries,
            self.deletes_propagated,
            self.slo_previolated,
            self.changelog_applied,
            self.model_adjustments,
            self.cached_max_dists,
            self.events,
            self.cancelled,
            self.peak_depth,
            self.delays_digest,
        );
        for key in &self.diverged {
            out.push_str(&format!("sim diverged {key}\n"));
        }
        for (category, nanos) in &self.cost_nanos {
            out.push_str(&format!("sim cost.{category} {:.9}\n", *nanos as f64 / 1e9));
        }
        out
    }
}

/// Host time per timed chunk of a replay; the host-speed probe runs
/// between chunks.
const CHUNK_S: f64 = 0.1;

/// Runs `p` to completion and returns the host time it took.
pub fn run(p: &mut Prepared) -> Elapsed {
    let mut clock = RefClock::new();
    let mut chunk = 10_000u64;
    loop {
        let t = Instant::now();
        let ran = clock.time(|| p.sim.run_to_completion(chunk));
        if ran < chunk {
            return clock.elapsed();
        }
        chunk = next_chunk(chunk, t.elapsed().as_secs_f64());
    }
}

/// The next chunk's event count, aiming at [`CHUNK_S`] of host time.
pub fn next_chunk(events: u64, took_s: f64) -> u64 {
    let scaled = events as f64 * CHUNK_S / took_s.max(1e-6);
    (scaled as u64).clamp(1_000, 1_000_000)
}

/// Reads the outcome of a finished run, including the convergence check.
pub fn outcome(p: &Prepared) -> SimOutcome {
    let m = p.service.metrics();
    let mut delays: Vec<u64> = m.completions.iter().map(|c| c.delay().as_nanos()).collect();
    let mut digest = Fnv::new();
    for c in &m.completions {
        digest.write(c.key.as_bytes());
        digest.write(&c.etag.0.to_le_bytes());
        digest.write(&c.delay().as_nanos().to_le_bytes());
    }
    delays.sort_unstable();
    let (tail_s, tail_percentile) = tail(&delays);
    let objective = p.workload.attainment_objective();
    let stats = p.sim.stats();
    let ledger = &p.sim.world.ledger;
    let (failed, attempted, diverged) = convergence(p);
    SimOutcome {
        attempted,
        failed,
        diverged,
        puts: p
            .trace
            .records
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Put { .. }))
            .count() as u64,
        bytes_written: p
            .trace
            .records
            .iter()
            .map(|r| match r.op {
                TraceOp::Put { size } => size,
                _ => 0,
            })
            .sum(),
        completions: delays.len() as u64,
        delay_p50_s: delays
            .get(delays.len() / 2)
            .map_or(0.0, |&d| d as f64 / 1e9),
        delay_tail_s: tail_s,
        tail_percentile,
        slo_attainment: m.slo_attainment(objective),
        cost_nanos: CostCategory::ALL
            .iter()
            .map(|&c| (c, ledger.category_total(c).as_nanos()))
            .collect(),
        batched_skips: m.batched_skips,
        aborted_retries: m.aborted_retries,
        deletes_propagated: m.deletes_propagated,
        slo_previolated: m.slo_previolated,
        changelog_applied: m.changelog_applied,
        model_adjustments: p.service.model_adjustments(),
        cached_max_dists: p.service.model().cached_max_dists(),
        events: stats.executed,
        cancelled: stats.cancelled,
        peak_depth: stats.peak_live_depth,
        delays_digest: digest.0,
    }
}

/// The delay at the highest standard percentile with at least ten samples
/// beyond it, as `(seconds, percentile)`.
fn tail(sorted_ns: &[u64]) -> (f64, f64) {
    const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];
    let n = sorted_ns.len() as f64;
    let p = LADDER
        .into_iter()
        .rev()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    let idx = ((n * p / 100.0).ceil() as usize).saturating_sub(1);
    let d = sorted_ns
        .get(idx)
        .or(sorted_ns.last())
        .copied()
        .unwrap_or(0);
    (d as f64 / 1e9, p)
}

/// Compares every trace key's final source state with every destination:
/// the ETags must match, or the key must be absent on both sides. Returns
/// `(failed records, attempted records, first diverged keys described)`.
fn convergence(p: &Prepared) -> (u64, u64, Vec<String>) {
    const SHOWN: usize = 8;
    let mut per_key: std::collections::BTreeMap<&str, u64> = Default::default();
    for r in &p.trace.records {
        *per_key.entry(r.key.as_str()).or_default() += 1;
    }
    let etag_at = |region, bucket, key| p.sim.stat_now(region, bucket, key).ok().map(|s| s.etag.0);
    let mut failed = 0;
    let mut shown = Vec::new();
    for (key, records) in per_key {
        let src = etag_at(p.src, SRC_BUCKET, key);
        for &(dst, bucket) in &p.dsts {
            let at_dst = etag_at(dst, bucket, key);
            if at_dst != src {
                failed += records;
                if shown.len() < SHOWN {
                    shown.push(format!(
                        "{key} at {bucket}: source {src:?}, replica {at_dst:?}"
                    ));
                }
                break;
            }
        }
    }
    (failed, p.trace.records.len() as u64, shown)
}

/// 64-bit FNV-1a, for a compact fingerprint of the delay stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
