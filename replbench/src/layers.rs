//! The traced run: per-layer counts, sim-time totals and host timings.
//!
//! It turns on the world's passive tracer, drives `Sim::step` itself and
//! times every step, re-runs the planner over the workload's PUT sizes on a
//! clone of the profiled model, and times a bare-`Sim` dispatch chain. Host
//! self-time inside `cloudsim` and the engine is not visible from outside
//! the program; only the planner's share is estimated.

use std::time::Instant;

use areplica_core::{generate_plan, EngineConfig};
use areplica_traces::TraceOp;
use pricing::CostCategory;
use simkernel::{Sim, SimDuration};
use simtrace::names;

use crate::replay::{next_chunk, outcome, Prepared, SimOutcome};
use crate::speed::{Elapsed, RefClock};
use crate::Metric;

/// What the traced replay measured, besides its outcome.
pub struct Traced {
    /// The traced run's outcome (must equal the untraced one).
    pub outcome: SimOutcome,
    /// Host time of the traced replay.
    pub replay: Elapsed,
    /// Per-layer metrics read from the trace, the kernel and the ledger.
    pub metrics: Vec<Metric>,
    /// `(span name, count, total sim seconds)` for every span name.
    pub span_totals: Vec<(&'static str, usize, f64)>,
}

/// Replays `p` (prepared with tracing on) step by step and reads every
/// layer's numbers.
pub fn traced_replay(mut p: Prepared) -> Traced {
    assert!(
        p.sim.world.trace.enabled(),
        "traced replay needs the tracer on"
    );
    let mut step_ns: Vec<u64> = Vec::new();
    let mut clock = RefClock::new();
    let mut chunk = 10_000u64;
    loop {
        let t = Instant::now();
        let more = clock.time(|| {
            for _ in 0..chunk {
                let t = Instant::now();
                if !p.sim.step() {
                    return false;
                }
                step_ns.push(t.elapsed().as_nanos() as u64);
            }
            true
        });
        if !more {
            break;
        }
        chunk = next_chunk(chunk, t.elapsed().as_secs_f64());
    }
    let replay = clock.elapsed();
    let out = outcome(&p);

    let tracer = &p.sim.world.trace;
    let q = || tracer.query();
    let counter = |name: &str| tracer.registry().counter(name) as f64;
    let count = |name: &'static str| q().name(name).count() as f64;
    let total_s = |name: &'static str| q().name(name).total_duration().as_secs_f64();
    let cold = counter("faas.cold_starts");
    let warm = counter("faas.warm_starts");
    let replicators = count(names::ENGINE_REPLICATOR);
    let useful = out.completions as f64;
    step_ns.sort_unstable();

    let metrics = vec![
        Metric::new(
            "model.cached_max_dists",
            out.cached_max_dists as f64,
            "count",
        ),
        Metric::new("model.adjustments", out.model_adjustments as f64, "count"),
        Metric::new("kernel.events", out.events as f64, "count"),
        Metric::new("kernel.cancelled", out.cancelled as f64, "count"),
        Metric::new("kernel.peak_depth", out.peak_depth as f64, "count"),
        Metric::new("kernel.step_ns_p50", quantile(&step_ns, 0.50), "ns"),
        Metric::new("kernel.step_ns_p99", quantile(&step_ns, 0.99), "ns"),
        Metric::new("faas.invocations", counter("faas.invocations"), "count"),
        Metric::new("faas.cold_starts", cold, "count"),
        Metric::new("faas.warm_ratio", ratio(warm, warm + cold), "fraction"),
        Metric::new(
            "faas.cold_start_s",
            total_s(names::FAAS_COLD_START),
            "sim_s",
        ),
        Metric::new("faas.postpone_s", total_s(names::FAAS_POSTPONE), "sim_s"),
        Metric::new("net.legs", count(names::NET_LEG), "count"),
        Metric::new("net.leg_s", total_s(names::NET_LEG), "sim_s"),
        Metric::new("store.commits", count(names::STORE_COMMIT), "count"),
        Metric::new("store.commit_s", total_s(names::STORE_COMMIT), "sim_s"),
        Metric::new("store.get_ranges", count(names::STORE_GET_RANGE), "count"),
        Metric::new("store.puts", count(names::STORE_PUT), "count"),
        Metric::new("engine.replicators", replicators, "count"),
        Metric::new(
            "engine.replicators_per_put",
            ratio(replicators, out.puts as f64),
            "count/put",
        ),
        Metric::new("engine.claims", counter("engine.claims"), "count"),
        Metric::new("engine.aborts", counter("engine.aborts"), "count"),
        Metric::new("service.completions", useful, "count"),
        Metric::new("service.batched_skips", out.batched_skips as f64, "count"),
        Metric::new(
            "service.aborted_retries",
            out.aborted_retries as f64,
            "count",
        ),
        Metric::new(
            "service.deletes_propagated",
            out.deletes_propagated as f64,
            "count",
        ),
        Metric::new(
            "service.slo_previolated",
            out.slo_previolated as f64,
            "count",
        ),
        Metric::new(
            "service.useful_ratio",
            ratio(useful, useful + out.aborted_retries as f64),
            "fraction",
        ),
        Metric::new(
            "cost.egress_usd",
            out.cost_in(&[CostCategory::Egress]),
            "usd",
        ),
        Metric::new(
            "cost.function_usd",
            out.cost_in(&[
                CostCategory::FunctionCompute,
                CostCategory::FunctionRequests,
            ]),
            "usd",
        ),
        Metric::new(
            "cost.db_ops_usd",
            out.cost_in(&[CostCategory::DbOps]),
            "usd",
        ),
        Metric::new(
            "cost.storage_requests_usd",
            out.cost_in(&[CostCategory::StorageRequests]),
            "usd",
        ),
        Metric::new(
            "cost.workflow_usd",
            out.cost_in(&[CostCategory::Workflow]),
            "usd",
        ),
    ];
    let span_totals = q()
        .sum_by_name()
        .into_iter()
        .map(|(name, (n, dur))| (name, n, dur.as_secs_f64()))
        .collect();
    Traced {
        outcome: out,
        replay,
        metrics,
        span_totals,
    }
}

/// What the planner replay measured.
pub struct PlannerReplay {
    /// Planner calls made.
    pub calls: u64,
    /// Host nanoseconds of the calls for every [`PLANNER_SAMPLE`]-th PUT,
    /// sorted.
    pub sampled_ns: Vec<u64>,
    /// Host wall seconds of all calls.
    pub wall_s: f64,
}

/// The calls for one PUT in this many are timed on their own; the rest
/// run untimed, so the timer's own cost stays out of the planner's share.
pub const PLANNER_SAMPLE: usize = 8;

/// Replays the planner over the trace's PUT sizes for every rule, with the
/// rule's percentile and no SLO budget — the call the batching path makes
/// once per PUT. The model is a fresh clone of the profiled one; the
/// service's own model drifts (`model.adjustments`), so this estimates the
/// planner's share.
pub fn planner_replay(p: &Prepared) -> PlannerReplay {
    let mut model = p.profiled_model.clone();
    let cfg = EngineConfig::default();
    let percentile = p.workload.percentile();
    let sizes: Vec<u64> = p
        .trace
        .records
        .iter()
        .filter_map(|r| match r.op {
            TraceOp::Put { size } => Some(size),
            _ => None,
        })
        .collect();
    let mut sampled_ns = Vec::new();
    let mut plan = |size: u64, dst| {
        let plan = generate_plan(&mut model, &cfg, p.src, dst, size, None, percentile);
        std::hint::black_box(plan.expect("profiled paths plan"));
    };
    let t = Instant::now();
    for (i, &size) in sizes.iter().enumerate() {
        for &(dst, _) in &p.dsts {
            if i % PLANNER_SAMPLE == 0 {
                let t = Instant::now();
                plan(size, dst);
                sampled_ns.push(t.elapsed().as_nanos() as u64);
            } else {
                plan(size, dst);
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    sampled_ns.sort_unstable();
    PlannerReplay {
        calls: (sizes.len() * p.dsts.len()) as u64,
        sampled_ns,
        wall_s,
    }
}

/// Host nanoseconds per event of a bare simulator running `events` links
/// of a chain of self-scheduling events.
pub fn dispatch_ns(events: u64) -> f64 {
    fn hop(sim: &mut Sim<u64>) {
        sim.world += 1;
        sim.schedule_in(SimDuration::from_nanos(1), hop);
    }
    let mut sim = Sim::new(7, 0u64);
    sim.schedule_in(SimDuration::ZERO, hop);
    let t = Instant::now();
    let ran = sim.run_to_completion(events);
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(sim.world);
    ns / ran.max(1) as f64
}

/// The `q` quantile of sorted samples (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
