//! # replbench — the AReplica replication benchmark
//!
//! One command takes a workload name and a seed, generates that workload's
//! trace and replays it through AReplica in one single-threaded process.
//! The untraced run gives the end-to-end metrics; the traced run gives the
//! per-layer ones. See `README.md` next to this crate for the workloads and
//! the layer-to-metric map.

pub mod layers;
pub mod replay;
pub mod speed;
pub mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use layers::quantile;
use replay::{outcome, prepare, run, SetupTimes, SimOutcome};
use workload::Workload;

/// Set-up is repeated at least this often per invocation; `setup_s` is the
/// median.
const MIN_SETUPS: usize = 5;
/// The traced run repeats its untraced and planner replays for at least
/// this long.
const PAIRS_MIN_S: f64 = 5.0;
/// Events in the bare-kernel dispatch chain.
const DISPATCH_EVENTS: u64 = 2_000_000;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit (`sim_s` marks simulated seconds, `s` host seconds).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one invocation.
pub struct Report {
    /// Whether every check passed: convergence, repeatability of the sim
    /// outcome across replays, and (traced) passivity of the tracer.
    pub correct: bool,
    /// Source writes attempted.
    pub attempted: u64,
    /// Source writes whose final state did not reach every destination.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report: host context, checks and sim outcome.
    pub text: String,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The host and build a result was taken on.
pub fn host_context(workload: Workload, seed: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "workload {}\nseed {seed}\ntrace {}\nhost nproc {nproc}\nhost rustc {}\n\
         host profile {profile}\nhost git {}\n",
        workload.name(),
        u8::from(traced),
        env!("REPLBENCH_RUSTC"),
        env!("REPLBENCH_GIT_REV"),
    )
}

/// Host peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn medians_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// Tops `setups` up with extra set-ups of `seed` until there are at least
/// [`MIN_SETUPS`] and, for set-ups of a few milliseconds, enough to add up to
/// a quarter second, so the median is not one scheduler hiccup.
fn setups_until(setups: &mut Vec<SetupTimes>, workload: Workload, seed: u64, rate_scale: f64) {
    const MIN_TOTAL_S: f64 = 0.25;
    const MAX_SETUPS: usize = 50;
    let total = |s: &[SetupTimes]| s.iter().map(SetupTimes::total).sum::<f64>();
    while setups.len() < MIN_SETUPS || (total(setups) < MIN_TOTAL_S && setups.len() < MAX_SETUPS) {
        setups.push(prepare(workload, seed, rate_scale, false).setup);
    }
}

/// Traces per end-to-end run. Each run replays this many traces, generated
/// from seeds derived from the run's seed, and reports every sim metric as
/// the median over them: one trace's delay tail depends on how the model's
/// drift correction happened to react to its burst, and the median keeps
/// that from deciding a run alone.
pub const SUBTRACES: u64 = 3;

/// The seed of sub-trace `j` of a run with seed `seed` (sub-trace 0 is the
/// run's own seed).
pub fn subseed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The end-to-end run. Replays the [`SUBTRACES`] traces untraced, then
/// keeps cycling through them while the next replay is expected to end
/// within `seconds`; a repeated trace must reproduce its outcome exactly.
/// Host metrics are medians over all replays, sim metrics medians over the
/// traces.
pub fn untraced(workload: Workload, seed: u64, seconds: f64, rate_scale: f64) -> Report {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut outs: Vec<SimOutcome> = Vec::new();
    let mut repeatable = true;
    for i in 0u64.. {
        let j = i % SUBTRACES;
        let mut p = prepare(workload, subseed(seed, j), rate_scale, false);
        setups.push(p.setup);
        let replay = run(&mut p);
        let records = p.trace.records.len() as f64;
        rates.push(records / replay.ref_s);
        wall_rates.push(records / replay.wall_s);
        let out = outcome(&p);
        drop(p);
        match outs.get(j as usize) {
            Some(prev) => repeatable &= *prev == out,
            None => outs.push(out),
        }
        let elapsed = start.elapsed().as_secs_f64();
        if i + 1 >= SUBTRACES && elapsed + elapsed / (i + 1) as f64 > seconds {
            break;
        }
    }
    setups_until(&mut setups, workload, seed, rate_scale);
    let sim_median = |f: fn(&SimOutcome) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    let attempted = outs.iter().map(|o| o.attempted).sum();
    let failed = outs.iter().map(|o| o.failed).sum();

    let metrics = vec![
        Metric::new("replay_ops_per_s", median(&rates), "1/s"),
        Metric::new("setup_s", medians_of(&setups, SetupTimes::total), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("delay_p50_s", sim_median(|o| o.delay_p50_s), "sim_s"),
        Metric::new("delay_tail_s", sim_median(|o| o.delay_tail_s), "sim_s"),
        Metric::new(
            "slo_attainment",
            sim_median(|o| o.slo_attainment),
            "fraction",
        ),
        Metric::new(
            "cost_per_gb_usd",
            sim_median(SimOutcome::cost_per_gb_usd),
            "usd/GB",
        ),
    ];
    let mut text = host_context(workload, seed, false);
    let _ = writeln!(text, "replays {}", rates.len());
    let _ = writeln!(text, "host replay_ops_per_wall_s {}", median(&wall_rates));
    let _ = writeln!(text, "setups {}", setups.len());
    let _ = writeln!(text, "check repeatable {repeatable}");
    let _ = writeln!(text, "check converged {}", failed == 0);
    let _ = writeln!(text, "failed_frac {:.9}", failed as f64 / attempted as f64);
    text.push_str(&sim_text(seed, &outs));
    Report {
        correct: repeatable && failed == 0,
        attempted,
        failed,
        metrics,
        text,
    }
}

/// The sim outcome of each sub-trace, as fixed text: a seed's text is the
/// same byte for byte on every host and every run.
pub fn sim_text(seed: u64, outs: &[SimOutcome]) -> String {
    let mut text = String::new();
    for (j, out) in (0u64..).zip(outs) {
        let _ = writeln!(text, "subtrace {j} seed {}", subseed(seed, j));
        text.push_str(&out.render());
    }
    text
}

/// The per-layer run: untraced replays each followed by the planner
/// replay, one traced replay driven step by step, and the dispatch chain.
/// The traced and untraced sim outcomes must be equal (the tracer is
/// passive). Per-layer host ratios are wall-time ratios of back-to-back
/// phases of this one process.
pub fn traced(workload: Workload, seed: u64, rate_scale: f64, spans_dir: &Path) -> Report {
    let clock = Instant::now();
    let mut host_spans: Vec<(&'static str, f64, f64)> = Vec::new();
    let mut span =
        |name, from: f64| host_spans.push((name, from, clock.elapsed().as_secs_f64() - from));

    let from = clock.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    setups_until(&mut setups, workload, seed, rate_scale);
    span("setup.repeats", from);

    // Untraced replay and planner replay, in pairs, until the pairs have
    // taken PAIRS_MIN_S: the planner's share is the median over the pairs,
    // so a short workload's share does not rest on one sub-second replay.
    let mut pairs = Vec::new();
    let pairs_start = Instant::now();
    while pairs.is_empty() || pairs_start.elapsed().as_secs_f64() < PAIRS_MIN_S {
        let from = clock.elapsed().as_secs_f64();
        let mut p = prepare(workload, seed, rate_scale, false);
        let untraced = run(&mut p);
        let plain = outcome(&p);
        span("replay.untraced", from);
        let from = clock.elapsed().as_secs_f64();
        let planner = layers::planner_replay(&p);
        span("planner.replay", from);
        pairs.push((untraced, plain, planner));
    }
    let untraced_wall = median(&pairs.iter().map(|(u, ..)| u.wall_s).collect::<Vec<_>>());
    let share = median(
        &pairs
            .iter()
            .map(|(u, _, pl)| pl.wall_s / u.wall_s)
            .collect::<Vec<_>>(),
    );
    let (untraced, plain, planner) = pairs.swap_remove(0);
    let repeatable = pairs.iter().all(|(_, o, _)| *o == plain);

    let from = clock.elapsed().as_secs_f64();
    let t = layers::traced_replay(prepare(workload, seed, rate_scale, true));
    span("replay.traced", from);

    let from = clock.elapsed().as_secs_f64();
    let dispatch = layers::dispatch_ns(DISPATCH_EVENTS);
    span("kernel.dispatch_chain", from);

    let passive = t.outcome == plain;
    let mut metrics = vec![
        Metric::new("planner.calls", planner.calls as f64, "count"),
        Metric::new(
            "planner.call_us_p50",
            quantile(&planner.sampled_ns, 0.50) / 1e3,
            "us",
        ),
        Metric::new(
            "planner.call_us_p99",
            quantile(&planner.sampled_ns, 0.99) / 1e3,
            "us",
        ),
        Metric::new("planner.host_share", share, "fraction"),
    ];
    metrics.extend(t.metrics);
    metrics.extend([
        Metric::new("kernel.dispatch_ns", dispatch, "ns"),
        Metric::new(
            "traces.generate_s",
            medians_of(&setups, |s| s.generate_s),
            "s",
        ),
        Metric::new(
            "traces.schedule_s",
            medians_of(&setups, |s| s.schedule_s),
            "s",
        ),
        Metric::new(
            "profiler.build_model_s",
            medians_of(&setups, |s| s.profile_s),
            "s",
        ),
        Metric::new(
            "service.install_s",
            medians_of(&setups, |s| s.install_s),
            "s",
        ),
        Metric::new("trace.overhead", t.replay.wall_s / untraced_wall, "ratio"),
    ]);

    let mut text = host_context(workload, seed, true);
    let _ = writeln!(text, "check passive {passive}");
    let _ = writeln!(text, "check repeatable {repeatable}");
    let _ = writeln!(text, "check converged {}", plain.failed == 0);
    let _ = writeln!(text, "untraced_planner_pairs {}", pairs.len() + 1);
    for (name, e) in [("untraced", untraced), ("traced", t.replay)] {
        let _ = writeln!(
            text,
            "host {name} wall_s {:.6} ref_s {:.6}",
            e.wall_s, e.ref_s
        );
    }
    let _ = writeln!(text, "host planner wall_s {:.6}", planner.wall_s);
    text.push_str(&sim_text(seed, std::slice::from_ref(&plain)));
    write_spans(
        spans_dir,
        workload,
        seed,
        &host_spans,
        &t.span_totals,
        &mut text,
    );
    Report {
        correct: passive && repeatable && plain.failed == 0,
        attempted: plain.attempted,
        failed: plain.failed,
        metrics,
        text,
    }
}

/// Writes the benchmark's own host spans and the tracer's per-name sim
/// totals, kept in memory during the run, to `<dir>/<workload>-<seed>.spans.tsv`.
fn write_spans(
    dir: &Path,
    workload: Workload,
    seed: u64,
    host: &[(&'static str, f64, f64)],
    sim: &[(&'static str, usize, f64)],
    text: &mut String,
) {
    let mut out = String::from("kind\tname\tstart_or_count\tduration_s\n");
    for (name, start, dur) in host {
        let _ = writeln!(out, "host\t{name}\t{start:.6}\t{dur:.6}");
    }
    for (name, count, total) in sim {
        let _ = writeln!(out, "sim\t{name}\t{count}\t{total:.6}");
    }
    let path = dir.join(format!("{}-{seed}.spans.tsv", workload.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => {
            let _ = writeln!(text, "spans written {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(text, "spans not written {}: {e}", path.display());
        }
    }
}
