//! Seeds the ROADMAP item-4 perf trajectory: one `BENCH_<pr>.json` per PR
//! recording (a) raw event throughput through `simkernel`, with a shallow
//! queue and with 100 k far-future timers pending, (b) wall-clock
//! for a fixed-scale fig17 run, (c) wall-clock for the fig23 trace replay
//! (its AReplica and S3 RTC halves run side by side) and the full
//! experiment suite at a pinned small scale, (d) the core count the numbers
//! were taken on, and (e) the Rust line count per crate.
//!
//! Wall-clock numbers here are machine-dependent by nature; the file records
//! a trajectory on the CI fleet, not a portable benchmark. Simulated outputs
//! (`results/*.txt`) stay wall-clock-free — see `bench::WallTimer`. Each
//! kernel figure is the median of [`KERNEL_RUNS`] runs: single runs of about
//! 0.1 s spread by a third on a shared 2-core host.
//!
//! The regression check compares each metric against the **best prior
//! snapshot for that metric** across every committed `BENCH_*.json` — not
//! just the previous PR — so a regression can't hide behind an intervening
//! slow PR resetting the baseline. It stays *soft* (warn-only): absolute
//! wall-clock varies across machines.

use std::path::Path;

use bench::experiments as ex;
use bench::WallTimer;
use simkernel::{Sim, SimDuration};

/// The PR this snapshot belongs to (also names the output file).
const PR: u32 = 15;

/// Events pushed through the bare kernel for the throughput figure.
const KERNEL_EVENTS: u64 = 2_000_000;

/// Runs per kernel figure; the figure is their median.
const KERNEL_RUNS: usize = 5;

/// Far-future timers pending during the deep-queue kernel figure.
const FAR_TIMERS: u64 = 100_000;

/// Scale pinned for the fig23 + full-suite timings: large enough that the
/// hot paths dominate, small enough to keep the snapshot under a minute.
const SUITE_SCALE: &str = "0.02";

/// Times raw simkernel dispatch: a self-rescheduling chain with a small
/// fan-out, so the queue sees both pop-and-push churn and bursts. The chain
/// runs with `far_timers` no-op events pending 10–60 min ahead, the way
/// replbench's FaaS timeout and warm-expiry guards are, and stops after
/// `max_events`, before any timer is due. Returns the events run and the
/// seconds they took.
fn kernel_run(far_timers: u64, max_events: u64) -> (u64, f64) {
    let mut sim: Sim<u64> = Sim::new(0x6001, 0);
    let span = SimDuration::from_mins(50).as_nanos();
    for i in 0..far_timers {
        let spread = SimDuration::from_nanos(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % span);
        sim.schedule_in(SimDuration::from_mins(10) + spread, |_| {});
    }
    fn tick(sim: &mut Sim<u64>) {
        sim.world += 1;
        if sim.world >= KERNEL_EVENTS {
            return;
        }
        sim.schedule_in(SimDuration::from_micros(7), tick);
        if sim.world.is_multiple_of(16) {
            for i in 0..4 {
                sim.schedule_in(SimDuration::from_micros(2 + i), |sim| sim.world += 1);
            }
        }
    }
    sim.schedule_in(SimDuration::ZERO, tick);
    let timer = WallTimer::start();
    sim.run_to_completion(max_events);
    let secs = timer.elapsed_secs();
    (sim.stats().executed, secs)
}

/// [`kernel_run`] [`KERNEL_RUNS`] times: the events run and the median
/// seconds.
fn kernel_median(far_timers: u64, max_events: u64) -> (u64, f64) {
    let mut runs: Vec<(u64, f64)> = (0..KERNEL_RUNS)
        .map(|_| kernel_run(far_timers, max_events))
        .collect();
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    runs[KERNEL_RUNS / 2]
}

/// Runs every experiment in [`ex::ALL`] as a library call, one after
/// another (reports are discarded, so nothing under `results/` is touched),
/// and returns total wall-clock.
fn suite_wall_secs() -> f64 {
    let timer = WallTimer::start();
    for (name, run) in ex::ALL {
        let report = run();
        assert!(!report.is_empty(), "{name} produced an empty report");
    }
    timer.elapsed_secs()
}

/// Newline count (`wc -l`) of every `.rs` file under `dir`, recursively.
fn rs_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rs_lines(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                std::fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
            } else {
                0
            }
        })
        .sum()
}

/// Rust lines under each `crates/<crate>/`, sorted by crate name.
fn rust_lines() -> Vec<(String, usize)> {
    let mut per_crate: Vec<(String, usize)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                rs_lines(&e.path()),
            )
        })
        .collect();
    per_crate.sort();
    per_crate
}

/// Pulls `"key": <number>` out of a prior snapshot without a JSON parser.
fn json_number(src: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &src[src.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == ' '))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Every committed prior snapshot `(pr, contents)`, ascending by PR.
fn prior_snapshots() -> Vec<(u32, String)> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(".") {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            let Ok(pr) = num.parse::<u32>() else { continue };
            if pr >= PR {
                continue;
            }
            if let Ok(body) = std::fs::read_to_string(e.path()) {
                out.push((pr, body));
            }
        }
    }
    out.sort_by_key(|(pr, _)| *pr);
    out
}

/// The best prior value of `key` and the PR that set it: `better` returns
/// true when its first argument beats its second.
fn best_prior(
    snapshots: &[(u32, String)],
    key: &str,
    better: fn(f64, f64) -> bool,
) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for (pr, body) in snapshots {
        if let Some(v) = json_number(body, key) {
            if best.is_none_or(|(_, b)| better(v, b)) {
                best = Some((*pr, v));
            }
        }
    }
    best
}

/// Soft regression check against the best prior snapshot per metric:
/// warn-only, since wall-clock is machine-dependent. Each throughput is
/// compared downward against the historical maximum, each wall-clock figure
/// upward against the historical minimum.
fn compare_against_best(rates: &[(&str, f64)], walls: &[(&str, f64)]) {
    let snapshots = prior_snapshots();
    if snapshots.is_empty() {
        // xlint::allow(no-adhoc-stderr, designated sink: operator-facing soft-check notice, never in results)
        eprintln!("[no prior BENCH_*.json to compare against]");
        return;
    }
    for &(key, eps) in rates {
        if let Some((pr, best_eps)) = best_prior(&snapshots, key, |a, b| a > b) {
            if eps < best_eps * 0.8 {
                // xlint::allow(no-adhoc-stderr, designated sink: operator-facing soft regression warning, never in results)
                eprintln!(
                    "WARNING: {key} regressed >20% vs best prior (BENCH_{pr}.json): \
                     {eps:.0} vs {best_eps:.0} events/s"
                );
            }
        }
    }
    for &(key, secs) in walls {
        if let Some((pr, best_secs)) = best_prior(&snapshots, key, |a, b| a < b) {
            if secs > best_secs * 1.5 + 0.05 {
                // xlint::allow(no-adhoc-stderr, designated sink: operator-facing soft regression warning, never in results)
                eprintln!(
                    "WARNING: {key} regressed >50% vs best prior (BENCH_{pr}.json): \
                     {secs:.3}s vs {best_secs:.3}s"
                );
            }
        }
    }
}

fn main() {
    // Pin the experiment scale so successive snapshots time identical work
    // regardless of the caller's environment.
    std::env::set_var("AREPLICA_SCALE", "1");
    std::env::remove_var("AREPLICA_SEED");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (kernel_events, kernel_secs) = kernel_median(0, u64::MAX);
    let kernel_eps = kernel_events as f64 / kernel_secs;
    let (deep_events, deep_secs) = kernel_median(FAR_TIMERS, kernel_events);
    let deep_eps = deep_events as f64 / deep_secs;

    let timer = WallTimer::start();
    let report = ex::fig17_scheduling::run();
    let fig17_secs = timer.elapsed_secs();
    assert!(
        report.contains("part"),
        "fig17 run produced an unexpected report"
    );

    // The replay-heavy and whole-suite figures run at a pinned small scale;
    // the point is trend over PRs, not absolute magnitude.
    std::env::set_var("AREPLICA_SCALE", SUITE_SCALE);
    let timer = WallTimer::start();
    let report = ex::fig23_trace_replay::run();
    let fig23_secs = timer.elapsed_secs();
    assert!(
        report.contains("window"),
        "fig23 run produced an unexpected report"
    );

    let suite_secs = suite_wall_secs();

    let lines = rust_lines();
    let total: usize = lines.iter().map(|(_, n)| n).sum();
    let mut lines_json = String::new();
    for (name, n) in &lines {
        lines_json.push_str(&format!("    \"{name}\": {n},\n"));
    }
    lines_json.push_str(&format!("    \"total\": {total}\n"));

    let json = format!(
        "{{\n  \"schema\": 5,\n  \"pr\": {PR},\n  \"cores\": {cores},\n  \
         \"kernel_runs\": {KERNEL_RUNS},\n  \
         \"kernel_events\": {kernel_events},\n  \
         \"kernel_wall_secs\": {kernel_secs:.4},\n  \
         \"kernel_events_per_sec\": {kernel_eps:.0},\n  \
         \"kernel_deep_far_timers\": {FAR_TIMERS},\n  \
         \"kernel_deep_wall_secs\": {deep_secs:.4},\n  \
         \"kernel_deep_events_per_sec\": {deep_eps:.0},\n  \
         \"fig17_scale\": 1.0,\n  \"fig17_wall_secs\": {fig17_secs:.3},\n  \
         \"fig23_scale\": {SUITE_SCALE},\n  \"fig23_wall_secs\": {fig23_secs:.3},\n  \
         \"suite_scale\": {SUITE_SCALE},\n  \"suite_wall_secs\": {suite_secs:.3},\n  \
         \"rust_lines\": {{\n{lines_json}  }}\n}}\n"
    );
    compare_against_best(
        &[
            ("kernel_events_per_sec", kernel_eps),
            ("kernel_deep_events_per_sec", deep_eps),
        ],
        &[
            ("fig17_wall_secs", fig17_secs),
            ("fig23_wall_secs", fig23_secs),
            ("suite_wall_secs", suite_secs),
        ],
    );
    let out = std::env::var("AREPLICA_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_{PR}.json"));
    std::fs::write(&out, &json).expect("write perf snapshot");
    // xlint::allow(no-adhoc-stderr, designated sink: echoes the committed BENCH_<pr>.json, never in results)
    println!("{json}");
    // xlint::allow(no-adhoc-stderr, designated sink: operator-facing progress line, never in results)
    eprintln!("[saved {out}]");
}
