//! Seeds the ROADMAP item-4 perf trajectory: one `BENCH_<pr>.json` per PR
//! recording (a) raw event throughput through `simkernel`, (b) wall-clock
//! for a fixed-scale fig17 run, (c) wall-clock for the fig23 trace replay
//! and the full experiment suite at a pinned small scale, and — since
//! PR 10 — (d) sharded-fig23 wall-clock under both drivers plus the
//! determinism cross-check, and the core count the numbers were taken on.
//!
//! Wall-clock numbers here are machine-dependent by nature; the file records
//! a trajectory on the CI fleet, not a portable benchmark. Simulated outputs
//! (`results/*.txt`) stay wall-clock-free — see `bench::WallTimer`.
//!
//! The regression check compares each metric against the **best prior
//! snapshot for that metric** across every committed `BENCH_*.json` — not
//! just the previous PR — so a regression can't hide behind an intervening
//! slow PR resetting the baseline. It stays *soft* (warn-only): absolute
//! wall-clock varies across machines.

use bench::experiments as ex;
use bench::WallTimer;
use simkernel::{Sim, SimDuration};

/// The PR this snapshot belongs to (also names the output file).
const PR: u32 = 12;

/// Events pushed through the bare kernel for the throughput figure.
const KERNEL_EVENTS: u64 = 2_000_000;

/// Scale pinned for the fig23 + full-suite timings: large enough that the
/// hot paths dominate, small enough to keep the snapshot under a minute.
const SUITE_SCALE: &str = "0.02";

/// Measures raw simkernel dispatch throughput: a self-rescheduling chain with
/// a small fan-out, so the heap sees both pop-and-push churn and bursts.
fn kernel_events_per_sec() -> (u64, f64) {
    let mut sim: Sim<u64> = Sim::new(0x6001, 0);
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
    sim.run_to_completion(u64::MAX);
    let secs = timer.elapsed_secs();
    (sim.stats().executed, secs)
}

/// Runs every replication experiment as a library call (reports are
/// discarded, so nothing under `results/` is touched) and returns total
/// wall-clock. `shard_scale` is deliberately *not* in this list: its cost
/// is dominated by synchronization rounds (fixed by trace duration ÷
/// lookahead, not by workload scale), so folding it in would swamp the
/// suite's workload-scaling signal — it gets its own field instead.
fn suite_wall_secs() -> f64 {
    let experiments: &[(&str, &dyn Fn() -> String)] = &[
        ("fig02_put_sizes", &ex::fig02_put_sizes::run),
        ("fig03_throughput", &ex::fig03_throughput::run),
        (
            "fig04_skyplane_breakdown",
            &ex::fig04_skyplane_breakdown::run,
        ),
        ("fig05_skyplane_dynamic", &ex::fig05_skyplane_dynamic::run),
        ("fig06_bandwidth_config", &ex::fig06_bandwidth_config::run),
        ("fig07_scaling", &ex::fig07_scaling::run),
        ("fig08_asymmetry", &ex::fig08_asymmetry::run),
        ("fig09_variability", &ex::fig09_variability::run),
        ("table1_aws", &|| {
            ex::tables_delay_cost::run(1, (cloudsim::Cloud::Aws, "us-east-1"))
        }),
        ("table2_azure", &|| {
            ex::tables_delay_cost::run(2, (cloudsim::Cloud::Azure, "eastus"))
        }),
        ("table3_gcp", &|| {
            ex::tables_delay_cost::run(3, (cloudsim::Cloud::Gcp, "us-east1"))
        }),
        ("fig16_bulk", &ex::fig16_bulk::run),
        ("fig17_scheduling_ablation", &ex::fig17_scheduling::run),
        ("fig18_model_accuracy", &ex::fig18_19_model_accuracy::run),
        ("table4_model_accuracy", &ex::table4_model_accuracy::run),
        ("fig20_region_selection", &ex::fig20_region_selection::run),
        ("fig21_changelog", &ex::fig21_changelog::run),
        ("fig22_batching", &ex::fig22_batching::run),
        ("fig23_trace_replay", &ex::fig23_trace_replay::run),
        ("ablation_part_size", &ex::ablation_part_size::run),
        ("multi_tenant", &ex::multi_tenant::run),
        ("slo_burn", &ex::slo_burn::run),
        ("region_outage", &ex::region_outage::run),
    ];
    let timer = WallTimer::start();
    for (name, f) in experiments {
        let report = f();
        assert!(!report.is_empty(), "{name} produced an empty report");
    }
    timer.elapsed_secs()
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
/// warn-only, since wall-clock is machine-dependent. Throughput is compared
/// downward against the historical maximum, each wall-clock figure upward
/// against the historical minimum.
fn compare_against_best(kernel_eps: f64, walls: &[(&str, f64)]) {
    let snapshots = prior_snapshots();
    if snapshots.is_empty() {
        // xlint::allow(no-adhoc-stderr, designated sink: operator-facing soft-check notice, never in results)
        eprintln!("[no prior BENCH_*.json to compare against]");
        return;
    }
    if let Some((pr, best_eps)) = best_prior(&snapshots, "kernel_events_per_sec", |a, b| a > b) {
        if kernel_eps < best_eps * 0.8 {
            // xlint::allow(no-adhoc-stderr, designated sink: operator-facing soft regression warning, never in results)
            eprintln!(
                "WARNING: kernel throughput regressed >20% vs best prior (BENCH_{pr}.json): \
                 {kernel_eps:.0} vs {best_eps:.0} events/s"
            );
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
    std::env::remove_var("AREPLICA_SHARDS");
    std::env::remove_var("AREPLICA_SHARD_SEQUENTIAL");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (kernel_events, kernel_secs) = kernel_events_per_sec();
    let kernel_eps = kernel_events as f64 / kernel_secs;

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
    let seq_report = ex::fig23_trace_replay::run();
    let fig23_secs = timer.elapsed_secs();
    assert!(
        seq_report.contains("window"),
        "fig23 run produced an unexpected report"
    );

    // Sharded fig23 under both drivers, same scale: wall-clock for the
    // trajectory, plus the byte-identity cross-check the design promises.
    // On a single-core runner the parallel driver cannot beat the
    // sequential one — the recorded `cores` field is what makes the two
    // wall figures interpretable.
    std::env::set_var("AREPLICA_SHARDS", "8");
    let timer = WallTimer::start();
    let par_report = ex::fig23_trace_replay::run();
    let fig23_shard8_par_secs = timer.elapsed_secs();
    std::env::set_var("AREPLICA_SHARD_SEQUENTIAL", "1");
    let timer = WallTimer::start();
    let shard_seq_report = ex::fig23_trace_replay::run();
    let fig23_shard8_seq_secs = timer.elapsed_secs();
    let shard8_identical = par_report == shard_seq_report;
    std::env::remove_var("AREPLICA_SHARDS");
    std::env::remove_var("AREPLICA_SHARD_SEQUENTIAL");
    assert!(
        shard8_identical,
        "sharded fig23 reports differ between parallel and sequential drivers"
    );

    let suite_secs = suite_wall_secs();

    // Sharded-experiment wall-clock, tracked apart from the suite: the
    // shard_scale run's cost is synchronization rounds, which scale with
    // trace duration ÷ lookahead rather than with AREPLICA_SCALE.
    let timer = WallTimer::start();
    let shard_scale_report = ex::shard_scale::run();
    let shard_scale_secs = timer.elapsed_secs();
    assert!(
        shard_scale_report.contains("par = seq"),
        "shard_scale run produced an unexpected report"
    );

    let json = format!(
        "{{\n  \"schema\": 3,\n  \"pr\": {PR},\n  \"cores\": {cores},\n  \
         \"kernel_events\": {kernel_events},\n  \
         \"kernel_wall_secs\": {kernel_secs:.4},\n  \
         \"kernel_events_per_sec\": {kernel_eps:.0},\n  \
         \"fig17_scale\": 1.0,\n  \"fig17_wall_secs\": {fig17_secs:.3},\n  \
         \"fig23_scale\": {SUITE_SCALE},\n  \"fig23_wall_secs\": {fig23_secs:.3},\n  \
         \"fig23_shard8_par_wall_secs\": {fig23_shard8_par_secs:.3},\n  \
         \"fig23_shard8_seq_wall_secs\": {fig23_shard8_seq_secs:.3},\n  \
         \"fig23_shard8_reports_identical\": {shard8_identical},\n  \
         \"suite_scale\": {SUITE_SCALE},\n  \"suite_wall_secs\": {suite_secs:.3},\n  \
         \"shard_scale_wall_secs\": {shard_scale_secs:.3}\n}}\n"
    );
    compare_against_best(
        kernel_eps,
        &[
            ("fig17_wall_secs", fig17_secs),
            ("fig23_wall_secs", fig23_secs),
            ("suite_wall_secs", suite_secs),
            ("shard_scale_wall_secs", shard_scale_secs),
        ],
    );
    let out = std::env::var("AREPLICA_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_{PR}.json"));
    std::fs::write(&out, &json).expect("write perf snapshot");
    // xlint::allow(no-adhoc-stderr, designated sink: echoes the committed BENCH_<pr>.json, never in results)
    println!("{json}");
    // xlint::allow(no-adhoc-stderr, designated sink: operator-facing progress line, never in results)
    eprintln!("[saved {out}]");
}
