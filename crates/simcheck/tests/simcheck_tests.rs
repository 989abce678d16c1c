//! Pinned schedule-exploration regressions.
//!
//! Each test here either pins a bug simcheck found (so the schedule that
//! used to violate an oracle keeps passing on the fixed engine) or pins a
//! property of the harness itself (byte-identical replay, the seeded-in
//! canary being caught and shrunk small).

use cloudsim::fault::{FaultSite, FaultStats};
use simcheck::{explore_exhaustive, run_schedule, shrink, Decision, Mode, Scenario, WalkConfig};

/// The unexplored simulator order must satisfy every oracle on every
/// scenario — if the baseline fails, schedule exploration is meaningless.
#[test]
fn default_schedules_pass_every_oracle() {
    for sc in Scenario::all().into_iter().filter(|s| s.name != "canary") {
        let report = run_schedule(&sc, Mode::Default);
        assert!(
            report.passed(),
            "scenario={} default schedule violated: {:?}",
            sc.name,
            report.violations
        );
    }
}

/// The determinism contract: the same walk seed replays byte-identically,
/// and scripting a walk's recorded decisions reproduces the identical run.
#[test]
fn walk_replay_is_byte_identical() {
    let sc = Scenario::overwrite_race();
    let a = run_schedule(&sc, Mode::Walk(WalkConfig::seeded(5)));
    let b = run_schedule(&sc, Mode::Walk(WalkConfig::seeded(5)));
    assert_eq!(a.taken, b.taken);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.executed, b.executed);
    assert_eq!(format!("{:?}", a.violations), format!("{:?}", b.violations));

    let scripted = run_schedule(&sc, Mode::Scripted(a.decisions()));
    assert_eq!(a.taken, scripted.taken);
    assert_eq!(a.fault_stats, scripted.fault_stats);
    assert_eq!(a.executed, scripted.executed);
}

/// The seeded-in canary (upload adoption disabled, as the engine behaved
/// before the adoption fix) is caught by a pinned walk seed and shrinks to a
/// handful of decisions; the same minimal schedule passes with adoption on.
#[test]
fn canary_is_caught_and_shrinks_small() {
    let canary = Scenario::canary();
    let report = run_schedule(&canary, Mode::Walk(WalkConfig::seeded(29)));
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, simcheck::Violation::OpenMultipartUploads { .. })),
        "canary walk must leak an upload, got {:?}",
        report.violations
    );
    let min = shrink(&canary, &report.decisions()).expect("canary failure must reproduce scripted");
    assert!(
        min.script.len() <= 10,
        "canary schedule must shrink to <= 10 decisions, got {}",
        min.script.len()
    );
    // The shrunken schedule is a single post-transact kill of the first
    // orchestrator; with adoption enabled the retried incarnation adopts
    // the recorded upload instead of leaking it.
    let fixed = run_schedule(&Scenario::distributed(), Mode::Scripted(min.script.clone()));
    assert!(
        fixed.passed(),
        "adoption-enabled engine failed the canary's minimal schedule: {:?}",
        fixed.violations
    );
}

/// An oracle failure must ship with a flight-recorder dump of the run's
/// trace tail, and the dump must be byte-stable: the same failing walk
/// replayed twice produces the identical artifact. Passing runs carry no
/// dump at all.
#[test]
fn oracle_failures_capture_a_byte_stable_flight_dump() {
    let canary = Scenario::canary();
    let a = run_schedule(&canary, Mode::Walk(WalkConfig::seeded(29)));
    let b = run_schedule(&canary, Mode::Walk(WalkConfig::seeded(29)));
    assert!(!a.passed(), "seed 29 must trip the canary");
    let dump_a = a.flight_dump.as_deref().expect("failure must carry a dump");
    let dump_b = b.flight_dump.as_deref().expect("failure must carry a dump");
    assert!(!dump_a.is_empty(), "the dump must record trace events");
    assert!(
        dump_a.contains("\"traceEvents\""),
        "the dump must be a Chrome trace"
    );
    assert_eq!(dump_a, dump_b, "identical runs must dump identical bytes");

    let clean = run_schedule(&Scenario::small_race(), Mode::Default);
    assert!(clean.passed());
    assert!(
        clean.flight_dump.is_none(),
        "passing runs must not capture a dump"
    );
}

/// Positions of the `PostTransactKill` consults in a run's decision stream.
fn kill_sites(report: &simcheck::RunReport) -> Vec<usize> {
    report
        .taken
        .iter()
        .enumerate()
        .filter(|(_, t)| t.site == Some(FaultSite::PostTransactKill))
        .map(|(i, _)| i)
        .collect()
}

/// A script equal to `base` decisions up to `pos`, with the kill at `pos`
/// fired.
fn kill_at(base: &simcheck::RunReport, pos: usize) -> Vec<Decision> {
    let mut script: Vec<Decision> = base.taken[..pos].iter().map(|t| t.decision).collect();
    script.push(Decision::Fault(true));
    script
}

/// Regression for the lost abort conclusion: killing any single function
/// incarnation right after one of its DB transactions commits must never
/// violate an oracle — the platform retry plus the recorded pool state
/// recover every in-memory continuation the kill destroys.
///
/// Before the fix, killing the first aborter after `abort_tx` committed
/// stalled the task forever (lock held, upload open, pending overwrite
/// lost): every observer read the `aborted` tombstone as "someone else is
/// concluding" and retired.
#[test]
fn any_single_post_transact_kill_recovers() {
    for sc in [Scenario::overwrite_race(), Scenario::small_race()] {
        let base = run_schedule(&sc, Mode::Default);
        assert!(base.passed());
        for pos in kill_sites(&base) {
            let report = run_schedule(&sc, Mode::Scripted(kill_at(&base, pos)));
            assert!(
                report.passed(),
                "scenario={} kill at consult {pos} violated: {:?}",
                sc.name,
                report.violations
            );
        }
    }
}

/// Regression for the orphaned rival upload: a second kill landing on the
/// adopting incarnation (right after the adoption transaction recorded the
/// losing upload) used to drop the rival-upload abort, leaving it open at
/// the destination forever. The pool row now records the orphan and the
/// row's deleter aborts it.
///
/// Sweeps the first kill over the earliest sites, then the second kill over
/// the consults of each killed run — this covers the shrunken reproduction
/// (kills at consults 2 and 4 of the overwrite-race stream) and its
/// neighbours.
#[test]
fn any_double_post_transact_kill_recovers() {
    let sc = Scenario::overwrite_race();
    let base = run_schedule(&sc, Mode::Default);
    for first in kill_sites(&base).into_iter().take(4) {
        let once = run_schedule(&sc, Mode::Scripted(kill_at(&base, first)));
        assert!(once.passed());
        let later: Vec<usize> = kill_sites(&once)
            .into_iter()
            .filter(|p| *p > first)
            .collect();
        for second in later.into_iter().take(4) {
            let mut script = kill_at(&once, second);
            // Positions before `second` replay the once-killed stream, which
            // already contains the first kill.
            assert_eq!(script[first], Decision::Fault(true));
            script[second] = Decision::Fault(true);
            let report = run_schedule(&sc, Mode::Scripted(script));
            assert!(
                report.passed(),
                "kills at consults {first}+{second} violated: {:?}",
                report.violations
            );
        }
    }
}

/// The shrunken schedule of the walk that first exposed the orphaned rival
/// upload (overwrite-race, seed 87): kill the orchestrator after pool
/// creation, then kill its retry after the adoption transaction.
#[test]
fn pinned_orphan_upload_schedule_passes() {
    let script = vec![
        Decision::Fault(false),
        Decision::Fault(false),
        Decision::Fault(true),
        Decision::Fault(false),
        Decision::Fault(true),
    ];
    for sc in [Scenario::overwrite_race(), Scenario::distributed()] {
        let report = run_schedule(&sc, Mode::Scripted(script.clone()));
        assert!(
            report.passed(),
            "scenario={} pinned orphan schedule violated: {:?}",
            sc.name,
            report.violations
        );
    }
}

/// Exhaustive enumeration over the small-race horizon stays clean on the
/// fixed engine.
#[test]
fn exhaustive_small_race_is_clean() {
    let report = explore_exhaustive(&Scenario::small_race(), 6, 64);
    assert!(!report.truncated, "budget must cover the horizon");
    assert!(
        report.failures.is_empty(),
        "exhaustive enumeration found: {:?}",
        report.failures
    );
}

/// The noisy-neighbor scenario must demonstrate *real* quota pressure, not
/// pass vacuously: the bursting tenant's starts are actually deferred by
/// its quota, neither tenant's peak exceeds its grant, and the quiet
/// tenant still converges (the oracles inside `run_schedule` check that).
#[test]
fn noisy_neighbor_throttles_the_burst_under_quota() {
    let report = run_schedule(&Scenario::noisy_neighbor(), Mode::Default);
    assert!(report.passed(), "violations: {:?}", report.violations);
    let faas: std::collections::BTreeMap<&str, (u32, u64)> = report
        .tenant_faas
        .iter()
        .map(|(id, peak, throttled)| (id.as_str(), (*peak, *throttled)))
        .collect();
    let (noisy_peak, noisy_throttled) = faas["noisy"];
    assert!(
        (1..=2).contains(&noisy_peak),
        "noisy peak {noisy_peak} must be positive and within its quota of 2"
    );
    assert!(
        noisy_throttled > 0,
        "a six-object burst under a quota of 2 must defer at least one start"
    );
    let (quiet_peak, _) = faas["quiet"];
    assert!(
        (1..=3).contains(&quiet_peak),
        "quiet peak {quiet_peak} must be positive and within its quota of 3"
    );
}

/// A sweep of region-outage walks: every schedule passes the oracles
/// (post-failback convergence, no leaked catch-up entries, breaker
/// closed), and the walks collectively do open outage windows — the
/// scenario is actually exploring the fault space, not skating past it.
#[test]
fn region_outage_walk_sweep_passes_and_opens_windows() {
    let sc = Scenario::region_outage();
    let mut opened = 0u64;
    for seed in 1..=10 {
        let report = run_schedule(&sc, Mode::Walk(WalkConfig::seeded(seed)));
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        opened += report.fault_stats.outages_opened;
    }
    assert!(opened > 0, "no walk opened an outage window");
}

/// The max-hostility schedule: every open decision fires, every close is
/// denied, so both budgeted windows are held to the forced-close backstop.
/// The run must still converge with nothing leaked and the breaker closed
/// — and replay byte-identically.
#[test]
fn held_open_outage_windows_still_converge() {
    let sc = Scenario::region_outage();
    let cfg = WalkConfig {
        p_outage: 1.0,
        p_outage_close: 0.0,
        ..WalkConfig::seeded(11)
    };
    let report = run_schedule(&sc, Mode::Walk(cfg));
    assert!(report.passed(), "violations: {:?}", report.violations);
    assert_eq!(
        report.fault_stats.outages_opened, 2,
        "both windows budgeted"
    );
    assert!(
        report.fault_stats.outage_blocked_ops >= 12,
        "blocked {} ops",
        report.fault_stats.outage_blocked_ops
    );
    let again = run_schedule(&sc, Mode::Walk(cfg));
    assert_eq!(report.taken, again.taken);
    assert_eq!(report.fault_stats, again.fault_stats);
    assert_eq!(report.executed, again.executed);
}

/// `FaultStats` with the given transient PUT and GET faults and
/// post-transaction kills, and nothing else.
fn faults(puts: u64, gets: u64, kills: u64) -> FaultStats {
    FaultStats {
        injected_put_faults: puts,
        injected_get_faults: gets,
        post_transact_kills: kills,
        ..FaultStats::default()
    }
}

/// What `simcheck replay --seed 3` reports for each scenario, and the
/// canary's report at seed 29, pinned to fixed values: the decision count,
/// the kernel events executed, the faults fired and the violations. The
/// other tests compare runs with each other, so a fault check that moved
/// to a different point of a request would pass them unnoticed.
#[test]
fn replay_reports_are_pinned() {
    let canary_leak = "[OpenMultipartUploads { region: RegionId(5), uploads: [1] }]";
    let pins = [
        ("distributed", 3, 96, 96, faults(1, 0, 2), "[]"),
        ("overwrite-race", 3, 30, 52, faults(0, 0, 2), "[]"),
        ("small-race", 3, 17, 28, faults(0, 0, 1), "[]"),
        ("noisy-neighbor", 3, 167, 174, faults(1, 1, 2), "[]"),
        ("region-outage", 3, 20, 35, faults(0, 0, 2), "[]"),
        ("canary", 29, 96, 94, faults(2, 0, 2), canary_leak),
    ];
    for (name, seed, decisions, executed, stats, violations) in pins {
        let sc = Scenario::by_name(name).expect("pinned scenario exists");
        let report = run_schedule(&sc, Mode::Walk(WalkConfig::seeded(seed)));
        assert_eq!(
            (
                report.taken.len(),
                report.executed,
                report.fault_stats,
                format!("{:?}", report.violations)
            ),
            (decisions, executed, stats, violations.to_string()),
            "scenario={name} seed={seed}"
        );
    }
}
