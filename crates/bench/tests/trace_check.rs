//! Trace-check: end-to-end invariants over the deterministic tracer.
//!
//! These tests drive real service-level replications with tracing enabled
//! and assert (a) the Chrome trace-event JSON export is well-formed and
//! byte-identical across identically-seeded runs, (b) the per-phase delay
//! breakdown derived purely from `TraceQuery` agrees with the aggregate
//! `Metrics`, and (c) span-level invariants the paper's design implies —
//! changelog-path tasks move no object bytes, ETag races surface as abort
//! events, and batching/SLO accounting matches between trace counters and
//! service metrics.

use areplica_core::{changelog, AReplica, AReplicaBuilder, ProfilerConfig, ReplicationRule};
use bench::{phase_breakdown, profile_pairs, trace_artifacts};
use cloudsim::world::{self, CloudSim};
use cloudsim::{Cloud, World};
use simkernel::{SimDuration, SimTime};
use simtrace::names;

/// A small traced service run: `n_puts` objects replicated AWS us-east-1 →
/// Azure eastus (cross-cloud, so invocation/cold-start/transfer phases all
/// appear). Fixed seed; no env dependence.
fn traced_run(seed: u64, n_puts: usize, traced: bool) -> (CloudSim, AReplica) {
    let mut sim = World::paper_sim(seed);
    sim.world.trace.set_enabled(traced);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src", dst, "dst"))
        .model(model)
        .profiler_config(ProfilerConfig::small())
        .install(&mut sim);
    for t in 0..n_puts {
        let key = format!("obj-{t}");
        // Big enough that replication is distributed (multipart + commit),
        // with distinct sizes so every task is distinguishable in the trace.
        let size = (48 << 20) + (t as u64) * 4096;
        let at = SimTime::from_nanos(t as u64 * 5_000_000_000);
        sim.schedule_at(at, move |sim| {
            world::user_put(sim, src, "src", &key, size).unwrap();
        });
    }
    sim.run_to_completion(10_000_000);
    (sim, service)
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// array-shaped, and every event carries a known `"ph"` type. No serde in
/// the workspace, by design — the exporter writes a fixed shape.
fn assert_valid_chrome_json(s: &str) {
    let (mut objs, mut arrs) = (0i64, 0i64);
    let (mut in_str, mut esc) = (false, false);
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => objs += 1,
            '}' => {
                objs -= 1;
                assert!(objs >= 0, "unbalanced braces");
            }
            '[' => arrs += 1,
            ']' => {
                arrs -= 1;
                assert!(arrs >= 0, "unbalanced brackets");
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(objs, 0, "unbalanced braces");
    assert_eq!(arrs, 0, "unbalanced brackets");
    assert!(
        s.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "unexpected export shape"
    );
    assert!(s.trim_end().ends_with("]}"), "unterminated event array");
    for ev in s.match_indices("\"ph\":\"") {
        let ph = &s[ev.0 + 6..ev.0 + 7];
        assert!(
            matches!(ph, "b" | "e" | "X" | "i"),
            "unknown event type {ph}"
        );
    }
}

#[test]
fn chrome_json_is_valid_and_byte_identical_across_runs() {
    let (sim_a, _svc_a) = traced_run(0x7ace, 4, true);
    let (sim_b, _svc_b) = traced_run(0x7ace, 4, true);
    let (json_a, metrics_a) = trace_artifacts(&sim_a.world.trace);
    let (json_b, metrics_b) = trace_artifacts(&sim_b.world.trace);
    assert_valid_chrome_json(&json_a);
    assert!(
        json_a.matches("\"ph\":\"").count() > 20,
        "trace suspiciously small"
    );
    assert_eq!(json_a, json_b, "trace JSON diverged between seeded runs");
    assert_eq!(metrics_a, metrics_b, "metrics snapshot diverged");
}

#[test]
fn tracing_does_not_perturb_results() {
    let (sim_t, svc_t) = traced_run(0x7ace, 4, true);
    let (sim_u, svc_u) = traced_run(0x7ace, 4, false);
    assert_eq!(sim_t.now(), sim_u.now(), "end time diverged under tracing");
    let dt: Vec<_> = svc_t
        .metrics()
        .completions
        .iter()
        .map(|r| r.delay())
        .collect();
    let du: Vec<_> = svc_u
        .metrics()
        .completions
        .iter()
        .map(|r| r.delay())
        .collect();
    assert_eq!(dt, du, "completion delays diverged under tracing");
    // And the untraced run recorded nothing.
    assert_eq!(sim_u.world.trace.query().count(), 0);
    assert!(!sim_u.world.trace.export_chrome_json().contains("\"ph\""));
}

/// The paper's delay decomposition, recovered purely from the trace: every
/// replicated `task` span starts at the PUT's event time and ends at
/// retrievability, so span durations must equal `Metrics` delays exactly
/// (nanosecond-for-nanosecond), and the I/D/P/S/C phase totals must be
/// non-trivial for a cross-cloud run.
#[test]
fn phase_breakdown_matches_metrics_aggregate() {
    let (sim, service) = traced_run(0xbead, 5, true);
    let m = service.metrics();
    let tracer = &sim.world.trace;

    let q = tracer.query().name(names::TASK).tag("status", "replicated");
    assert_eq!(
        q.count(),
        m.completions.len(),
        "task span / completion mismatch"
    );
    let span_total: u64 = q.durations().iter().map(|d| d.as_nanos()).sum();
    let metrics_total: u64 = m.completions.iter().map(|r| r.delay().as_nanos()).sum();
    assert_eq!(
        span_total, metrics_total,
        "trace-derived delay disagrees with Metrics aggregate"
    );

    // No task span may be left open once the event queue drains.
    let all_tasks = tracer.query().name(names::TASK);
    assert_eq!(
        all_tasks.durations().len(),
        all_tasks.count(),
        "open task span"
    );

    // Cross-cloud distributed replication exercises invocation, transfer
    // setup + wire legs, and multipart commit; the breakdown reports them.
    let text = phase_breakdown(tracer);
    for line in [
        "I.invoke_api",
        "D.cold_start",
        "P.postpone",
        "S.transfer",
        "C.commit",
    ] {
        assert!(text.contains(line), "breakdown missing {line}: {text}");
    }
    let nonzero = |n: &str| tracer.query().name(n).total_duration() > SimDuration::ZERO;
    assert!(nonzero(names::FAAS_INVOKE_API), "no invocation time traced");
    assert!(nonzero(names::NET_LEG), "no wire time traced");
    assert!(nonzero(names::STORE_COMMIT), "no commit time traced");
}

/// Changelog propagation of a COPY must move zero object bytes: no
/// byte-range GET on the copied key anywhere, and the task span says
/// `via_changelog`.
#[test]
fn changelog_path_issues_no_byte_range_gets() {
    let mut sim = World::paper_sim(0xc109);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(
            ReplicationRule::new(src, "src", dst, "dst")
                .with_changelog(true)
                .with_batching(false),
        )
        .model(model)
        .profiler_config(ProfilerConfig::small())
        .install(&mut sim);
    world::user_put(&mut sim, src, "src", "base", 64 << 20).unwrap();
    sim.run_while_pending(|_| !service.metrics().completions.is_empty());
    let settle = sim.now() + SimDuration::from_secs(30);
    sim.run_until(settle);

    changelog::user_copy(
        &mut sim,
        src,
        "src".into(),
        "base".into(),
        "copy".into(),
        |_, _| {},
    )
    .expect("base object seeded above");
    sim.run_while_pending(|_| service.metrics().completions.len() >= 2);
    sim.run_to_completion(10_000_000);

    let m = service.metrics();
    assert_eq!(
        m.changelog_applied, 1,
        "COPY should propagate via changelog"
    );
    assert!(m
        .completions
        .iter()
        .any(|r| r.key == "copy" && r.via_changelog));
    let tracer = &sim.world.trace;
    // The base replication read its bytes; the changelog-path copy must not.
    assert!(
        tracer
            .query()
            .name(names::STORE_GET_RANGE)
            .tag("key", "base")
            .count()
            > 0,
        "full replication of the base object should read byte ranges"
    );
    assert_eq!(
        tracer
            .query()
            .name(names::STORE_GET_RANGE)
            .tag("key", "copy")
            .count(),
        0,
        "changelog-path task read object bytes"
    );
    assert_eq!(
        tracer
            .query()
            .name(names::TASK)
            .tag("key", "copy")
            .tag("via_changelog", "true")
            .count(),
        1
    );
    assert_eq!(tracer.registry().counter("service.changelog_applied"), 1);
}

/// Batching and SLO accounting must agree between the trace registry and
/// `Metrics`: every absorbed hot-key update increments both, and a
/// pre-violated SLO (budget spent before the notification even arrived) is
/// counted identically on both sides.
#[test]
fn batching_and_slo_counters_match_metrics() {
    let slo = SimDuration::from_secs(30);
    let mut sim = World::paper_sim(0x5105);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src", dst, "dst").with_slo(slo))
        .model(model)
        .profiler_config(ProfilerConfig::small())
        .install(&mut sim);
    // 30 updates over 45 s on one hot 8 MB object: SLO-bounded batching
    // absorbs most of them.
    for i in 0..30u64 {
        sim.schedule_at(SimTime::from_nanos(i * 1_500_000_000), move |sim| {
            world::user_put(sim, src, "src", "hot.bin", 8 << 20).unwrap();
        });
    }
    sim.run_to_completion(10_000_000);
    let m = service.metrics();
    let reg = sim.world.trace.registry();
    assert!(m.batched_skips > 0, "batching absorbed nothing");
    assert_eq!(reg.counter("service.batched_skips"), m.batched_skips);
    assert_eq!(reg.counter("service.slo_previolated"), m.slo_previolated);

    // A 1 ms SLO is already spent by the time the PUT notification reaches
    // the orchestrator, so the task must count as pre-violated.
    let mut sim = World::paper_sim(0x5106);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Aws, "us-east-2").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src", dst, "dst").with_slo(SimDuration::from_millis(1)))
        .model(model)
        .profiler_config(ProfilerConfig::small())
        .install(&mut sim);
    world::user_put(&mut sim, src, "src", "late.bin", 4 << 20).unwrap();
    sim.run_to_completion(10_000_000);
    let m = service.metrics();
    assert!(m.slo_previolated >= 1, "1 ms SLO should pre-violate");
    assert_eq!(
        sim.world
            .trace
            .registry()
            .counter("service.slo_previolated"),
        m.slo_previolated
    );
}

/// An overwrite racing an in-flight replication aborts it with an ETag
/// mismatch; the abort shows up as an engine instant, a task span with the
/// mismatch status, and the same count in `Metrics::aborted_retries` — and
/// the retriggered task still converges to the newest version.
#[test]
fn etag_race_traces_abort_and_retry() {
    let mut sim = World::paper_sim(0xe7a6);
    sim.world.trace.set_enabled(true);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let model = profile_pairs(&sim, &[(src, dst)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src", dst, "dst").with_batching(false))
        .model(model)
        .profiler_config(ProfilerConfig::small())
        .install(&mut sim);
    // A 256 MB transfer whose byte-range reads start at ~1 s and finish at
    // ~2.5 s; the overwrite at 1.2 s lands mid-read and forces the mismatch.
    world::user_put(&mut sim, src, "src", "hot.bin", 256 << 20).unwrap();
    sim.schedule_at(SimTime::from_nanos(1_200_000_000), move |sim| {
        world::user_put(sim, src, "src", "hot.bin", (256 << 20) + 1).unwrap();
    });
    sim.run_to_completion(20_000_000);

    let m = service.metrics();
    let tracer = &sim.world.trace;
    assert!(
        m.aborted_retries >= 1,
        "race did not abort: {:?}",
        m.aborted_retries
    );
    assert_eq!(
        tracer
            .registry()
            .counter("service.tasks.aborted_etag_mismatch"),
        m.aborted_retries,
        "trace counter disagrees with Metrics"
    );
    assert_eq!(
        tracer
            .query()
            .name(names::TASK)
            .tag("status", "aborted_etag_mismatch")
            .count() as u64,
        m.aborted_retries
    );
    assert!(
        tracer
            .query()
            .name(names::ENGINE_ABORT)
            .tag("reason", "etag_mismatch")
            .instant_count()
            >= 1
    );
    // The newest version still landed.
    let (src_content, src_etag) = sim.world.objstore(src).read_full("src", "hot.bin").unwrap();
    let (dst_content, dst_etag) = sim.world.objstore(dst).read_full("dst", "hot.bin").unwrap();
    assert!(src_content.same_bytes(&dst_content));
    assert_eq!(src_etag, dst_etag);
}
