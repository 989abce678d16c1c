//! Determinism, workload shape and smoke tests for the benchmark, at tiny
//! rates so they run in seconds.

use areplica_traces::{Trace, TraceOp};
use replbench::replay::{outcome, prepare, run};
use replbench::workload::Workload;

/// Rate scale per workload that keeps each replay small.
fn tiny(w: Workload) -> f64 {
    match w {
        Workload::TraceBurst => 0.01,
        Workload::BulkXcloud => 0.05,
        Workload::HotFanout => 0.02,
    }
}

fn sim_render(w: Workload, seed: u64) -> String {
    let mut p = prepare(w, seed, tiny(w), false);
    run(&mut p);
    outcome(&p).render()
}

#[test]
fn same_seed_gives_byte_identical_sim_output() {
    for w in Workload::ALL {
        assert_eq!(sim_render(w, 5), sim_render(w, 5), "{}", w.name());
    }
}

#[test]
fn different_seed_gives_different_trace() {
    for w in Workload::ALL {
        assert_ne!(w.trace(1, tiny(w)), w.trace(2, tiny(w)), "{}", w.name());
    }
}

/// Records per second inside and outside `[from, to)` (trace ms).
fn rates_in_and_out(trace: &Trace, from: u64, to: u64, window: u64) -> (f64, f64) {
    let inside = trace
        .records
        .iter()
        .filter(|r| (from..to).contains(&r.at.0))
        .count() as f64;
    let outside = trace.records.len() as f64 - inside;
    (
        inside / (to - from) as f64,
        outside / (window - (to - from)) as f64,
    )
}

#[test]
fn every_trace_burst_trace_contains_a_burst() {
    let (from, to) = Workload::burst_window();
    let (from, to) = (from.as_nanos() / 1_000_000, to.as_nanos() / 1_000_000);
    for seed in [0, 1, 2026, 77, u64::MAX] {
        let trace = Workload::TraceBurst.trace(seed, 0.2);
        let window = trace.records.last().expect("non-empty").at.0 + 1;
        assert!(to < window, "seed {seed}: the window ends inside the burst");
        let (inside, outside) = rates_in_and_out(&trace, from, to, window);
        assert!(
            inside > 2.5 * outside,
            "seed {seed}: burst rate {inside}/ms vs {outside}/ms outside"
        );
    }
}

#[test]
fn workload_shapes_match_their_purpose() {
    let bulk = Workload::BulkXcloud.trace(3, 1.0);
    let mut keys: Vec<&str> = bulk.records.iter().map(|r| r.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), bulk.records.len(), "bulk keys are unique");
    for r in &bulk.records {
        let TraceOp::Put { size } = r.op else {
            panic!("bulk-xcloud has only PUTs");
        };
        assert!((256 << 20..=8 << 30).contains(&size), "bulk size {size}");
    }

    let hot = Workload::HotFanout.trace(3, 1.0);
    let last_put = hot
        .records
        .iter()
        .filter(|r| matches!(r.op, TraceOp::Put { .. }))
        .map(|r| r.at.0)
        .max()
        .expect("hot-fanout writes");
    let deletes: Vec<_> = hot
        .records
        .iter()
        .filter(|r| matches!(r.op, TraceOp::Delete))
        .collect();
    assert!(deletes.len() > 1_000, "{} deletes", deletes.len());
    assert!(deletes.iter().all(|r| r.at.0 >= last_put + 30_000));
    assert!(hot.records.iter().all(|r| match r.op {
        TraceOp::Put { size } => size <= 1 << 20,
        _ => true,
    }));
    assert_eq!(Workload::HotFanout.rules().len(), 3);
}

#[test]
fn tiny_runs_converge() {
    for w in Workload::ALL {
        let report = replbench::untraced(w, 9, 0.0, tiny(w));
        assert!(report.attempted > 0, "{}: empty trace", w.name());
        assert_eq!(report.failed, 0, "{}:\n{}", w.name(), report.text);
        assert!(report.correct, "{}:\n{}", w.name(), report.text);
    }
}

#[test]
fn tracer_is_passive_on_tiny_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    for w in Workload::ALL {
        let report = replbench::traced(w, 4, tiny(w), &dir);
        assert!(
            report.text.contains("check passive true"),
            "{}",
            report.text
        );
        assert!(report.correct, "{}:\n{}", w.name(), report.text);
    }
}
