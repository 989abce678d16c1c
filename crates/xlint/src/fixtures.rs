//! Embedded self-test fixtures: for every rule, a violating snippet, a
//! clean snippet, and a pragma-suppressed snippet. [`run_self_test`] runs
//! the real engine over these in memory, under the policy the workspace run
//! enforces, and `cargo test` fails loudly if any rule stops firing — a
//! tripwire against the linter itself rotting.

use crate::rules::check_file;

/// What a fixture expects from the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// At least one finding of the named rule.
    Fires,
    /// No findings at all.
    Clean,
}

/// A named in-memory lint target.
pub struct Fixture {
    pub name: &'static str,
    /// Synthetic workspace-relative path (drives crate/file scoping).
    pub rel_path: &'static str,
    pub rule: &'static str,
    pub expect: Expect,
    pub source: &'static str,
}

/// The full fixture corpus.
pub const FIXTURES: &[Fixture] = &[
    // ---- bad-pragma ----------------------------------------------------
    Fixture {
        name: "pragma-missing-reason",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "bad-pragma",
        expect: Expect::Fires,
        source: r##"
pub fn hold(sim: &mut Sim, key: u64) {
    sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {
        LockResult::Busy => {}
        LockResult::Acquired => {
            // xlint::allow(protocol-resource-balance)
            sim.finish();
        }
    });
}
"##,
    },
    Fixture {
        name: "pragma-unknown-rule",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "bad-pragma",
        expect: Expect::Fires,
        source: r##"
// xlint::allow(no-such-rule, this rule does not exist)
pub fn noop() {}
"##,
    },
    // ---- protocol-resource-balance -------------------------------------
    // Historical bug 1 (PR 4's lost abort): an abort tombstone is written,
    // but one observer arm retires without re-running the idempotent
    // conclusion.
    Fixture {
        name: "prb-lost-abort-historical",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn abort_task(sim: &mut Sim, task: u64) {
    sim.db_transact(task, abort_tx(task), move |sim, outcome| match outcome {
        AbortOutcome::First => {
            conclude_aborted(sim, task);
        }
        AbortOutcome::Repeat => {
            // BUG: a repeat observer assumes the first aborter concluded;
            // if that incarnation crashed post-commit, nobody ever does.
            retire(sim);
        }
    });
}
fn conclude_aborted(sim: &mut Sim, task: u64) {
    sim.teardown(task);
}
fn retire(sim: &mut Sim) {
    sim.finish();
}
"##,
    },
    Fixture {
        name: "prb-lost-abort-fixed-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn abort_task(sim: &mut Sim, task: u64) {
    sim.db_transact(task, abort_tx(task), move |sim, outcome| match outcome {
        AbortOutcome::First => {
            conclude_aborted(sim, task);
        }
        AbortOutcome::Repeat => {
            // Conclusion is a function of recorded state any observer
            // re-runs; duplicates are harmless.
            conclude_aborted(sim, task);
        }
    });
}
fn conclude_aborted(sim: &mut Sim, task: u64) {
    sim.teardown(task);
}
"##,
    },
    // Historical bug 2 (PR 4's orphaned rival upload): a second live
    // incarnation abandons its own multipart upload un-aborted when it
    // discovers a rival already recorded in the pool.
    Fixture {
        name: "prb-rival-upload-historical",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn prepare(sim: &mut Sim, task: Task) {
    sim.create_multipart(task.dst, move |sim, upload_id| {
        sim.db_get(task.id, move |sim, row| match row {
            PoolRow::Existing(rival) => {
                // BUG: work the rival's upload and silently drop our own —
                // it stays open at the destination forever.
                stream_parts(sim, rival);
            }
            PoolRow::Fresh => {
                stream_parts(sim, upload_id);
            }
        });
    });
}
fn stream_parts(sim: &mut Sim, upload_id: u64) {
    sim.complete_multipart(upload_id);
}
"##,
    },
    Fixture {
        name: "prb-rival-upload-fixed-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn prepare(sim: &mut Sim, task: Task) {
    sim.create_multipart(task.dst, move |sim, upload_id| {
        sim.db_get(task.id, move |sim, row| match row {
            PoolRow::Existing(rival) => {
                // Discard our rival upload promptly, then work theirs.
                sim.abort_multipart_now(task.dst, upload_id).ok();
                stream_parts(sim, rival);
            }
            PoolRow::Fresh => {
                stream_parts(sim, upload_id);
            }
        });
    });
}
fn stream_parts(sim: &mut Sim, upload_id: u64) {
    sim.complete_multipart(upload_id);
}
"##,
    },
    // Historical bug 3 (PR 4, second shape): a rescuer opens a fresh upload,
    // then retires on the already-concluded path without aborting it — the
    // orphan is never adopted by anyone.
    Fixture {
        name: "prb-orphan-upload-historical",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn rescue(sim: &mut Sim, task: Task) {
    sim.create_multipart(task.dst, move |sim, upload_id| {
        sim.db_get(task.id, move |sim, row| {
            if row.concluded {
                // BUG: the rescuer raced the original incarnation and lost;
                // it retires without aborting the upload it just opened.
                return;
            }
            stream_parts(sim, upload_id);
        });
    });
}
fn stream_parts(sim: &mut Sim, upload_id: u64) {
    sim.complete_multipart(upload_id);
}
"##,
    },
    // The fixed adoption protocol: handing the upload id to `adopt_tx`
    // records it in the pool row, whose deleters re-abort orphans.
    Fixture {
        name: "prb-adopt-handoff-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn prepare(sim: &mut Sim, task: Task) {
    sim.create_multipart(task.dst, move |sim, upload_id| {
        sim.db_transact(task.id, adopt_tx(upload_id), move |sim, adopted| {
            stream_parts(sim, adopted);
        });
    });
}
fn stream_parts(sim: &mut Sim, upload_id: u64) {
    sim.complete_multipart(upload_id);
}
"##,
    },
    // Reach-mode lock pairing: `try_lock_tx` must reach `unlock_tx` on every
    // path (PR 3's split-brain shape); `Busy` is the not-acquired arm.
    Fixture {
        name: "prb-lock-leak-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn with_lock(sim: &mut Sim, key: u64) {
    sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {
        LockResult::Busy => {}
        LockResult::Acquired => {
            if sim.overloaded() {
                // BUG: shed-load path retires while still holding the lock.
                return;
            }
            do_work(sim, key);
        }
    });
}
fn do_work(sim: &mut Sim, key: u64) {
    sim.db_transact(key, unlock_tx(key), move |_sim, _outcome| {});
}
"##,
    },
    Fixture {
        name: "prb-lock-balanced-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn with_lock(sim: &mut Sim, key: u64) {
    sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {
        LockResult::Busy => {}
        LockResult::Acquired => {
            do_work(sim, key);
        }
    });
}
fn do_work(sim: &mut Sim, key: u64) {
    sim.db_transact(key, unlock_tx(key), move |_sim, _outcome| {});
}
"##,
    },
    Fixture {
        name: "prb-pragma-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn with_lock(sim: &mut Sim, key: u64) {
    sim.db_transact(key, try_lock_tx(key), move |sim, got| match got {
        LockResult::Busy => {}
        LockResult::Acquired => {
            if sim.overloaded() {
                // xlint::allow(protocol-resource-balance, shed-load path: the lease-expiry reaper unlocks abandoned rows)
                return;
            }
            do_work(sim, key);
        }
    });
}
fn do_work(sim: &mut Sim, key: u64) {
    sim.db_transact(key, unlock_tx(key), move |_sim, _outcome| {});
}
"##,
    },
    // Breaker probe tickets (reach-mode): `probe_open` moves the breaker to
    // HalfOpen with a single probe ticket outstanding; every path must
    // reach `probe_resolve`, or the breaker is stuck half-open forever and
    // no further probe can ever be issued.
    Fixture {
        name: "prb-probe-abandoned-on-error-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn probe(sim: &mut Sim, st: St) {
    st.health().probe_open(sim.now(), st.dst());
    sim.put_object(st.dst(), probe_content(), move |sim, res| {
        if res.is_ok() {
            st.health().probe_resolve(sim.now(), st.dst(), true);
        } else {
            // BUG: the failed probe abandons its ticket — the breaker
            // stays HalfOpen and no further probe is ever admitted.
            sim.finish();
        }
    });
}
"##,
    },
    Fixture {
        name: "prb-probe-balanced-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn probe(sim: &mut Sim, st: St) {
    st.health().probe_open(sim.now(), st.dst());
    sim.put_object(st.dst(), probe_content(), move |sim, res| {
        let ok = res.is_ok();
        st.health().probe_resolve(sim.now(), st.dst(), ok);
    });
}
"##,
    },
    Fixture {
        name: "prb-probe-denied-drops-loop-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn probe(sim: &mut Sim, st: St) {
    if !st.health().probe_open(sim.now(), st.dst()) {
        // BUG: a denied ticket abandons the recheck loop instead of
        // backing off to retry — this rule's catch-up is never drained.
        return;
    }
    sim.put_object(st.dst(), probe_content(), move |sim, res| {
        let ok = res.is_ok();
        st.health().probe_resolve(sim.now(), st.dst(), ok);
    });
}
"##,
    },
    Fixture {
        name: "prb-probe-denied-backoff-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn probe(sim: &mut Sim, st: St) {
    if !st.health().probe_open(sim.now(), st.dst()) {
        // Another probe is in flight: back off and re-enter the recheck
        // loop, which resolves the outstanding ticket's outcome.
        sim.schedule_in(st.backoff(), move |sim| recheck(sim, st));
        return;
    }
    sim.put_object(st.dst(), probe_content(), move |sim, res| match res {
        Ok(_) => settle(sim, st, true),
        Err(_) => settle(sim, st, false),
    });
}
fn recheck(sim: &mut Sim, st: St) {
    settle(sim, st, false);
}
fn settle(sim: &mut Sim, st: St, ok: bool) {
    st.health().probe_resolve(sim.now(), st.dst(), ok);
}
"##,
    },
    // ---- span-balance ---------------------------------------------------
    Fixture {
        name: "span-leak-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Fires,
        source: r##"
pub fn run_task(sim: &mut Sim) {
    let span = sim.tracer().span_begin(sim.now(), "task");
    if sim.failed() {
        // BUG: the failure path never closes the task span.
        return;
    }
    sim.tracer().span_end(sim.now(), span);
}
"##,
    },
    Fixture {
        name: "span-balanced-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Clean,
        source: r##"
pub fn run_task(sim: &mut Sim) {
    let span = sim.tracer().span_begin(sim.now(), "task");
    if sim.failed() {
        sim.tracer().span_end(sim.now(), span);
        return;
    }
    sim.tracer().span_end(sim.now(), span);
}
"##,
    },
    // The workspace's real guard idiom: acquire and close both behind
    // `tracer().enabled()` — the optimistic if-join must keep this clean.
    Fixture {
        name: "span-enabled-guard-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Clean,
        source: r##"
pub fn run_task(sim: &mut Sim) {
    let span = if sim.tracer().enabled() {
        sim.tracer().span_begin(sim.now(), "task")
    } else {
        SpanId::NULL
    };
    work(sim);
    if sim.tracer().enabled() {
        sim.tracer().span_end_tagged(sim.now(), span, vec![]);
    }
}
fn work(sim: &mut Sim) {
    sim.step();
}
"##,
    },
    // Storing the span in a context struct transfers the obligation to the
    // struct's consumers (engine's TaskCtx shape).
    Fixture {
        name: "span-escape-struct-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Clean,
        source: r##"
pub fn make_ctx(sim: &mut Sim, task: Task) -> Ctx {
    let span = sim.tracer().span_begin(sim.now(), "task");
    Ctx { task, span }
}
"##,
    },
    Fixture {
        name: "span-pragma-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Clean,
        source: r##"
pub fn run_task(sim: &mut Sim) {
    // xlint::allow(span-balance, diagnostic probe span: the tracer prunes unclosed probe spans at export)
    let span = sim.tracer().span_begin(sim.now(), "probe");
    let _keep = span;
}
"##,
    },
    // Grammar that, misread, drops the whole function from every flow rule:
    // each leak below is reported only if its function parses. A `*` after
    // a cast's type is a product, not a pointer type.
    Fixture {
        name: "span-leak-past-cast-product-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Fires,
        source: r##"
pub fn read_chunk(sim: &mut Sim, ctx: &Ctx, chunk: u32) {
    let span = sim.tracer().span_begin(sim.now(), "chunk");
    let offset = chunk as u64 * ctx.part_size;
    sim.read(offset);
}
"##,
    },
    // A range with no start.
    Fixture {
        name: "span-leak-past-open-range-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Fires,
        source: r##"
pub fn read_head(sim: &mut Sim, parts: &[u64], n: usize) {
    let span = sim.tracer().span_begin(sim.now(), "head");
    sim.read(&parts[..n]);
}
"##,
    },
    // An attribute on a struct literal's first field.
    Fixture {
        name: "span-leak-past-field-attribute-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "span-balance",
        expect: Expect::Fires,
        source: r##"
pub fn start(sim: &mut Sim) -> Timer {
    let span = sim.tracer().span_begin(sim.now(), "timer");
    Timer {
        #[expect(clippy::disallowed_methods, reason = "fixture")]
        start: sim.now(),
    }
}
"##,
    },
    // ---- determinism-taint ----------------------------------------------
    Fixture {
        name: "taint-sink-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Fires,
        source: r##"
pub fn profile(sim: &mut Sim) {
    let timer = WallTimer::start();
    let elapsed = timer.elapsed_secs();
    // BUG: wall-clock time decides a sim event's schedule — replays drift.
    sim.schedule_in(elapsed, move |_sim| {});
}
"##,
    },
    // Taint must survive arithmetic and `format!` on the way to a sink.
    Fixture {
        name: "taint-propagation-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Fires,
        source: r##"
pub fn emit(sim: &mut Sim) {
    let timer = WallTimer::start();
    let line = format!("{}", timer.elapsed_secs() * 2.0);
    sim.write_report("fig", line);
}
"##,
    },
    // Wall time that stays in operator-facing channels is fine.
    Fixture {
        name: "taint-no-sink-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Clean,
        source: r##"
pub fn profile() -> f64 {
    let timer = WallTimer::start();
    timer.elapsed_secs()
}
"##,
    },
    // Virtual time into a sink is the normal case, not taint.
    Fixture {
        name: "taint-sim-time-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Clean,
        source: r##"
pub fn pace(sim: &mut Sim, delay: u64) {
    let now = sim.now();
    sim.schedule_in(now + delay, move |_sim| {});
}
"##,
    },
    // The observability emit paths are sinks too: wall-clock must never
    // reach a dashboard artifact (they are byte-compared across runs).
    Fixture {
        name: "taint-dash-sink-fires",
        rel_path: "crates/bench/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Fires,
        source: r##"
pub fn emit(dir: &Path) {
    let timer = WallTimer::start();
    let line = format!("rendered in {}", timer.elapsed_secs());
    write_dash(dir, "slo_burn.dash.txt", &line);
}
"##,
    },
    Fixture {
        name: "taint-dash-sim-derived-clean",
        rel_path: "crates/bench/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Clean,
        source: r##"
pub fn emit(dir: &Path, frame: &DashFrame) {
    write_dash(dir, "slo_burn.dash.txt", &frame.render());
}
"##,
    },
    Fixture {
        name: "taint-pragma-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "determinism-taint",
        expect: Expect::Clean,
        source: r##"
pub fn snapshot(sim: &mut Sim) {
    let timer = WallTimer::start();
    let line = format!("{}", timer.elapsed_secs());
    // xlint::allow(determinism-taint, perf snapshot only: wall-clock feeds BENCH_*.json and never results/)
    sim.write_report("bench", line);
}
"##,
    },
];

/// Runs every fixture through the engine; returns a human-readable failure
/// list (empty = pass).
pub fn run_self_test() -> Vec<String> {
    let mut failures = Vec::new();
    for fx in FIXTURES {
        let findings = check_file(fx.rel_path, fx.source);
        match fx.expect {
            Expect::Fires => {
                let hit = findings.iter().any(|f| f.rule == fx.rule);
                if !hit {
                    failures.push(format!(
                        "fixture `{}`: expected `{}` to fire, got {:?}",
                        fx.name,
                        fx.rule,
                        findings.iter().map(|f| f.rule).collect::<Vec<_>>()
                    ));
                }
            }
            Expect::Clean => {
                if !findings.is_empty() {
                    failures.push(format!(
                        "fixture `{}`: expected clean, got {}",
                        fx.name,
                        findings
                            .iter()
                            .map(|f| format!("{}:{} {}", f.rule, f.line, f.message))
                            .collect::<Vec<_>>()
                            .join("; ")
                    ));
                }
            }
        }
    }
    failures
}
