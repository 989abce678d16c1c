//! Embedded self-test fixtures: for every rule, a violating snippet, a
//! clean snippet, and a pragma-suppressed snippet. `xlint --self-test` runs
//! the real engine over these in memory (default config, no filesystem) and
//! fails loudly if any rule stops firing — a tripwire against the linter
//! itself rotting.

use crate::config::Config;
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
    // ---- no-wall-clock -------------------------------------------------
    Fixture {
        name: "wall-clock-violating",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Fires,
        source: r##"
pub fn measure() -> u64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos() as u64
}
"##,
    },
    Fixture {
        name: "wall-clock-systemtime-violating",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Fires,
        source: r##"
use std::time::SystemTime;
pub fn stamp() -> SystemTime { SystemTime::now() }
"##,
    },
    Fixture {
        name: "wall-clock-clean-sim-time",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Clean,
        source: r##"
pub fn measure(now_ns: u64, later_ns: u64) -> u64 {
    later_ns - now_ns // virtual time from the Clock trait
}
"##,
    },
    Fixture {
        name: "wall-clock-test-region-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Clean,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn timing_smoke() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_nanos() < u128::MAX);
    }
}
"##,
    },
    Fixture {
        name: "wall-clock-pragma",
        rel_path: "crates/bench/src/bin/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Clean,
        source: r##"
pub fn wall_elapsed_ns() -> u64 {
    // xlint::allow(no-wall-clock, operator-facing progress logging only; never reaches results)
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos() as u64
}
"##,
    },
    // ---- no-os-entropy -------------------------------------------------
    Fixture {
        name: "os-entropy-violating",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-os-entropy",
        expect: Expect::Fires,
        source: r##"
pub fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}
"##,
    },
    Fixture {
        name: "os-entropy-in-test-still-fires",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-os-entropy",
        expect: Expect::Fires,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn seeded() {
        let _rng = rand::rngs::StdRng::from_entropy();
    }
}
"##,
    },
    Fixture {
        name: "os-entropy-clean-seeded",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-os-entropy",
        expect: Expect::Clean,
        source: r##"
use rand::SeedableRng;
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}
"##,
    },
    Fixture {
        name: "os-entropy-pragma",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-os-entropy",
        expect: Expect::Clean,
        source: r##"
pub fn session_nonce() -> u64 {
    // xlint::allow(no-os-entropy, nonce is for log correlation only and never feeds the simulation)
    let mut rng = rand::rngs::OsRng;
    rng.next_u64()
}
"##,
    },
    // ---- no-unordered-iteration ---------------------------------------
    Fixture {
        name: "unordered-iter-violating",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Fires,
        source: r##"
use std::collections::HashMap;
pub fn total_latency(samples: HashMap<u64, f64>) -> f64 {
    let mut acc = 0.0;
    for (_id, s) in samples.iter() {
        acc += s; // float sum: order-sensitive at the bit level
    }
    acc
}
"##,
    },
    Fixture {
        name: "unordered-for-loop-violating",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Fires,
        source: r##"
use std::collections::HashSet;
pub fn emit(ready: &HashSet<u32>, out: &mut Vec<u32>) {
    for id in ready {
        out.push(*id);
    }
}
"##,
    },
    Fixture {
        name: "unordered-clean-btree",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Clean,
        source: r##"
use std::collections::BTreeMap;
pub fn total_latency(samples: BTreeMap<u64, f64>) -> f64 {
    samples.values().sum()
}
"##,
    },
    Fixture {
        name: "unordered-clean-immediately-sorted",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Clean,
        source: r##"
use std::collections::HashMap;
pub fn ordered_keys(samples: &HashMap<u64, f64>) -> Vec<u64> {
    let mut keys: Vec<u64> = samples.keys().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
    keys.sort_unstable();
    keys
}
"##,
    },
    Fixture {
        name: "unordered-clean-count",
        rel_path: "crates/baselines/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Clean,
        source: r##"
use std::collections::HashMap;
pub fn live(pairs: &HashMap<(u32, u32), bool>) -> usize {
    pairs.values().filter(|v| **v).count()
}
"##,
    },
    Fixture {
        name: "unordered-clean-unconfigured-crate",
        rel_path: "crates/cloudapi/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Clean,
        source: r##"
use std::collections::HashMap;
pub fn drain_all(m: &mut HashMap<String, u64>) -> Vec<(String, u64)> {
    m.drain().collect()
}
"##,
    },
    Fixture {
        name: "unordered-pragma",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unordered-iteration",
        expect: Expect::Clean,
        source: r##"
use std::collections::HashMap;
pub fn invalidate(cache: &mut HashMap<u64, Vec<u8>>) {
    // xlint::allow(no-unordered-iteration, visit order cannot be observed: entries are dropped wholesale)
    for (_k, v) in cache.iter_mut() {
        v.clear();
    }
}
"##,
    },
    // ---- layering ------------------------------------------------------
    Fixture {
        name: "layering-violating",
        rel_path: "crates/areplica-core/src/engine_fixture.rs",
        rule: "layering",
        expect: Expect::Fires,
        source: r##"
pub fn shortcut(sim: &mut cloudsim::world::CloudSim) {
    cloudsim::world::user_put(sim, todo!(), "b", "k", 1);
}
"##,
    },
    Fixture {
        name: "layering-clean-in-adapter",
        rel_path: "crates/areplica-core/src/backend/sim.rs",
        rule: "layering",
        expect: Expect::Clean,
        source: r##"
use cloudsim::world::CloudSim;
pub struct SimBackend { pub sim: CloudSim }
"##,
    },
    Fixture {
        name: "layering-clean-other-crate",
        rel_path: "crates/bench/src/runners_fixture.rs",
        rule: "layering",
        expect: Expect::Clean,
        source: r##"
pub fn world(seed: u64) -> cloudsim::world::CloudSim {
    cloudsim::world::World::paper_sim(seed)
}
"##,
    },
    Fixture {
        name: "layering-pragma",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "layering",
        expect: Expect::Clean,
        source: r##"
// xlint::allow(layering, transitional shim scheduled for removal in the next PR)
pub use cloudsim::WorldParams as SimWorldParams;
"##,
    },
    Fixture {
        name: "layering-control-into-cloudsim",
        rel_path: "crates/areplica-control/src/fixture.rs",
        rule: "layering",
        expect: Expect::Fires,
        source: r##"
pub fn peek(sim: &cloudsim::world::CloudSim) -> u32 {
    sim.world.faas.tenant_peak("acme")
}
"##,
    },
    Fixture {
        name: "layering-core-into-control",
        rel_path: "crates/areplica-core/src/engine_fixture.rs",
        rule: "layering",
        expect: Expect::Fires,
        source: r##"
pub fn call_up(reg: &areplica_control::TenantRegistry) -> bool {
    areplica_control::TenantRegistry::contains(reg, "acme")
}
"##,
    },
    Fixture {
        name: "layering-clean-control-uses-core",
        rel_path: "crates/areplica-control/src/fixture.rs",
        rule: "layering",
        expect: Expect::Clean,
        source: r##"
pub fn grant() -> areplica_core::TenantCtx {
    areplica_core::TenantCtx::named("acme")
}
"##,
    },
    Fixture {
        name: "layering-clean-bench-uses-control",
        rel_path: "crates/bench/src/runners_fixture.rs",
        rule: "layering",
        expect: Expect::Clean,
        source: r##"
pub fn registry() -> areplica_control::TenantRegistry {
    areplica_control::TenantRegistry::new()
}
"##,
    },
    // ---- no-unwrap-in-lib ---------------------------------------------
    Fixture {
        name: "unwrap-violating",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Fires,
        source: r##"
pub fn head(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}
"##,
    },
    Fixture {
        name: "expect-violating",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Fires,
        source: r##"
pub fn head(xs: &[u64]) -> u64 {
    *xs.first().expect("non-empty input")
}
"##,
    },
    Fixture {
        name: "unwrap-clean-typed-error",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Clean,
        source: r##"
pub fn head(xs: &[u64]) -> Result<u64, crate::EngineError> {
    xs.first().copied().ok_or(crate::EngineError::Empty)
}
"##,
    },
    Fixture {
        name: "unwrap-clean-in-test-mod",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Clean,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn head() {
        assert_eq!([1u64].first().copied().unwrap(), 1);
    }
}
"##,
    },
    Fixture {
        name: "unwrap-clean-other-crate",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Clean,
        source: r##"
pub fn head(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}
"##,
    },
    Fixture {
        name: "expect-pragma",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-unwrap-in-lib",
        expect: Expect::Clean,
        source: r##"
pub fn head(xs: &[u64]) -> u64 {
    // xlint::allow(no-unwrap-in-lib, caller guarantees non-empty: checked by EngineConfig::validate)
    *xs.first().expect("non-empty by construction")
}
"##,
    },
    // ---- no-adhoc-stderr -----------------------------------------------
    Fixture {
        name: "adhoc-stderr-violating",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Fires,
        source: r##"
pub fn on_cold_start(region: &str) {
    eprintln!("cold start in {region}");
}
"##,
    },
    Fixture {
        name: "adhoc-stderr-dbg-violating",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Fires,
        source: r##"
pub fn inspect(delay_s: f64) -> f64 {
    dbg!(delay_s)
}
"##,
    },
    Fixture {
        name: "adhoc-stderr-clean-trace-event",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Clean,
        source: r##"
pub fn on_cold_start(trace: &mut simtrace::Tracer, now: simkernel::SimTime, region: &str) {
    trace.instant(now, "faas.cold_start", vec![("region", region.to_string())]);
    trace.counter_add("faas.cold_starts", 1);
}
"##,
    },
    Fixture {
        name: "adhoc-stderr-clean-in-test-mod",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Clean,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn debug_dump() {
        println!("tests may narrate freely");
    }
}
"##,
    },
    Fixture {
        name: "adhoc-stderr-clean-unconfigured-crate",
        rel_path: "crates/xlint/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Clean,
        source: r##"
pub fn report(msg: &str) {
    eprintln!("xlint: {msg}");
}
"##,
    },
    Fixture {
        name: "adhoc-stderr-pragma",
        rel_path: "crates/bench/src/fixture.rs",
        rule: "no-adhoc-stderr",
        expect: Expect::Clean,
        source: r##"
pub fn write_report(content: &str) {
    // xlint::allow(no-adhoc-stderr, designated report sink: stdout is the operator-facing channel)
    println!("{content}");
}
"##,
    },
    // ---- thread-confinement ---------------------------------------------
    Fixture {
        name: "thread-confinement-spawn-violating",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "thread-confinement",
        expect: Expect::Fires,
        source: r##"
pub fn prefetch() {
    std::thread::spawn(|| {});
}
"##,
    },
    Fixture {
        name: "thread-confinement-mutex-violating",
        rel_path: "crates/areplica-traces/src/fixture.rs",
        rule: "thread-confinement",
        expect: Expect::Fires,
        source: r##"
use std::sync::Mutex;
pub struct Cache {
    inner: Mutex<u64>,
}
"##,
    },
    Fixture {
        name: "thread-confinement-clean-par-module",
        rel_path: "crates/simkernel/src/par.rs",
        rule: "thread-confinement",
        expect: Expect::Clean,
        source: r##"
use std::thread;
pub fn workers(n: usize) -> usize {
    thread::scope(|s| (0..n).map(|_| s.spawn(|| 1)).map(|h| h.join().unwrap_or(0)).sum())
}
"##,
    },
    Fixture {
        name: "thread-confinement-clean-bin",
        rel_path: "crates/bench/src/bin/fixture.rs",
        rule: "thread-confinement",
        expect: Expect::Clean,
        source: r##"
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
"##,
    },
    Fixture {
        name: "thread-confinement-clean-in-test-mod",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "thread-confinement",
        expect: Expect::Clean,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn stress() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
"##,
    },
    Fixture {
        name: "thread-confinement-pragma",
        rel_path: "crates/cloudsim/src/fixture.rs",
        rule: "thread-confinement",
        expect: Expect::Clean,
        source: r##"
pub fn host_cores() -> usize {
    // xlint::allow(thread-confinement, reads host parallelism only; spawns nothing)
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
"##,
    },
    // ---- bad-pragma ----------------------------------------------------
    Fixture {
        name: "pragma-missing-reason",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "bad-pragma",
        expect: Expect::Fires,
        source: r##"
pub fn head(xs: &[u64]) -> u64 {
    // xlint::allow(no-unwrap-in-lib)
    *xs.first().unwrap()
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
    // Flight-recorder dumps (return-mode): an opened dump is truncated
    // JSON until `flight_dump_close` consumes it.
    Fixture {
        name: "prb-flight-dump-leak-fires",
        rel_path: "crates/bench/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Fires,
        source: r##"
pub fn dump_on_failure(tracer: &Tracer, failed: bool) -> String {
    let dump = tracer.flight_dump_open(None);
    if failed {
        // BUG: bail out while the dump is still open — truncated JSON.
        return String::new();
    }
    dump.flight_dump_close()
}
"##,
    },
    Fixture {
        name: "prb-flight-dump-closed-clean",
        rel_path: "crates/bench/src/fixture.rs",
        rule: "protocol-resource-balance",
        expect: Expect::Clean,
        source: r##"
pub fn dump(tracer: &Tracer) -> String {
    let dump = tracer.flight_dump_open(None);
    dump.flight_dump_close()
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
    // ---- no-dropped-result ----------------------------------------------
    Fixture {
        name: "dropped-result-fires",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-dropped-result",
        expect: Expect::Fires,
        source: r##"
pub fn cleanup(sim: &mut Sim, key: u64) {
    let _ = sim.delete_row(key);
}
"##,
    },
    // Plain binding silencers (no call in the initializer) are idiomatic
    // closure-capture hints, not discarded Results.
    Fixture {
        name: "dropped-result-silencer-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-dropped-result",
        expect: Expect::Clean,
        source: r##"
pub fn capture(tenant: u64, job: &Job) {
    let _ = tenant;
    let _ = &job;
    let _ = (tenant, tenant);
}
"##,
    },
    // Binaries may discard results (their errors surface at the terminal).
    Fixture {
        name: "dropped-result-bin-clean",
        rel_path: "crates/areplica-core/src/bin/fixture.rs",
        rule: "no-dropped-result",
        expect: Expect::Clean,
        source: r##"
pub fn cleanup(sim: &mut Sim, key: u64) {
    let _ = sim.delete_row(key);
}
"##,
    },
    Fixture {
        name: "dropped-result-test-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-dropped-result",
        expect: Expect::Clean,
        source: r##"
#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        let _ = super::run();
    }
}
"##,
    },
    Fixture {
        name: "dropped-result-pragma-clean",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-dropped-result",
        expect: Expect::Clean,
        source: r##"
pub fn cleanup(sim: &mut Sim, key: u64) {
    // xlint::allow(no-dropped-result, best-effort cache eviction: a miss here is re-reaped by the janitor)
    let _ = sim.delete_row(key);
}
"##,
    },
    // ---- parse-error recovery -------------------------------------------
    // A file the parser cannot fully digest degrades to token-level rules
    // instead of aborting: the wall-clock hit inside the broken fn still
    // surfaces.
    Fixture {
        name: "parse-error-degrades-to-token-rules",
        rel_path: "crates/areplica-core/src/fixture.rs",
        rule: "no-wall-clock",
        expect: Expect::Fires,
        source: r##"
pub fn broken( {
    let t0 = std::time::Instant::now();
}
"##,
    },
];

/// Runs every fixture through the engine with the default config; returns a
/// human-readable failure list (empty = pass).
pub fn run_self_test() -> Vec<String> {
    let cfg = Config::default();
    let mut failures = Vec::new();
    for fx in FIXTURES {
        let findings = check_file(fx.rel_path, fx.source, &cfg);
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
