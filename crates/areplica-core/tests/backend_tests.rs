//! Backend trait-layer tests: generic instantiation of each trait, the
//! world's scripted faults driving the engine's recovery paths end to end,
//! and determinism regression guards.

use std::cell::Cell;
use std::rc::Rc;

use areplica_core::backend::{
    Backend, Clock, Exec, FunctionRuntime, KvStore, ObjectStore, RngSource,
};
use areplica_core::{
    AReplicaBuilder, CompletionRecord, EngineConfig, ProfilerConfig, ReplicationRule,
};
use cloudapi::faas::RetryPolicy;
use cloudsim::fault::{FaultDecider, FaultSite, FaultStats};
use cloudsim::world::CloudSim;
use cloudsim::{Cloud, RegionId, World};
use pricing::CostSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkernel::{RunStats, SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Generic-instantiation tests: one generic function per backend trait,
// monomorphized against the shipped backend. The traits are deliberately
// not object-safe (`KvStore::db_transact` is generic in its transaction
// result), so generics — not trait objects — are the supported way to be
// backend-polymorphic, and these functions are the compile-time proof.
// ---------------------------------------------------------------------------

fn generic_clock<C: Clock>(c: &mut C) -> SimTime {
    c.schedule_in(SimDuration::from_secs(1), |_| {});
    c.run_to_completion(1);
    c.now()
}

fn generic_rng<R: RngSource>(r: &mut R) -> u64 {
    r.derive_rng("backend-tests").gen()
}

fn generic_objstore<S: ObjectStore>(s: &mut S, region: RegionId) -> u64 {
    s.create_bucket(region, "generic-bucket");
    s.user_put(region, "generic-bucket", "k", 1024).unwrap();
    let done = Rc::new(Cell::new(0u64));
    let seen = done.clone();
    s.stat_object(
        Exec::Platform {
            region,
            mbps: 100.0,
        },
        region,
        "generic-bucket".into(),
        "k".into(),
        move |_s, res| seen.set(res.unwrap().size),
    );
    s.run_to_completion(10_000);
    done.get()
}

fn generic_kv<K: KvStore + Clock>(k: &mut K, region: RegionId) -> bool {
    let done = Rc::new(Cell::new(false));
    let seen = done.clone();
    k.db_transact(
        Exec::Platform {
            region,
            mbps: 100.0,
        },
        region,
        "generic-table".into(),
        "k".into(),
        |slot| slot.is_none(),
        move |_k, was_empty| seen.set(was_empty),
    );
    k.run_to_completion(10_000);
    done.get()
}

fn generic_faas<F: FunctionRuntime + Clock>(f: &mut F, region: RegionId) -> bool {
    let spec = f.default_fn_spec(region);
    let ran = Rc::new(Cell::new(false));
    let seen = ran.clone();
    f.invoke(
        region,
        spec,
        Rc::new(move |f: &mut F, handle| {
            seen.set(true);
            f.finish_function(handle);
        }),
        RetryPolicy::default(),
    );
    f.run_to_completion(10_000);
    ran.get()
}

fn generic_backend<B: Backend>(b: &mut B, region: RegionId) -> Cloud {
    let _sandbox: B = b.profiling_sandbox();
    b.cloud_of(region)
}

fn exercise_generically<B: Backend>(mut b: B, region: RegionId) {
    generic_clock(&mut b);
    generic_rng(&mut b);
    assert_eq!(generic_objstore(&mut b, region), 1024);
    assert!(generic_kv(&mut b, region));
    assert!(generic_faas(&mut b, region));
    assert_eq!(generic_backend(&mut b, region), Cloud::Aws);
}

#[test]
fn every_trait_is_usable_generically_over_cloudsim() {
    let sim = World::paper_sim(11);
    let region = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    exercise_generically(sim, region);
}

// ---------------------------------------------------------------------------
// Fault-injection end-to-end: the engine must complete replication, exactly
// once and bit-correct, while the world fails PUTs/GETs transiently and
// crashes a lease-holding replicator mid-task.
// ---------------------------------------------------------------------------

fn small_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 600,
    }
}

/// KvDb quiescence: once the world drains, every replication lock must have
/// been deleted on release (not merely flag-cleared) and every part pool
/// must have been cleaned up by its concluder or the tombstone janitor — a
/// leftover row is exactly the lock-husk / task-tombstone leak simcheck's
/// oracles guard against.
fn assert_tables_quiesced(world: &cloudsim::World, regions: &[RegionId]) {
    for &region in regions {
        for table in ["areplica_locks", "areplica_tasks"] {
            let rows = world.db(region).table_items(table);
            assert!(
                rows.is_empty(),
                "{table} not quiesced in region {region:?}: {rows:?}"
            );
        }
    }
}

/// A seeded fault script: each transient site faults with its own rate,
/// drawn from one RNG in site-consultation order; a zero rate draws nothing,
/// so an unset rate cannot perturb the others' stream. The uploading
/// function is crashed on the n-th lease-holder site (`kill_after_uploads`).
#[derive(Clone, Copy, Default)]
struct RateScript {
    put_failure_rate: f64,
    get_failure_rate: f64,
    invocation_drop_rate: f64,
    kill_after_uploads: Option<u32>,
}

struct RateDecider {
    script: RateScript,
    rng: StdRng,
    uploads: u32,
}

impl RateDecider {
    fn install(sim: &mut CloudSim, script: RateScript) {
        let decider = RateDecider {
            script,
            rng: StdRng::seed_from_u64(0xFA_17),
            uploads: 0,
        };
        sim.world.set_fault_decider(Box::new(decider), None);
    }
}

impl FaultDecider for RateDecider {
    fn decide(&mut self, site: FaultSite) -> bool {
        let rate = match site {
            FaultSite::TransientPut => self.script.put_failure_rate,
            FaultSite::TransientGet => self.script.get_failure_rate,
            FaultSite::InvocationDrop => self.script.invocation_drop_rate,
            FaultSite::KillAfterUpload => {
                self.uploads += 1;
                return self.script.kill_after_uploads == Some(self.uploads);
            }
            FaultSite::PostTransactKill | FaultSite::OutageOpen | FaultSite::OutageClose => 0.0,
        };
        rate > 0.0 && self.rng.gen_bool(rate)
    }
}

struct FaultRun {
    completions: Vec<CompletionRecord>,
    stats: FaultStats,
    ledger: CostSnapshot,
}

/// Replicates one 256 MB object AWS->Azure under `script`, asserting the
/// replica converges bit-correct, and returns what the run produced for
/// determinism comparisons.
fn run_faulty(seed: u64, script: RateScript) -> FaultRun {
    let mut sim = World::paper_sim(seed);
    RateDecider::install(&mut sim, script);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src-bucket", dst, "dst-bucket"))
        .engine_config(EngineConfig::default())
        .profiler_config(small_profiler())
        .install(&mut sim);
    sim.user_put(src, "src-bucket", "big.bin", 256 << 20)
        .unwrap();
    sim.run_to_completion(10_000_000);

    let (src_content, src_etag) = sim
        .read_full_now(src, "src-bucket", "big.bin")
        .expect("source object");
    let (dst_content, dst_etag) = sim
        .read_full_now(dst, "dst-bucket", "big.bin")
        .expect("destination object — replication never completed");
    assert!(
        src_content.same_bytes(&dst_content),
        "replica content diverged under faults"
    );
    assert_eq!(src_etag, dst_etag, "etag mismatch under faults");
    assert!(
        dst_content.is_single_source(),
        "replica stitched from mixed versions"
    );
    let completions = service.metrics().completions.clone();
    // Idempotent part-set semantics: retries and rescues must not double-
    // count the task.
    assert_eq!(completions.len(), 1, "task completed more than once");
    assert_tables_quiesced(&sim.world, &[src, dst]);
    FaultRun {
        completions,
        stats: sim.world.fault_stats(),
        ledger: sim.world.ledger.snapshot(),
    }
}

#[test]
fn replication_completes_under_transient_put_and_get_faults() {
    let run = run_faulty(
        21,
        RateScript {
            put_failure_rate: 0.15,
            get_failure_rate: 0.1,
            ..RateScript::default()
        },
    );
    assert!(
        run.stats.injected_put_faults > 0,
        "plan injected no PUT faults: {:?}",
        run.stats
    );
    assert!(
        run.stats.injected_get_faults > 0,
        "plan injected no GET faults: {:?}",
        run.stats
    );
    // Distributed path was actually exercised.
    assert!(run.completions[0].n_funcs >= 2);
}

#[test]
fn replication_survives_lease_holder_death() {
    let run = run_faulty(
        22,
        RateScript {
            kill_after_uploads: Some(3),
            ..RateScript::default()
        },
    );
    assert_eq!(
        run.stats.lease_holder_kills, 1,
        "exactly one replicator should have been crashed: {:?}",
        run.stats
    );
    // The dead holder's parts were rescued (stale-lease re-claim or watchdog
    // rescue replicator), so the task still finished with parallelism.
    assert!(run.completions[0].n_funcs >= 2);
}

#[test]
fn dropped_invocations_are_counted_and_never_run() {
    let mut sim = World::paper_sim(23);
    let region = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    RateDecider::install(
        &mut sim,
        RateScript {
            invocation_drop_rate: 1.0,
            ..RateScript::default()
        },
    );
    let spec = sim.default_fn_spec(region);
    sim.invoke(
        region,
        spec,
        Rc::new(|_: &mut CloudSim, _| panic!("dropped invocation must never run")),
        RetryPolicy::default(),
    );
    sim.run_to_completion(10_000);
    assert_eq!(sim.world.fault_stats().dropped_invocations, 1);
}

#[test]
fn fault_injection_is_deterministic() {
    let script = RateScript {
        put_failure_rate: 0.15,
        get_failure_rate: 0.1,
        kill_after_uploads: Some(4),
        ..RateScript::default()
    };
    let a = run_faulty(24, script);
    let b = run_faulty(24, script);
    assert_eq!(a.stats, b.stats, "fault sequences diverged between runs");
    assert_eq!(
        a.completions, b.completions,
        "completion records diverged between runs"
    );
    assert_eq!(a.ledger, b.ledger, "cost ledgers diverged between runs");
}

// ---------------------------------------------------------------------------
// Determinism regression guards: the same seeded replication through the
// plain cloudsim adapter twice must yield identical completion records,
// cost-ledger totals and kernel event counts, and so must a run under a
// decider that never fires, whose presence alone must not show.
// ---------------------------------------------------------------------------

/// A decider that declines every fault.
struct NeverFault;

impl FaultDecider for NeverFault {
    fn decide(&mut self, _: FaultSite) -> bool {
        false
    }
}

#[derive(Debug, PartialEq)]
struct PlainRun {
    completions: Vec<CompletionRecord>,
    ledger: CostSnapshot,
    stats: RunStats,
}

fn run_plain(seed: u64, decider: Option<Box<dyn FaultDecider>>) -> PlainRun {
    let mut sim = World::paper_sim(seed);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim
        .world
        .regions
        .lookup(Cloud::Gcp, "europe-west6")
        .unwrap();
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src-bucket", dst, "dst-bucket"))
        .engine_config(EngineConfig::default())
        .profiler_config(small_profiler())
        .install(&mut sim);
    if let Some(decider) = decider {
        sim.world.set_fault_decider(decider, None);
    }
    for (i, size) in [4 << 20, 96 << 20, 512 << 10].into_iter().enumerate() {
        sim.user_put(src, "src-bucket", &format!("obj-{i}"), size)
            .unwrap();
    }
    sim.run_to_completion(10_000_000);
    let completions = service.metrics().completions.clone();
    assert_eq!(completions.len(), 3);
    assert_tables_quiesced(&sim.world, &[src, dst]);
    PlainRun {
        completions,
        ledger: sim.world.ledger.snapshot(),
        stats: sim.stats(),
    }
}

#[test]
fn same_seed_replications_are_bit_identical() {
    assert_eq!(
        run_plain(31, None),
        run_plain(31, None),
        "identically-seeded runs diverged"
    );
}

#[test]
fn a_decider_that_never_fires_changes_nothing() {
    let plain = run_plain(31, None);
    let silent = run_plain(31, Some(Box::new(NeverFault)));
    assert_eq!(plain, silent, "a silent decider perturbed the run");
}
