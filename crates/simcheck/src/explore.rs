//! Running one schedule end to end, and exhaustively enumerating tiny
//! horizons.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_control::breaker::{BreakerConfig, BreakerSet, BreakerState};
use areplica_core::backend::{Backend, Clock, ObjectStore as _};
use areplica_core::health::HealthHandle;
use areplica_core::{
    catchup, AReplicaBuilder, ProfilerConfig, ReplicationRule, RetryPolicy, TenantCtx,
};
use cloudsim::fault::{FaultSite, FaultStats};
use cloudsim::{Cloud, World};
use simkernel::SimDuration;

use crate::oracle::{self, Violation};
use crate::scenario::{Scenario, DST_BUCKET, KEY, SRC_BUCKET};
use crate::schedule::{DeciderHandle, Decision, Mode, PolicyHandle, ScheduleState, Taken};

/// Everything one schedule produced: what the oracles said, the decision
/// stream that was taken (the schedule's replayable identity), and the
/// fault/event counters for replay-identity checks.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Oracle violations; empty means the schedule passed.
    pub violations: Vec<Violation>,
    /// Every decision made, in consult order. Replaying
    /// `Mode::Scripted(decisions of taken)` reproduces this run exactly.
    pub taken: Vec<Taken>,
    /// Faults the world injected.
    pub fault_stats: FaultStats,
    /// Events the simulator executed.
    pub executed: u64,
    /// Per-tenant FaaS accounting after quiescence, in scenario order
    /// (multi-tenant scenarios only): (tenant id, peak concurrent
    /// instances, starts the quota deferred).
    pub tenant_faas: Vec<(String, u32, u64)>,
    /// Flight dump captured at the moment an oracle failed
    /// (`None` when every oracle passed). Deterministic: replaying the
    /// same schedule reproduces the dump byte for byte.
    pub flight_dump: Option<String>,
}

impl RunReport {
    /// Whether the schedule passed every oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The decision list replaying this run.
    pub fn decisions(&self) -> Vec<Decision> {
        self.taken.iter().map(|t| t.decision).collect()
    }
}

/// The profiler configuration every scenario runs with: the smallest
/// sample counts the planner accepts, so a schedule spends its decisions on
/// the replication protocol rather than on profiling traffic.
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

/// Runs `sc` under the schedule selected by `mode` and checks every oracle
/// against the quiesced world.
///
/// Determinism contract: the same `(scenario, mode)` pair always produces
/// the same [`RunReport`], byte for byte — the world seed fixes the
/// simulator's draws and the mode fixes every pop/fault decision.
pub fn run_schedule(sc: &Scenario, mode: Mode) -> RunReport {
    let mut sim = World::paper_sim(sc.sim_seed);
    let src = sim
        .world
        .regions
        .lookup(Cloud::Aws, "us-east-1")
        .expect("paper region set");
    let dst = sim
        .world
        .regions
        .lookup(Cloud::Azure, "eastus")
        .expect("paper region set");
    sim.world.trace.set_enabled(true);

    // Outage scenarios run under a tenant with a tight SLO and a circuit
    // breaker, so held-open windows trip the breaker and exercise the
    // divert/probe/failback protocol; the typed handle is kept for the
    // breaker-closed oracle.
    let breaker: Option<Rc<RefCell<BreakerSet>>> = sc.outage.then(|| {
        let mut set = BreakerSet::new(
            "victim",
            BreakerConfig {
                min_events: 1,
                cooldown: SimDuration::from_millis(500),
                probe_backoff: RetryPolicy::default(),
            },
        );
        set.add_destination(dst, "azure/eastus");
        Rc::new(RefCell::new(set))
    });

    // Classic scenarios run one anonymous service on the shared bucket
    // pair; multi-tenant scenarios run one service per tenant on per-tenant
    // buckets, with the control plane's FaaS quota applied at install.
    let mut services = Vec::new();
    if sc.tenants.is_empty() {
        let rule = ReplicationRule::new(src, SRC_BUCKET, dst, DST_BUCKET)
            .with_batching(false)
            .with_changelog(false);
        let mut builder = AReplicaBuilder::new()
            .rule(rule)
            .engine_config(sc.engine.clone())
            .profiler_config(small_profiler());
        if let Some(b) = &breaker {
            let handle: HealthHandle = b.clone();
            builder = builder.tenant(
                TenantCtx::named("victim")
                    .with_slo(SimDuration::from_secs(2))
                    .with_health(handle),
            );
        }
        services.push(builder.install(&mut sim));
    } else {
        for t in &sc.tenants {
            let mut tenant = TenantCtx::named(t.id);
            if let Some(limit) = t.faas_concurrency {
                tenant = tenant.with_faas_concurrency(limit);
            }
            let rule =
                ReplicationRule::new(src, format!("src-{}", t.id), dst, format!("dst-{}", t.id))
                    .with_batching(false)
                    .with_changelog(false);
            services.push(
                AReplicaBuilder::new()
                    .rule(rule)
                    .engine_config(sc.engine.clone())
                    .profiler_config(small_profiler())
                    .tenant(tenant)
                    .install(&mut sim),
            );
        }
    }

    // Install the hooks after service setup so decision 0 lands on protocol
    // traffic. Default mode leaves the simulator untouched — the byte-
    // identical baseline. Outage scenarios arm the destination region's
    // outage sites.
    let state = ScheduleState::shared(mode.clone());
    if !matches!(mode, Mode::Default) {
        sim.set_pop_policy(Box::new(PolicyHandle(state.clone())));
        sim.world.set_fault_decider(
            Box::new(DeciderHandle(state.clone())),
            sc.outage.then_some(dst),
        );
    }

    // The scenario's PUTs go through the backend's scoped `schedule_in`, not
    // the kernel's, so each fires under the scope it was scheduled in.
    if sc.tenants.is_empty() {
        for (offset, size) in sc.puts.clone() {
            Clock::schedule_in(&mut sim, offset, move |sim| {
                sim.user_put(src, SRC_BUCKET, KEY, size)
                    .expect("scenario PUT");
            });
        }
    } else {
        // Schedule each tenant's PUTs under its scope: the simulator
        // captures the ambient scope at schedule time, so the event (and
        // every continuation it spawns) is attributed to the tenant.
        for t in &sc.tenants {
            sim.set_tenant_scope(Some(Rc::from(t.id)));
            let bucket: Rc<str> = Rc::from(format!("src-{}", t.id));
            for (i, &(offset, size)) in t.puts.iter().enumerate() {
                let bucket = bucket.clone();
                Clock::schedule_in(&mut sim, offset, move |sim| {
                    sim.user_put(src, &bucket, &format!("obj-{i}"), size)
                        .expect("scenario PUT");
                });
            }
            sim.set_tenant_scope(None);
        }
    }
    let executed = sim.run_to_completion(sc.max_events);

    let mut violations = if sc.tenants.is_empty() {
        oracle::check(&sim, sc, src, dst, executed)
    } else {
        oracle::check_tenants(&sim, sc, src, dst, executed)
    };
    // Outage oracles (skipped on a NotDrained run — a mid-flight world
    // legitimately has queued catch-up entries and an open breaker).
    if let Some(b) = &breaker {
        if executed < sc.max_events {
            let rows = sim.world.db(src).table_len(catchup::CATCHUP_TABLE);
            if rows != 0 {
                violations.push(Violation::CatchupLeaked { rows });
            }
            if b.borrow().state(dst) != BreakerState::Closed {
                violations.push(Violation::BreakerNotClosed);
            }
        }
    }
    let tenant_faas = sc
        .tenants
        .iter()
        .map(|t| {
            let faas = &sim.world.faas;
            (
                t.id.to_string(),
                faas.tenant_peak(t.id),
                faas.tenant_throttled(t.id),
            )
        })
        .collect();
    // On oracle failure, capture every tenant's last trace events so the
    // shrunken repro ships with the trace tail that led up to it.
    let flight_dump = if violations.is_empty() {
        None
    } else {
        Some(sim.world.trace.flight_dump(None))
    };
    let taken = state.borrow().taken.clone();
    RunReport {
        violations,
        taken,
        fault_stats: sim.world.fault_stats(),
        executed,
        tenant_faas,
        flight_dump,
    }
}

/// One failing schedule found by exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The scripted prefix that failed.
    pub decisions: Vec<Decision>,
    /// What the oracles reported.
    pub violations: Vec<Violation>,
}

/// What an exhaustive enumeration covered.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveReport {
    /// Schedules executed.
    pub runs: u64,
    /// Failing schedules, in discovery order.
    pub failures: Vec<Failure>,
    /// Whether the run budget cut the enumeration short.
    pub truncated: bool,
}

/// Exhaustively enumerates schedules of `sc` over the first `max_depth`
/// decision points, up to `max_runs` schedules.
///
/// Breadth-first over scripted prefixes — all single-deviation schedules
/// run before any two-deviation schedule, so minimal failures surface
/// first. Each passing run's decision stream is expanded position by
/// position: every alternative pop index, and a fired-fault alternative at
/// sites the walk also explores (transient storage faults and
/// post-transaction kills; see [`crate::schedule`] for why invocation drops
/// and mid-upload kills are excluded). Failing prefixes are recorded and
/// not expanded further.
pub fn explore_exhaustive(sc: &Scenario, max_depth: usize, max_runs: u64) -> ExhaustiveReport {
    let mut report = ExhaustiveReport::default();
    let mut stack: std::collections::VecDeque<Vec<Decision>> =
        std::collections::VecDeque::from([Vec::new()]);
    while let Some(prefix) = stack.pop_front() {
        if report.runs >= max_runs {
            report.truncated = true;
            break;
        }
        report.runs += 1;
        let run = run_schedule(sc, Mode::Scripted(prefix.clone()));
        if !run.passed() {
            report.failures.push(Failure {
                decisions: prefix,
                violations: run.violations,
            });
            continue;
        }
        for (pos, t) in run.taken.iter().enumerate().skip(prefix.len()) {
            if pos >= max_depth {
                break;
            }
            let alternatives: Vec<Decision> = match t.decision {
                Decision::Pop(chosen) => (0..t.arity)
                    .filter(|i| *i != chosen)
                    .map(Decision::Pop)
                    .collect(),
                Decision::Fault(fired) => {
                    // Outage sites are safe to force too: opening is bounded
                    // by the world's window budget and a held-open window
                    // is forced shut after a bounded number of denials.
                    let safe = matches!(
                        t.site,
                        Some(
                            FaultSite::TransientGet
                                | FaultSite::TransientPut
                                | FaultSite::PostTransactKill
                                | FaultSite::OutageOpen
                                | FaultSite::OutageClose
                        )
                    );
                    if !fired && safe {
                        vec![Decision::Fault(true)]
                    } else {
                        Vec::new()
                    }
                }
            };
            for alt in alternatives {
                let mut branch: Vec<Decision> =
                    run.taken[..pos].iter().map(|t| t.decision).collect();
                branch.push(alt);
                stack.push_back(branch);
            }
        }
    }
    report
}
