//! Multi-tenant fairness and cost attribution: a quiet tenant and a noisy
//! neighbor share one simulated world, each with its own control-plane
//! grant (SLO, FaaS-concurrency quota).
//!
//! The experiment runs the quiet tenant twice — solo, and sharing the
//! world with a bursting neighbor — and demonstrates the tenancy
//! isolation contract: the noisy tenant's burst is throttled by its own
//! quota while the quiet tenant's SLO attainment and attributed cost match
//! its solo run to the cent. Per-tenant RNG streams, warm pools, and
//! quotas remove every artificial coupling; the only residual interaction
//! is genuine shared inter-region bandwidth (active-leg contention), which
//! perturbs the quiet tenant's delays by milliseconds and its cost by
//! nanodollars — orders of magnitude below a cent.

use std::collections::BTreeMap;
use std::rc::Rc;

use areplica_core::{AReplicaBuilder, ProfilerConfig, ReplicationRule, TenantCtx};
use cloudsim::world::{schedule_scoped, user_put, CloudSim};
use cloudsim::Cloud;
use simkernel::SimDuration;

use crate::harness::{mean, percentile, scaled, Table};
use crate::runners::fresh_sim;

/// One tenant's load shape: `(id, quota, slo_secs, puts)` where each put is
/// `(offset, size_bytes)` against the tenant's own bucket pair.
struct Load {
    id: &'static str,
    quota: u32,
    slo_secs: u64,
    puts: Vec<(SimDuration, u64)>,
}

/// The quiet tenant: a steady trickle well inside its quota.
fn quiet_load() -> Load {
    Load {
        id: "quiet",
        quota: 8,
        slo_secs: 30,
        puts: (0..scaled(6, 3) as u64)
            .map(|i| (SimDuration::from_secs(5 + i * 10), 8 << 20))
            .collect(),
    }
}

/// The noisy neighbor: a tight burst far above its quota.
fn noisy_load() -> Load {
    Load {
        id: "noisy",
        quota: 4,
        slo_secs: 30,
        puts: (0..scaled(20, 8) as u64)
            .map(|i| (SimDuration::from_millis(i * 50), 16 << 20))
            .collect(),
    }
}

fn bench_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 800,
        ..ProfilerConfig::default()
    }
}

/// What one tenant observed over a run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    delays: Vec<f64>,
    slo_attained: usize,
    cost_nanos: i64,
    faas_peak: u32,
    faas_throttled: u64,
}

/// Runs one world with the given tenant loads installed together and
/// returns each tenant's outcome, keyed by id.
fn run_world(loads: &[Load]) -> BTreeMap<&'static str, Outcome> {
    let mut sim: CloudSim = fresh_sim(0x6000);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();

    let mut services = Vec::new();
    for l in loads {
        let tenant = TenantCtx::named(l.id)
            .with_faas_concurrency(l.quota)
            .with_slo(SimDuration::from_secs(l.slo_secs));
        let service = AReplicaBuilder::new()
            .rule(
                ReplicationRule::new(src, format!("src-{}", l.id), dst, format!("dst-{}", l.id))
                    .with_batching(false),
            )
            .profiler_config(bench_profiler())
            .tenant(tenant)
            .install(&mut sim);
        services.push((l, service));
    }
    // Schedule each tenant's PUTs under its scope. `schedule_scoped`
    // captures the ambient scope at schedule time and re-establishes it
    // when the event fires, so the PUT and every continuation it spawns
    // stay attributed to the tenant.
    for l in loads {
        sim.world.set_tenant_scope(Some(Rc::from(l.id)));
        let bucket: Rc<str> = Rc::from(format!("src-{}", l.id));
        for (i, &(offset, size)) in l.puts.iter().enumerate() {
            let bucket = bucket.clone();
            schedule_scoped(&mut sim, offset, move |sim| {
                user_put(sim, src, &bucket, &format!("obj-{i}"), size).expect("tenant PUT");
            });
        }
        sim.world.set_tenant_scope(None);
    }
    sim.run_to_completion(u64::MAX);

    let mut out = BTreeMap::new();
    for (l, service) in &services {
        let m = service.metrics();
        assert_eq!(
            m.completions.len(),
            l.puts.len(),
            "tenant {} must replicate its whole workload",
            l.id
        );
        let delays: Vec<f64> = m
            .completions
            .iter()
            .map(|r| r.delay().as_secs_f64())
            .collect();
        let slo = l.slo_secs as f64;
        out.insert(
            l.id,
            Outcome {
                slo_attained: delays.iter().filter(|d| **d <= slo).count(),
                delays,
                cost_nanos: sim
                    .world
                    .tenant_ledger(l.id)
                    .map(|ledger| ledger.grand_total().as_nanos())
                    .unwrap_or(0),
                faas_peak: sim.world.faas.tenant_peak(l.id),
                faas_throttled: sim.world.faas.tenant_throttled(l.id),
            },
        );
    }
    out
}

fn row(table: &mut Table, label: &str, load: &Load, o: &Outcome) {
    table.row([
        label.to_string(),
        load.puts.len().to_string(),
        load.quota.to_string(),
        format!("{:.2}", mean(&o.delays)),
        format!("{:.2}", percentile(&o.delays, 95.0)),
        format!(
            "{}/{} ({:.0}%)",
            o.slo_attained,
            o.delays.len(),
            100.0 * o.slo_attained as f64 / o.delays.len() as f64
        ),
        o.faas_peak.to_string(),
        o.faas_throttled.to_string(),
        format!("{:.2}", o.cost_nanos as f64 / 1e9 * 100.0),
    ]);
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let solo = run_world(&[quiet_load()]);
    let shared = run_world(&[quiet_load(), noisy_load()]);

    let quiet_solo = &solo["quiet"];
    let quiet_shared = &shared["quiet"];
    let noisy = &shared["noisy"];

    // The tenancy contract, enforced rather than just reported: the noisy
    // burst is contained by its own quota, and the quiet tenant cannot
    // tell the neighbor exists.
    assert!(
        noisy.faas_peak <= noisy_load().quota,
        "noisy peak {} exceeded its quota",
        noisy.faas_peak
    );
    assert!(
        noisy.faas_throttled > 0,
        "the burst must actually hit the quota"
    );
    assert_eq!(
        quiet_solo.slo_attained, quiet_shared.slo_attained,
        "quiet tenant's SLO attainment must match its solo run"
    );
    let solo_cents = (quiet_solo.cost_nanos as f64 / 1e9 * 100.0).round() as i64;
    let shared_cents = (quiet_shared.cost_nanos as f64 / 1e9 * 100.0).round() as i64;
    assert_eq!(
        solo_cents, shared_cents,
        "quiet tenant's cost must match its solo run to the cent \
         (solo {} nanodollars, shared {} nanodollars)",
        quiet_solo.cost_nanos, quiet_shared.cost_nanos
    );

    let mut table = Table::new([
        "tenant",
        "objects",
        "quota",
        "mean delay (s)",
        "p95 (s)",
        "SLO attained",
        "FaaS peak",
        "throttled",
        "cost (¢)",
    ]);
    row(&mut table, "quiet (solo)", &quiet_load(), quiet_solo);
    row(&mut table, "quiet (shared)", &quiet_load(), quiet_shared);
    row(&mut table, "noisy (shared)", &noisy_load(), noisy);

    let cost_delta = (quiet_shared.cost_nanos - quiet_solo.cost_nanos).abs();
    format!(
        "Multi-tenant fairness — quiet tenant vs noisy neighbor on one world\n\n{}\n\
         quota conformance: noisy peak {} <= quota {}; {} starts deferred by the quota.\n\
         isolation: the quiet tenant's SLO attainment is unchanged by the neighbor's\n\
         burst, and its attributed cost matches its solo run to the cent\n\
         ({:.2} cents == {:.2} cents; residual shared-bandwidth contention accounts\n\
         for a {} nanodollar difference).\n",
        table.render(),
        noisy.faas_peak,
        noisy_load().quota,
        noisy.faas_throttled,
        quiet_solo.cost_nanos as f64 / 1e9 * 100.0,
        quiet_shared.cost_nanos as f64 / 1e9 * 100.0,
        cost_delta,
    )
}
