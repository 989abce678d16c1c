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

use cloudsim::{Cloud, RegionId};
use simkernel::SimDuration;

use crate::harness::{mean, percentile, scaled, Table};
use crate::runners::{cents, fresh_sim, install_tenants, steady_puts, tenant_profiler, TenantLoad};

/// The quiet tenant: a steady trickle well inside its quota.
fn quiet_load(dst: RegionId) -> TenantLoad {
    TenantLoad::new("quiet", 8, dst, steady_puts(5, 10, scaled(6, 3), 8 << 20))
}

/// The noisy neighbor: a tight burst far above its quota.
fn noisy_load(dst: RegionId) -> TenantLoad {
    let puts = (0..scaled(20, 8) as u64)
        .map(|i| (SimDuration::from_millis(i * 50), 16 << 20))
        .collect();
    TenantLoad::new("noisy", 4, dst, puts)
}

/// What one tenant observed over a run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    objects: usize,
    quota: u32,
    delays: Vec<f64>,
    slo_attainment: String,
    cost_nanos: i64,
    faas_peak: u32,
    faas_throttled: u64,
}

/// Runs one world with the quiet tenant installed, and with the noisy
/// neighbor beside it if `with_neighbor`, and returns each tenant's
/// outcome, keyed by id.
fn run_world(with_neighbor: bool) -> BTreeMap<String, Outcome> {
    let mut sim = fresh_sim(0x6000);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let mut loads = vec![quiet_load(dst)];
    if with_neighbor {
        loads.push(noisy_load(dst));
    }
    let services = install_tenants(&mut sim, src, &loads, &tenant_profiler(800));
    sim.run_to_completion(u64::MAX);
    loads
        .iter()
        .zip(&services)
        .map(|(l, service)| {
            let id = l.id();
            let outcome = Outcome {
                objects: l.puts.len(),
                quota: l.quota(),
                slo_attainment: l.slo_attainment(service),
                delays: service
                    .metrics()
                    .completions
                    .iter()
                    .map(|r| r.delay().as_secs_f64())
                    .collect(),
                cost_nanos: l.cost_nanos(&sim),
                faas_peak: sim.world.faas.tenant_peak(id),
                faas_throttled: sim.world.faas.tenant_throttled(id),
            };
            (id.to_string(), outcome)
        })
        .collect()
}

fn row(table: &mut Table, label: &str, o: &Outcome) {
    table.row([
        label.to_string(),
        o.objects.to_string(),
        o.quota.to_string(),
        format!("{:.2}", mean(&o.delays)),
        format!("{:.2}", percentile(&o.delays, 95.0)),
        o.slo_attainment.clone(),
        o.faas_peak.to_string(),
        o.faas_throttled.to_string(),
        format!("{:.2}", cents(o.cost_nanos)),
    ]);
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let solo = run_world(false);
    let shared = run_world(true);

    let quiet_solo = &solo["quiet"];
    let quiet_shared = &shared["quiet"];
    let noisy = &shared["noisy"];

    // The tenancy contract, enforced rather than just reported: the noisy
    // burst is contained by its own quota, and the quiet tenant cannot
    // tell the neighbor exists.
    assert!(
        noisy.faas_peak <= noisy.quota,
        "noisy peak {} exceeded its quota",
        noisy.faas_peak
    );
    assert!(
        noisy.faas_throttled > 0,
        "the burst must actually hit the quota"
    );
    assert_eq!(
        quiet_solo.slo_attainment, quiet_shared.slo_attainment,
        "quiet tenant's SLO attainment must match its solo run"
    );
    let solo_cents = cents(quiet_solo.cost_nanos).round() as i64;
    let shared_cents = cents(quiet_shared.cost_nanos).round() as i64;
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
    row(&mut table, "quiet (solo)", quiet_solo);
    row(&mut table, "quiet (shared)", quiet_shared);
    row(&mut table, "noisy (shared)", noisy);

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
        noisy.quota,
        noisy.faas_throttled,
        cents(quiet_solo.cost_nanos),
        cents(quiet_shared.cost_nanos),
        cost_delta,
    )
}
