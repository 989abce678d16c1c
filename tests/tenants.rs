//! Multi-tenant end-to-end tests: data-plane services, each built with its
//! tenant's `TenantCtx`, sharing one simulated world.
//!
//! The central invariant: tenancy is *isolating*. A tenant's observable
//! outcome (replication delays, per-tenant cost ledger) is a function of
//! its own workload and policies — not of which other tenants exist, in
//! what order they were registered, or (absent quota pressure) what they
//! are doing.

use std::rc::Rc;

use areplica::core::Backend;
use areplica::prelude::*;
use areplica::sim::world::user_put;

fn quick_profiler() -> ProfilerConfig {
    ProfilerConfig {
        warm_samples: 4,
        cold_samples: 3,
        transfer_samples: 4,
        chunks_per_invocation: 2,
        notif_samples: 4,
        mc_trials: 600,
    }
}

/// One full run: both tenants' services installed in `order`, then one
/// fixed workload (aqua's put always first). Returns each tenant's
/// replication delays and total cost in nanodollars.
fn run_with_install_order(order: [&'static str; 2]) -> Vec<(String, Vec<f64>, i64)> {
    let mut sim = World::paper_sim(2026);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let mut services = Vec::new();
    for id in order {
        let tenant = TenantCtx::named(id).with_faas_concurrency(8);
        let service = AReplicaBuilder::new()
            .rule(
                ReplicationRule::new(src, format!("src-{id}"), dst, format!("dst-{id}"))
                    .with_batching(false),
            )
            .profiler_config(quick_profiler())
            .tenant(tenant)
            .install(&mut sim);
        services.push((id, service));
    }
    // Fixed workload order regardless of installation order.
    for id in ["aqua", "zeph"] {
        sim.set_tenant_scope(Some(Rc::from(id)));
        user_put(&mut sim, src, &format!("src-{id}"), "obj", 4 << 20).unwrap();
        sim.set_tenant_scope(None);
    }
    sim.run_to_completion(u64::MAX);

    let mut out: Vec<(String, Vec<f64>, i64)> = Vec::new();
    for (id, service) in &services {
        let delays: Vec<f64> = service
            .metrics()
            .completions
            .iter()
            .map(|r| r.delay().as_secs_f64())
            .collect();
        let cost = sim
            .world
            .tenant_ledger(id)
            .map(|l| l.grand_total().as_nanos())
            .unwrap_or(0);
        out.push((id.to_string(), delays, cost));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn registration_order_does_not_affect_either_tenant() {
    let fwd = run_with_install_order(["aqua", "zeph"]);
    let rev = run_with_install_order(["zeph", "aqua"]);
    assert_eq!(
        fwd, rev,
        "tenant outcomes must be registration-order independent"
    );
    // Sanity: both tenants actually replicated and were billed.
    for (id, delays, cost) in &fwd {
        assert_eq!(delays.len(), 1, "tenant {id} should have one completion");
        assert!(*cost > 0, "tenant {id} should have a positive cost");
    }
}

#[test]
fn faas_quota_caps_tenant_concurrency() {
    let mut sim = World::paper_sim(7);
    let src = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
    let dst = sim.world.regions.lookup(Cloud::Azure, "eastus").unwrap();
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src, "src-capped", dst, "dst-capped").with_batching(false))
        .profiler_config(quick_profiler())
        .tenant(TenantCtx::named("capped").with_faas_concurrency(2))
        .install(&mut sim);
    sim.set_tenant_scope(Some(Rc::from("capped")));
    for k in 0..6 {
        user_put(&mut sim, src, "src-capped", &format!("obj-{k}"), 8 << 20).unwrap();
    }
    sim.set_tenant_scope(None);
    sim.run_to_completion(u64::MAX);
    assert_eq!(service.metrics().completions.len(), 6);
    let peak = sim.world.faas.tenant_peak("capped");
    assert!(
        (1..=2).contains(&peak),
        "peak {peak} must respect the quota of 2"
    );
}
