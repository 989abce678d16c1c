//! Tables 1–3: replication delay and cost from a source region to nine
//! destinations, at 1 MB / 128 MB / 1 GB, for AReplica vs Skyplane vs the
//! source cloud's proprietary service (S3 RTC on AWS, AZ Rep on Azure).
//!
//! The SLO is set to zero (None) so AReplica always picks the fastest plan,
//! exactly as §8.1 configures.

use std::cell::RefCell;
use std::rc::Rc;

use areplica_core::{AReplicaBuilder, ReplicationRule};
use baselines::{ManagedConfig, ManagedReplication, Skyplane, SkyplaneConfig};
use cloudsim::world;
use cloudsim::Cloud;
use pricing::CostSnapshot;
use simkernel::SimDuration;

use crate::harness::{human_bytes, mean, scaled, Table};
use crate::runners::{fresh_sim, measure_areplica_once, profile_pairs};

/// The destination list for a source, mirroring the paper's table columns.
pub fn destinations(src: (Cloud, &'static str)) -> Vec<(Cloud, &'static str)> {
    // Preference order reproduces the paper's column sets: e.g. from AWS
    // us-east-1 the AWS destinations are ca-central-1 / eu-west-1 /
    // ap-northeast-1, while from Azure/GCP they are us-east-1 / eu-west-1 /
    // ap-northeast-1.
    let aws: &[(Cloud, &str)] = &[
        (Cloud::Aws, "us-east-1"),
        (Cloud::Aws, "eu-west-1"),
        (Cloud::Aws, "ap-northeast-1"),
        (Cloud::Aws, "ca-central-1"),
    ];
    let azure: &[(Cloud, &str)] = &[
        (Cloud::Azure, "eastus"),
        (Cloud::Azure, "uksouth"),
        (Cloud::Azure, "southeastasia"),
        (Cloud::Azure, "westus2"),
    ];
    let gcp: &[(Cloud, &str)] = &[
        (Cloud::Gcp, "us-east1"),
        (Cloud::Gcp, "europe-west6"),
        (Cloud::Gcp, "asia-northeast1"),
        (Cloud::Gcp, "us-west1"),
    ];
    let mut out: Vec<(Cloud, &'static str)> = Vec::new();
    for group in [aws, azure, gcp] {
        let mut picked = 0;
        for &(c, n) in group {
            if (c, n) == src {
                continue;
            }
            // Three destinations per cloud, skipping the source itself and
            // preferring the paper's exact pick order.
            if picked < 3 {
                out.push((c, n));
                picked += 1;
            }
        }
    }
    out
}

struct Cell {
    delay_s: f64,
    cost_1e4: f64,
}

struct PairResults {
    dst_label: String,
    areplica: Vec<Cell>, // one per size
    skyplane: Vec<Cell>,
    managed: Option<Vec<Cell>>,
}

fn cost_1e4(snap: &CostSnapshot) -> f64 {
    snap.grand_total().as_1e4_dollars()
}

fn measure_pair(
    src: (Cloud, &'static str),
    dst: (Cloud, &'static str),
    sizes: &[u64],
    pair_idx: u64,
) -> PairResults {
    let mut sim = fresh_sim(0x1000 + pair_idx);
    let src_r = sim.world.regions.lookup(src.0, src.1).unwrap();
    let dst_r = sim.world.regions.lookup(dst.0, dst.1).unwrap();
    let dst_label = format!("{}-{}", dst.0, dst.1);

    // --- AReplica (fastest plan: no SLO). ---
    let model = profile_pairs(&sim, &[(src_r, dst_r)]);
    let service = AReplicaBuilder::new()
        .rule(ReplicationRule::new(src_r, "arep-src", dst_r, "arep-dst").with_batching(false))
        .model(model)
        .install(&mut sim);
    let trials = scaled(4, 2);
    let mut areplica = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let mut delays = Vec::new();
        let mut costs = Vec::new();
        for t in 0..trials {
            let key = format!("a-{si}-{t}");
            let (delay, cost) =
                measure_areplica_once(&mut sim, &service, src_r, "arep-src", &key, size);
            delays.push(delay);
            costs.push(cost_1e4(&cost));
        }
        areplica.push(Cell {
            delay_s: mean(&delays),
            cost_1e4: mean(&costs),
        });
    }

    // --- Skyplane (cold provisioning per job, per the open-source default). ---
    let sky = Skyplane::new(SkyplaneConfig::default());
    sim.world.objstore_mut(src_r).create_bucket("sky-src");
    sim.world.objstore_mut(dst_r).create_bucket("sky-dst");
    let sky_trials = scaled(2, 1);
    let mut skyplane = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let mut delays = Vec::new();
        let mut costs = Vec::new();
        for t in 0..sky_trials {
            let key = format!("s-{si}-{t}");
            world::user_put(&mut sim, src_r, "sky-src", &key, size).unwrap();
            let before = sim.world.ledger.snapshot();
            let done: Rc<RefCell<Option<f64>>> = Rc::default();
            let d2 = done.clone();
            sky.replicate(
                &mut sim,
                src_r,
                "sky-src",
                dst_r,
                "sky-dst",
                &key,
                Rc::new(move |_, r| {
                    *d2.borrow_mut() = Some((r.completed - r.submitted).as_secs_f64());
                }),
            );
            sim.run_while_pending(|_| done.borrow().is_some());
            // Let the gateway shutdown billing land.
            let settle = sim.now() + SimDuration::from_secs(10);
            sim.run_until(settle);
            delays.push(done.borrow().expect("skyplane job completed"));
            costs.push(cost_1e4(&sim.world.ledger.since(&before)));
        }
        skyplane.push(Cell {
            delay_s: mean(&delays),
            cost_1e4: mean(&costs),
        });
    }

    // --- Proprietary managed service, where applicable. ---
    let managed_cfg = match (src.0, dst.0) {
        (Cloud::Aws, Cloud::Aws) => Some(ManagedConfig::s3_rtc()),
        (Cloud::Azure, Cloud::Azure) => Some(ManagedConfig::az_rep()),
        _ => None,
    };
    let managed = managed_cfg.map(|cfg| {
        let delays: Rc<RefCell<Vec<f64>>> = Rc::default();
        let d2 = delays.clone();
        let svc = ManagedReplication::install(
            &mut sim,
            cfg,
            src_r,
            "man-src",
            dst_r,
            "man-dst",
            Rc::new(move |_, r| d2.borrow_mut().push(r.delay().as_secs_f64())),
        );
        let mut cells = Vec::new();
        for (si, &size) in sizes.iter().enumerate() {
            let mut costs = Vec::new();
            let delay_base = delays.borrow().len();
            for t in 0..trials {
                let key = format!("m-{si}-{t}");
                let before = sim.world.ledger.snapshot();
                world::user_put(&mut sim, src_r, "man-src", &key, size).unwrap();
                let want = delay_base + t + 1;
                sim.run_while_pending(|_| delays.borrow().len() >= want);
                costs.push(cost_1e4(&sim.world.ledger.since(&before)));
            }
            let slice = &delays.borrow()[delay_base..];
            cells.push(Cell {
                delay_s: mean(slice),
                cost_1e4: mean(&costs),
            });
        }
        let _ = svc;
        cells
    });

    PairResults {
        dst_label,
        areplica,
        skyplane,
        managed,
    }
}

/// Runs one table (source region) and returns the report.
pub fn run(table_no: u8, src: (Cloud, &'static str)) -> String {
    let sizes: Vec<u64> = vec![1 << 20, 128 << 20, 1 << 30];
    let dsts = destinations(src);
    let managed_name = match src.0 {
        Cloud::Aws => "S3 RTC",
        Cloud::Azure => "AZ Rep",
        Cloud::Gcp => "(none)",
    };

    let results: Vec<PairResults> = dsts
        .iter()
        .enumerate()
        .map(|(i, &dst)| measure_pair(src, dst, &sizes, (table_no as u64) << 8 | i as u64))
        .collect();

    let mut out = format!(
        "Table {table_no} — replication delay and cost from {}-{}\n\n",
        src.0, src.1
    );
    for (si, &size) in sizes.iter().enumerate() {
        out.push_str(&format!("=== {} objects ===\n", human_bytes(size)));
        let mut delay_table = Table::new(
            std::iter::once("delay (s)".to_string())
                .chain(results.iter().map(|r| r.dst_label.clone())),
        );
        let mut arow = vec!["AReplica".to_string()];
        let mut srow = vec!["Skyplane".to_string()];
        let mut mrow = vec![managed_name.to_string()];
        let mut drow = vec!["Δ vs best".to_string()];
        for r in &results {
            let a = r.areplica[si].delay_s;
            let s = r.skyplane[si].delay_s;
            let m = r.managed.as_ref().map(|m| m[si].delay_s);
            arow.push(format!("{a:.1}"));
            srow.push(format!("{s:.1}"));
            mrow.push(m.map_or("N/A".to_string(), |m| format!("{m:.1}")));
            let best_baseline = m.map_or(s, |m| m.min(s));
            drow.push(format!(
                "{:+.2}%",
                100.0 * (a - best_baseline) / best_baseline
            ));
        }
        delay_table.row(arow);
        delay_table.row(srow);
        delay_table.row(mrow);
        delay_table.row(drow);
        out.push_str(&delay_table.render());
        out.push('\n');

        let mut cost_table = Table::new(
            std::iter::once("cost (1e-4 $)".to_string())
                .chain(results.iter().map(|r| r.dst_label.clone())),
        );
        let mut arow = vec!["AReplica".to_string()];
        let mut srow = vec!["Skyplane".to_string()];
        let mut mrow = vec![managed_name.to_string()];
        let mut drow = vec!["Δ vs best".to_string()];
        for r in &results {
            let a = r.areplica[si].cost_1e4;
            let s = r.skyplane[si].cost_1e4;
            let m = r.managed.as_ref().map(|m| m[si].cost_1e4);
            arow.push(format!("{a:.1}"));
            srow.push(format!("{s:.1}"));
            mrow.push(m.map_or("N/A".to_string(), |m| format!("{m:.1}")));
            let best_baseline = m.map_or(s, |m| m.min(s));
            drow.push(format!(
                "{:+.2}%",
                100.0 * (a - best_baseline) / best_baseline
            ));
        }
        cost_table.row(arow);
        cost_table.row(srow);
        cost_table.row(mrow);
        cost_table.row(drow);
        out.push_str(&cost_table.render());
        out.push('\n');
    }
    out.push_str(
        "paper reference: AReplica cuts delay 61-99% vs the best baseline everywhere, with\n\
         cost savings up to three orders of magnitude on common (small) object sizes.\n",
    );
    out
}
