//! Figure 6: per-function download/upload bandwidth vs resource
//! configuration, per cloud, to local and remote peers. Shows the sweet spot
//! beyond which a costlier configuration buys no bandwidth.

use cloudsim::net::{base_rate_mbps, Direction, ExecProfile};
use cloudsim::{Cloud, FnConfig};

use crate::harness::Table;
use crate::runners::fresh_sim;

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let sim = fresh_sim(0x06);

    let mut out = String::new();
    out.push_str("Figure 6 — function download(↓)/upload(↑) bandwidth vs configuration (Mbps)\n\n");

    // (a) AWS us-east-1: memory sweep.
    let peers_aws = [
        (Cloud::Aws, "us-east-1", "local"),
        (Cloud::Aws, "ca-central-1", "AWS-ca-central-1"),
        (Cloud::Aws, "eu-west-1", "AWS-eu-west-1"),
        (Cloud::Azure, "eastus", "Azure-eastus"),
        (Cloud::Gcp, "us-east1", "GCP-us-east1"),
    ];
    out.push_str("(a) AWS us-east-1 (memory sweep)\n");
    out.push_str(&sweep_table(
        &sim,
        Cloud::Aws,
        "us-east-1",
        &[128, 256, 512, 1024, 1769, 2048, 4096, 8192],
        |mem| FnConfig {
            memory_mb: mem,
            vcpus: mem as f64 / 1769.0,
        },
        &peers_aws,
    ));

    // (b) Azure eastus: memory sweep (2048 is the minimum).
    let peers_azure = [
        (Cloud::Azure, "eastus", "local"),
        (Cloud::Aws, "us-east-1", "AWS-us-east-1"),
        (Cloud::Azure, "uksouth", "Azure-uksouth"),
        (Cloud::Gcp, "us-east1", "GCP-us-east1"),
    ];
    out.push_str("\n(b) Azure eastus (memory sweep)\n");
    out.push_str(&sweep_table(
        &sim,
        Cloud::Azure,
        "eastus",
        &[2048, 3072, 4096],
        |mem| FnConfig {
            memory_mb: mem,
            vcpus: 1.0,
        },
        &peers_azure,
    ));

    // (c) GCP us-east1: vCPU sweep.
    let peers_gcp = [
        (Cloud::Gcp, "us-east1", "local"),
        (Cloud::Aws, "us-east-1", "AWS-us-east-1"),
        (Cloud::Azure, "eastus", "Azure-eastus"),
        (Cloud::Gcp, "us-west1", "GCP-us-west1"),
    ];
    out.push_str("\n(c) GCP us-east1 (vCPU sweep)\n");
    out.push_str(&sweep_table(
        &sim,
        Cloud::Gcp,
        "us-east1",
        &[1, 2, 4, 8],
        |cpus| FnConfig {
            memory_mb: 1024,
            vcpus: cpus as f64,
        },
        &peers_gcp,
    ));

    out.push_str(
        "\npaper reference: a few hundred Mbps everywhere; geographically close regions\n\
         faster (local not always fastest); a sweet spot beyond which more expensive\n\
         configurations gain nothing.\n",
    );
    out
}

fn sweep_table(
    sim: &cloudsim::CloudSim,
    cloud: Cloud,
    region_name: &str,
    settings: &[u32],
    to_config: impl Fn(u32) -> FnConfig,
    peers: &[(Cloud, &str, &str)],
) -> String {
    let regions = &sim.world.regions;
    let params = &sim.world.params;
    let exec_region = regions.lookup(cloud, region_name).unwrap();
    let mut headers = vec!["config".to_string()];
    for (_, _, label) in peers {
        headers.push(format!("↓{label}"));
        headers.push(format!("↑{label}"));
    }
    let mut table = Table::new(headers);
    for &setting in settings {
        let config = to_config(setting);
        let (down, up) = params.cloud(cloud).nic_mbps(cloud, config);
        let profile = ExecProfile {
            region: exec_region,
            cloud,
            down_mbps: down,
            up_mbps: up,
            speed_factor: 1.0,
        };
        let mut row = vec![match cloud {
            Cloud::Gcp => format!("{setting} vCPU"),
            _ => format!("{setting} MB"),
        }];
        for (p_cloud, p_name, _) in peers {
            let peer = regions.lookup(*p_cloud, p_name).unwrap();
            let d = base_rate_mbps(params, regions, &profile, peer, Direction::Download);
            let u = base_rate_mbps(params, regions, &profile, peer, Direction::Upload);
            row.push(format!("{d:.0}"));
            row.push(format!("{u:.0}"));
        }
        table.row(row);
    }
    table.render()
}
