//! `areplica-cli` — command-line interface to the AReplica reproduction,
//! mirroring the paper's LambdaReplicaCLI artifact against the simulated
//! multi-cloud world.
//!
//! ```text
//! areplica-cli regions
//! areplica-cli replicate --src aws:us-east-1 --dst azure:eastus --size 128MB [--slo 30] [--trials 5]
//! areplica-cli trace --src aws:us-east-1 --dst aws:us-east-2 --minutes 10 --rate 5 [--slo 10]
//! ```

use areplica::prelude::*;
use areplica::sim::world;
use areplica::traces::{self, ReplayConfig, SynthConfig};
use std::collections::HashMap;
use std::process::exit;
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        exit(2);
    };
    let rest = &args[1..];
    match command.as_str() {
        "regions" => {
            parse_opts(command, rest, &[], &[]);
            cmd_regions()
        }
        "replicate" => cmd_replicate(&parse_opts(
            command,
            rest,
            &["src", "dst", "size", "slo", "trials", "seed"],
            &["no-batching"],
        )),
        "trace" => cmd_trace(&parse_opts(
            command,
            rest,
            &["src", "dst", "minutes", "rate", "slo", "seed"],
            &[],
        )),
        "-h" | "--help" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            exit(2);
        }
    }
}

/// Prints `msg` and exits with code 2, the CLI's code for bad input.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2)
}

fn usage() {
    eprintln!(
        "areplica-cli — serverless cross-cloud object replication (simulated)\n\n\
         USAGE:\n  areplica-cli regions\n  \
         areplica-cli replicate --src <cloud:region> --dst <cloud:region> --size <N[KB|MB|GB]>\n    \
         [--slo <seconds>] [--trials <n>] [--seed <n>] [--no-batching]\n  \
         areplica-cli trace --src <cloud:region> --dst <cloud:region>\n    \
         [--minutes <n>] [--rate <ops/s>] [--slo <seconds>] [--seed <n>]\n\n\
         clouds: aws | azure | gcp (see `regions` for the region list)"
    );
}

/// Reads `command`'s options: `--<flag> <value>` for each flag in `values`
/// and a bare `--<flag>` for each in `switches`. Any other argument, or a
/// value flag without its value, stops the CLI with exit code 2.
fn parse_opts(
    command: &str,
    args: &[String],
    values: &[&str],
    switches: &[&str],
) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            fail(&format!("`{command}` takes no argument {arg}"));
        };
        if switches.contains(&flag) {
            opts.insert(flag.to_string(), String::new());
        } else if values.contains(&flag) {
            let Some(value) = args.next() else {
                fail(&format!("--{flag} needs a value"));
            };
            opts.insert(flag.to_string(), value.clone());
        } else {
            fail(&format!("`{command}` takes no option --{flag}"));
        }
    }
    opts
}

/// The value of `--<flag>`, or `None` when it is absent. A value that does
/// not parse as `T` stops the CLI with exit code 2.
fn opt<T: FromStr>(opts: &HashMap<String, String>, flag: &str) -> Option<T> {
    opts.get(flag).map(|value| {
        value
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad value for --{flag}: {value}")))
    })
}

fn parse_size(s: &str) -> u64 {
    let upper = s.to_uppercase();
    let (num, mult) = if let Some(n) = upper.strip_suffix("GB") {
        (n, 1u64 << 30)
    } else if let Some(n) = upper.strip_suffix("MB") {
        (n, 1 << 20)
    } else if let Some(n) = upper.strip_suffix("KB") {
        (n, 1 << 10)
    } else {
        (upper.as_str(), 1)
    };
    match num.trim().parse::<f64>() {
        Ok(value) if value.is_finite() && value >= 0.0 => (value * mult as f64) as u64,
        _ => fail(&format!("bad value for --size: {s}")),
    }
}

fn parse_region(sim: &CloudSim, spec: &str) -> RegionId {
    let Some((cloud, name)) = spec.split_once(':') else {
        fail(&format!("region must be <cloud>:<name>, got {spec}"));
    };
    let cloud = match cloud.to_lowercase().as_str() {
        "aws" => Cloud::Aws,
        "azure" => Cloud::Azure,
        "gcp" => Cloud::Gcp,
        other => fail(&format!("unknown cloud: {other}")),
    };
    sim.world.regions.lookup(cloud, name).unwrap_or_else(|| {
        fail(&format!(
            "unknown region {name} on {cloud}; run `areplica-cli regions`"
        ))
    })
}

fn cmd_regions() {
    let sim = World::paper_sim(1);
    println!("available regions:");
    for id in sim.world.regions.ids() {
        let meta = sim.world.regions.meta(id);
        println!(
            "  {}:{}  ({})",
            meta.cloud.to_string().to_lowercase(),
            meta.name,
            meta.geo
        );
    }
}

fn seed_of(opts: &HashMap<String, String>) -> u64 {
    opt(opts, "seed").unwrap_or(2026)
}

fn cmd_replicate(opts: &HashMap<String, String>) {
    let mut sim = World::paper_sim(seed_of(opts));
    let src = parse_region(
        &sim,
        opts.get("src")
            .map(String::as_str)
            .unwrap_or_else(|| fail("--src required")),
    );
    let dst = parse_region(
        &sim,
        opts.get("dst")
            .map(String::as_str)
            .unwrap_or_else(|| fail("--dst required")),
    );
    let size = parse_size(opts.get("size").map(String::as_str).unwrap_or("1MB"));
    let trials: usize = opt(opts, "trials").unwrap_or(3);
    let slo = opt(opts, "slo").map(SimDuration::from_secs);

    eprintln!(
        "profiling {} -> {} ...",
        sim.world.regions.label(src),
        sim.world.regions.label(dst)
    );
    let mut rule = ReplicationRule::new(src, "cli-src", dst, "cli-dst");
    rule.slo = slo;
    if opts.contains_key("no-batching") {
        rule.batching = false;
    }
    let service = AReplicaBuilder::new().rule(rule).install(&mut sim);

    println!(
        "{:<8} {:>12} {:>8} {:>6} {:>14}",
        "trial", "delay", "funcs", "side", "cost"
    );
    for t in 0..trials {
        let key = format!("cli-object-{t}");
        let before = sim.world.ledger.snapshot();
        let target = service.metrics().completions.len() + 1;
        world::user_put(&mut sim, src, "cli-src", &key, size).expect("bucket exists");
        while service.metrics().completions.len() < target && sim.step() {}
        let (delay, n_funcs, side) = {
            let m = service.metrics();
            let rec = m.completions.last().expect("completion");
            (rec.delay(), rec.n_funcs, rec.side)
        };
        let settle = sim.now() + SimDuration::from_secs(30);
        sim.run_until(settle);
        let cost = sim.world.ledger.since(&before).grand_total();
        println!(
            "{:<8} {:>12} {:>8} {:>6} {:>14}",
            t,
            format!("{delay}"),
            n_funcs,
            match side {
                ExecSide::Source => "src",
                ExecSide::Destination => "dst",
            },
            format!("{cost}"),
        );
    }
    println!("\ntotal spend: {}", sim.world.ledger.grand_total());
}

fn cmd_trace(opts: &HashMap<String, String>) {
    let mut sim = World::paper_sim(seed_of(opts));
    let src = parse_region(
        &sim,
        opts.get("src")
            .map(String::as_str)
            .unwrap_or("aws:us-east-1"),
    );
    let dst = parse_region(
        &sim,
        opts.get("dst")
            .map(String::as_str)
            .unwrap_or("aws:us-east-2"),
    );
    let minutes: u64 = opt(opts, "minutes").unwrap_or(10);
    let rate: f64 = opt(opts, "rate").unwrap_or(5.0);
    if !(rate.is_finite() && rate > 0.0) {
        fail(&format!("bad value for --rate: {rate}"));
    }
    let slo = opt(opts, "slo").map(SimDuration::from_secs);

    eprintln!("profiling + generating a {minutes}-minute trace at ~{rate} ops/s ...");
    let mut rule = ReplicationRule::new(src, "cli-src", dst, "cli-dst");
    rule.slo = slo;
    let service = AReplicaBuilder::new().rule(rule).install(&mut sim);
    let trace = traces::generate(
        &SynthConfig {
            duration: SimDuration::from_mins(minutes),
            mean_ops_per_sec: rate,
            ..SynthConfig::ibm_cos_like()
        },
        seed_of(opts) ^ 0xCE,
    );
    let stats = traces::schedule(&mut sim, &trace, src, "cli-src", &ReplayConfig::default());
    eprintln!(
        "replaying {} PUTs / {} DELETEs ...",
        stats.puts, stats.deletes
    );
    sim.run_to_completion(u64::MAX);

    let m = service.metrics();
    let mut delays: Vec<f64> = m
        .completions
        .iter()
        .map(|c| c.delay().as_secs_f64())
        .collect();
    delays.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if delays.is_empty() {
            return f64::NAN;
        }
        let idx = ((delays.len() as f64 * p) as usize).min(delays.len() - 1);
        delays[idx]
    };
    println!("replications: {}", m.completions.len());
    println!("deletes propagated: {}", m.deletes_propagated);
    println!("batched skips: {}", m.batched_skips);
    println!(
        "delay p50 {:.2}s | p99 {:.2}s | p99.99 {:.2}s | max {:.2}s",
        pct(0.50),
        pct(0.99),
        pct(0.9999),
        delays.last().copied().unwrap_or(f64::NAN)
    );
    println!("total spend: {}", sim.world.ledger.grand_total());
}
