//! Command line:
//!
//! ```text
//! replbench --workload <trace-burst|bulk-xcloud|hot-fanout> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero if
//! any check fails.

use std::path::Path;
use std::process::ExitCode;

use replbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2026),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.traced {
        let spans_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        replbench::traced(args.workload, args.seed, 1.0, &spans_dir)
    } else {
        replbench::untraced(args.workload, args.seed, args.seconds, 1.0)
    };
    print!("{}", report.text);
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("replbench: a correctness check failed; see the report above");
        ExitCode::FAILURE
    }
}
