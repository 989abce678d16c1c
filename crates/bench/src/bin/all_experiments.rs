//! Runs every experiment on all cores, writing each report under `results/`
//! in list order once all have finished.
//!
//! Honours `AREPLICA_SCALE` (set e.g. 0.2 for a quick pass) and
//! `AREPLICA_ONLY=<substring>` to run the experiments whose names contain
//! it. A substring that matches nothing is an error.
use bench::experiments::ALL;

fn main() {
    let only = std::env::var("AREPLICA_ONLY").unwrap_or_default();
    let chosen: Vec<_> = ALL
        .iter()
        .filter(|(name, _)| name.contains(&only))
        .collect();
    #[expect(
        clippy::print_stderr,
        reason = "designated sink: operator-facing usage error, never in results"
    )]
    if chosen.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "AREPLICA_ONLY={only:?} matches no experiment; valid names:\n  {}",
            names.join("\n  ")
        );
        std::process::exit(2);
    }
    #[expect(
        clippy::print_stderr,
        reason = "designated sink: operator-facing progress banner and wall-clock progress line, never in results"
    )]
    let reports = simkernel::par_map(&chosen, |(name, run)| {
        eprintln!("===== running {name} =====");
        let timer = bench::WallTimer::start();
        let report = run();
        eprintln!("[{name} took {:.1} s]", timer.elapsed_secs());
        report
    });
    for ((name, _), report) in chosen.iter().zip(&reports) {
        bench::write_report(name, report);
    }
}
