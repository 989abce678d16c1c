//! The workspace's single sanctioned wall-clock site.
//!
//! Experiments are timed for *operator progress reporting only* — elapsed
//! wall time is printed to stderr or recorded in the `BENCH_<pr>.json` perf
//! trajectory (see the `perf_snapshot` bin) and never reaches a report or a
//! `results/*.txt` file, so it cannot perturb replay determinism. Every
//! other crate must use the `Clock` backend trait / simkernel virtual time;
//! `clippy.toml` bans `Instant` and `SystemTime` everywhere, and this
//! helper carries the one `#[expect]`ed exception.

/// Measures real elapsed time for progress logs.
#[derive(Debug)]
pub struct WallTimer {
    #[expect(
        clippy::disallowed_types,
        reason = "operator progress logging only; elapsed time goes to stderr and never into results"
    )]
    started: std::time::Instant,
}

impl WallTimer {
    /// Starts timing now.
    pub fn start() -> WallTimer {
        WallTimer {
            #[expect(
                clippy::disallowed_methods,
                clippy::disallowed_types,
                reason = "operator progress logging only; elapsed time goes to stderr and never into results"
            )]
            started: std::time::Instant::now(),
        }
    }

    /// Seconds since [`WallTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}
