//! Report formatting, scaling, and output plumbing shared by experiments.

use std::fs;
use std::path::{Path, PathBuf};

use simtrace::{names, Tracer};

pub use stats::fit::{mean, std_dev};

/// The experiment scale factor from `AREPLICA_SCALE` (default 1.0). A set
/// value that is not a number in (0, 10] stops the binary with exit code 2.
pub fn scale() -> f64 {
    from_env("AREPLICA_SCALE", parse_scale)
}

/// Scales a count, never below `min`.
pub fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(min)
}

/// The master seed from `AREPLICA_SEED` (default 2026). A set value that
/// is not an unsigned 64-bit integer stops the binary with exit code 2.
pub fn seed() -> u64 {
    from_env("AREPLICA_SEED", parse_seed)
}

/// Parses an `AREPLICA_SCALE` value: unset or empty means 1.0; anything
/// else must be a number in (0, 10]. The error names the accepted range.
fn parse_scale(value: Option<&str>) -> Result<f64, &'static str> {
    match value {
        None | Some("") => Ok(1.0),
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 10.0)
            .ok_or("a number in (0, 10]"),
    }
}

/// Parses an `AREPLICA_SEED` value: unset or empty means 2026; anything
/// else must be an unsigned 64-bit integer.
fn parse_seed(value: Option<&str>) -> Result<u64, &'static str> {
    match value {
        None | Some("") => Ok(2026),
        Some(v) => v
            .parse()
            .map_err(|_| "an integer in 0..=18446744073709551615"),
    }
}

/// Reads `var` through `parse`. A set value that does not parse stops the
/// binary with exit code 2 and an error naming the variable, the value and
/// the accepted range — as `AREPLICA_ONLY` does for an unknown name — so a
/// typo such as `AREPLICA_SCALE=0,2` cannot silently run at full scale.
#[expect(
    clippy::print_stderr,
    reason = "designated sink: operator-facing usage error, never in results"
)]
fn from_env<T>(var: &str, parse: fn(Option<&str>) -> Result<T, &'static str>) -> T {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse(value.as_deref()).unwrap_or_else(|accepted| {
        eprintln!(
            "{var}={:?} is invalid: expected {accepted}",
            value.unwrap_or_default()
        );
        std::process::exit(2)
    })
}

/// Trace output directory from a `--trace-out[=DIR]` CLI flag (or the
/// `AREPLICA_TRACE_OUT` env var as a fallback). `None` means tracing stays
/// off. A bare `--trace-out` (or empty env var) uses the results directory.
pub fn trace_out_dir() -> Option<PathBuf> {
    out_dir("--trace-out", "AREPLICA_TRACE_OUT")
}

/// Dashboard output directory from a `--dash-out[=DIR]` CLI flag (or the
/// `AREPLICA_DASH_OUT` env var as a fallback). `None` means dashboard
/// artifacts are not written. A bare `--dash-out` (or empty env var) uses
/// the results directory.
pub fn dash_out_dir() -> Option<PathBuf> {
    out_dir("--dash-out", "AREPLICA_DASH_OUT")
}

/// An output directory from a `{flag}[=DIR]` CLI flag, or else the `env`
/// var; a bare flag or an empty var means the results directory.
fn out_dir(flag: &str, env: &str) -> Option<PathBuf> {
    let mut dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == flag {
            dir = Some(String::new());
        } else if let Some(d) = arg.strip_prefix(flag).and_then(|d| d.strip_prefix('=')) {
            dir = Some(d.to_string());
        }
    }
    let dir = dir.or_else(|| std::env::var(env).ok())?;
    Some(if dir.is_empty() {
        results_dir()
    } else {
        dir.into()
    })
}

/// The results directory from `AREPLICA_RESULTS_DIR` (default `results`).
fn results_dir() -> PathBuf {
    std::env::var("AREPLICA_RESULTS_DIR")
        .unwrap_or_else(|_| "results".to_string())
        .into()
}

/// Writes `content` to `dir/filename`, creating `dir` if needed. A
/// directory that cannot be created or a file that cannot be written stops
/// the binary with exit code 2 and an error naming the path — as
/// [`from_env`] does for a bad variable — so an experiment whose output
/// was not saved cannot exit 0.
#[expect(
    clippy::print_stderr,
    reason = "designated sink: operator-facing save diagnostics, never in results"
)]
fn save(dir: &Path, filename: &str, content: &str) {
    let path = dir.join(filename);
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, content)) {
        eprintln!("cannot save {}: {e}", path.display());
        std::process::exit(2)
    }
    eprintln!("[saved {}]", path.display());
}

/// Writes one named dashboard artifact (dashboard stream, alert log, or
/// flight-recorder dump) into `dir`. The content is a pure function of the
/// simulation seed — identically-seeded runs must produce byte-identical
/// files, which CI checks with `cmp`.
pub fn write_dash(dir: &Path, filename: &str, content: &str) {
    save(dir, filename, content);
}

/// The paper's per-phase delay taxonomy, derived purely from the trace:
/// `I` invocation API, `D` cold start, `P` scheduler postponement,
/// `S` transfer setup + wire legs, `C` multipart commit.
pub fn phase_breakdown(tracer: &Tracer) -> String {
    let total = |name| tracer.query().name(name).total_duration().as_secs_f64();
    let i = total(names::FAAS_INVOKE_API);
    let d = total(names::FAAS_COLD_START);
    let p = total(names::FAAS_POSTPONE);
    let s = total(names::TRANSFER_SETUP) + total(names::NET_LEG);
    let c = total(names::STORE_COMMIT);
    format!(
        "# phase totals (secs)\n\
         I.invoke_api {i:.6}\n\
         D.cold_start {d:.6}\n\
         P.postpone {p:.6}\n\
         S.transfer {s:.6}\n\
         C.commit {c:.6}\n"
    )
}

/// Exports a tracer's artifacts: `(chrome_trace_json, metrics_snapshot)`.
/// The snapshot appends the [`phase_breakdown`] to the registry render.
pub fn trace_artifacts(tracer: &Tracer) -> (String, String) {
    (
        tracer.export_chrome_json(),
        format!(
            "{}{}",
            tracer.render_metrics_snapshot(),
            phase_breakdown(tracer)
        ),
    )
}

/// Writes `<name>.trace.json` and `<name>.metrics.txt` into `dir`.
pub fn write_trace(dir: &Path, name: &str, artifacts: &(String, String)) {
    save(dir, &format!("{name}.trace.json"), &artifacts.0);
    save(dir, &format!("{name}.metrics.txt"), &artifacts.1);
}

/// Writes a report to stdout and `<results dir>/<name>.txt`.
#[expect(
    clippy::print_stdout,
    reason = "designated sink: stdout IS the report channel for the experiment binaries"
)]
pub fn write_report(name: &str, content: &str) {
    println!("{content}");
    save(&results_dir(), &format!("{name}.txt"), content);
}

/// A fixed-width text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    out.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Human-readable byte count.
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Exact percentile (linear interpolation) of an unsorted slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["region", "delay", "cost"]);
        t.row(["ca-central-1", "1.5", "0.3"]);
        t.row(["eu-west-1", "10.25", "218.9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("region"));
        assert!(lines[3].contains("218.9"));
        // Columns align: all rows same length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn scale_accepts_numbers_in_range_and_defaults_when_unset_or_empty() {
        assert_eq!(parse_scale(Some("0.2")), Ok(0.2));
        assert_eq!(parse_scale(Some("10")), Ok(10.0));
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("")), Ok(1.0));
    }

    #[test]
    fn scale_rejects_non_numbers_and_values_out_of_range() {
        for bad in ["0,2", "abc", "NaN", "0", "-1", "11"] {
            assert_eq!(parse_scale(Some(bad)), Err("a number in (0, 10]"), "{bad}");
        }
    }

    #[test]
    fn seed_accepts_u64_and_defaults_when_unset_or_empty() {
        assert_eq!(parse_seed(Some("7")), Ok(7));
        assert_eq!(parse_seed(Some("18446744073709551615")), Ok(u64::MAX));
        assert_eq!(parse_seed(None), Ok(2026));
        assert_eq!(parse_seed(Some("")), Ok(2026));
        for bad in ["seven", "-1", "2.5", "18446744073709551616"] {
            assert!(parse_seed(Some(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_arity() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn stats_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!(std_dev(&xs) > 1.0 && std_dev(&xs) < 1.4);
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(1 << 20), "1MB");
        assert_eq!(human_bytes(1 << 30), "1GB");
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2KB");
    }

    #[test]
    fn scaled_respects_min() {
        assert!(scaled(10, 2) >= 2);
    }
}
