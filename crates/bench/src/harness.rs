//! Report formatting, scaling, and output plumbing shared by experiments.

use std::fs;
use std::path::{Path, PathBuf};

use simtrace::{names, Tracer};

/// The experiment scale factor from `AREPLICA_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("AREPLICA_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 10.0)
        .unwrap_or(1.0)
}

/// Scales a count, never below `min`.
pub fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(min)
}

/// The master seed from `AREPLICA_SEED` (default 2026).
pub fn seed() -> u64 {
    std::env::var("AREPLICA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2026)
}

/// Trace output directory from a `--trace-out[=DIR]` CLI flag (or the
/// `AREPLICA_TRACE_OUT` env var as a fallback). `None` means tracing stays
/// off. A bare `--trace-out` (or empty env var) uses the results directory.
pub fn trace_out_dir() -> Option<PathBuf> {
    let mut dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--trace-out" {
            dir = Some(String::new());
        } else if let Some(d) = arg.strip_prefix("--trace-out=") {
            dir = Some(d.to_string());
        }
    }
    let dir = dir.or_else(|| std::env::var("AREPLICA_TRACE_OUT").ok())?;
    Some(if dir.is_empty() {
        std::env::var("AREPLICA_RESULTS_DIR")
            .unwrap_or_else(|_| "results".to_string())
            .into()
    } else {
        dir.into()
    })
}

/// Dashboard output directory from a `--dash-out[=DIR]` CLI flag (or the
/// `AREPLICA_DASH_OUT` env var as a fallback). `None` means dashboard
/// artifacts are not written. A bare `--dash-out` (or empty env var) uses
/// the results directory. Mirrors [`trace_out_dir`].
pub fn dash_out_dir() -> Option<PathBuf> {
    let mut dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--dash-out" {
            dir = Some(String::new());
        } else if let Some(d) = arg.strip_prefix("--dash-out=") {
            dir = Some(d.to_string());
        }
    }
    let dir = dir.or_else(|| std::env::var("AREPLICA_DASH_OUT").ok())?;
    Some(if dir.is_empty() {
        std::env::var("AREPLICA_RESULTS_DIR")
            .unwrap_or_else(|_| "results".to_string())
            .into()
    } else {
        dir.into()
    })
}

/// Writes one named dashboard artifact (dashboard stream, alert log, or
/// flight-recorder dump) into `dir`. The content is a pure function of the
/// simulation seed — identically-seeded runs must produce byte-identical
/// files, which CI checks with `cmp`.
pub fn write_dash(dir: &Path, filename: &str, content: &str) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(filename);
    if let Err(e) = fs::write(&path, content) {
        // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
        eprintln!("[saved {}]", path.display());
    }
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
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    for (suffix, content) in [("trace.json", &artifacts.0), ("metrics.txt", &artifacts.1)] {
        let path = dir.join(format!("{name}.{suffix}"));
        if let Err(e) = fs::write(&path, content) {
            // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// Writes a report to stdout and `results/<name>.txt`.
pub fn write_report(name: &str, content: &str) {
    // xlint::allow(no-adhoc-stderr, designated sink: stdout IS the report channel for the experiment binaries)
    println!("{content}");
    let dir: PathBuf = std::env::var("AREPLICA_RESULTS_DIR")
        .unwrap_or_else(|_| "results".to_string())
        .into();
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = fs::write(&path, content) {
            // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            // xlint::allow(no-adhoc-stderr, designated sink: operator-facing save diagnostics, never in results)
            eprintln!("[saved {}]", path.display());
        }
    }
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

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
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
