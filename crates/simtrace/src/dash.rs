//! Deterministic per-tenant dashboards: a plain-text renderer for the live
//! SLO picture (attainment, burn rates, alert state, FaaS quota
//! utilization, cost burn), emitted at a sim-time cadence by
//! bench drivers via `--dash-out`.
//!
//! The renderer is a pure formatter: drivers assemble [`DashRow`]s from
//! window queries and world state between `run_until` steps, and `render`
//! turns them into fixed-width text with fixed float precision — so two
//! identically-seeded runs emit byte-identical dashboard streams, and a
//! dashboard diff is itself a regression signal. Nothing here reads clocks,
//! draws randomness, or schedules events.

use simkernel::SimTime;

/// One tenant's line in a dashboard frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DashRow {
    /// Tenant label (`"default"` for the default tenant).
    pub tenant: String,
    /// SLO attainment over the slow window, `None` when the window saw no
    /// completions (rendered as `-`).
    pub slo_attainment: Option<f64>,
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Whether a burn-rate alert is currently firing for the tenant.
    pub firing: bool,
    /// FaaS instances currently active for the tenant.
    pub faas_active: u32,
    /// The tenant's FaaS concurrency quota (`None` = unlimited, rendered
    /// as `-`).
    pub faas_limit: Option<u32>,
    /// Cumulative cost attributed to the tenant, in cents.
    pub cost_cents: f64,
}

/// One dashboard frame: every tenant's row at one sim instant.
#[derive(Debug, Clone, PartialEq)]
pub struct DashFrame {
    /// Frame instant (sim time).
    pub at: SimTime,
    /// Rows in the order the driver assembled them (drivers iterate
    /// sorted tenant sets, keeping frames deterministic).
    pub rows: Vec<DashRow>,
}

impl DashFrame {
    /// Renders the frame as fixed-width text. Field order, column widths,
    /// and float precision are frozen: dashboard streams are byte-stable
    /// artifacts, compared with `cmp` in CI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# dash t={:.3}s\n{:<10} {:>8} {:>10} {:>10} {:>7} {:>7} {:>11}\n",
            self.at.as_nanos() as f64 / 1e9,
            "tenant",
            "slo_att",
            "fast_burn",
            "slow_burn",
            "alert",
            "faas",
            "cost_cents",
        );
        for r in &self.rows {
            let att = match r.slo_attainment {
                Some(a) => format!("{:.1}%", a * 100.0),
                None => "-".to_string(),
            };
            let faas = match r.faas_limit {
                Some(l) => format!("{}/{}", r.faas_active, l),
                None => format!("{}/-", r.faas_active),
            };
            out.push_str(&format!(
                "{:<10} {:>8} {:>10.2} {:>10.2} {:>7} {:>7} {:>11.4}\n",
                r.tenant,
                att,
                r.fast_burn,
                r.slow_burn,
                if r.firing { "FIRING" } else { "ok" },
                faas,
                r.cost_cents,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> DashFrame {
        DashFrame {
            at: SimTime::from_nanos(900_000_000_000),
            rows: vec![
                DashRow {
                    tenant: "noisy".into(),
                    slo_attainment: Some(0.125),
                    fast_burn: 100.0,
                    slow_burn: 8.333,
                    firing: true,
                    faas_active: 4,
                    faas_limit: Some(4),
                    cost_cents: 12.34567,
                },
                DashRow {
                    tenant: "quiet".into(),
                    slo_attainment: None,
                    fast_burn: 0.0,
                    slow_burn: 0.0,
                    firing: false,
                    faas_active: 1,
                    faas_limit: None,
                    cost_cents: 3.1,
                },
            ],
        }
    }

    #[test]
    fn render_is_fixed_format_and_deterministic() {
        let f = frame();
        let text = f.render();
        assert_eq!(text, f.render());
        assert!(text.starts_with("# dash t=900.000s\n"));
        assert!(text.contains("FIRING"));
        assert!(text.contains("100.00"));
        assert!(text.contains("12.5%"));
        assert!(text.contains("4/4"));
        // No data renders as dashes, not zeros pretending to be data.
        let quiet = text.lines().last().unwrap();
        assert!(quiet.contains(" - ") || quiet.contains("-"), "{quiet}");
        assert!(quiet.contains("1/-"));
        assert!(quiet.contains("ok"));
    }
}
