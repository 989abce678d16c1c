//! Replication metrics collected by the service.
//!
//! The central measurement is the paper's *replication delay*: "the time from
//! completion of a PUT request \[to\] a successful retrieval of the version or
//! its subsequent versions in the destination region" (§8 Metrics).

use cloudapi::objstore::ETag;
use simkernel::{SimDuration, SimTime};

use crate::model::ExecSide;

/// One completed replication.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// Index of the rule this replication belongs to.
    pub rule: usize,
    /// Object key.
    pub key: String,
    /// Replicated version.
    pub etag: ETag,
    /// Object size in bytes.
    pub size: u64,
    /// Source PUT completion time.
    pub event_time: SimTime,
    /// When the version (or a newer one) became retrievable at the
    /// destination.
    pub completed_at: SimTime,
    /// Replicator functions used (0 = orchestrator-local).
    pub n_funcs: u32,
    /// Where the functions ran.
    pub side: ExecSide,
    /// Whether the content travelled as a changelog instead of bytes.
    pub via_changelog: bool,
}

impl CompletionRecord {
    /// The replication delay.
    pub fn delay(&self) -> SimDuration {
        self.completed_at.saturating_since(self.event_time)
    }
}

/// Aggregated metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Full per-completion records; each carries its replication delay
    /// ([`CompletionRecord::delay`]).
    pub completions: Vec<CompletionRecord>,
    /// DELETE propagations applied.
    pub deletes_propagated: u64,
    /// Tasks aborted on ETag mismatch and re-triggered.
    pub aborted_retries: u64,
    /// Replications satisfied by changelog propagation.
    pub changelog_applied: u64,
    /// Updates absorbed by SLO-bounded batching (superseded versions never
    /// individually replicated).
    pub batched_skips: u64,
    /// Replications that found the SLO already violated at notification time.
    pub slo_previolated: u64,
    /// Writes diverted to the durable catch-up log because the
    /// destination's circuit breaker was open. Always 0 without a health
    /// handle.
    pub diverted: u64,
    /// Completions that replayed a diverted version after failback.
    pub failbacks: u64,
    /// Tasks the deadline watchdog reported as missed to the breaker
    /// (still concluded later; see [`Metrics::completions`]).
    pub deadline_missed: u64,
    /// Degraded reads served by the fallback location after the preferred
    /// replica failed.
    pub read_fallbacks: u64,
}

impl Metrics {
    /// Records a completed replication.
    pub fn record_completion(&mut self, rec: CompletionRecord) {
        if rec.via_changelog {
            self.changelog_applied += 1;
        }
        self.completions.push(rec);
    }

    /// Fraction of completions within `slo` (SLO attainment, Figure 22).
    pub fn slo_attainment(&self, slo: SimDuration) -> f64 {
        if self.completions.is_empty() {
            return 1.0;
        }
        let ok = self.completions.iter().filter(|r| r.delay() <= slo).count();
        ok as f64 / self.completions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event_ns: u64, done_ns: u64) -> CompletionRecord {
        CompletionRecord {
            rule: 0,
            key: "k".into(),
            etag: ETag(1),
            size: 1,
            event_time: SimTime::from_nanos(event_ns),
            completed_at: SimTime::from_nanos(done_ns),
            n_funcs: 1,
            side: ExecSide::Source,
            via_changelog: false,
        }
    }

    #[test]
    fn delay_measurement() {
        let r = rec(1_000_000_000, 3_500_000_000);
        assert_eq!(r.delay(), SimDuration::from_millis(2500));
    }

    #[test]
    fn metrics_aggregate() {
        let mut m = Metrics::default();
        m.record_completion(rec(0, 1_000_000_000));
        let mut changelog = rec(0, 2_000_000_000);
        changelog.via_changelog = true;
        m.record_completion(changelog);
        m.record_completion(rec(0, 3_000_000_000));
        assert_eq!(m.completions.len(), 3);
        assert_eq!(m.changelog_applied, 1);
    }

    #[test]
    fn slo_attainment_fraction() {
        let mut m = Metrics::default();
        assert_eq!(m.slo_attainment(SimDuration::from_secs(1)), 1.0);
        m.record_completion(rec(0, 1_000_000_000));
        m.record_completion(rec(0, 5_000_000_000));
        assert!((m.slo_attainment(SimDuration::from_secs(2)) - 0.5).abs() < 1e-12);
        assert_eq!(m.slo_attainment(SimDuration::from_secs(10)), 1.0);
    }
}
