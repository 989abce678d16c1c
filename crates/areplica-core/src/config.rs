//! AReplica configuration: replication rules, SLOs, and engine constants.

use cloudapi::RegionId;
use simkernel::SimDuration;

/// The default data-part size (§5.1: "a part size of 8 MB strikes an
/// effective balance" between per-part overhead and scheduling flexibility).
pub const DEFAULT_PART_SIZE: u64 = 8 << 20;

/// Objects at or below this size are replicated by the orchestrator itself
/// ("the orchestrator that receives the notification can handle the
/// replication locally. In that case, T_func is zero.").
pub const DEFAULT_LOCAL_THRESHOLD: u64 = 16 << 20;

/// The maximum parallelism the planner will consider.
pub const DEFAULT_MAX_PARALLELISM: u32 = 512;

/// Safety margin applied to SLO budgets (plan selection and batch-timer
/// scheduling divide the remaining budget by this factor). The model's
/// Normal tail approximation under-covers extreme quantiles of the
/// lognormal instance factors; the margin converts that residual error into
/// earlier starts / more parallelism instead of SLO misses.
pub const SLO_SAFETY_MARGIN: f64 = 1.25;

/// One bucket-pair replication rule.
#[derive(Debug, Clone)]
pub struct ReplicationRule {
    /// Source region.
    pub src_region: RegionId,
    /// Source bucket name.
    pub src_bucket: String,
    /// Destination region.
    pub dst_region: RegionId,
    /// Destination bucket name.
    pub dst_bucket: String,
    /// End-to-end replication SLO (PUT completion → retrievable at the
    /// destination). `None` means "as fast as possible" (the paper sets the
    /// SLO to zero for its delay/cost tables so the fastest plan is chosen).
    pub slo: Option<SimDuration>,
    /// The distribution percentile plans must satisfy (e.g. 0.99 → p99).
    pub percentile: f64,
    /// Whether SLO-bounded batching may delay replications toward their
    /// deadline (§5.4).
    pub batching: bool,
    /// Whether changelog propagation is consulted before full replication
    /// (§5.4).
    pub changelog: bool,
}

impl ReplicationRule {
    /// A rule with the evaluation defaults: immediate replication at p99,
    /// batching and changelog enabled.
    pub fn new(
        src_region: RegionId,
        src_bucket: impl Into<String>,
        dst_region: RegionId,
        dst_bucket: impl Into<String>,
    ) -> ReplicationRule {
        ReplicationRule {
            src_region,
            src_bucket: src_bucket.into(),
            dst_region,
            dst_bucket: dst_bucket.into(),
            slo: None,
            percentile: 0.99,
            batching: true,
            changelog: true,
        }
    }

    /// Sets the SLO.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets the plan percentile.
    pub fn with_percentile(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "percentile must be in (0, 1)");
        self.percentile = p;
        self
    }

    /// Enables/disables SLO-bounded batching.
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Enables/disables changelog propagation.
    pub fn with_changelog(mut self, on: bool) -> Self {
        self.changelog = on;
        self
    }
}

/// Engine tunables (all paper defaults).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Data-part size for distributed replication.
    pub part_size: u64,
    /// Largest object the orchestrator replicates in-process.
    pub local_threshold: u64,
    /// Maximum parallelism considered by the planner.
    pub max_parallelism: u32,
    /// Whether replicators validate the source ETag on every part
    /// (optimistic replication with validation, §5.2). Disabled only by the
    /// consistency ablation tests.
    pub validate_etags: bool,
    /// How replicators schedule parts: the paper's decentralized
    /// part-granularity scheduling, or the fair fixed assignment baseline
    /// (Figure 17's ablation).
    pub scheduling: SchedulingMode,
    /// The unified retry/backoff policy (platform invoke retries, client
    /// backoff, per-op-class timeout budgets). The default reproduces the
    /// historical per-call-site constants bit-for-bit.
    pub retry: crate::retry::RetryPolicy,
    /// Testing backdoor reproducing the pre-fix split-brain bug: a second
    /// live incarnation of a task ignores the upload id recorded in the part
    /// pool and works its own rival multipart upload. Exists solely so
    /// schedule exploration (`crates/simcheck`) can prove it detects and
    /// shrinks that regression; never enable outside tests.
    #[doc(hidden)]
    pub unsafe_disable_upload_adoption: bool,
}

/// Part-scheduling strategy (Figure 12/17 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Replicators autonomously claim parts from a shared pool (Algorithm 1).
    PartGranularity,
    /// Each replicator receives a fixed equal share at invocation.
    FairDispatch,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            part_size: DEFAULT_PART_SIZE,
            local_threshold: DEFAULT_LOCAL_THRESHOLD,
            max_parallelism: DEFAULT_MAX_PARALLELISM,
            validate_etags: true,
            scheduling: SchedulingMode::PartGranularity,
            retry: crate::retry::RetryPolicy::default(),
            unsafe_disable_upload_adoption: false,
        }
    }
}

impl EngineConfig {
    /// Number of parts an object of `size` bytes splits into (at least 1).
    pub fn num_parts(&self, size: u64) -> u32 {
        if size == 0 {
            return 1;
        }
        size.div_ceil(self.part_size).min(u32::MAX as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudapi::{Cloud, RegionRegistry};

    #[test]
    fn rule_builder_defaults() {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let dst = regions.lookup(Cloud::Azure, "eastus").unwrap();
        let rule = ReplicationRule::new(src, "a", dst, "b")
            .with_slo(SimDuration::from_secs(30))
            .with_percentile(0.999)
            .with_batching(false);
        assert_eq!(rule.slo, Some(SimDuration::from_secs(30)));
        assert_eq!(rule.percentile, 0.999);
        assert!(!rule.batching);
        assert!(rule.changelog);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn invalid_percentile_rejected() {
        let regions = RegionRegistry::paper_regions();
        let src = regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        ReplicationRule::new(src, "a", src, "b").with_percentile(1.0);
    }

    #[test]
    fn part_counting() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.num_parts(0), 1);
        assert_eq!(cfg.num_parts(1), 1);
        assert_eq!(cfg.num_parts(8 << 20), 1);
        assert_eq!(cfg.num_parts((8 << 20) + 1), 2);
        assert_eq!(cfg.num_parts(1 << 30), 128);
    }

    #[test]
    fn default_constants_match_paper() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.part_size, 8 << 20);
        assert_eq!(cfg.scheduling, SchedulingMode::PartGranularity);
        assert!(cfg.validate_etags);
    }
}
