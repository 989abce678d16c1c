//! The safety/liveness oracles run against the quiesced world after every
//! explored schedule.

use areplica_core::backend::ObjectStore as _;
use areplica_core::engine::TASK_TABLE;
use areplica_core::lock::LOCK_TABLE;
use cloudsim::world::CloudSim;
use cloudsim::RegionId;
use simtrace::names;

use crate::scenario::{Scenario, DST_BUCKET, KEY, SRC_BUCKET};

/// One oracle violation. A schedule with an empty violation list passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The run hit the event budget without draining (liveness).
    NotDrained {
        /// Events executed when the budget ran out.
        executed: u64,
    },
    /// The destination never received any version of the key.
    MissingReplica,
    /// The destination's bytes differ from the newest source version.
    ContentDiverged,
    /// Bytes match but the recorded ETags differ.
    EtagMismatch,
    /// The replica was stitched from more than one source version.
    MixedVersions,
    /// Multipart uploads left open at a region after quiescence.
    OpenMultipartUploads {
        /// Region with the leak.
        region: RegionId,
        /// The open upload ids.
        uploads: Vec<u64>,
    },
    /// Replication-lock items left in the lock table after quiescence.
    LockLeaked {
        /// Region whose KV table leaked.
        region: RegionId,
        /// Items still present.
        rows: usize,
    },
    /// Task/pool items left in the task table after quiescence.
    TaskLeaked {
        /// Region whose KV table leaked.
        region: RegionId,
        /// Items still present.
        rows: usize,
    },
    /// `task` spans left open in the trace — a task incarnation neither
    /// finished nor concluded (span parity).
    OpenTaskSpans {
        /// Open span count.
        count: usize,
    },
    /// A tenant's object never reached its destination bucket
    /// (multi-tenant convergence).
    TenantMissingReplica {
        /// Tenant whose replication stalled or was starved.
        tenant: String,
        /// The key that is missing at the destination.
        key: String,
    },
    /// A tenant's replica bytes differ from its newest source version.
    TenantDiverged {
        /// Tenant with the divergent replica.
        tenant: String,
        /// The divergent key.
        key: String,
    },
    /// A tenant's peak concurrent FaaS instances exceeded its quota
    /// (quota conformance — the quota gate was bypassed).
    QuotaExceeded {
        /// Tenant that overdrew its quota.
        tenant: String,
        /// Peak concurrent instances observed.
        peak: u32,
        /// The quota the control plane granted.
        limit: u32,
    },
    /// Catch-up log entries left in the source region's queue after
    /// quiescence — the failback replicator lost diverted versions.
    CatchupLeaked {
        /// Queue rows still present.
        rows: usize,
    },
    /// The circuit breaker was not closed after quiescence — the
    /// recheck/probe loop never recovered a healthy destination.
    BreakerNotClosed,
}

/// Runs every oracle against the quiesced simulator.
///
/// `executed` is what `run_to_completion` returned for the scenario's event
/// budget; hitting the budget is reported as [`Violation::NotDrained`] and
/// short-circuits the state oracles (a mid-flight world would trip them all
/// spuriously).
///
/// Span parity is deliberately scoped to `task` spans: a crashed function
/// incarnation legitimately leaves its `task.lock` / engine-execute spans
/// dangling (the crash *is* the end of that incarnation), but the logical
/// task span must always be closed by whichever incarnation concludes the
/// task.
pub fn check(
    sim: &CloudSim,
    sc: &Scenario,
    src: RegionId,
    dst: RegionId,
    executed: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if executed >= sc.max_events {
        violations.push(Violation::NotDrained { executed });
        return violations;
    }

    let newest = sim
        .read_full_now(src, SRC_BUCKET, KEY)
        .expect("scenario PUT a source object; it cannot vanish");
    match sim.read_full_now(dst, DST_BUCKET, KEY) {
        Err(_) => violations.push(Violation::MissingReplica),
        Ok((content, etag)) => {
            if !content.same_bytes(&newest.0) {
                violations.push(Violation::ContentDiverged);
            } else if etag != newest.1 {
                violations.push(Violation::EtagMismatch);
            }
            if !content.is_single_source() {
                violations.push(Violation::MixedVersions);
            }
        }
    }

    quiescent_state_checks(sim, src, dst, &mut violations);
    violations
}

/// Runs the oracles for a multi-tenant scenario: per-tenant convergence
/// (every object each tenant PUT is replicated byte-for-byte into that
/// tenant's destination bucket — a quiet tenant must converge even while a
/// neighbor bursts), per-tenant quota conformance (no tenant's peak FaaS
/// concurrency exceeds the quota the control plane granted), and the same
/// quiescent-state leak checks as the single-tenant path.
pub fn check_tenants(
    sim: &CloudSim,
    sc: &Scenario,
    src: RegionId,
    dst: RegionId,
    executed: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if executed >= sc.max_events {
        violations.push(Violation::NotDrained { executed });
        return violations;
    }

    for t in &sc.tenants {
        let src_bucket = format!("src-{}", t.id);
        let dst_bucket = format!("dst-{}", t.id);
        for i in 0..t.puts.len() {
            let key = format!("obj-{i}");
            let newest = sim
                .read_full_now(src, &src_bucket, &key)
                .expect("scenario PUT a source object; it cannot vanish");
            match sim.read_full_now(dst, &dst_bucket, &key) {
                Err(_) => violations.push(Violation::TenantMissingReplica {
                    tenant: t.id.to_string(),
                    key,
                }),
                Ok((content, _etag)) => {
                    if !content.same_bytes(&newest.0) {
                        violations.push(Violation::TenantDiverged {
                            tenant: t.id.to_string(),
                            key,
                        });
                    }
                }
            }
        }
        if let Some(limit) = t.faas_concurrency {
            let peak = sim.world.faas.tenant_peak(t.id);
            if peak > limit {
                violations.push(Violation::QuotaExceeded {
                    tenant: t.id.to_string(),
                    peak,
                    limit,
                });
            }
        }
    }

    quiescent_state_checks(sim, src, dst, &mut violations);
    violations
}

/// The scenario-independent quiescence oracles: no open multipart uploads,
/// no leaked lock/task rows, and `task` span parity.
fn quiescent_state_checks(
    sim: &CloudSim,
    src: RegionId,
    dst: RegionId,
    violations: &mut Vec<Violation>,
) {
    for region in [src, dst] {
        let uploads = sim.world.objstore(region).open_multipart_uploads();
        if !uploads.is_empty() {
            violations.push(Violation::OpenMultipartUploads { region, uploads });
        }
        let locks = sim.world.db(region).table_len(LOCK_TABLE);
        if locks != 0 {
            violations.push(Violation::LockLeaked {
                region,
                rows: locks,
            });
        }
        let tasks = sim.world.db(region).table_len(TASK_TABLE);
        if tasks != 0 {
            violations.push(Violation::TaskLeaked {
                region,
                rows: tasks,
            });
        }
    }

    let open_tasks = sim
        .world
        .trace
        .spans()
        .iter()
        .filter(|s| s.name == names::TASK && s.end.is_none())
        .count();
    if open_tasks != 0 {
        violations.push(Violation::OpenTaskSpans { count: open_tasks });
    }
}
