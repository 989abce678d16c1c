//! Trace replay against a simulated world.
//!
//! Schedules every record as a user operation on a bucket,
//! optionally time-scaled (the paper replays "at a high rate"). Replication
//! systems installed on the bucket react through the normal notification
//! pipeline.

use cloudsim::world::{self, CloudSim};
use cloudsim::RegionId;
use simkernel::SimDuration;

use crate::record::{Trace, TraceOp};

/// Replay options.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Multiplies record timestamps (0.5 = twice as fast).
    pub time_scale: f64,
    /// Caps object sizes (None = as recorded).
    pub max_object_size: Option<u64>,
    /// Start offset added to every record.
    pub start_at: SimDuration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            time_scale: 1.0,
            max_object_size: None,
            start_at: SimDuration::ZERO,
        }
    }
}

/// Replay statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// PUTs scheduled.
    pub puts: u64,
    /// DELETEs scheduled.
    pub deletes: u64,
}

/// Schedules the trace's write operations into the simulator.
///
/// Returns immediately; run the simulator to execute. DELETEs of keys that
/// do not exist at their scheduled time are skipped silently (they deleted
/// objects created before the replayed window).
pub fn schedule(
    sim: &mut CloudSim,
    trace: &Trace,
    region: RegionId,
    bucket: &str,
    cfg: &ReplayConfig,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    sim.world.objstore_mut(region).create_bucket(bucket);
    for r in &trace.records {
        let at = cfg.start_at
            + SimDuration::from_secs_f64(r.at.to_duration().as_secs_f64() * cfg.time_scale);
        let key = r.key.clone();
        let bucket = bucket.to_string();
        match r.op {
            TraceOp::Put { size } => {
                stats.puts += 1;
                let size = cfg.max_object_size.map_or(size, |cap| size.min(cap));
                sim.schedule_in(at, move |sim| {
                    world::user_put(sim, region, &bucket, &key, size).expect("bucket exists");
                });
            }
            TraceOp::Delete => {
                stats.deletes += 1;
                sim.schedule_in(at, move |sim| {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "keys deleted before being written in this replay window are expected: the trace is a sliding cut of a longer history, so NotFound here is not an error"
                    )]
                    let _ = world::user_delete(sim, region, &bucket, &key);
                });
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SimDurationMs, TraceRecord};
    use cloudsim::{Cloud, World};

    #[test]
    fn replay_applies_writes_in_order() {
        let mut sim = World::paper_sim(31);
        let region = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let trace = Trace {
            records: vec![
                TraceRecord {
                    at: SimDurationMs(100),
                    key: "x".into(),
                    op: TraceOp::Put { size: 10 },
                },
                TraceRecord {
                    at: SimDurationMs(200),
                    key: "x".into(),
                    op: TraceOp::Put { size: 20 },
                },
                TraceRecord {
                    at: SimDurationMs(300),
                    key: "y".into(),
                    op: TraceOp::Put { size: 30 },
                },
                TraceRecord {
                    at: SimDurationMs(400),
                    key: "x".into(),
                    op: TraceOp::Delete,
                },
                TraceRecord {
                    at: SimDurationMs(500),
                    key: "ghost".into(),
                    op: TraceOp::Delete,
                },
            ],
        };
        let stats = schedule(&mut sim, &trace, region, "bkt", &ReplayConfig::default());
        assert_eq!(stats.puts, 3);
        assert_eq!(stats.deletes, 2);
        sim.run_to_completion(1000);
        assert!(sim.world.objstore(region).stat("bkt", "x").is_err());
        assert_eq!(
            sim.world.objstore(region).stat("bkt", "y").unwrap().size,
            30
        );
    }

    #[test]
    fn time_scale_compresses() {
        let mut sim = World::paper_sim(32);
        let region = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let trace = Trace {
            records: vec![TraceRecord {
                at: SimDurationMs(10_000),
                key: "x".into(),
                op: TraceOp::Put { size: 1 },
            }],
        };
        schedule(
            &mut sim,
            &trace,
            region,
            "bkt",
            &ReplayConfig {
                time_scale: 0.1,
                ..Default::default()
            },
        );
        sim.run_to_completion(10);
        let stat = sim.world.objstore(region).stat("bkt", "x").unwrap();
        assert_eq!(stat.created_at.as_secs_f64(), 1.0);
    }

    #[test]
    fn size_cap_applies() {
        let mut sim = World::paper_sim(33);
        let region = sim.world.regions.lookup(Cloud::Aws, "us-east-1").unwrap();
        let trace = Trace {
            records: vec![TraceRecord {
                at: SimDurationMs(0),
                key: "big".into(),
                op: TraceOp::Put { size: 10 << 30 },
            }],
        };
        schedule(
            &mut sim,
            &trace,
            region,
            "bkt",
            &ReplayConfig {
                max_object_size: Some(1 << 20),
                ..Default::default()
            },
        );
        sim.run_to_completion(10);
        assert_eq!(
            sim.world.objstore(region).stat("bkt", "big").unwrap().size,
            1 << 20
        );
    }
}
