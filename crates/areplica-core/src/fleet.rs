//! Fleet services: the watchdog and tombstone-janitor machinery, promoted
//! out of the per-replication code paths into a reusable fleet layer.
//!
//! A production deployment runs dead-letter watchdogs and TTL janitors
//! *beside* the replication engine, scanning every tenant's task tables on
//! a deterministic cadence — not as ad-hoc logic inside each task. This
//! module owns that mechanism; the engine registers a [`TaskWatch`] per
//! distributed task and a tombstone cleanup per abort.
//!
//! **Determinism rules** (see DESIGN.md "Control plane / data plane"):
//!
//! * The cadence is three fixed constants of simulated time
//!   ([`WATCHDOG_INTERVAL`], [`WATCHDOG_MAX_CHECKS`], [`ABORTED_POOL_TTL`]);
//!   fleet services never consult wall clock or RNG.
//! * Checks are scheduled relative to the registering event, so the event
//!   sequence is a pure function of the workload.

use std::rc::Rc;

use cloudapi::clouddb::Item;
use cloudapi::RegionId;
use simkernel::SimDuration;

use crate::backend::{Backend, Exec};

/// How often the watchdog inspects a distributed task.
pub const WATCHDOG_INTERVAL: SimDuration = SimDuration::from_secs(90);

/// Maximum watchdog inspections of one task before giving up (bounds
/// runaway tasks).
pub const WATCHDOG_MAX_CHECKS: u32 = 40;

/// How long an aborted task's tombstone outlives the abort before the
/// janitor deletes it. Comfortably beyond any straggler replicator's
/// lifetime (the longest per-cloud function timeout is 1800 s, plus retry
/// backoffs), so every late claim still observes the terminal state before
/// the row disappears.
pub const ABORTED_POOL_TTL: SimDuration = SimDuration::from_secs(3 * 1800);

/// One task under fleet watch: where its state row lives, how to tell it
/// has concluded, and what to do when it stalls.
pub struct TaskWatch<B> {
    /// Region of the database holding the task row.
    pub db_region: RegionId,
    /// Table holding the task row.
    pub table: &'static str,
    /// Task row key.
    pub task_id: String,
    /// Returns true once the task reached a terminal state (the watchdog
    /// then stops rescheduling).
    pub concluded: Rc<dyn Fn() -> bool>,
    /// Dispatches a rescue for a stalled task (the engine invokes one
    /// rescue replicator whose claim loop drains stale leases).
    pub rescue: Rc<dyn Fn(&mut B)>,
}

/// Registers a task with the fleet watchdog.
///
/// The watchdog models the dead-letter/janitor machinery a production
/// deployment runs beside the engine: if every replicator (and its platform
/// retries) died while holding part leases, the pool stalls with
/// live-looking leases that nobody will ever re-claim. The watchdog notices
/// a pool row that still exists after a full lease window, runs the
/// watch's `rescue`, and re-inspects every [`WATCHDOG_INTERVAL`] until the
/// task concludes or [`WATCHDOG_MAX_CHECKS`] is exhausted.
pub fn watch_task<B: Backend>(sim: &mut B, watch: TaskWatch<B>) {
    schedule_check(sim, Rc::new(watch), 0);
}

fn schedule_check<B: Backend>(sim: &mut B, watch: Rc<TaskWatch<B>>, checks: u32) {
    sim.schedule_in(WATCHDOG_INTERVAL, move |sim| {
        check_task(sim, watch, checks);
    });
}

fn check_task<B: Backend>(sim: &mut B, watch: Rc<TaskWatch<B>>, checks: u32) {
    if (watch.concluded)() || checks >= WATCHDOG_MAX_CHECKS {
        return;
    }
    let exec = Exec::Platform {
        region: watch.db_region,
        mbps: 1000.0,
    };
    let db_region = watch.db_region;
    let table = watch.table;
    let task_id = watch.task_id.clone();
    let w = watch.clone();
    sim.db_get(exec, db_region, table.into(), task_id, move |sim, item| {
        // Any surviving task row while the watch is unconcluded is a stall
        // — including an `aborted` tombstone: the rescue path maps the
        // tombstone to its recorded terminal status and re-runs the
        // idempotent conclusion (found by simcheck, see EXPERIMENTS.md).
        let stalled = item.is_some();
        if stalled && !(w.concluded)() {
            (w.rescue)(sim);
            schedule_check(sim, w, checks + 1);
        }
    });
}

/// Schedules the janitor delete of a concluded task's tombstone after
/// [`ABORTED_POOL_TTL`].
///
/// Mirrors the TTL-based cleanup a production deployment configures on the
/// task table (TTL reaping is a free background process, so it goes through
/// [`KvStore::db_ttl_expire`](crate::backend::KvStore::db_ttl_expire) rather
/// than the metered request path). The
/// delete is guarded by `guard` so it can never reap a live row; `reap`
/// runs on the expired item to tear down anything it recorded (orphan
/// uploads, for the engine).
pub fn schedule_tombstone_cleanup<B: Backend>(
    sim: &mut B,
    db_region: RegionId,
    table: &'static str,
    task_id: String,
    guard: impl FnOnce(&Item) -> bool + 'static,
    reap: impl FnOnce(&mut B, Item) + 'static,
) {
    sim.schedule_in(ABORTED_POOL_TTL, move |sim| {
        let expired = sim.db_ttl_expire(db_region, table, &task_id, guard);
        if let Some(item) = expired {
            reap(sim, item);
        }
    });
}
