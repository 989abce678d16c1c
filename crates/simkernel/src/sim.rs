//! The discrete-event simulation executor.
//!
//! [`Sim`] owns a virtual clock, an ordered event queue, the simulated world
//! state `W`, and the master RNG. Events are boxed `FnOnce(&mut Sim<W>)`
//! continuations: multi-step behaviours (a replicator function claiming parts,
//! downloading, uploading, ...) are written as methods that schedule their own
//! follow-up events.
//!
//! Determinism contract: with the same seed and the same sequence of
//! `schedule_*` calls, the simulation replays identically. Simultaneous events
//! run in schedule order (a monotone sequence number breaks timestamp ties).
//!
//! The queue has two tiers (see `EventQueue`): a binary heap of the events
//! due in the current time bucket or earlier, and a map of later buckets whose
//! events are not ordered until their bucket comes up. Far-future timers thus
//! stay out of the heap, and pops still follow the exact `(time, seq)` order.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use rand::rngs::StdRng;

use crate::rng::derive_rng;
use crate::time::{SimDuration, SimTime};

/// A handle that can cancel a scheduled event before it fires.
///
/// Cancellation is cooperative: the event stays in the queue as a tombstone
/// and becomes a no-op when popped. This is O(1) and keeps the queue simple;
/// cancelled events are not counted as executed.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Rc<CancelInner>,
    /// The owning simulator's live-tombstone counter.
    tombstones: Rc<Cell<u64>>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: Cell<bool>,
    /// True while the event is still in the queue. Cleared when the entry is
    /// consumed (executed or skipped) so a later `cancel()` does not count a
    /// tombstone that no longer exists.
    queued: Cell<bool>,
}

impl CancelToken {
    fn new(tombstones: Rc<Cell<u64>>) -> Self {
        CancelToken {
            inner: Rc::new(CancelInner {
                cancelled: Cell::new(false),
                queued: Cell::new(true),
            }),
            tombstones,
        }
    }

    /// Cancels the associated event. Idempotent.
    pub fn cancel(&self) {
        if !self.inner.cancelled.get() {
            self.inner.cancelled.set(true);
            if self.inner.queued.get() {
                self.tombstones.set(self.tombstones.get() + 1);
            }
        }
    }

    /// Returns true if [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.get()
    }

    /// Marks the queue entry consumed; returns true if it was a tombstone.
    fn consume(&self) -> bool {
        self.inner.queued.set(false);
        if self.inner.cancelled.get() {
            self.tombstones.set(self.tombstones.get().saturating_sub(1));
            true
        } else {
            false
        }
    }
}

type Action<W> = Box<dyn FnOnce(&mut Sim<W>)>;

struct QueuedEvent<W> {
    at: SimTime,
    seq: u64,
    cancel: Option<CancelToken>,
    action: Action<W>,
}

impl<W> PartialEq for QueuedEvent<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for QueuedEvent<W> {}
impl<W> PartialOrd for QueuedEvent<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for QueuedEvent<W> {
    // `BinaryHeap` is a max-heap, so invert: the earliest (time, seq) pair is
    // the greatest element.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Far-tier bucket width as a power of two nanoseconds: 2^26 ns ≈ 67 ms.
/// Narrower buckets shorten the heap but allocate one `Vec` per bucket;
/// DESIGN.md decision 1 records the sweep that chose this width.
const BUCKET_SHIFT: u32 = 26;

fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// The pending events, in two tiers split at the end of bucket `current`.
///
/// `near` is a heap of every event whose bucket is at or before `current`;
/// `far` holds the later buckets, each an unordered `Vec` that is never
/// empty. Every near event is due strictly before every far one, so popping
/// the near heap, and heapifying the earliest far bucket when it runs dry,
/// yields the exact `(at, seq)` order of a single heap.
struct EventQueue<W> {
    near: BinaryHeap<QueuedEvent<W>>,
    far: BTreeMap<u64, Vec<QueuedEvent<W>>>,
    /// Events across all far buckets.
    far_len: usize,
    current: u64,
}

impl<W> EventQueue<W> {
    fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            far: BTreeMap::new(),
            far_len: 0,
            current: 0,
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.far_len
    }

    #[inline]
    fn push(&mut self, ev: QueuedEvent<W>) {
        if bucket_of(ev.at) <= self.current {
            self.near.push(ev);
        } else {
            self.push_far(ev);
        }
    }

    // Out of line, like `refill`, so that the near-tier path
    // inlines into `schedule_at` and `step`: inlined, the map code slowed a
    // depth-1 event chain by about 15 %.
    #[inline(never)]
    fn push_far(&mut self, ev: QueuedEvent<W>) {
        let bucket = bucket_of(ev.at);
        self.far_len += 1;
        // Pre-scheduled traces arrive in time order: append to the last
        // bucket without searching the map.
        match self.far.last_entry() {
            Some(mut last) if *last.key() == bucket => last.get_mut().push(ev),
            _ => self.far.entry(bucket).or_default().push(ev),
        }
    }

    /// Moves the earliest far bucket into the (empty) near heap.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        debug_assert!(self.near.is_empty());
        let Some((bucket, events)) = self.far.pop_first() else {
            return false;
        };
        self.current = bucket;
        self.far_len -= events.len();
        self.near = BinaryHeap::from(events);
        true
    }

    #[inline]
    fn pop(&mut self) -> Option<QueuedEvent<W>> {
        if self.near.is_empty() && !self.refill() {
            return None;
        }
        self.near.pop()
    }

    fn peek(&mut self) -> Option<&QueuedEvent<W>> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near.peek()
    }
}

/// Statistics about an executed simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events whose action ran.
    pub executed: u64,
    /// Events popped but skipped because their token was cancelled.
    pub cancelled: u64,
    /// Peak number of live (non-cancelled) events pending at once.
    pub peak_live_depth: u64,
}

/// A queued event as seen by a [`PopPolicy`]: its due time and tie-break
/// sequence number. The action itself is opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventInfo {
    /// The timestamp the event was scheduled for.
    pub at: SimTime,
    /// The monotone schedule-order sequence number.
    pub seq: u64,
}

/// A pluggable event-queue pop policy: a scheduler hook for exploring
/// alternative interleavings of near-simultaneous events.
///
/// When installed via [`Sim::set_pop_policy`], each [`Sim::step`] gathers the
/// live events whose timestamps fall within [`PopPolicy::window`] of the
/// earliest pending event (at most [`PopPolicy::max_candidates`] of them) and
/// lets the policy pick which one runs next. Unchosen candidates go back on
/// the queue. A deferred event may therefore execute after virtual time has
/// moved past its timestamp — it runs "late", at the current clock, modelling
/// the scheduling jitter serverless platforms exhibit. The clock never moves
/// backwards.
///
/// This hook is correctness-exploration tooling (see `crates/simcheck`); no
/// result-producing run installs a policy, and with no policy installed the
/// pop path is byte-for-byte the classic earliest-(time, seq) order.
pub trait PopPolicy {
    /// Width of the candidate window, measured from the earliest live event.
    fn window(&self) -> SimDuration;

    /// Upper bound on how many candidates are gathered per step.
    fn max_candidates(&self) -> usize {
        8
    }

    /// Picks the index of the candidate to execute. `candidates` is ordered
    /// by (time, seq) and never empty; index 0 is the default choice. Out-of-
    /// range returns are clamped to the last candidate.
    fn choose(&mut self, now: SimTime, candidates: &[EventInfo]) -> usize;
}

/// The discrete-event simulator.
///
/// `W` is the simulated world (services, state). Events receive `&mut Sim<W>`
/// and reach the world through [`Sim::world`].
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    queue: EventQueue<W>,
    master_seed: u64,
    rng: StdRng,
    stats: RunStats,
    pop_policy: Option<Box<dyn PopPolicy>>,
    /// Cancelled-but-still-queued event count, shared with every
    /// [`CancelToken`] this simulator has handed out.
    tombstones: Rc<Cell<u64>>,
    /// The latest time passed to [`Sim::hold_until`].
    hold: SimTime,
    /// The simulated world state, freely accessible to events.
    pub world: W,
}

impl<W> Sim<W> {
    /// Creates a simulator at time zero with the given master seed and world.
    pub fn new(master_seed: u64, world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            master_seed,
            rng: derive_rng(master_seed, "sim:master"),
            stats: RunStats::default(),
            pop_policy: None,
            tombstones: Rc::new(Cell::new(0)),
            hold: SimTime::ZERO,
            world,
        }
    }

    /// Installs a pop policy; subsequent [`Sim::step`] calls route through it.
    pub fn set_pop_policy(&mut self, policy: Box<dyn PopPolicy>) {
        self.pop_policy = Some(policy);
    }

    /// Removes the installed pop policy, restoring default pop order.
    ///
    /// Safe to call at any point: events the policy deferred remain queued and
    /// run next in plain (time, seq) order (the clock simply does not move
    /// backwards for them).
    pub fn clear_pop_policy(&mut self) -> Option<Box<dyn PopPolicy>> {
        self.pop_policy.take()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the simulator-global RNG stream.
    ///
    /// Prefer [`Sim::fork_rng`] for per-component streams; the global stream
    /// is for one-off draws where stream isolation does not matter.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Derives an independent, reproducible RNG stream for a component.
    pub fn fork_rng(&self, label: &str) -> StdRng {
        derive_rng(self.master_seed, label)
    }

    /// Number of events executed and cancelled so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Number of events currently pending (including cancelled-but-queued).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of live (non-cancelled) events currently pending.
    pub fn live_pending_events(&self) -> usize {
        self.queue.len() - self.tombstones.get() as usize
    }

    fn note_live_depth(&mut self) {
        let live = (self.queue.len() as u64).saturating_sub(self.tombstones.get());
        if live > self.stats.peak_live_depth {
            self.stats.peak_live_depth = live;
        }
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: scheduling into the
    /// past is always a logic error and silently reordering it would corrupt
    /// causality.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim<W>) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq,
            cancel: None,
            action: Box::new(action),
        });
        self.note_live_depth();
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, action: impl FnOnce(&mut Sim<W>) + 'static) {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedules a cancellable event; returns its [`CancelToken`].
    pub fn schedule_cancellable_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> CancelToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let token = CancelToken::new(self.tombstones.clone());
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq,
            cancel: Some(token.clone()),
            action: Box::new(action),
        });
        self.note_live_depth();
        token
    }

    /// Schedules a cancellable event after `delay`; returns its token.
    pub fn schedule_cancellable_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> CancelToken {
        self.schedule_cancellable_at(self.now + delay, action)
    }

    /// Holds the clock: a run whose queue drains ends no earlier than `at`.
    ///
    /// A component that checks a deadline lazily, instead of queueing an
    /// event for it, holds the deadline, so the drained run ends where that
    /// event would have carried the clock. A hold earlier than one already
    /// made changes nothing, and [`Sim::run_until`] still stops at its
    /// horizon.
    pub fn hold_until(&mut self, at: SimTime) {
        self.hold = self.hold.max(at);
    }

    /// Advances the clock to the hold once the queue has drained.
    fn drained(&mut self) -> bool {
        self.now = self.now.max(self.hold);
        false
    }

    /// Executes the next event, advancing the clock to its timestamp.
    ///
    /// Returns `false` if the queue was empty, after advancing the clock to
    /// the [`Sim::hold_until`] time if that is later. Cancelled events are
    /// skipped (the clock still advances past them) and the method keeps
    /// popping until a live event runs or the queue drains.
    pub fn step(&mut self) -> bool {
        if self.pop_policy.is_some() {
            return self.step_explored();
        }
        while let Some(ev) = self.queue.pop() {
            // Under default pop order events are never past-due; after a pop
            // policy deferred events and was cleared, leftovers may be, and
            // they run at the current clock (time never moves backwards).
            if ev.at > self.now {
                self.now = ev.at;
            }
            if let Some(token) = &ev.cancel {
                if token.consume() {
                    self.stats.cancelled += 1;
                    continue;
                }
            }
            self.stats.executed += 1;
            (ev.action)(self);
            return true;
        }
        self.drained()
    }

    /// [`Sim::step`] under an installed [`PopPolicy`]: gathers the live
    /// candidates within the policy's window of the earliest pending event and
    /// executes the one the policy picks, re-queueing the rest.
    fn step_explored(&mut self) -> bool {
        let mut policy = self.pop_policy.take().expect("policy checked by step");
        let (window, max_candidates) = (policy.window(), policy.max_candidates().max(1));
        let mut candidates: Vec<QueuedEvent<W>> = Vec::new();
        let mut window_end = SimTime::ZERO;
        while let Some(ev) = self.queue.pop() {
            if let Some(token) = &ev.cancel {
                // Unchosen live candidates are re-queued below, so only
                // tombstones may be marked consumed here.
                if token.is_cancelled() {
                    token.consume();
                    self.stats.cancelled += 1;
                    continue;
                }
            }
            if candidates.is_empty() {
                window_end = ev.at.max(self.now) + window;
            } else if ev.at > window_end || candidates.len() >= max_candidates {
                self.queue.push(ev);
                break;
            }
            candidates.push(ev);
        }
        if candidates.is_empty() {
            self.pop_policy = Some(policy);
            return self.drained();
        }
        let infos: Vec<EventInfo> = candidates
            .iter()
            .map(|ev| EventInfo {
                at: ev.at,
                seq: ev.seq,
            })
            .collect();
        let idx = policy.choose(self.now, &infos).min(candidates.len() - 1);
        self.pop_policy = Some(policy);
        let chosen = candidates.swap_remove(idx);
        for ev in candidates {
            self.queue.push(ev);
        }
        if let Some(token) = &chosen.cancel {
            token.consume();
        }
        if chosen.at > self.now {
            self.now = chosen.at;
        }
        self.stats.executed += 1;
        (chosen.action)(self);
        true
    }

    /// Runs events until the queue is empty or `max_events` live events ran.
    ///
    /// Returns the number of live events executed by this call. The event cap
    /// is a backstop against accidental non-terminating self-scheduling loops.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let start = self.stats.executed;
        while self.stats.executed - start < max_events {
            if !self.step() {
                break;
            }
        }
        self.stats.executed - start
    }

    /// Runs all events with timestamp `<= horizon`, then advances the clock to
    /// `horizon` (even if idle). Events scheduled later stay queued.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.stats.executed;
        while self.queue.peek().is_some_and(|ev| ev.at <= horizon) {
            self.step();
        }
        if horizon > self.now {
            self.now = horizon;
        }
        self.stats.executed - start
    }

    /// Runs until `pred(&sim.world)` becomes true (checked after every event)
    /// or the queue drains. Returns true if the predicate was satisfied.
    pub fn run_while_pending(&mut self, mut pred: impl FnMut(&W) -> bool) -> bool {
        loop {
            if pred(&self.world) {
                return true;
            }
            if !self.step() {
                return pred(&self.world);
            }
        }
    }
}

#[cfg(test)]
mod queue_model;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, &'static str)>>>;

    fn log_event(log: &Log, label: &'static str) -> impl FnOnce(&mut Sim<()>) {
        let log = log.clone();
        move |sim| log.borrow_mut().push((sim.now().as_nanos(), label))
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(1, ());
        let log: Log = Rc::default();
        sim.schedule_at(SimTime::from_nanos(30), log_event(&log, "c"));
        sim.schedule_at(SimTime::from_nanos(10), log_event(&log, "a"));
        sim.schedule_at(SimTime::from_nanos(20), log_event(&log, "b"));
        sim.run_to_completion(100);
        assert_eq!(*log.borrow(), vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut sim = Sim::new(1, ());
        let log: Log = Rc::default();
        for label in ["first", "second", "third"] {
            sim.schedule_at(SimTime::from_nanos(5), log_event(&log, label));
        }
        sim.run_to_completion(100);
        let labels: Vec<_> = log.borrow().iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut sim = Sim::new(1, 0u64);
        fn tick(sim: &mut Sim<u64>) {
            sim.world += 1;
            if sim.world < 5 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_in(SimDuration::from_secs(1), tick);
        sim.run_to_completion(100);
        assert_eq!(sim.world, 5);
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(1, ());
        sim.schedule_at(SimTime::from_nanos(10), |_| {});
        sim.step();
        sim.schedule_at(SimTime::from_nanos(5), |_| {});
    }

    #[test]
    fn cancellation_skips_event() {
        let mut sim = Sim::new(1, 0u32);
        let token = sim.schedule_cancellable_in(SimDuration::from_secs(1), |sim| sim.world += 1);
        sim.schedule_in(SimDuration::from_secs(2), |sim| sim.world += 10);
        token.cancel();
        assert!(token.is_cancelled());
        sim.run_to_completion(10);
        assert_eq!(sim.world, 10);
        assert_eq!(sim.stats().cancelled, 1);
        assert_eq!(sim.stats().executed, 1);
    }

    #[test]
    fn cancel_after_execution_does_not_count_a_tombstone() {
        let mut sim = Sim::new(1, 0u32);
        let token = sim.schedule_cancellable_in(SimDuration::from_secs(1), |sim| sim.world += 1);
        sim.run_to_completion(10);
        assert_eq!(sim.world, 1);
        token.cancel();
        assert_eq!(sim.live_pending_events(), 0);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut sim = Sim::new(1, 0u32);
        sim.schedule_at(SimTime::from_nanos(10), |sim| sim.world += 1);
        sim.schedule_at(SimTime::from_nanos(100), |sim| sim.world += 1);
        let ran = sim.run_until(SimTime::from_nanos(50));
        assert_eq!(ran, 1);
        assert_eq!(sim.world, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_nanos(200));
        assert_eq!(sim.world, 2);
        assert_eq!(sim.now(), SimTime::from_nanos(200));
    }

    #[test]
    fn drained_run_ends_at_the_held_time() {
        let mut sim = Sim::new(1, 0u32);
        sim.schedule_at(SimTime::from_nanos(10), |sim| {
            sim.world += 1;
            sim.hold_until(SimTime::from_nanos(100));
        });
        assert_eq!(sim.run_to_completion(10), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn run_until_below_the_hold_stops_at_its_horizon() {
        let mut sim = Sim::new(1, 0u32);
        sim.hold_until(SimTime::from_nanos(100));
        sim.schedule_at(SimTime::from_nanos(10), |sim| sim.world += 1);
        assert_eq!(sim.run_until(SimTime::from_nanos(50)), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        sim.run_to_completion(10);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn an_earlier_hold_is_a_no_op() {
        let mut sim = Sim::new(1, ());
        sim.hold_until(SimTime::from_nanos(100));
        sim.hold_until(SimTime::from_nanos(40));
        sim.run_to_completion(10);
        assert_eq!(sim.now(), SimTime::from_nanos(100));
        // A hold before the last event leaves the clock at that event.
        sim.schedule_at(SimTime::from_nanos(300), |_| {});
        sim.hold_until(SimTime::from_nanos(200));
        sim.run_to_completion(10);
        assert_eq!(sim.now(), SimTime::from_nanos(300));
    }

    #[test]
    fn run_to_completion_respects_event_cap() {
        let mut sim = Sim::new(1, 0u64);
        fn forever(sim: &mut Sim<u64>) {
            sim.world += 1;
            sim.schedule_in(SimDuration::from_nanos(1), forever);
        }
        sim.schedule_in(SimDuration::ZERO, forever);
        let ran = sim.run_to_completion(1000);
        assert_eq!(ran, 1000);
        assert_eq!(sim.world, 1000);
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn run_while_pending_stops_on_predicate() {
        let mut sim = Sim::new(1, 0u32);
        for _ in 0..10 {
            sim.schedule_in(SimDuration::from_secs(1), |sim| sim.world += 1);
        }
        let hit = sim.run_while_pending(|w| *w >= 3);
        assert!(hit);
        assert_eq!(sim.world, 3);
    }

    #[test]
    fn run_while_pending_reports_failure_when_drained() {
        let mut sim = Sim::new(1, 0u32);
        sim.schedule_in(SimDuration::from_secs(1), |sim| sim.world += 1);
        let hit = sim.run_while_pending(|w| *w >= 5);
        assert!(!hit);
        assert_eq!(sim.world, 1);
    }

    #[test]
    fn deterministic_replay_with_same_seed() {
        fn run(seed: u64) -> Vec<u64> {
            use rand::Rng;
            let mut sim = Sim::new(seed, Vec::new());
            for i in 0..20 {
                sim.schedule_in(SimDuration::from_millis(i), |sim| {
                    let draw = sim.rng().gen::<u64>();
                    sim.world.push(draw);
                });
            }
            sim.run_to_completion(100);
            sim.world
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn fork_rng_is_label_stable() {
        use rand::Rng;
        let sim = Sim::new(5, ());
        let mut a = sim.fork_rng("component");
        let mut b = sim.fork_rng("component");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// Always defers the earliest event: picks the last in-window candidate.
    struct PickLast {
        window: SimDuration,
    }

    impl PopPolicy for PickLast {
        fn window(&self) -> SimDuration {
            self.window
        }
        fn choose(&mut self, _now: SimTime, candidates: &[EventInfo]) -> usize {
            candidates.len() - 1
        }
    }

    /// Always picks index 0 — must reproduce default order exactly.
    struct PickFirst;

    impl PopPolicy for PickFirst {
        fn window(&self) -> SimDuration {
            SimDuration::from_millis(10)
        }
        fn choose(&mut self, _now: SimTime, candidates: &[EventInfo]) -> usize {
            assert!(!candidates.is_empty());
            0
        }
    }

    #[test]
    fn pop_policy_can_reorder_events_within_window() {
        let mut sim = Sim::new(1, ());
        let log: Log = Rc::default();
        sim.schedule_at(SimTime::from_nanos(10), log_event(&log, "a"));
        sim.schedule_at(SimTime::from_nanos(20), log_event(&log, "b"));
        // Outside the 15 ns window of event "a": not a candidate with it.
        sim.schedule_at(SimTime::from_nanos(1000), log_event(&log, "c"));
        sim.set_pop_policy(Box::new(PickLast {
            window: SimDuration::from_nanos(15),
        }));
        sim.run_to_completion(100);
        // "b" runs first (deferred "a" executes late, at b's clock), "c" last.
        assert_eq!(*log.borrow(), vec![(20, "b"), (20, "a"), (1000, "c")]);
    }

    #[test]
    fn pop_policy_choosing_default_matches_plain_order() {
        fn run(policy: bool) -> Vec<(u64, &'static str)> {
            let mut sim = Sim::new(7, ());
            let log: Log = Rc::default();
            for (i, label) in ["a", "b", "c", "d"].iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(3 * i as u64), log_event(&log, label));
            }
            if policy {
                sim.set_pop_policy(Box::new(PickFirst));
            }
            sim.run_to_completion(100);
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn pop_policy_skips_cancelled_candidates() {
        let mut sim = Sim::new(1, 0u32);
        let token = sim.schedule_cancellable_at(SimTime::from_nanos(10), |sim| sim.world += 1);
        sim.schedule_at(SimTime::from_nanos(11), |sim| sim.world += 10);
        token.cancel();
        sim.set_pop_policy(Box::new(PickLast {
            window: SimDuration::from_nanos(100),
        }));
        sim.run_to_completion(10);
        assert_eq!(sim.world, 10);
        assert_eq!(sim.stats().cancelled, 1);
    }

    #[test]
    fn clearing_pop_policy_runs_deferred_events_without_clock_regression() {
        let mut sim = Sim::new(1, ());
        let log: Log = Rc::default();
        sim.schedule_at(SimTime::from_nanos(10), log_event(&log, "a"));
        sim.schedule_at(SimTime::from_nanos(20), log_event(&log, "b"));
        sim.set_pop_policy(Box::new(PickLast {
            window: SimDuration::from_nanos(50),
        }));
        // One explored step: runs "b", defers "a".
        assert!(sim.step());
        sim.clear_pop_policy();
        sim.run_to_completion(10);
        // Deferred "a" runs late, at the clock "b" advanced to.
        assert_eq!(*log.borrow(), vec![(20, "b"), (20, "a")]);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
    }
}
