//! Order-equivalence property test for the two-tier event queue.
//!
//! A reference model — a plain `Vec` popped at its `(at, seq)` minimum, with
//! the simulator's tombstone, compaction and pop-policy rules — runs the same
//! random operation sequence as a real [`Sim`]. After every operation the
//! executed `(label, time)` log, the clock, both pending counts and every
//! [`RunStats`] field must agree.
//!
//! Due times are drawn to collide: at the clock, at an earlier event's time,
//! on a bucket boundary and one nanosecond either side, seconds to hours
//! ahead, and at `SimTime::MAX`. Events schedule follow-ups and cancel each
//! other while the run is going.

use proptest::prelude::*;

use super::{CancelToken, EventInfo, PopPolicy, RunStats, Sim, BUCKET_SHIFT};
use crate::time::{SimDuration, SimTime};

/// A due time, resolved against the clock when the event is scheduled and
/// clamped so it is never in the past.
#[derive(Clone, Copy, Debug)]
enum When {
    Now,
    /// The due time of an earlier event (index modulo their count).
    Earlier(usize),
    /// The first nanosecond of the `k`-th bucket after the clock's, plus
    /// `delta` (−1, 0 or +1).
    Edge(u64, i64),
    /// Nanoseconds ahead of the clock.
    Ahead(u64),
    /// `SimTime::MAX`, where `SimTime + SimDuration` saturates.
    Max,
}

fn resolve(when: When, now: SimTime, times: &[SimTime]) -> SimTime {
    let at = match when {
        When::Now => now,
        When::Earlier(i) if !times.is_empty() => times[i % times.len()],
        When::Earlier(_) => now,
        When::Edge(k, delta) => {
            let bucket = (now.as_nanos() >> BUCKET_SHIFT).saturating_add(k);
            let start = bucket.saturating_mul(1 << BUCKET_SHIFT);
            SimTime::from_nanos(start.saturating_add_signed(delta))
        }
        When::Ahead(ns) => now + SimDuration::from_nanos(ns),
        When::Max => SimTime::MAX,
    };
    at.max(now)
}

#[derive(Clone, Debug)]
enum Op {
    Schedule {
        when: When,
        cancellable: bool,
        spawn: u8,
    },
    /// `count` cancellable events `gap` ns apart: with `CancelEvery` they
    /// push the tombstones past the compaction threshold.
    Burst {
        when: When,
        count: u64,
        gap: u64,
    },
    Cancel(usize),
    /// Cancels every `n`-th token handed out so far.
    CancelEvery(usize),
    Step,
    RunUntil(When),
    SetPolicy {
        seed: u64,
        window: u64,
        max: usize,
    },
    ClearPolicy,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Picks candidates from a seeded stream, sometimes out of range (the
/// simulator clamps those), and checks the candidate-list contract.
#[derive(Clone)]
struct Seeded {
    state: u64,
    window: SimDuration,
    max: usize,
}

impl PopPolicy for Seeded {
    fn window(&self) -> SimDuration {
        self.window
    }
    fn max_candidates(&self) -> usize {
        self.max
    }
    fn choose(&mut self, now: SimTime, candidates: &[EventInfo]) -> usize {
        assert!(!candidates.is_empty());
        assert!(candidates
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) < (w[1].at, w[1].seq)));
        self.state = splitmix(self.state ^ now.as_nanos());
        (self.state % (candidates.len() as u64 + 1)) as usize
    }
}

/// What both queues record: the execution log and every due time handed out
/// (an event's label is its index here).
#[derive(Default)]
struct Book {
    log: Vec<(usize, SimTime)>,
    times: Vec<SimTime>,
}

/// Clock, pending, live pending, and run statistics.
type State = (SimTime, usize, usize, RunStats);

/// The operations the test drives, implemented by the real simulator and by
/// the reference model.
trait Harness {
    fn now(&self) -> SimTime;
    fn book(&mut self) -> &mut Book;
    fn tokens(&self) -> usize;
    fn cancel(&mut self, token: usize);
    /// Queues event `label`, which schedules `spawn` follow-ups when it runs.
    fn push(&mut self, at: SimTime, cancellable: bool, label: usize, spawn: u8);
    fn step(&mut self) -> bool;
    fn run_until(&mut self, horizon: SimTime) -> u64;
    fn run_to_completion(&mut self) -> u64;
    fn set_policy(&mut self, policy: Option<Seeded>);
    fn state(&self) -> State;
}

fn schedule_at<H: Harness>(h: &mut H, at: SimTime, cancellable: bool, spawn: u8) {
    let book = h.book();
    let label = book.times.len();
    book.times.push(at);
    h.push(at, cancellable, label, spawn);
}

fn schedule<H: Harness>(h: &mut H, when: When, cancellable: bool, spawn: u8) {
    let at = resolve(when, h.now(), &h.book().times);
    schedule_at(h, at, cancellable, spawn);
}

/// Every event's body: log, then for each follow-up maybe cancel an earlier
/// event and schedule one, all derived from the label.
fn run_event<H: Harness>(h: &mut H, label: usize, spawn: u8) {
    let now = h.now();
    h.book().log.push((label, now));
    for i in 0..spawn {
        let mix = splitmix((label as u64) << 8 | u64::from(i));
        if mix.is_multiple_of(4) && h.tokens() > 0 {
            h.cancel((mix >> 8) as usize % h.tokens());
        }
        let when = match (mix >> 16) % 8 {
            0 | 1 => When::Now,
            2 => When::Earlier((mix >> 24) as usize),
            3 | 4 => When::Edge((mix >> 24) % 3, ((mix >> 32) % 3) as i64 - 1),
            5 => When::Ahead((mix >> 24) % 2_000_000_000),
            6 => When::Ahead((mix >> 24) % 7_200_000_000_000),
            _ if (mix >> 40).is_multiple_of(8) => When::Max,
            _ => When::Ahead((mix >> 24) % 100_000),
        };
        schedule(h, when, (mix >> 48).is_multiple_of(2), spawn - 1);
    }
}

fn apply<H: Harness>(h: &mut H, op: &Op) -> u64 {
    match *op {
        Op::Schedule {
            when,
            cancellable,
            spawn,
        } => schedule(h, when, cancellable, spawn),
        Op::Burst { when, count, gap } => {
            let start = resolve(when, h.now(), &h.book().times);
            for i in 0..count {
                schedule_at(
                    h,
                    start + SimDuration::from_nanos(i * gap),
                    true,
                    (i % 2) as u8,
                );
            }
        }
        Op::Cancel(i) => {
            if h.tokens() > 0 {
                h.cancel(i % h.tokens());
            }
        }
        Op::CancelEvery(n) => {
            for token in (0..h.tokens()).step_by(n) {
                h.cancel(token);
            }
        }
        Op::Step => return u64::from(h.step()),
        Op::RunUntil(when) => {
            let horizon = resolve(when, h.now(), &h.book().times);
            return h.run_until(horizon);
        }
        Op::SetPolicy { seed, window, max } => h.set_policy(Some(Seeded {
            state: seed,
            window: SimDuration::from_nanos(window),
            max,
        })),
        Op::ClearPolicy => h.set_policy(None),
    }
    0
}

#[derive(Default)]
struct World {
    book: Book,
    tokens: Vec<CancelToken>,
}

impl Harness for Sim<World> {
    fn now(&self) -> SimTime {
        Sim::now(self)
    }
    fn book(&mut self) -> &mut Book {
        &mut self.world.book
    }
    fn tokens(&self) -> usize {
        self.world.tokens.len()
    }
    fn cancel(&mut self, token: usize) {
        self.world.tokens[token].cancel();
    }
    fn push(&mut self, at: SimTime, cancellable: bool, label: usize, spawn: u8) {
        let action = move |sim: &mut Sim<World>| run_event(sim, label, spawn);
        if cancellable {
            let token = self.schedule_cancellable_at(at, action);
            self.world.tokens.push(token);
        } else {
            self.schedule_at(at, action);
        }
    }
    fn step(&mut self) -> bool {
        Sim::step(self)
    }
    fn run_until(&mut self, horizon: SimTime) -> u64 {
        Sim::run_until(self, horizon)
    }
    fn run_to_completion(&mut self) -> u64 {
        Sim::run_to_completion(self, u64::MAX)
    }
    fn set_policy(&mut self, policy: Option<Seeded>) {
        match policy {
            Some(p) => self.set_pop_policy(Box::new(p)),
            None => {
                self.clear_pop_policy();
            }
        }
    }
    fn state(&self) -> State {
        (
            Sim::now(self),
            self.pending_events(),
            self.live_pending_events(),
            self.stats(),
        )
    }
}

struct ModelEvent {
    at: SimTime,
    seq: u64,
    label: usize,
    spawn: u8,
    token: Option<usize>,
}

#[derive(Clone, Copy)]
struct ModelToken {
    cancelled: bool,
    queued: bool,
}

#[derive(Default)]
struct Model {
    now: SimTime,
    seq: u64,
    queue: Vec<ModelEvent>,
    tokens: Vec<ModelToken>,
    tombstones: u64,
    stats: RunStats,
    policy: Option<Seeded>,
    book: Book,
}

impl Model {
    fn pop_min(&mut self) -> Option<ModelEvent> {
        let i = (0..self.queue.len()).min_by_key(|&i| (self.queue[i].at, self.queue[i].seq))?;
        Some(self.queue.swap_remove(i))
    }

    fn is_dead(&self, ev: &ModelEvent) -> bool {
        ev.token.is_some_and(|t| self.tokens[t].cancelled)
    }

    /// Marks `ev`'s token consumed; true if it was a tombstone.
    fn consume(&mut self, ev: &ModelEvent) -> bool {
        let Some(t) = ev.token else { return false };
        self.tokens[t].queued = false;
        if self.tokens[t].cancelled {
            self.tombstones = self.tombstones.saturating_sub(1);
        }
        self.tokens[t].cancelled
    }

    fn maybe_compact(&mut self) {
        let len = self.queue.len();
        if len < Sim::<World>::COMPACT_MIN_LEN
            || (self.tombstones as f64) < len as f64 * Sim::<World>::COMPACT_FRACTION
        {
            return;
        }
        let dead: Vec<ModelEvent>;
        (dead, self.queue) = std::mem::take(&mut self.queue)
            .into_iter()
            .partition(|ev| self.is_dead(ev));
        for ev in &dead {
            self.consume(ev);
        }
        self.stats.compacted += dead.len() as u64;
        self.stats.compactions += 1;
    }

    fn execute(&mut self, ev: ModelEvent) {
        self.now = self.now.max(ev.at);
        self.stats.executed += 1;
        run_event(self, ev.label, ev.spawn);
    }

    fn step_explored(&mut self) -> bool {
        let mut policy = self.policy.take().expect("policy checked by step");
        let (window, max) = (policy.window(), policy.max_candidates().max(1));
        let mut candidates: Vec<ModelEvent> = Vec::new();
        let mut window_end = SimTime::ZERO;
        while let Some(ev) = self.pop_min() {
            if self.is_dead(&ev) {
                self.consume(&ev);
                self.stats.cancelled += 1;
                continue;
            }
            if candidates.is_empty() {
                window_end = ev.at.max(self.now) + window;
            } else if ev.at > window_end || candidates.len() >= max {
                self.queue.push(ev);
                break;
            }
            candidates.push(ev);
        }
        if candidates.is_empty() {
            self.policy = Some(policy);
            return false;
        }
        let infos: Vec<EventInfo> = candidates
            .iter()
            .map(|ev| EventInfo {
                at: ev.at,
                seq: ev.seq,
            })
            .collect();
        let idx = policy.choose(self.now, &infos).min(candidates.len() - 1);
        self.policy = Some(policy);
        let chosen = candidates.swap_remove(idx);
        self.queue.extend(candidates);
        self.consume(&chosen);
        self.execute(chosen);
        true
    }
}

impl Harness for Model {
    fn now(&self) -> SimTime {
        self.now
    }
    fn book(&mut self) -> &mut Book {
        &mut self.book
    }
    fn tokens(&self) -> usize {
        self.tokens.len()
    }
    fn cancel(&mut self, token: usize) {
        let t = &mut self.tokens[token];
        if !t.cancelled {
            t.cancelled = true;
            if t.queued {
                self.tombstones += 1;
            }
        }
    }
    fn push(&mut self, at: SimTime, cancellable: bool, label: usize, spawn: u8) {
        let token = cancellable.then(|| {
            self.tokens.push(ModelToken {
                cancelled: false,
                queued: true,
            });
            self.tokens.len() - 1
        });
        self.queue.push(ModelEvent {
            at,
            seq: self.seq,
            label,
            spawn,
            token,
        });
        self.seq += 1;
        let live = (self.queue.len() as u64).saturating_sub(self.tombstones);
        self.stats.peak_live_depth = self.stats.peak_live_depth.max(live);
        self.maybe_compact();
    }
    fn step(&mut self) -> bool {
        if self.policy.is_some() {
            return self.step_explored();
        }
        while let Some(ev) = self.pop_min() {
            if self.consume(&ev) {
                self.now = self.now.max(ev.at);
                self.stats.cancelled += 1;
                continue;
            }
            self.execute(ev);
            return true;
        }
        false
    }
    fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.stats.executed;
        while self.queue.iter().any(|ev| ev.at <= horizon) {
            self.step();
        }
        self.now = self.now.max(horizon);
        self.stats.executed - start
    }
    fn run_to_completion(&mut self) -> u64 {
        let start = self.stats.executed;
        while self.step() {}
        self.stats.executed - start
    }
    fn set_policy(&mut self, policy: Option<Seeded>) {
        self.policy = policy;
    }
    fn state(&self) -> State {
        (
            self.now,
            self.queue.len(),
            self.queue.len() - self.tombstones as usize,
            self.stats,
        )
    }
}

fn when() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::Now),
        (0usize..1_000).prop_map(When::Earlier),
        (0u64..4, -1i64..=1).prop_map(|(k, delta)| When::Edge(k, delta)),
        (0u64..1_000_000).prop_map(When::Ahead),
        (1_000_000_000u64..7_200_000_000_000).prop_map(When::Ahead),
        Just(When::Max),
    ]
}

fn window() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..100, 0u64..1_000_000_000, Just(1 << BUCKET_SHIFT),]
}

fn op() -> impl Strategy<Value = Op> {
    let schedule = || {
        (when(), 0u8..2, 0u8..3).prop_map(|(when, c, spawn)| Op::Schedule {
            when,
            cancellable: c == 1,
            spawn,
        })
    };
    prop_oneof![
        schedule(),
        schedule(),
        schedule(),
        (when(), 1u64..100, 0u64..50_000_000).prop_map(|(when, count, gap)| Op::Burst {
            when,
            count,
            gap
        }),
        (0usize..1_000).prop_map(Op::Cancel),
        (1usize..3).prop_map(Op::CancelEvery),
        Just(Op::Step),
        Just(Op::Step),
        when().prop_map(Op::RunUntil),
        (0u64..u64::MAX, window(), 0usize..10).prop_map(|(seed, window, max)| Op::SetPolicy {
            seed,
            window,
            max
        }),
        Just(Op::ClearPolicy),
    ]
}

/// The first index where two execution logs differ, if any.
fn divergence(a: &[(usize, SimTime)], b: &[(usize, SimTime)]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

proptest! {
    #[test]
    fn two_tier_queue_matches_reference_model(ops in proptest::collection::vec(op(), 1..100)) {
        let mut sim = Sim::new(1, World::default());
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            let (got, want) = (apply(&mut sim, op), apply(&mut model, op));
            prop_assert_eq!(got, want, "result of op {} {:?}", i, op);
            prop_assert_eq!(sim.state(), model.state(), "state after op {} {:?}", i, op);
            let at = divergence(&sim.world.book.log, &model.book.log);
            prop_assert_eq!(at, None, "log after op {} {:?}", i, op);
        }
        prop_assert_eq!(Harness::run_to_completion(&mut sim), model.run_to_completion());
        prop_assert_eq!(sim.state(), model.state());
        prop_assert_eq!(sim.world.book.log, model.book.log);
    }
}
