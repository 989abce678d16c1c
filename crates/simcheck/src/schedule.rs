//! The unified decision stream: pop-order choices and fault injections.
//!
//! One [`ScheduleState`] serves as both the simulator's
//! [`simkernel::PopPolicy`] and the world's [`FaultDecider`], so a whole
//! schedule is a single ordered list of decisions. Three modes share the
//! recording machinery:
//!
//! * **Walk**: decisions are drawn from an RNG seeded by
//!   [`WalkConfig::seed`] — the seeded random walk. Deterministic: the same
//!   seed always yields the same schedule.
//! * **Scripted**: decisions come from an explicit list (replay of a
//!   recorded walk, a shrinking candidate, or an exhaustive-enumeration
//!   prefix); past the end of the list everything is the default.
//! * **Default**: every decision is the default (pop index 0, no fault).
//!
//! Decisions are recorded with their arity and fault site, which is what
//! exhaustive enumeration needs to expand alternatives and what shrinking
//! needs to reset entries to their defaults.

use std::cell::RefCell;
use std::rc::Rc;

use cloudsim::fault::{FaultDecider, FaultSite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkernel::{EventInfo, PopPolicy, SimDuration, SimTime};

/// One scheduling or fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Index of the event-queue candidate to pop (0 = default order).
    Pop(u16),
    /// Whether the fault at this site occurrence fires.
    Fault(bool),
}

impl Decision {
    /// Whether this is the default decision (pop earliest, no fault).
    pub fn is_default(&self) -> bool {
        matches!(self, Decision::Pop(0) | Decision::Fault(false))
    }

    /// The default decision of the same kind.
    pub fn default_of(&self) -> Decision {
        match self {
            Decision::Pop(_) => Decision::Pop(0),
            Decision::Fault(_) => Decision::Fault(false),
        }
    }
}

/// A decision as recorded during a run: what was decided, how many
/// alternatives existed, and (for faults) at which site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Taken {
    /// The decision made.
    pub decision: Decision,
    /// Number of alternatives at this point (candidate count for pops, 2
    /// for faults).
    pub arity: u16,
    /// The fault site, for fault decisions.
    pub site: Option<FaultSite>,
}

/// Parameters of the seeded random walk.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Seed of the decision RNG — the schedule's identity.
    pub seed: u64,
    /// Probability of a non-default pop choice when several events race.
    pub p_deviate: f64,
    /// Probability of a transient GET/PUT fault per site occurrence.
    pub p_transient: f64,
    /// Probability of crashing a function after one of its DB transactions.
    pub p_kill: f64,
    /// Probability of opening a regional outage window per
    /// [`FaultSite::OutageOpen`] occurrence (consulted only by scenarios
    /// that arm an outage region).
    pub p_outage: f64,
    /// Probability of closing the open window per blocked-write retry.
    /// Low enough that some walks hold the window past the scenario's SLO
    /// (tripping the breaker), high enough that most windows close within
    /// a few retry ticks.
    pub p_outage_close: f64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            seed: 0,
            p_deviate: 0.2,
            p_transient: 0.03,
            p_kill: 0.08,
            p_outage: 0.04,
            p_outage_close: 0.25,
        }
    }
}

impl WalkConfig {
    /// A walk with the default probabilities and the given seed.
    pub fn seeded(seed: u64) -> Self {
        WalkConfig {
            seed,
            ..WalkConfig::default()
        }
    }
}

/// How decisions are produced.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Every decision is the default: plain pop order, no faults. The
    /// policy/decider hooks are not even installed.
    Default,
    /// Seeded random walk.
    Walk(WalkConfig),
    /// Scripted decision list; beyond its end, defaults.
    Scripted(Vec<Decision>),
}

/// Total faults a schedule may inject; bounds shrinking candidates too.
const MAX_FAULTS: u32 = 16;

/// Function crashes a schedule may inject. Kept below the platform's retry
/// budget so a schedule can never push a task into the dead-letter queue —
/// retry exhaustion losing a task is expected platform behaviour, not a
/// protocol bug, and letting the explorer reach it would drown the oracles
/// in false liveness failures.
const MAX_KILLS: u32 = 2;

/// The shared decision stream (see module docs). Wrap in
/// `Rc<RefCell<...>>` via [`ScheduleState::shared`] and hand clones to both
/// hooks with [`PolicyHandle`] / [`DeciderHandle`].
pub struct ScheduleState {
    mode: Mode,
    rng: StdRng,
    window: SimDuration,
    max_candidates: usize,
    cursor: usize,
    faults: u32,
    kills: u32,
    /// Every decision made so far, in consult order.
    pub taken: Vec<Taken>,
}

impl ScheduleState {
    /// Creates a decision stream for `mode` with the standard exploration
    /// window (how far apart two events may be and still race).
    pub fn new(mode: Mode) -> Self {
        let seed = match &mode {
            Mode::Walk(cfg) => cfg.seed,
            _ => 0,
        };
        ScheduleState {
            mode,
            rng: StdRng::seed_from_u64(seed),
            window: SimDuration::from_millis(20),
            max_candidates: 6,
            cursor: 0,
            faults: 0,
            kills: 0,
            taken: Vec::new(),
        }
    }

    /// Wraps a state for sharing between the two hooks.
    pub fn shared(mode: Mode) -> Rc<RefCell<ScheduleState>> {
        Rc::new(RefCell::new(ScheduleState::new(mode)))
    }

    /// The next scripted decision, if any, advancing the cursor.
    fn next_scripted(&mut self) -> Option<Decision> {
        if let Mode::Scripted(list) = &self.mode {
            let d = list.get(self.cursor).copied();
            self.cursor += 1;
            d
        } else {
            None
        }
    }

    /// Decides which of `k` racing events pops next.
    ///
    /// Called only when `k > 1` — forced choices are not decision points and
    /// are neither recorded nor charged against the RNG stream, which keeps
    /// schedules short and replay stable.
    pub fn next_pop(&mut self, k: usize) -> usize {
        debug_assert!(k > 1);
        let idx = match &self.mode {
            Mode::Default => 0,
            Mode::Walk(cfg) => {
                let (p_deviate, deviate) = (cfg.p_deviate, self.rng.gen_bool(cfg.p_deviate));
                if p_deviate > 0.0 && deviate {
                    self.rng.gen_range(1..k)
                } else {
                    0
                }
            }
            Mode::Scripted(_) => match self.next_scripted() {
                Some(Decision::Pop(i)) => (i as usize).min(k - 1),
                // Past the end of the script, or a position that was a fault
                // decision on the recorded path (the script diverged): default.
                _ => 0,
            },
        };
        self.taken.push(Taken {
            decision: Decision::Pop(idx as u16),
            arity: k as u16,
            site: None,
        });
        idx
    }

    /// Decides whether the fault at this `site` occurrence fires.
    pub fn next_fault(&mut self, site: FaultSite) -> bool {
        let wanted = match &self.mode {
            Mode::Default => false,
            Mode::Walk(cfg) => {
                let p = match site {
                    FaultSite::TransientGet | FaultSite::TransientPut => cfg.p_transient,
                    FaultSite::PostTransactKill => cfg.p_kill,
                    // A lost invocation is never rescued by the protocol
                    // (nothing retries a swallowed async invoke), and
                    // mid-upload kills of streamed replicators model crashes
                    // the platform retry already covers; the walk explores
                    // post-transact kills instead, which exercise the
                    // lock/claim re-entrancy paths.
                    FaultSite::InvocationDrop | FaultSite::KillAfterUpload => 0.0,
                    FaultSite::OutageOpen => cfg.p_outage,
                    FaultSite::OutageClose => cfg.p_outage_close,
                };
                p > 0.0 && self.rng.gen_bool(p)
            }
            Mode::Scripted(_) => matches!(self.next_scripted(), Some(Decision::Fault(true))),
        };
        // Budget caps apply in every mode so neither the walk nor a shrink
        // candidate can exceed the platform's retry budget. Outage sites are
        // exempt: opening is budgeted by the world itself (`MAX_OUTAGES`)
        // and closing a window must never be blocked.
        let budgeted = !matches!(site, FaultSite::OutageOpen | FaultSite::OutageClose);
        let fire = wanted
            && (!budgeted || self.faults < MAX_FAULTS)
            && (site != FaultSite::PostTransactKill || self.kills < MAX_KILLS);
        if fire && budgeted {
            self.faults += 1;
            if site == FaultSite::PostTransactKill {
                self.kills += 1;
            }
        }
        self.taken.push(Taken {
            decision: Decision::Fault(fire),
            arity: 2,
            site: Some(site),
        });
        fire
    }
}

/// Adapter installing a shared [`ScheduleState`] as the simulator's pop
/// policy.
pub struct PolicyHandle(pub Rc<RefCell<ScheduleState>>);

impl PopPolicy for PolicyHandle {
    fn window(&self) -> SimDuration {
        self.0.borrow().window
    }

    fn max_candidates(&self) -> usize {
        self.0.borrow().max_candidates
    }

    fn choose(&mut self, _now: SimTime, candidates: &[EventInfo]) -> usize {
        if candidates.len() <= 1 {
            return 0;
        }
        self.0.borrow_mut().next_pop(candidates.len())
    }
}

/// Adapter installing a shared [`ScheduleState`] as the fault decider.
pub struct DeciderHandle(pub Rc<RefCell<ScheduleState>>);

impl FaultDecider for DeciderHandle {
    fn decide(&mut self, site: FaultSite) -> bool {
        self.0.borrow_mut().next_fault(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_deterministic() {
        let mut a = ScheduleState::new(Mode::Walk(WalkConfig::seeded(42)));
        let mut b = ScheduleState::new(Mode::Walk(WalkConfig::seeded(42)));
        for _ in 0..50 {
            assert_eq!(a.next_pop(4), b.next_pop(4));
            assert_eq!(
                a.next_fault(FaultSite::TransientPut),
                b.next_fault(FaultSite::TransientPut)
            );
        }
        assert_eq!(a.taken, b.taken);
    }

    #[test]
    fn scripted_replays_and_defaults_past_end() {
        let script = vec![Decision::Pop(2), Decision::Fault(true), Decision::Pop(1)];
        let mut s = ScheduleState::new(Mode::Scripted(script));
        assert_eq!(s.next_pop(4), 2);
        assert!(s.next_fault(FaultSite::PostTransactKill));
        assert_eq!(s.next_pop(2), 1);
        // Past the script: defaults.
        assert_eq!(s.next_pop(4), 0);
        assert!(!s.next_fault(FaultSite::TransientGet));
    }

    #[test]
    fn scripted_pop_indices_clamp_to_arity() {
        let mut s = ScheduleState::new(Mode::Scripted(vec![Decision::Pop(9)]));
        assert_eq!(s.next_pop(3), 2);
    }

    #[test]
    fn kill_budget_is_enforced_in_scripted_mode() {
        let script = vec![Decision::Fault(true); 5];
        let mut s = ScheduleState::new(Mode::Scripted(script));
        let fired: Vec<bool> = (0..5)
            .map(|_| s.next_fault(FaultSite::PostTransactKill))
            .collect();
        assert_eq!(fired.iter().filter(|f| **f).count(), 2);
    }

    #[test]
    fn default_mode_never_faults_or_deviates() {
        let mut s = ScheduleState::new(Mode::Default);
        assert_eq!(s.next_pop(5), 0);
        assert!(!s.next_fault(FaultSite::TransientPut));
    }
}
