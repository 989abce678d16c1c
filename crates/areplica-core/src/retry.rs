//! The client-side back-off schedule.
//!
//! Data-plane invocations leave retries to the platform: every `invoke`
//! passes [`cloudapi::faas::RetryPolicy::PLATFORM_DEFAULT`]. What remains
//! here is the one client-side schedule, which the circuit breaker uses to
//! stretch its cooldown across failed probes: capped *deterministic
//! decorrelated jitter*, or a fixed delay without it. Jitter draws come
//! from an RNG derived off a policy seed and a per-schedule label
//! ([`RetryPolicy::schedule`]), an independent stream that by construction
//! cannot perturb the shared latency RNGs — identically-seeded runs see
//! identical delays.
//!
//! The [`Default`] policy is a fixed 250 ms back-off without jitter;
//! [`RetryPolicy::resilient`] enables decorrelated jitter up to an 8 s cap.

use rand::rngs::StdRng;
use rand::Rng;
use simkernel::{rng::derive_rng, SimDuration};

/// A client-side back-off policy (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum client-side retry delays a [`BackoffSchedule`] yields before
    /// reporting exhaustion.
    pub max_attempts: u32,
    /// Backoff before the first client-side retry, and every retry's
    /// backoff without jitter.
    pub base_backoff: SimDuration,
    /// Upper cap on any single jittered delay.
    pub max_backoff: SimDuration,
    /// Decorrelated-jitter seed: `Some(seed)` draws each delay uniformly
    /// from `[base, min(cap, 3 × previous)]` using an RNG derived from
    /// `(seed, label)`; `None` yields `base_backoff` every time.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    /// A fixed 250 ms back-off, four times, without jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(250),
            max_backoff: SimDuration::from_millis(250),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A policy for sustained-failure environments: deep attempt budget,
    /// decorrelated jitter from 250 ms up to an 8 s cap, seeded off `seed`
    /// so concurrent retriers decorrelate without sharing (or perturbing)
    /// any latency RNG stream.
    pub fn resilient(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(250),
            max_backoff: SimDuration::from_secs(8),
            jitter_seed: Some(seed),
        }
    }

    /// A fresh backoff schedule for one retried operation. `label` names
    /// the operation (e.g. `"probe:dst-noisy"`); under jitter it selects an
    /// independent derived RNG stream, so two schedules with different
    /// labels draw uncorrelated delays and identical `(seed, label)` pairs
    /// replay identical delays.
    pub fn schedule(&self, label: &str) -> BackoffSchedule {
        BackoffSchedule {
            policy: self.clone(),
            rng: self
                .jitter_seed
                .map(|seed| derive_rng(seed, &format!("retry:{label}"))),
            prev: None,
            issued: 0,
        }
    }
}

/// The delay sequence for one retried operation (created by
/// [`RetryPolicy::schedule`]). Holds its own derived RNG, so drawing delays
/// cannot perturb any other stream.
#[derive(Debug)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    rng: Option<StdRng>,
    prev: Option<SimDuration>,
    issued: u32,
}

impl BackoffSchedule {
    /// The next backoff delay, or `None` once [`RetryPolicy::max_attempts`]
    /// delays have been issued (the caller gives up).
    pub fn next_delay(&mut self) -> Option<SimDuration> {
        if self.issued >= self.policy.max_attempts {
            return None;
        }
        let base = self.policy.base_backoff;
        let delay = match &mut self.rng {
            // Decorrelated jitter (capped): uniform in
            // [base, min(cap, 3 × previous)].
            Some(rng) => {
                let cap = self.policy.max_backoff.max(base).as_nanos();
                let prev = self.prev.unwrap_or(base).as_nanos();
                let hi = (3 * prev).clamp(base.as_nanos(), cap);
                SimDuration::from_nanos(rng.gen_range(base.as_nanos()..hi + 1))
            }
            None => base,
        };
        self.issued += 1;
        self.prev = Some(delay);
        Some(delay)
    }

    /// Delays issued so far.
    pub fn attempts(&self) -> u32 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_fixed_250ms_backoff() {
        let p = RetryPolicy::default();
        let mut s = p.schedule("x");
        // Fixed 250 ms, exactly `max_attempts` times, then exhaustion.
        for _ in 0..p.max_attempts {
            assert_eq!(s.next_delay(), Some(SimDuration::from_millis(250)));
        }
        assert_eq!(s.next_delay(), None);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_label() {
        let p = RetryPolicy::resilient(0xBEEF);
        let draw = |label: &str| -> Vec<SimDuration> {
            let mut s = p.schedule(label);
            std::iter::from_fn(|| s.next_delay()).collect()
        };
        // Same (seed, label) replays identical delays.
        assert_eq!(draw("probe:a"), draw("probe:a"));
        // A different label is an independent stream.
        assert_ne!(draw("probe:a"), draw("probe:b"));
        // A different seed is an independent stream.
        let q = RetryPolicy::resilient(0xBEE0);
        let mut s = q.schedule("probe:a");
        let other: Vec<_> = std::iter::from_fn(|| s.next_delay()).collect();
        assert_ne!(draw("probe:a"), other);
    }

    #[test]
    fn jitter_respects_base_and_cap() {
        let p = RetryPolicy::resilient(7);
        let mut s = p.schedule("bounds");
        while let Some(d) = s.next_delay() {
            assert!(d >= p.base_backoff, "{d} below base");
            assert!(d <= p.max_backoff, "{d} above cap");
        }
        assert_eq!(s.attempts(), p.max_attempts);
    }

    #[test]
    fn jitter_stream_is_isolated_from_other_streams() {
        // The jitter RNG is derived from (seed, "retry:<label>"); drawing
        // from it must not change what any other derived stream yields —
        // the property that lets recovery paths jitter without perturbing
        // the simulator's latency draws.
        use rand::Rng;
        let before: u64 = derive_rng(1234, "world:net").gen();
        let p = RetryPolicy::resilient(1234);
        let mut s = p.schedule("isolation");
        while s.next_delay().is_some() {}
        let after: u64 = derive_rng(1234, "world:net").gen();
        assert_eq!(before, after);
    }
}
