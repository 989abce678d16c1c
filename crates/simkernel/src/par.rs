//! Runs independent simulations on all cores.
//!
//! This is the only module allowed to start threads: `clippy.toml` bans
//! `std::thread::{spawn, scope}` and the shared-state types everywhere
//! else. Each item runs on whichever worker claims it, but its result is
//! stored at the item's index, so the output never depends on thread
//! scheduling. A [`crate::Sim`] is single-threaded: each item must build
//! and run its own.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Applies `f` to every item on up to `available_parallelism()` scoped
/// worker threads and returns the results in input order.
///
/// A panic in `f` is re-raised on the caller once every worker has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned thread site: each result lands at its item's index"
    )]
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed suffices: the counter publishes no data, and
                        // results reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use rand::Rng;

    /// A seeded simulation whose result depends on every RNG draw and on
    /// event order: a chain of ticks with random gaps, summed.
    fn seeded_run(seed: &u64) -> (u64, u64) {
        let mut sim = Sim::new(*seed, 0u64);
        fn tick(sim: &mut Sim<u64>) {
            let gap = sim.rng().gen_range(1..1_000u64);
            sim.world = sim.world.wrapping_mul(31).wrapping_add(gap);
            if sim.stats().executed < 500 {
                sim.schedule_in(SimDuration::from_micros(gap), tick);
            }
        }
        sim.schedule_in(SimDuration::ZERO, tick);
        sim.run_to_completion(u64::MAX);
        (sim.world, sim.now().as_nanos())
    }

    #[test]
    fn results_match_a_sequential_map_in_input_order() {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let seeds: Vec<u64> = (0..(2 * cores as u64).max(4)).collect();
        let sequential: Vec<_> = seeds.iter().map(seeded_run).collect();
        assert_eq!(par_map(&seeds, seeded_run), sequential);
    }

    #[test]
    fn empty_input_returns_empty() {
        assert!(par_map(&[] as &[u64], seeded_run).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_panicking_item_is_re_raised_on_the_caller() {
        par_map(&[1, 2, 3, 4], |&i| {
            assert!(i != 3, "item {i} failed");
            i
        });
    }
}
