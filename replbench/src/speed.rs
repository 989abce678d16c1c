//! Host-speed normalisation.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over tens of seconds. A short fixed probe, timed between chunks
//! of measured work, tracks that drift: each chunk's wall time is rescaled
//! by `PROBE_NOMINAL_S / probe time` around it. The result is in reference
//! seconds — host seconds at the speed where the probe takes
//! `PROBE_NOMINAL_S` — and moves with the code, not with the neighbours.
//! Raw wall seconds are reported next to it.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Probe time on an unloaded 2-core x86-64 host (the benchmark's reference
/// speed).
pub const PROBE_NOMINAL_S: f64 = 4.0e-3;

/// Events the probe pushes through its queue.
const PROBE_EVENTS: u64 = 20_000;

/// A fixed unit of work: a miniature event loop — boxed payloads pushed
/// through a binary heap, the survivors indexed in a B-tree — the same mix
/// of comparisons, small allocations and pointer chasing the simulator
/// does. The heap's buffer is kept between probes, so no probe pays for
/// growing it or faulting its pages in.
pub struct Probe {
    queue: BinaryHeap<(u64, Box<u64>)>,
}

impl Probe {
    /// A probe with its buffer allocated.
    pub fn new() -> Probe {
        Probe {
            queue: BinaryHeap::with_capacity(PROBE_EVENTS as usize),
        }
    }

    /// Runs the probe once and returns its wall seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..PROBE_EVENTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.queue.push((x, Box::new(i)));
            if i % 3 == 0 {
                self.queue.pop();
            }
        }
        let mut index = BTreeMap::new();
        while let Some((key, payload)) = self.queue.pop() {
            if *payload % 4 == 0 {
                index.insert(key, payload);
            }
        }
        std::hint::black_box(&index);
        t.elapsed().as_secs_f64()
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// Host time of some measured work, as wall seconds and reference seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// The same time at the reference host speed.
    pub ref_s: f64,
}

/// A stopwatch that probes host speed around every chunk it times.
pub struct RefClock {
    probe: Probe,
    last_probe: f64,
    elapsed: Elapsed,
}

impl RefClock {
    /// Starts a clock with a first probe.
    pub fn new() -> RefClock {
        let mut probe = Probe::new();
        let last_probe = probe.time();
        RefClock {
            probe,
            last_probe,
            elapsed: Elapsed::default(),
        }
    }

    /// Runs and times one chunk of work, then probes.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = work();
        let wall = t.elapsed().as_secs_f64();
        let after = self.probe.time();
        self.elapsed.wall_s += wall;
        self.elapsed.ref_s += wall * 2.0 * PROBE_NOMINAL_S / (self.last_probe + after);
        self.last_probe = after;
        out
    }

    /// Runs and times one chunk of work, then probes; returns the chunk's
    /// reference seconds with its result.
    pub fn lap<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.elapsed.ref_s;
        let out = self.time(work);
        (out, self.elapsed.ref_s - before)
    }

    /// Total time of every chunk so far.
    pub fn elapsed(&self) -> Elapsed {
        self.elapsed
    }
}

impl Default for RefClock {
    fn default() -> Self {
        RefClock::new()
    }
}
