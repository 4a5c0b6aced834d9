//! How fast the machine runs right now.
//!
//! The sandbox this benchmark was written on is shared: for seconds to
//! minutes at a time its cores run a quarter faster, or up to twice
//! slower, than usual, and everything slows together. A fixed loop that
//! calls nothing under test (a `HashMap` and a `VecDeque` of the standard
//! library, fixed keys, fixed hasher) is timed just before and just after
//! each measurement; its time over its nominal time is the slowdown, and
//! every wall-clock number the benchmark prints is divided by the slowdown
//! measured around it. That cut the run-to-run spread of
//! `host_ns_per_req` from 19% to 5% on `fast_4k` and from 18% to 4% on
//! `fleet_hot_256` (eight runs each, on a noisy afternoon). A change to the
//! code under test cannot move the gauge, so it cannot hide behind it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// What one operation of the reference loop takes on this sandbox in its
/// usual state. Only sets the scale: compensated numbers read like raw
/// numbers taken in that state.
pub const NOMINAL_NS: f64 = 24.0;

/// Nanoseconds per operation of the reference loop, about 5 ms in all.
fn reference_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(2048, Default::default());
    let mut fifo: VecDeque<u64> = VecDeque::with_capacity(64);
    let t0 = Instant::now();
    for i in 0..OPS {
        map.insert(i & 1023, i);
        fifo.push_back(i);
        if fifo.len() > 32 {
            let old = fifo.pop_front().expect("just checked");
            map.remove(&(old & 1023));
        }
    }
    std::hint::black_box((&map, &fifo));
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// Brackets a measurement with two readings of the reference loop.
pub struct Gauge {
    before: f64,
}

impl Gauge {
    pub fn start() -> Gauge {
        Gauge {
            before: reference_ns(),
        }
    }

    /// The slowdown over the bracketed interval: 1.0 is the nominal speed,
    /// 1.25 a quarter slower.
    pub fn finish(self) -> f64 {
        (self.before + reference_ns()) / 2.0 / NOMINAL_NS
    }
}
