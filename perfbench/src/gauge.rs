//! The host-speed gauge: a fixed reference workload timed beside the
//! program, so that host times can be stated at a reference speed.
//!
//! Other tenants of the host slow every instruction the benchmark thread
//! issues, by up to about half, in episodes of seconds to minutes that can
//! cover a whole run; the thread's CPU time does not leave them out. The
//! gauge does the same fixed work in every slice — ordered-map and
//! hash-map churn with small allocations, the kind of work the program's
//! event loop does — using only the standard library, so a change to the
//! program does not change it. A slice taken next to a timed call slows
//! down with it: the ratio of the two is the call's cost in slices, which
//! holds across those episodes, and [`REFERENCE_SLICE_S`] turns it back
//! into seconds. The gauge's data (about 150 KiB) is small next to the
//! program's, so its slices evict little of the program's data.

use crate::clock::cpu_timed;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// CPU seconds of one slice on the reference host (2 vCPUs of an Intel
/// Xeon under KVM) while it is not slowed down by other tenants. Host
/// times are reported as their cost in slices times this constant.
pub const REFERENCE_SLICE_S: f64 = 1.0e-4;

/// Slices taken on each side of a call that cannot be split.
pub const BESIDE: usize = 4;

/// Keys of the ordered map.
const TREE_KEYS: u64 = 4096;
/// Keys of the hash map.
const MAP_KEYS: u64 = 512;
/// Operations on the ordered map in one slice (about three quarters of
/// its time); the hash map takes three times as many.
const OPS: usize = 300;

/// The reference workload's state.
pub struct Gauge {
    tree: BTreeMap<u64, u64>,
    map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    rng: u64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            tree: (0..TREE_KEYS).map(|k| (k * 7, k)).collect(),
            map: HashMap::default(),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// xorshift64*.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl Gauge {
    /// One pass of the fixed work.
    fn work(&mut self) {
        let rng = &mut self.rng;
        for _ in 0..OPS {
            let r = next(rng);
            let key = (r % TREE_KEYS) * 7;
            if let Some(v) = self.tree.remove(&key) {
                self.tree.insert(key, v.wrapping_add(r));
            }
            black_box(self.tree.range(key..).next());
        }
        for _ in 0..OPS * 3 {
            let r = next(rng);
            let entry = self.map.entry(r % MAP_KEYS).or_default();
            entry.push(r as u8);
            if entry.len() > 24 {
                entry.clear();
                entry.shrink_to_fit();
            }
        }
    }

    /// CPU seconds of one slice. The work runs once untimed first, so the
    /// slice measures the host's speed rather than how much of the gauge's
    /// data the program's last call evicted.
    pub fn slice(&mut self) -> f64 {
        self.work();
        cpu_timed(|| self.work()).1
    }

    /// CPU seconds of [`BESIDE`] slices taken one after the other, to go
    /// beside a call that cannot be split.
    pub fn slices(&mut self) -> [f64; BESIDE] {
        [(); BESIDE].map(|()| self.slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_takes_time_and_keeps_the_maps_their_size() {
        let mut gauge = Gauge::default();
        let secs: Vec<f64> = (0..5).map(|_| gauge.slice()).collect();
        assert!(secs.iter().all(|&s| s > 0.0 && s < 0.1), "{secs:?}");
        assert_eq!(gauge.tree.len() as u64, TREE_KEYS);
        assert!(gauge.map.len() as u64 <= MAP_KEYS);
    }
}
