//! Calibration kernel and host-time normalisation.
//!
//! The host is shared: the same work takes 5–40 % longer while a co-tenant
//! is busy, for seconds at a time. A fixed, allocation-free kernel that
//! mixes what the engine does (dependent loads over more memory than the
//! private caches hold, varint/xorshift arithmetic, `BTreeMap` lookups and
//! `BinaryHeap` push/pop) is timed immediately before and after every timed
//! region. Normalised seconds = wall × `CALIB_REF_S` / mean(before, after):
//! the time the region would have taken on the reference host state.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel pass takes on the host the baseline was recorded on
/// (Intel Xeon @ 2.10 GHz, 2 vCPU, idle neighbour); the median of 200 passes.
pub const CALIB_REF_S: f64 = 0.200;

/// A region whose two calibrations differ by more than this share of their
/// mean is counted as unsteady. It is kept: over 150 chain reps on the
/// reference host, dropping the 19 % of reps beyond this mark left the
/// spread of 5-rep medians where it was (3.9 %), at a fifth more run time.
pub const MAX_BRACKET_SPREAD: f64 = 0.08;

const CHASE_SLOTS: usize = 1 << 20; // 4 MiB of u32
const CHASE_STEPS: usize = 2_400_000;
const ALU_STEPS: u64 = 4_800_000;
const MAP_KEYS: u64 = 4096;
const HEAP_DEPTH: u64 = 4096;
const TREE_STEPS: u64 = 600_000;

/// Advance a xorshift64 state and return it.
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

pub struct Calibrator {
    next: Vec<u32>,
    map: BTreeMap<u64, u64>,
    heap: BinaryHeap<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // Sattolo's shuffle: one cycle through every slot, so the chase
        // cannot settle into a short loop that fits a private cache.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        let map = (0..MAP_KEYS)
            .map(|k| (k.wrapping_mul(0x9E37_79B9), k))
            .collect();
        let mut heap = BinaryHeap::with_capacity(HEAP_DEPTH as usize + 1);
        for _ in 0..HEAP_DEPTH {
            heap.push(xorshift(&mut x));
        }
        Calibrator { next, map, heap }
    }

    /// One pass of the kernel; returns its wall-clock seconds.
    pub fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64 ^ at as u64;
        let mut sum = 0u64;
        let mut buf = [0u8; 10];
        for _ in 0..ALU_STEPS {
            xorshift(&mut x);
            // LEB128, as the engine's codec writes every length and id.
            let mut v = x >> (x & 31);
            let mut n = 0;
            while v >= 0x80 {
                buf[n] = (v as u8) | 0x80;
                v >>= 7;
                n += 1;
            }
            buf[n] = v as u8;
            sum = sum.wrapping_add(buf[n / 2] as u64 + n as u64);
        }
        for _ in 0..TREE_STEPS {
            xorshift(&mut x);
            let key = (x % MAP_KEYS).wrapping_mul(0x9E37_79B9);
            sum = sum.wrapping_add(self.map.get(&key).copied().unwrap_or(0));
            self.heap.push(x);
            sum = sum.wrapping_add(self.heap.pop().unwrap_or(0));
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

/// The two calibration passes around one timed region.
#[derive(Clone, Copy, Debug)]
pub struct Bracket {
    pub before_s: f64,
    pub after_s: f64,
}

impl Bracket {
    pub fn mean_s(&self) -> f64 {
        (self.before_s + self.after_s) / 2.0
    }

    /// Difference of the two passes as a share of their mean.
    pub fn spread(&self) -> f64 {
        (self.before_s - self.after_s).abs() / self.mean_s()
    }

    pub fn steady(&self) -> bool {
        self.spread() <= MAX_BRACKET_SPREAD
    }

    /// Wall seconds of the bracketed region on the reference host state.
    pub fn normalise(&self, wall_s: f64) -> f64 {
        wall_s * CALIB_REF_S / self.mean_s()
    }
}
