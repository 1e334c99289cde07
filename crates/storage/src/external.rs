//! The "external world": a time-varying key-value service standing in for
//! the external databases / HTTP endpoints the paper's UDFs call (§4.1,
//! "consider a call to an external database that queries the current stock
//! price; this can change at any point in time").
//!
//! Reads are a deterministic function of `(key, time bucket, seed)` plus any
//! explicit writes, so the *service* is reproducible by the test harness,
//! while from the streaming job's perspective a call at a different time
//! returns a different answer — exactly the nondeterminism causal logging
//! must capture: replaying a failed operator without the logged response
//! would observe different values.

use clonos_sim::{SimRng, VirtualTime};
use std::collections::BTreeMap;

/// Granularity at which autonomous values change, in microseconds.
const CHANGE_PERIOD_US: u64 = 1_000;

/// Time-varying external key-value service.
#[derive(Clone, Debug)]
pub struct ExternalKv {
    seed: u64,
    /// Explicit writes override the autonomous signal from their write time on.
    writes: BTreeMap<u64, Vec<(VirtualTime, i64)>>,
    calls: u64,
}

impl ExternalKv {
    pub fn new(seed: u64) -> ExternalKv {
        ExternalKv { seed, writes: BTreeMap::new(), calls: 0 }
    }

    /// Query the current value of `key` at virtual time `now`.
    pub fn get(&mut self, key: u64, now: VirtualTime) -> i64 {
        self.calls += 1;
        if let Some(history) = self.writes.get(&key) {
            if let Some(&(_, v)) = history.iter().rev().find(|&&(t, _)| t <= now) {
                return v;
            }
        }
        // Autonomous signal: changes every `CHANGE_PERIOD_US`.
        let bucket = now.as_micros() / CHANGE_PERIOD_US;
        let mut r = SimRng::new(self.seed).fork(key).fork(bucket);
        (r.next_u64() % 100_000) as i64
    }

    /// Explicitly write a value effective from `now` (used by examples that
    /// model an operator updating an external store).
    pub fn put(&mut self, key: u64, now: VirtualTime, value: i64) {
        self.writes.entry(key).or_default().push((now, value));
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clonos_sim::VirtualDuration;

    #[test]
    fn same_time_same_answer() {
        let mut kv = ExternalKv::new(7);
        let t = VirtualTime(123_456);
        assert_eq!(kv.get(5, t), kv.get(5, t));
    }

    #[test]
    fn values_change_over_time() {
        let mut kv = ExternalKv::new(7);
        let vals: Vec<i64> =
            (0..50).map(|i| kv.get(5, VirtualTime::ZERO + VirtualDuration::from_millis(i))).collect();
        let distinct: std::collections::BTreeSet<_> = vals.iter().collect();
        assert!(distinct.len() > 10, "external value barely changes: {distinct:?}");
        assert_eq!(kv.calls(), 50);
    }

    #[test]
    fn different_keys_differ() {
        let mut kv = ExternalKv::new(7);
        let t = VirtualTime(5_000);
        assert_ne!(kv.get(1, t), kv.get(2, t));
    }

    #[test]
    fn writes_override_from_their_time() {
        let mut kv = ExternalKv::new(7);
        kv.put(9, VirtualTime(1_000), 42);
        // Before the write: autonomous signal.
        let before = kv.get(9, VirtualTime(500));
        // After: the write wins.
        assert_eq!(kv.get(9, VirtualTime(1_000)), 42);
        assert_eq!(kv.get(9, VirtualTime(99_999_999)), 42);
        // A later write supersedes.
        kv.put(9, VirtualTime(2_000), 43);
        assert_eq!(kv.get(9, VirtualTime(1_500)), 42);
        assert_eq!(kv.get(9, VirtualTime(2_500)), 43);
        let _ = before;
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let mut a = ExternalKv::new(11);
        let mut b = ExternalKv::new(11);
        for i in 0..20 {
            let t = VirtualTime(i * 777);
            assert_eq!(a.get(i, t), b.get(i, t));
        }
    }
}
