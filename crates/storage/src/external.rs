//! The "external world": a time-varying key-value service standing in for
//! the external databases / HTTP endpoints the paper's UDFs call (§4.1,
//! "consider a call to an external database that queries the current stock
//! price; this can change at any point in time").
//!
//! Reads are a deterministic function of `(key, time bucket, seed)`, so the
//! *service* is reproducible by the test harness and can be shared by every
//! thread of a run, while from the streaming job's perspective a call at a
//! different time returns a different answer — exactly the nondeterminism
//! causal logging must capture: replaying a failed operator without the
//! logged response would observe different values.

use clonos_sim::{SimRng, VirtualTime};

/// Granularity at which autonomous values change, in microseconds.
const CHANGE_PERIOD_US: u64 = 1_000;

/// Time-varying external key-value service.
#[derive(Debug)]
pub struct ExternalKv {
    seed: u64,
}

impl ExternalKv {
    pub fn new(seed: u64) -> ExternalKv {
        ExternalKv { seed }
    }

    /// Query the current value of `key` at virtual time `now`: changes every
    /// `CHANGE_PERIOD_US`.
    pub fn get(&self, key: u64, now: VirtualTime) -> i64 {
        let bucket = now.as_micros() / CHANGE_PERIOD_US;
        let mut r = SimRng::new(self.seed).fork(key).fork(bucket);
        (r.next_u64() % 100_000) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clonos_sim::VirtualDuration;

    #[test]
    fn same_time_same_answer() {
        let kv = ExternalKv::new(7);
        let t = VirtualTime(123_456);
        assert_eq!(kv.get(5, t), kv.get(5, t));
    }

    #[test]
    fn values_change_over_time() {
        let kv = ExternalKv::new(7);
        let vals: Vec<i64> =
            (0..50).map(|i| kv.get(5, VirtualTime::ZERO + VirtualDuration::from_millis(i))).collect();
        let distinct: std::collections::BTreeSet<_> = vals.iter().collect();
        assert!(distinct.len() > 10, "external value barely changes: {distinct:?}");
    }

    #[test]
    fn different_keys_differ() {
        let kv = ExternalKv::new(7);
        let t = VirtualTime(5_000);
        assert_ne!(kv.get(1, t), kv.get(2, t));
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let a = ExternalKv::new(11);
        let b = ExternalKv::new(11);
        for i in 0..20 {
            let t = VirtualTime(i * 777);
            assert_eq!(a.get(i, t), b.get(i, t));
        }
    }
}
