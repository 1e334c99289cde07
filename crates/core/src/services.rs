//! Causal services (§4.2): the programming abstraction that hides causal
//! logging and recovery from UDF authors and system programmers.
//!
//! Under normal operation a service executes its nondeterministic logic and
//! appends the outcome's determinant to the causal log. During recovery the
//! same call *replays* the logged outcome instead (Listing 3 of the paper):
//!
//! ```text
//! if recoveryManager.running()  determinant = f.apply(input)   // normal
//! else                          determinant = replay()          // recovery
//! causalLog.append(determinant)
//! ```
//!
//! Built-in services: [`CausalServices::timestamp`] (wall clock, with the
//! caching optimization that cuts determinant volume by ~two orders of
//! magnitude), [`CausalServices::rng`] (seed per epoch), and
//! [`CausalServices::external_call`] / [`CausalServices::user_service`]
//! (serialized responses). The engine routes all of a task's nondeterminism
//! through this façade.

use crate::causal_log::CausalLogManager;
use crate::determinant::Determinant;
use clonos_sim::{SimRng, VirtualTime};

/// Whether a task is executing normally or replaying after a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceMode {
    Recording,
    Replaying,
}

/// Errors surfaced when replay diverges from the log — these indicate either
/// a nondeterministic code path that bypassed the services (a user bug the
/// paper's design explicitly guards against) or a protocol bug.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Replay expected a determinant of one kind but the log held another.
    ReplayDivergence { expected: &'static str, found: String },
    /// Replay needed a determinant but the log was exhausted.
    ReplayExhausted { expected: &'static str },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ReplayDivergence { expected, found } => {
                write!(f, "replay divergence: expected {expected} determinant, log has {found}")
            }
            ServiceError::ReplayExhausted { expected } => {
                write!(f, "replay log exhausted while expecting {expected} determinant")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-task façade over the causal log for all nondeterministic operations.
#[derive(Debug)]
pub struct CausalServices {
    /// Cached wall-clock timestamp (micros) and the instant it was taken.
    cached_ts: Option<(u64, VirtualTime)>,
    /// Cache refresh granularity in microseconds; 0 disables caching.
    cache_granularity_us: u64,
    /// The task-local RNG, reseeded each epoch via a logged seed.
    rng: SimRng,
    /// Count of timestamp service calls vs. determinants actually logged —
    /// evidence for the §4.2 caching claim (benchmark E9).
    pub ts_calls: u64,
    pub ts_determinants: u64,
}

impl CausalServices {
    pub fn new(cache_granularity_us: u64) -> CausalServices {
        CausalServices {
            cached_ts: None,
            cache_granularity_us,
            rng: SimRng::new(0),
            ts_calls: 0,
            ts_determinants: 0,
        }
    }

    fn mode(log: &CausalLogManager) -> ServiceMode {
        if log.replaying() {
            ServiceMode::Replaying
        } else {
            ServiceMode::Recording
        }
    }

    /// Wall-clock read (`ctx.getTimestampService().currentTimeMillis()` in
    /// the paper's Listing 1, but at microsecond granularity here).
    ///
    /// With caching enabled, at most one `Timestamp` determinant is logged
    /// per granularity window; intermediate calls return the cached value —
    /// trading sub-window precision for a ~100× determinant reduction.
    /// `step` is the task's main-thread step counter; it anchors logged
    /// timestamps so that replay can tell a fresh read from a cached one.
    pub fn timestamp(
        &mut self,
        log: &mut CausalLogManager,
        now: VirtualTime,
        step: u64,
    ) -> Result<u64, ServiceError> {
        self.ts_calls += 1;
        match Self::mode(log) {
            ServiceMode::Recording => {
                if self.cache_granularity_us > 0 {
                    if let Some((ts, at)) = self.cached_ts {
                        if now.saturating_sub(at).as_micros() < self.cache_granularity_us {
                            return Ok(ts);
                        }
                    }
                }
                let ts = now.as_micros();
                self.cached_ts = Some((ts, now));
                self.ts_determinants += 1;
                log.record(Determinant::Timestamp { ts, offset: step });
                Ok(ts)
            }
            ServiceMode::Replaying => match (log.peek_replay(), self.cached_ts) {
                (Some(&Determinant::Timestamp { ts, offset }), _) if offset == step => {
                    log.pop_replay();
                    // Re-prime the cache so post-replay behaviour matches.
                    self.cached_ts = Some((ts, now));
                    Ok(ts)
                }
                // Cached-window call during replay: the original run returned
                // the cached value without logging; do the same.
                (_, Some((ts, _))) => Ok(ts),
                (Some(other), None) => Err(ServiceError::ReplayDivergence {
                    expected: "Timestamp",
                    found: format!("{other:?}"),
                }),
                (None, None) => Err(ServiceError::ReplayExhausted { expected: "Timestamp" }),
            },
        }
    }

    /// Begin a new epoch: renew the RNG seed (§4.2 "Random Numbers" — the
    /// service stores a fresh seed per checkpoint rather than every number).
    pub fn renew_rng_seed(
        &mut self,
        log: &mut CausalLogManager,
        fresh_entropy: u64,
    ) -> Result<(), ServiceError> {
        match Self::mode(log) {
            ServiceMode::Recording => {
                self.rng = SimRng::new(fresh_entropy);
                log.record(Determinant::RngSeed { seed: fresh_entropy });
                Ok(())
            }
            ServiceMode::Replaying => match log.pop_replay() {
                Some(Determinant::RngSeed { seed }) => {
                    self.rng = SimRng::new(seed);
                    Ok(())
                }
                Some(other) => Err(ServiceError::ReplayDivergence {
                    expected: "RngSeed",
                    found: format!("{other:?}"),
                }),
                None => Err(ServiceError::ReplayExhausted { expected: "RngSeed" }),
            },
        }
    }

    /// Draw from the task RNG. Deterministic given the seed stream, so no
    /// per-draw determinant is needed.
    pub fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform draw in `[0, bound)`.
    pub fn random_range(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(bound)
    }

    /// Call an external system (the HTTP/database service of Listing 1).
    /// `perform` executes the real call under normal operation; during
    /// recovery its logged response is returned without re-calling — the
    /// external world must not observe duplicated side effects and its state
    /// may have changed since. The answer is logged from a borrow, so one
    /// that is not a `Vec` (`[u8; 8]`) costs no allocation; replay converts
    /// the logged payload.
    pub fn external_call<A: AsRef<[u8]> + TryFrom<Vec<u8>>>(
        &mut self,
        log: &mut CausalLogManager,
        perform: impl FnOnce() -> A,
    ) -> Result<A, ServiceError> {
        match Self::mode(log) {
            ServiceMode::Recording => {
                let answer = perform();
                log.record_external(answer.as_ref());
                Ok(answer)
            }
            ServiceMode::Replaying => match log.pop_replay() {
                Some(Determinant::External { payload }) => {
                    A::try_from(payload).map_err(|_| ServiceError::ReplayDivergence {
                        expected: "External",
                        found: "an External answer of another length".into(),
                    })
                }
                Some(other) => Err(ServiceError::ReplayDivergence {
                    expected: "External",
                    found: format!("{other:?}"),
                }),
                None => Err(ServiceError::ReplayExhausted { expected: "External" }),
            },
        }
    }

    /// A user-defined causal service (Listing 2): arbitrary nondeterministic
    /// logic whose serialized output is logged and replayed transparently.
    pub fn user_service(
        &mut self,
        log: &mut CausalLogManager,
        f: impl FnOnce() -> Vec<u8>,
    ) -> Result<Vec<u8>, ServiceError> {
        match Self::mode(log) {
            ServiceMode::Recording => Ok(record_payload(log, Determinant::UserService { payload: f() })),
            ServiceMode::Replaying => match log.pop_replay() {
                Some(Determinant::UserService { payload }) => Ok(payload),
                Some(other) => Err(ServiceError::ReplayDivergence {
                    expected: "UserService",
                    found: format!("{other:?}"),
                }),
                None => Err(ServiceError::ReplayExhausted { expected: "UserService" }),
            },
        }
    }

    /// Generate (or replay) a watermark value derived from the wall clock.
    pub fn watermark(
        &mut self,
        log: &mut CausalLogManager,
        fresh: u64,
    ) -> Result<u64, ServiceError> {
        match Self::mode(log) {
            ServiceMode::Recording => {
                log.record(Determinant::Watermark { ts: fresh });
                Ok(fresh)
            }
            ServiceMode::Replaying => match log.pop_replay() {
                Some(Determinant::Watermark { ts }) => Ok(ts),
                Some(other) => Err(ServiceError::ReplayDivergence {
                    expected: "Watermark",
                    found: format!("{other:?}"),
                }),
                None => Err(ServiceError::ReplayExhausted { expected: "Watermark" }),
            },
        }
    }

    /// Invalidate the timestamp cache (e.g. on recovery completion).
    pub fn invalidate_cache(&mut self) {
        self.cached_ts = None;
    }
}

/// Log a payload-carrying determinant and hand its payload back to the
/// caller, uncopied.
fn record_payload(log: &mut CausalLogManager, det: Determinant) -> Vec<u8> {
    log.record(&det);
    match det {
        Determinant::External { payload } | Determinant::UserService { payload } => payload,
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clonos_sim::VirtualDuration;

    fn fresh(dsd: u32) -> (CausalLogManager, CausalServices) {
        (CausalLogManager::new(1, 1, dsd), CausalServices::new(1_000))
    }

    #[test]
    fn timestamp_caching_reduces_determinants() {
        let (mut log, mut svc) = fresh(1);
        let base = VirtualTime::ZERO;
        // 100 calls within the same millisecond: 1 determinant.
        for i in 0..100 {
            let t = base + VirtualDuration::from_micros(i * 5);
            svc.timestamp(&mut log, t, 0).unwrap();
        }
        assert_eq!(svc.ts_calls, 100);
        assert_eq!(svc.ts_determinants, 1);
        // Next millisecond: one more.
        svc.timestamp(&mut log, base + VirtualDuration::from_millis(2), 100).unwrap();
        assert_eq!(svc.ts_determinants, 2);
    }

    #[test]
    fn uncached_timestamp_logs_every_call() {
        let mut log = CausalLogManager::new(1, 1, 1);
        let mut svc = CausalServices::new(0);
        for i in 0..10 {
            svc.timestamp(&mut log, VirtualTime(i), i).unwrap();
        }
        assert_eq!(svc.ts_determinants, 10);
    }

    #[test]
    fn timestamp_replay_returns_logged_values() {
        let (mut log, mut svc) = fresh(1);
        let t1 = svc.timestamp(&mut log, VirtualTime(500), 0).unwrap();
        let t2 = svc.timestamp(&mut log, VirtualTime(5_000), 1).unwrap();
        assert_ne!(t1, t2);

        // Ship to downstream, fail, replay at a completely different time.
        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(1_000);
        assert_eq!(svc2.timestamp(&mut log2, VirtualTime(999_999), 0).unwrap(), t1);
        assert_eq!(svc2.timestamp(&mut log2, VirtualTime(999_999), 1).unwrap(), t2);
    }

    #[test]
    fn cached_calls_replay_without_consuming_log() {
        let (mut log, mut svc) = fresh(1);
        // Original run: call twice in the same window (1 determinant), then
        // an external call.
        svc.timestamp(&mut log, VirtualTime(0), 0).unwrap();
        svc.timestamp(&mut log, VirtualTime(10), 1).unwrap();
        svc.external_call(&mut log, || b"resp".to_vec()).unwrap();

        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(1_000);
        let a = svc2.timestamp(&mut log2, VirtualTime(7), 0).unwrap();
        let b = svc2.timestamp(&mut log2, VirtualTime(8), 1).unwrap();
        assert_eq!(a, b);
        // The external determinant is still intact.
        assert_eq!(svc2.external_call(&mut log2, || -> Vec<u8> { panic!("must not re-call") }).unwrap(), b"resp");
    }

    #[test]
    fn rng_reproducible_across_replay() {
        let (mut log, mut svc) = fresh(1);
        svc.renew_rng_seed(&mut log, 777).unwrap();
        let draws: Vec<u64> = (0..5).map(|_| svc.random_u64()).collect();

        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(1_000);
        svc2.renew_rng_seed(&mut log2, 123_456).unwrap(); // fresh entropy ignored on replay
        let replayed: Vec<u64> = (0..5).map(|_| svc2.random_u64()).collect();
        assert_eq!(draws, replayed);
    }

    #[test]
    fn external_call_not_repeated_during_replay() {
        let (mut log, mut svc) = fresh(1);
        let mut calls = 0;
        let resp = svc
            .external_call(&mut log, || {
                calls += 1;
                vec![1, 2, 3]
            })
            .unwrap();
        assert_eq!(resp, vec![1, 2, 3]);
        assert_eq!(calls, 1);

        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(1_000);
        let replayed = svc2.external_call(&mut log2, || -> Vec<u8> { panic!("external re-called") }).unwrap();
        assert_eq!(replayed, vec![1, 2, 3]);
    }

    #[test]
    fn replay_divergence_is_detected() {
        let (mut log, mut svc) = fresh(1);
        svc.external_call(&mut log, || vec![9]).unwrap();
        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(0);
        // Replaying a *timestamp* where the log holds an External entry:
        let err = svc2.timestamp(&mut log2, VirtualTime(1), 0).unwrap_err();
        assert!(matches!(err, ServiceError::ReplayDivergence { expected: "Timestamp", .. }));
    }

    #[test]
    fn user_service_roundtrip() {
        let (mut log, mut svc) = fresh(1);
        let out = svc.user_service(&mut log, || b"custom-nondet".to_vec()).unwrap();
        assert_eq!(out, b"custom-nondet");
        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(0);
        assert_eq!(svc2.user_service(&mut log2, Vec::new).unwrap(), b"custom-nondet");
    }

    #[test]
    fn watermark_roundtrip() {
        let (mut log, mut svc) = fresh(1);
        assert_eq!(svc.watermark(&mut log, 12345).unwrap(), 12345);
        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut svc2 = CausalServices::new(0);
        // Fresh value differs; the logged one wins.
        assert_eq!(svc2.watermark(&mut log2, 99999).unwrap(), 12345);
    }

    #[test]
    fn replay_exhaustion_is_detected() {
        let mut log2 = CausalLogManager::new(1, 1, 1);
        let snap = crate::causal_log::TaskLogSnapshot {
            logs: vec![(crate::causal_log::MAIN_LOG, 0, vec![])],
        };
        log2.begin_replay(snap, 0);
        // An empty replay source means the manager is immediately live.
        let mut svc = CausalServices::new(0);
        // Not replaying => this records normally rather than erroring.
        assert!(svc.timestamp(&mut log2, VirtualTime(5), 0).is_ok());
    }
}
