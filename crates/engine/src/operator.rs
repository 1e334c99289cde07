//! The operator abstraction and its execution context.
//!
//! Operators never touch the wall clock, RNGs, or external systems directly:
//! all nondeterminism flows through [`OpCtx`]'s causal services (§4.2 of the
//! paper), which record determinants under normal operation and replay them
//! during recovery — transparently to the operator author.

use crate::error::EngineError;
use crate::record::{Record, Row};
use crate::state::{StateId, StateStore, StateTimer};
use clonos::causal_log::CausalLogManager;
use clonos::services::CausalServices;
use clonos_sim::VirtualTime;
use clonos_storage::external::ExternalKv;
use std::sync::Arc;

/// Stable id for a processing-time timer: hashes its identity so the same
/// logical timer gets the same id before and after recovery.
pub fn timer_id(t: &StateTimer) -> u64 {
    // FNV-1a over the three fields.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [t.ts, t.key, t.tag] {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Which clock domain a fired timer belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    EventTime,
    ProcessingTime,
}

/// An emitted record before identity assignment (the task fills in `ident`
/// and `create_ts` routing information).
#[derive(Debug)]
pub struct Emit {
    pub key: u64,
    pub event_time: u64,
    pub create_ts: u64,
    pub row: Row,
}

/// Execution context handed to operator callbacks.
pub struct OpCtx<'a> {
    pub state: &'a mut StateStore,
    services: &'a mut CausalServices,
    log: &'a mut CausalLogManager,
    external: &'a ExternalKv,
    /// Virtual instant of this processing step (service-time adjusted).
    now: VirtualTime,
    /// Current low watermark of the task.
    watermark: u64,
    /// Default creation timestamp for emissions (triggering record's, or the
    /// stored one for timer-driven emissions).
    default_create_ts: u64,
    /// Main-thread step counter (records processed this epoch) — anchors
    /// timestamp determinants.
    step: u64,
    /// Collected emissions; the task routes them to output channels.
    pub emitted: Vec<Emit>,
    /// Processing-time timers registered during this callback; the task
    /// schedules their simulator events afterwards.
    pub new_proc_timers: Vec<StateTimer>,
}

impl<'a> OpCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        state: &'a mut StateStore,
        services: &'a mut CausalServices,
        log: &'a mut CausalLogManager,
        external: &'a ExternalKv,
        now: VirtualTime,
        watermark: u64,
        default_create_ts: u64,
        step: u64,
    ) -> OpCtx<'a> {
        OpCtx {
            state,
            services,
            log,
            external,
            now,
            watermark,
            default_create_ts,
            step,
            emitted: Vec::new(),
            new_proc_timers: Vec::new(),
        }
    }

    /// Emit a record downstream, inheriting the triggering record's creation
    /// timestamp (for end-to-end latency measurement).
    pub fn emit(&mut self, key: u64, event_time: u64, row: Row) {
        self.emitted.push(Emit { key, event_time, create_ts: self.default_create_ts, row });
    }

    /// Emit `f(row)` for every row of list `(id, key)` in list order, under
    /// `key` at `event_time`: the rows are read in place, not copied out.
    pub fn emit_for_list(&mut self, id: StateId, key: u64, event_time: u64, mut f: impl FnMut(&Row) -> Row) {
        let create_ts = self.default_create_ts;
        for row in self.state.list(id, key) {
            self.emitted.push(Emit { key, event_time, create_ts, row: f(row) });
        }
    }

    /// Emit with an explicit creation timestamp (e.g. window operators carry
    /// the newest contributing record's).
    pub fn emit_with_create(&mut self, key: u64, event_time: u64, create_ts: u64, row: Row) {
        self.emitted.push(Emit { key, event_time, create_ts, row });
    }

    /// Current low watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    // ----- causal services (§4.2) -----

    /// Wall-clock read through the causal timestamp service (Listing 1).
    pub fn timestamp(&mut self) -> Result<u64, EngineError> {
        Ok(self.services.timestamp(self.log, self.now, self.step)?)
    }

    /// Random draw in `[0, bound)` from the causally-seeded task RNG.
    pub fn random(&mut self, bound: u64) -> u64 {
        self.services.random_range(bound)
    }

    /// Query the external key-value world through the causal HTTP service:
    /// performed once under normal operation, replayed from the log after a
    /// failure.
    pub fn external_get(&mut self, key: u64) -> Result<i64, EngineError> {
        let external = self.external;
        let now = self.now;
        let answer = self.services.external_call(self.log, || external.get(key, now).to_le_bytes())?;
        Ok(i64::from_le_bytes(answer))
    }

    /// Run arbitrary user-provided nondeterministic logic as a causal
    /// service (Listing 2): its serialized output is logged and replayed.
    pub fn user_service(
        &mut self,
        f: impl FnOnce() -> Vec<u8>,
    ) -> Result<Vec<u8>, EngineError> {
        Ok(self.services.user_service(self.log, f)?)
    }

    // ----- timers -----

    /// Register an event-time timer (fires when the watermark passes `ts`).
    pub fn register_event_timer(&mut self, ts: u64, key: u64, tag: u64) {
        self.state.register_event_timer(StateTimer { ts, key, tag });
    }

    /// Register a processing-time timer at virtual time `ts` micros. A
    /// timer already registered is already scheduled.
    pub fn register_proc_timer(&mut self, ts: u64, key: u64, tag: u64) {
        let t = StateTimer { ts, key, tag };
        if self.state.register_proc_timer(t) {
            self.new_proc_timers.push(t);
        }
    }
}

/// A dataflow operator. All persistent state must live in `ctx.state` so the
/// engine can checkpoint/restore it; all nondeterminism must go through the
/// ctx services so Clonos can log and replay it.
pub trait Operator {
    /// Process one record arriving on logical input `input` (0 for
    /// single-input operators; joins use 0/1).
    fn on_record(&mut self, input: u8, record: &Record, ctx: &mut OpCtx<'_>)
        -> Result<(), EngineError>;

    /// The task's combined watermark advanced. Due event-time timers are
    /// delivered through [`Operator::on_timer`] before this is called.
    fn on_watermark(&mut self, _wm: u64, _ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        Ok(())
    }

    /// A timer registered by this operator fired.
    fn on_timer(
        &mut self,
        _timer: StateTimer,
        _kind: TimerKind,
        _ctx: &mut OpCtx<'_>,
    ) -> Result<(), EngineError> {
        Ok(())
    }

    /// A new epoch began (the task passed a checkpoint barrier).
    fn on_epoch(&mut self, _epoch: u64, _ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Factory producing fresh operator instances — used at deployment, for
/// standby replacements, and for global-rollback restarts.
pub type OperatorFactory = Arc<dyn Fn() -> Box<dyn Operator + Send> + Send + Sync>;

/// Convenience: build a factory from a cloneable constructor closure.
pub fn factory<F, O>(f: F) -> OperatorFactory
where
    F: Fn() -> O + Send + Sync + 'static,
    O: Operator + Send + 'static,
{
    Arc::new(move || Box::new(f()) as Box<dyn Operator + Send>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_id_is_stable_and_discriminating() {
        let a = StateTimer { ts: 1, key: 2, tag: 3 };
        let b = StateTimer { ts: 1, key: 2, tag: 3 };
        let c = StateTimer { ts: 1, key: 2, tag: 4 };
        assert_eq!(timer_id(&a), timer_id(&b));
        assert_ne!(timer_id(&a), timer_id(&c));
    }

    #[test]
    fn ctx_collects_emissions_and_timers() {
        let mut state = StateStore::new();
        let mut services = CausalServices::new(1_000);
        let mut log = CausalLogManager::new(1, 1, 1);
        let external = ExternalKv::new(1);
        let mut ctx = OpCtx::new(
            &mut state,
            &mut services,
            &mut log,
            &external,
            VirtualTime(500),
            42,
            7,
            0,
        );
        ctx.emit(1, 100, Row::default());
        ctx.emit_with_create(2, 200, 99, Row::default());
        ctx.register_proc_timer(1_000, 1, 0);
        ctx.register_event_timer(50, 1, 0);
        assert_eq!(ctx.emitted.len(), 2);
        assert_eq!(ctx.emitted[0].create_ts, 7);
        assert_eq!(ctx.emitted[1].create_ts, 99);
        assert_eq!(ctx.new_proc_timers.len(), 1);
        assert_eq!(ctx.watermark(), 42);
        drop(ctx);
        assert_eq!(state.proc_timers().count(), 1);
        assert_eq!(state.event_timers_len(), 1);
    }

    #[test]
    fn ctx_services_record_and_replay() {
        let mut state = StateStore::new();
        let mut services = CausalServices::new(0);
        let mut log = CausalLogManager::new(1, 1, 1);
        let external = ExternalKv::new(9);
        let (t1, x1) = {
            let mut ctx = OpCtx::new(
                &mut state,
                &mut services,
                &mut log,
                &external,
                VirtualTime(123_000),
                0,
                0,
                0,
            );
            (ctx.timestamp().unwrap(), ctx.external_get(5).unwrap())
        };
        // Ship determinants downstream, then replay in a fresh incarnation at
        // a different time: same values come back.
        let delta = log.collect_delta(0);
        let mut down = CausalLogManager::new(2, 0, 1);
        down.ingest_delta(&delta).unwrap();
        let mut log2 = CausalLogManager::new(1, 1, 1);
        log2.begin_replay(down.export_replica(1).unwrap(), 0);
        let mut services2 = CausalServices::new(0);
        let mut state2 = StateStore::new();
        let mut ctx2 = OpCtx::new(
            &mut state2,
            &mut services2,
            &mut log2,
            &external,
            VirtualTime(9_999_000),
            0,
            0,
            0,
        );
        assert_eq!(ctx2.timestamp().unwrap(), t1);
        assert_eq!(ctx2.external_get(5).unwrap(), x1);
    }
}
