//! # clonos — consistent causal recovery for streaming dataflows
//!
//! Rust implementation of the core contribution of *"Clonos: Consistent
//! Causal Recovery for Highly-Available Streaming Dataflows"* (SIGMOD 2021):
//! a fault-tolerance layer for stream processors that recovers failed tasks
//! **locally** — without restarting the topology — with **exactly-once**
//! guarantees, even when operators are **nondeterministic** (processing-time
//! windows, timers, external calls, random numbers, record-arrival order,
//! buffer-flush decisions).
//!
//! The three mechanisms, and where they live here:
//!
//! | Mechanism | Paper | Module |
//! |-----------|-------|--------|
//! | Determinants of nondeterministic events | §3.2, §4 | [`determinant`] |
//! | Causal logs (main-thread + per-output-channel), piggybacked deltas, determinant sharing depth | §4.3, §5.3 | [`causal_log`] |
//! | Causal services (timestamp, RNG, external calls, user-defined) | §4.2 | [`services`] |
//! | Epoch-segmented in-flight record log with spill policies | §2.1, §6.1 | [`inflight`] |
//! | Standby tasks + state snapshot dispatch | §6.3–6.4 | [`standby`] |
//! | Recovery protocol steps & Figure-4 orphan analysis | §2.2, §5 | [`recovery`] |
//! | Guarantee modes (at-most-once / at-least-once / exactly-once) | §5.4 | [`config`] |
//!
//! This crate is engine-agnostic: it defines the data structures and protocol
//! state machines. `clonos-engine` embeds them into a full stream processor
//! (our Apache Flink substitute) and exposes the end-to-end system.

pub mod causal_log;
pub mod config;
pub mod determinant;
pub mod inflight;
pub mod recovery;
pub mod services;
pub mod standby;

pub use causal_log::{CausalLogManager, EpochLog, LogDelta, TaskLogSnapshot};
pub use config::{ClonosConfig, GuaranteeMode, SpillPolicy};
pub use determinant::{Determinant, RpcKind};
pub use inflight::{InFlightLog, ReplayCursor};
pub use recovery::{analyze_failure, RecoveryDecision, TopologyInfo};
pub use services::{CausalServices, ServiceMode};
pub use standby::StandbyManager;

/// Identifies a task (an operator instance) within a job.
pub type TaskId = u64;

/// Identifies an epoch: the interval between two consecutive checkpoints.
/// Epoch `n` contains all records processed after checkpoint `n` completed
/// (or job start for `n = 0`) and before checkpoint `n + 1`.
pub type EpochId = u64;

/// Index of an output channel (partition) of a task.
pub type ChannelId = u32;

/// The test-only reference model of the delta wire, shared with
/// `tests/properties.rs`.
#[cfg(test)]
#[path = "../tests/common/wire_v2.rs"]
mod wire_v2;
