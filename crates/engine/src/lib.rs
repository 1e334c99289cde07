//! # clonos-engine — a miniature scale-out stream processor
//!
//! The Apache Flink substitute for the Clonos (SIGMOD '21) reproduction: a
//! deterministic, discrete-event-simulated stream processor with parallel
//! dataflow graphs, FIFO per-partition channels, network buffers, keyed
//! state, event/processing time, watermarks, timers, windows, joins, and
//! aligned Chandy–Lamport checkpoints — plus pluggable fault tolerance:
//!
//! - [`config::FtMode::Clonos`] — the paper's causal local recovery
//!   (standby tasks, determinant replay, in-flight log replay, sender-side
//!   deduplication);
//! - [`config::FtMode::GlobalRollback`] — the Flink baseline (stop-the-world
//!   restart from the last checkpoint, transactional sinks);
//! - [`config::FtMode::None`] — no fault tolerance.
//!
//! Build a [`graph::JobGraph`], wrap it in a [`runner::JobRunner`], inject
//! failures with a [`runner::FailurePlan`], and inspect the
//! [`runner::RunReport`] — which carries exactly-once verification helpers
//! (duplicate/gap detection over the effective, read-committed output).

pub mod cluster;
pub mod config;
mod coordinator;
pub mod error;
pub mod graph;
pub mod messages;
pub mod metrics;
pub mod operator;
pub mod operators;
pub mod record;
pub mod runner;
pub mod runtime;
pub mod state;
pub mod task;

pub use cluster::Cluster;
pub use config::{CheckpointMode, EngineConfig, FtMode};
pub use error::EngineError;
pub use graph::{JobGraph, Partitioning, SinkSpec, SourceSpec, TimestampMode, VertexId};
pub use metrics::{Escalation, Event, Kind, RuntimeStats};
pub use operator::{factory, OpCtx, Operator, TimerKind};
pub use record::{Datum, Record, Row, StreamElement};
pub use runner::{FailurePlan, JobRunner, RunReport};
pub use runtime::ParallelConfig;
