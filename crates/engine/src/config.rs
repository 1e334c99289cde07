//! Engine configuration: fault-tolerance mode, timing model, and cost model.

use clonos::ClonosConfig;
use clonos_sim::VirtualDuration;

/// Which fault-tolerance stack the job runs with.
#[derive(Clone, Debug)]
pub enum FtMode {
    /// No fault tolerance: failures abort the run (testing / upper bound).
    None,
    /// The Flink baseline: periodic coordinated checkpoints, stop-the-world
    /// global rollback on failure, transactional (epoch-committed) sinks.
    GlobalRollback,
    /// Clonos: local causal recovery per the paper.
    Clonos(ClonosConfig),
}

impl FtMode {
    pub fn is_clonos(&self) -> bool {
        matches!(self, FtMode::Clonos(_))
    }

    pub fn clonos(&self) -> Option<&ClonosConfig> {
        match self {
            FtMode::Clonos(c) => Some(c),
            _ => None,
        }
    }
}

/// How checkpoint barriers interact with in-flight records.
///
/// `Aligned` is the classic Chandy–Lamport cut: a task that has seen a
/// barrier on one input blocks that channel until the barrier arrives on
/// every input, so the snapshot is state-only but one congested channel
/// stalls checkpointing job-wide. `Unaligned` (Carbone et al., "Lightweight
/// Asynchronous Snapshots") snapshots on *first* barrier arrival, forwards
/// the barrier immediately, and captures records the barrier overtook on
/// not-yet-barriered channels into the checkpoint itself — O(in-flight)
/// extra bytes, but barrier latency independent of backpressure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Block already-barriered channels until alignment (state-only snapshot).
    Aligned,
    /// Snapshot on first barrier; overtaken records ride in the checkpoint.
    Unaligned,
}

/// Network buffer capacity in bytes.
pub const BUFFER_SIZE: usize = 32 * 1024;
/// Flush partial output buffers at this period (the nondeterministic
/// buffer-size source of §4.1).
pub const FLUSH_INTERVAL: VirtualDuration = VirtualDuration::from_millis(5);
/// Extra virtual cost per shipped determinant-delta byte (serialization and
/// network overhead of causal logging).
pub const DELTA_BYTE_COST_NS: u64 = 30;
/// Base link latency and jitter bound between tasks.
pub const LINK_LATENCY: VirtualDuration = VirtualDuration::from_micros(300);
pub const LINK_JITTER: VirtualDuration = VirtualDuration::from_micros(400);
/// Failure-detection delay for Clonos (connection reset propagation).
pub const DETECTION_LOCAL: VirtualDuration = VirtualDuration::from_millis(200);
/// Determinant-log gather round timeout: if any expected survivor has not
/// responded within this window, the JM re-requests the stragglers
/// (doubling the window each retry).
pub const GATHER_TIMEOUT: VirtualDuration = VirtualDuration::from_millis(400);
/// Recovering-task replay-request timeout: if an upstream has not started
/// replaying within this window the request is re-sent (doubling each
/// retry; upstreams dedup by requester incarnation).
pub const REPLAY_REQUEST_TIMEOUT: VirtualDuration = VirtualDuration::from_millis(800);
pub const MAX_REPLAY_REQUEST_RETRIES: u32 = 3;
/// Whole-recovery watchdog: a local recovery still incomplete after this
/// long escalates to a global rollback (the never-hang guarantee).
pub const RECOVERY_TIMEOUT: VirtualDuration = VirtualDuration::from_secs(20);
/// Cache granularity of the timestamp service in microseconds (§4.2
/// "Wall-Clock Time": refresh the cached timestamp every millisecond
/// instead of logging one determinant per call).
pub const TIMESTAMP_CACHE_US: u64 = 1_000;
/// Buffers sent per replay-pump step (upstream replay pacing).
pub const REPLAY_BATCH: usize = 16;

// Zero-sized buffers or batches would hang the pipeline: records could
// never be flushed, replay pumping would never progress.
const _: () = assert!(BUFFER_SIZE > 0 && REPLAY_BATCH > 0);

/// Full engine configuration. Defaults follow the paper's evaluation setup
/// (§7.1) scaled to simulation: checkpoint interval 5 s, Flink failure
/// detection via 4 s heartbeats timing out after 6 s, small per-channel
/// output buffer pools, 32 KiB network buffers (`BUFFER_SIZE`).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Root seed; all simulated nondeterminism derives from it.
    pub seed: u64,
    pub ft: FtMode,
    pub checkpoint_interval: VirtualDuration,
    /// Per-record processing cost charged to a task's service queue.
    pub record_cost: VirtualDuration,
    /// Failure-detection delay for the global-rollback baseline (heartbeat
    /// timeout — the paper tunes Flink to 4 s interval / 6 s timeout).
    pub detection_global: VirtualDuration,
    /// Seeded jitter bound added to the detection delay: each detection draws
    /// uniformly from `[0, detection_jitter)` out of the cluster entropy
    /// stream, so detection ordering varies across seeds but is reproducible
    /// within one. Zero (the default) keeps the legacy fixed delay —
    /// concurrent kills then produce concurrent detections, which several
    /// multi-failure scenarios rely on; chaos plans always set it nonzero.
    pub detection_jitter: VirtualDuration,
    /// Gather retry rounds before the JM gives up and escalates the recovery
    /// to a global rollback.
    pub max_gather_retries: u32,
    /// Chaos: probability that an eligible recovery control message
    /// (LogRequest / LogResponse / ReplayRequest) is dropped in transit.
    /// Checkpoint-coordination RPCs are exempt — they model Flink's reliable
    /// coordinator RPC, and dropping barriers would stall alignment forever
    /// rather than exercise recovery.
    pub ctrl_loss_prob: f64,
    /// Chaos: probability that an eligible recovery control message is
    /// delayed by up to `ctrl_max_delay`.
    pub ctrl_delay_prob: f64,
    pub ctrl_max_delay: VirtualDuration,
    /// Chaos: swallow exactly one `CheckpointAck` — the one `(task,
    /// checkpoint id)` named here. A seeded liveness bug for conformance
    /// tests: the barrier chain for that checkpoint can never complete, and
    /// the trace checker must blame this task's missing ack.
    pub inject_ack_loss: Option<(clonos::TaskId, u64)>,
    /// Baseline full-restart cost: tearing down and redeploying the whole
    /// execution graph before state restore begins.
    pub restart_delay: VirtualDuration,
    /// Number of cluster nodes (standby anti-affinity placement domain).
    pub num_nodes: u32,
    /// Extra synthetic state bytes included in each task snapshot, to model
    /// jobs with large operator state (the §7.4 multi-failure experiments
    /// use 100 MB per operator).
    pub synthetic_state_bytes: u64,
    /// Incremental (copy-on-write) checkpoints: after an incarnation's first
    /// full image, barriers encode only entries dirtied since the previous
    /// snapshot — the barrier path is O(dirty), and standby dispatch (§6.4)
    /// ships delta bytes instead of the whole state. This is the number of
    /// delta snapshots taken between full-image rebases: it bounds
    /// delta-chain length (restore reads at most this many blobs plus the
    /// base) and lets the store GC superseded chains. 0 makes every image a
    /// full base.
    pub checkpoint_rebase_interval: u32,
    /// Barrier alignment discipline; `Aligned` is the default, `Unaligned`
    /// lets barriers overtake backlogged input queues (see `CheckpointMode`).
    pub checkpoint_mode: CheckpointMode,
    /// Resident-cache budget (bytes) for keyed value state, per task. Zero
    /// (the default) keeps the all-in-memory store; nonzero switches every
    /// task onto the tiered log-structured backend (DESIGN.md §10): cold
    /// rows spill to deltamap-format segments, checkpoints reference sealed
    /// segments by id, and the barrier path stays O(dirty) at any key count.
    pub state_memory_budget: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 1,
            ft: FtMode::Clonos(ClonosConfig::default()),
            checkpoint_interval: VirtualDuration::from_secs(5),
            record_cost: VirtualDuration::from_micros(10),
            detection_global: VirtualDuration::from_secs(6),
            detection_jitter: VirtualDuration::ZERO,
            max_gather_retries: 3,
            ctrl_loss_prob: 0.0,
            ctrl_delay_prob: 0.0,
            ctrl_max_delay: VirtualDuration::ZERO,
            inject_ack_loss: None,
            restart_delay: VirtualDuration::from_secs(8),
            num_nodes: 8,
            synthetic_state_bytes: 0,
            checkpoint_rebase_interval: 8,
            checkpoint_mode: CheckpointMode::Aligned,
            state_memory_budget: 0,
        }
    }
}

impl EngineConfig {
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_ft(mut self, ft: FtMode) -> Self {
        self.ft = ft;
        self
    }

    pub fn with_checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint_mode = mode;
        self
    }

    /// Enable the tiered state backend with a per-task resident budget.
    pub fn with_state_memory_budget(mut self, bytes: u64) -> Self {
        self.state_memory_budget = bytes;
        self
    }

    /// Detection delay applicable to the configured mode.
    pub fn detection_delay(&self) -> VirtualDuration {
        match self.ft {
            FtMode::Clonos(_) => DETECTION_LOCAL,
            _ => self.detection_global,
        }
    }

    /// Reject incoherent configurations up front with a typed error instead
    /// of a mid-run panic.
    pub fn validate(&self) -> Result<(), crate::error::EngineError> {
        let bad = |msg: String| Err(crate::error::EngineError::Config(msg));
        if !matches!(self.ft, FtMode::None) && self.checkpoint_interval == VirtualDuration::ZERO {
            return bad(
                "checkpoint_interval must be > 0 when fault tolerance is enabled \
                 (a zero interval would re-trigger checkpoints in a tight loop)"
                    .into(),
            );
        }
        if !(0.0..=1.0).contains(&self.ctrl_loss_prob) || !(0.0..=1.0).contains(&self.ctrl_delay_prob)
        {
            return bad("ctrl_loss_prob / ctrl_delay_prob must lie in [0, 1]".into());
        }
        if self.state_memory_budget > 0 && self.state_memory_budget < 1024 {
            return bad(
                "state_memory_budget must be 0 (untiered) or >= 1024 bytes \
                 (a smaller cache cannot hold even one row plus bookkeeping)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.ft.is_clonos());
        assert!(c.detection_delay() < VirtualDuration::from_secs(1));
        let b = c.with_ft(FtMode::GlobalRollback);
        assert_eq!(b.detection_delay(), VirtualDuration::from_secs(6));
        assert!(b.ft.clonos().is_none());
    }

    #[test]
    fn chaos_defaults_off_and_retry_ladder_bounded() {
        let c = EngineConfig::default();
        // Control-plane chaos must be opt-in: default runs are lossless.
        assert_eq!(c.ctrl_loss_prob, 0.0);
        assert_eq!(c.ctrl_delay_prob, 0.0);
        // Retry ladder must terminate well inside the recovery watchdog:
        // worst-case gather time = sum of timeout * 2^i over all rounds.
        let worst_gather: u64 =
            (0..=c.max_gather_retries).map(|i| GATHER_TIMEOUT.as_micros() << i).sum();
        assert!(worst_gather < RECOVERY_TIMEOUT.as_micros());
        // Jitter is opt-in too: zero keeps concurrent detections concurrent.
        assert_eq!(c.detection_jitter, VirtualDuration::ZERO);
    }

    #[test]
    fn default_mode_is_aligned_and_valid() {
        let c = EngineConfig::default();
        assert_eq!(c.checkpoint_mode, CheckpointMode::Aligned);
        assert!(c.validate().is_ok());
        let u = c.with_checkpoint_mode(CheckpointMode::Unaligned);
        assert_eq!(u.checkpoint_mode, CheckpointMode::Unaligned);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn validate_rejects_incoherent_combinations() {
        use crate::error::EngineError;
        let reject = |c: EngineConfig, needle: &str| match c.validate() {
            Err(EngineError::Config(msg)) => {
                assert!(msg.contains(needle), "expected {needle:?} in {msg:?}")
            }
            other => panic!("expected Config error mentioning {needle:?}, got {other:?}"),
        };

        // Rebase interval 0 is valid: every image is a full base.
        let c = EngineConfig { checkpoint_rebase_interval: 0, ..EngineConfig::default() };
        assert!(c.validate().is_ok());

        let c = EngineConfig { checkpoint_interval: VirtualDuration::ZERO, ..EngineConfig::default() };
        reject(c, "checkpoint_interval");

        // Zero checkpoint interval is tolerable with FT off (never triggers).
        let c = EngineConfig {
            checkpoint_interval: VirtualDuration::ZERO,
            ..EngineConfig::default().with_ft(FtMode::None)
        };
        assert!(c.validate().is_ok());

        let c = EngineConfig { ctrl_loss_prob: 1.5, ..EngineConfig::default() };
        reject(c, "ctrl_loss_prob");

        let c = EngineConfig { state_memory_budget: 100, ..EngineConfig::default() };
        reject(c, "state_memory_budget");

        // Off (0) and a real budget are both fine.
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::default().with_state_memory_budget(1 << 20).validate().is_ok());
    }
}
