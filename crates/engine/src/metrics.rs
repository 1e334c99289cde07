//! Job-level measurement: one sample per committed sink record and the
//! run's typed trace of protocol hops and incidents — the raw data behind
//! Figures 5 and 6, from which `RunReport` derives its latency, throughput
//! and trace-counted recovery figures.

use clonos::TaskId;
use clonos_sim::{VirtualDuration, VirtualTime};
use std::fmt;

/// Declares `Kind` from its two groups, listing each variant once, with
/// the hop list [`HOPS`] and [`Kind::name`].
macro_rules! kinds {
    (
        hops: $($hop:ident),+;
        incidents: $($(#[$doc:meta])* $inc:ident $({ $($f:ident: $t:ty),+ })? $(($why:ty))?,)+
    ) => {
        /// What a trace entry records: one of the eleven protocol hops, each
        /// named after the `Msg` variant it sends or accepts (DESIGN.md §11),
        /// or an incident — a fault injected, a retry, a fallback — that the
        /// recovery protocol reacts to but never sends. Only hops take part
        /// in conformance checking.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind {
            $($hop,)+
            $($(#[$doc])* $inc $({ $($f: $t),+ })? $(($why))?,)+
        }

        /// The protocol hops, in chain order.
        pub static HOPS: &[Kind] = &[$(Kind::$hop),+];

        impl Kind {
            /// Variant name: the `Msg` variant for a hop.
            pub fn name(self) -> &'static str {
                match self {
                    $(Kind::$hop => stringify!($hop),)+
                    $(Kind::$inc { .. } => stringify!($inc),)+
                }
            }
        }
    };
}

kinds! {
    hops: TriggerCheckpoint, CheckpointAck, CheckpointComplete, FailureDetected, InstallRecovery,
        LogRequest, LogResponse, BeginReplay, ReplayRequest, RecoveryDone, RestartAll;
    incidents:
    /// A task was killed; `epoch` is the dying incarnation.
    TaskKilled,
    /// A whole node crashed.
    NodeCrashed { node: u32 },
    /// A standby's preloaded state died with its node.
    StandbyLost { node: u32 },
    /// An in-flight standby state transfer was cut off.
    StandbyInterrupted,
    /// The task consumes `factor`× slower for `for_us` virtual µs.
    Slowdown { factor: u64, for_us: u64 },
    /// A determinant-log gather round re-sent to its stragglers.
    GatherRetry { attempt: u32, stragglers: u32 },
    /// A recovering task re-sent its upstream replay requests.
    ReplayRetry { attempt: u32 },
    /// A failure detected while a global rollback was already scheduled.
    FoldedIntoRollback,
    /// A replacement died before its recovery finished; recovery restarts.
    ReplacementDied,
    /// Every task cancelled; `epoch` is the checkpoint to restart from.
    RollbackScheduled,
    /// Orphans found, availability preferred (§5.4): go on at-least-once.
    AtLeastOnce,
    /// Local recovery gave up and fell back to a global rollback.
    Escalated(Escalation),
}

/// Why a local recovery fell back to a global rollback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escalation {
    /// The failure analysis found orphans (§5.3, Figure 4).
    Orphaned,
    /// The determinant-log gather ran out of retries.
    GatherExhausted,
    /// Replay diverged: an orphan the analysis missed (§5.3 Case 2).
    ReplayDiverged,
    /// No `RecoveryDone` within the recovery timeout; `stalled_after` is
    /// the last hop the recovery reached, an entry of [`HOPS`] (the
    /// reference keeps `Kind` sized and `Copy`).
    Watchdog { stalled_after: Option<&'static Kind> },
}

impl Kind {
    /// This kind's entry in [`HOPS`]; `None` for an incident.
    pub fn as_hop(self) -> Option<&'static Kind> {
        HOPS.iter().find(|&&h| h == self)
    }

    /// A protocol hop, not an incident.
    pub fn is_hop(self) -> bool {
        self.as_hop().is_some()
    }

    /// Part of a global rollback: scheduled, restarted, or escalated to.
    pub fn is_rollback(self) -> bool {
        matches!(self, Kind::RollbackScheduled | Kind::RestartAll | Kind::Escalated(_))
    }
}

impl PartialEq<&str> for Kind {
    fn eq(&self, name: &&str) -> bool {
        self.name() == *name
    }
}

/// A trace entry's protocol identity `(kind, epoch, task)`, by which a
/// `caused_by` link names its cause (not by index — indices are not stable
/// across metric absorption). Resolves to the earliest entry with it
/// ([`resolve`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalRef {
    pub kind: Kind,
    /// Checkpoint id for barrier hops, incarnation for recovery hops.
    pub epoch: u64,
    pub task: TaskId,
}

/// `Kind(fields)(epoch=…, task=…)`, e.g. `LogRequest(epoch=3, task=2)`.
impl fmt::Display for CausalRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(epoch={}, task={})", self.kind, self.epoch, self.task)
    }
}

/// One entry of the run's trace (DESIGN.md §11). A hop is recorded where a
/// protocol message is sent (requests) or accepted (responses), an incident
/// where it happens; either may name the entry that caused it. Conformance
/// checking validates the hops' links against the statically derived spec
/// in `results/causal_spec.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub at: VirtualTime,
    pub kind: Kind,
    /// Checkpoint id for barrier hops, incarnation (generation) for
    /// recovery hops and for incidents concerning a task.
    pub epoch: u64,
    /// The task the entry concerns: the acker for an ack, the recovering
    /// task for install/replay hops, the surveyed survivor for log gathers,
    /// the job manager (0) for job-wide entries.
    pub task: TaskId,
    /// The entry that caused this one; `None` for a chain entry.
    pub caused_by: Option<CausalRef>,
}

impl Event {
    /// This entry's protocol identity.
    pub fn id(&self) -> CausalRef {
        CausalRef { kind: self.kind, epoch: self.epoch, task: self.task }
    }
}

/// The identity's form, then `<- cause` when there is one.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())?;
        self.caused_by.map_or(Ok(()), |cause| write!(f, " <- {cause}"))
    }
}

/// Longest cause chain a walk follows. Real chains are short (≤ 8 entries);
/// the bound guards against a self-referential link ever being recorded.
const MAX_CHAIN: usize = 32;

/// The entry a `caused_by` link names: the earliest in `trace` with that
/// protocol identity.
pub fn resolve(trace: &[Event], cause: CausalRef) -> Option<&Event> {
    trace.iter().find(|e| e.id() == cause)
}

/// `e`, then each cause in turn, every link resolved by [`resolve`]. The
/// walk ends at an uncaused entry, at a link that resolves to nothing (the
/// last entry then still names a cause), or after [`MAX_CHAIN`] entries.
pub fn cause_chain<'a>(trace: &'a [Event], e: &'a Event) -> impl Iterator<Item = &'a Event> {
    std::iter::successors(Some(e), move |cur| resolve(trace, cur.caused_by?)).take(MAX_CHAIN)
}

/// Hot-path counters for the record-routing fast path (per task; aggregated
/// job-wide by the cluster). The encode-once router serializes each routed
/// record exactly once and memcpys the bytes to every destination channel,
/// so `route_encodes` tracks `records_routed` even on broadcast/rescale
/// fanout.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoutingStats {
    /// Records that entered `Task::route`.
    pub records_routed: u64,
    /// Destination-channel appends (≥ `records_routed` under fanout).
    pub channel_writes: u64,
    /// Record payload serializations performed while routing.
    pub route_encodes: u64,
}

/// Incremental-checkpoint counters: what each barrier actually encoded and
/// shipped (full base images vs O(dirty) deltas), how often chains were
/// rebased, and what the store/standby side paid to reconstruct or ship
/// images. Per task for the encoder fields; aggregated job-wide by the
/// cluster (which merges in the snapshot-store and standby-manager
/// counters) and surfaced through `RunReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Full base images encoded (an incarnation's first snapshot + rebases).
    pub full_snapshots: u64,
    /// Delta images encoded.
    pub delta_snapshots: u64,
    /// Total bytes across full base images.
    pub full_bytes: u64,
    /// Total bytes across delta images.
    pub delta_bytes: u64,
    /// Dirty entries shipped across all deltas (puts + tombstones).
    pub dirty_entries: u64,
    /// Full snapshots that closed an existing delta chain (every K-th
    /// checkpoint per `checkpoint_rebase_interval`).
    pub rebases: u64,
    /// Full-image reconstructions the snapshot store performed on read
    /// (restores, global rollbacks, cold standby loads).
    pub reconstructions: u64,
    /// Modelled virtual microseconds spent reading + merging delta chains.
    pub reconstruct_us: u64,
    /// Standby state transfers that shipped only a delta because the standby
    /// already held the parent image (§6.4).
    pub delta_dispatches: u64,
    /// Aligned mode: virtual microseconds tasks spent with at least one
    /// input channel blocked waiting for barrier alignment (first blocked
    /// channel → all channels barriered, summed per checkpoint per task).
    pub alignment_stall_us: u64,
    /// Aligned mode: most input channels any task ever had blocked on
    /// alignment at once (job-wide highwater mark, folded with `max`).
    pub channels_blocked_highwater: u64,
    /// Unaligned mode: records the barrier overtook on not-yet-barriered
    /// channels, captured into checkpoint images.
    pub overtaken_records: u64,
    /// Unaligned mode: encoded bytes of captured overtaken buffers.
    pub overtaken_bytes: u64,
    /// Unaligned mode: captured buffers re-injected ahead of channel replay
    /// during recovery.
    pub unaligned_reinjections: u64,
}

impl CheckpointStats {
    /// Fold another set of counters into this aggregate: every field sums,
    /// except the blocked-channel highwater mark, which folds with `max`.
    pub fn absorb(&mut self, other: &CheckpointStats) {
        self.full_snapshots += other.full_snapshots;
        self.delta_snapshots += other.delta_snapshots;
        self.full_bytes += other.full_bytes;
        self.delta_bytes += other.delta_bytes;
        self.dirty_entries += other.dirty_entries;
        self.rebases += other.rebases;
        self.reconstructions += other.reconstructions;
        self.reconstruct_us += other.reconstruct_us;
        self.delta_dispatches += other.delta_dispatches;
        self.alignment_stall_us += other.alignment_stall_us;
        self.channels_blocked_highwater =
            self.channels_blocked_highwater.max(other.channels_blocked_highwater);
        self.overtaken_records += other.overtaken_records;
        self.overtaken_bytes += other.overtaken_bytes;
        self.unaligned_reinjections += other.unaligned_reinjections;
    }
}

/// Robustness counters for the failure/recovery machinery: how often the
/// retry ladders fired, how often recovery escalated to a global rollback,
/// and how overlapped the failures were. Surfaced through `RunReport` so
/// chaos sweeps can assert on protocol behaviour, not just output bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Failure notifications the JM acted on (stale-generation ones
    /// excluded): the trace's `FailureDetected` entries.
    pub failures_detected: u64,
    /// Failures that arrived while another failure was still being handled
    /// (non-empty failed set, active recovery, or scheduled rollback).
    pub concurrent_failures: u64,
    /// Determinant-log gather rounds re-sent after a timeout: the trace's
    /// `GatherRetry` entries.
    pub gather_retries: u64,
    /// Recoveries that gave up and escalated to a global rollback: the
    /// trace's `Escalated(GatherExhausted | Watchdog { .. })` entries.
    pub escalations: u64,
    /// Recovery control messages dropped by injected control-plane chaos.
    pub ctrl_dropped: u64,
    /// Recovery control messages delayed by injected control-plane chaos.
    pub ctrl_delayed: u64,
    /// Local (Clonos) recoveries that ran to completion.
    pub recoveries_completed: u64,
    /// Sum of kill→detection latencies, for averaging.
    pub detection_latency_us_total: u64,
    /// Detections that sum counts: one per `FailureDetected` entry.
    pub detection_samples: u64,
}

/// Counters from the multi-threaded sharded actor runtime (all zero for
/// runs driven by the deterministic sim scheduler). Aggregated once at
/// runtime teardown and surfaced through `RunReport` so benchmarks and the
/// smoke gate can assert on scheduler behaviour, not just output bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker threads the run was sharded across (0 = sim scheduler).
    pub workers: u64,
    /// Shard sweeps in which a worker processed another worker's actor.
    pub steals: u64,
    /// Producer stalls on a full destination mailbox (backpressure events).
    pub mailbox_stalls: u64,
    /// Deepest any bounded mailbox ever got (queue-depth highwater mark).
    pub mailbox_depth_highwater: u64,
    /// Fewest events handled by any single worker (skew floor).
    pub min_worker_events: u64,
    /// Most events handled by any single worker (skew ceiling).
    pub max_worker_events: u64,
}

/// Counters from the tiered log-structured state backend (DESIGN.md §10).
/// All zero when `state_memory_budget` is 0 (untiered runs). Per-task stores
/// report these at teardown; the cluster sums them so `RunReport` exposes
/// one backend-wide view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateBackendStats {
    /// Tasks that ran with tiering enabled.
    pub tiered_tasks: u64,
    /// L0 segments sealed: one per checkpoint cut that had value changes.
    pub flushes: u64,
    /// Compaction passes (level spill-over or bulk-tail fold).
    pub compactions: u64,
    /// Segments live across all tier trees at teardown.
    pub segments_live: u64,
    /// Payload bytes held by live segments at teardown.
    pub segment_bytes: u64,
    /// Point reads that consulted the tier (cache misses reaching segments).
    pub point_reads: u64,
    /// Point reads short-circuited by a segment key filter.
    pub filter_negatives: u64,
    /// Filter passes where the block probe then missed (false positives).
    pub filter_false_positives: u64,
    /// Rows faulted from segments back into the resident cache.
    pub faults: u64,
    /// Clean rows evicted from the resident cache under memory pressure.
    pub evictions: u64,
    /// Bytes of rows resident in cache at teardown (sum over tasks).
    pub resident_bytes: u64,
    /// Modelled virtual time spent on tier I/O (µs, summed over tasks).
    pub tier_io_us: u64,
}

impl StateBackendStats {
    /// Fold another task's backend counters into this aggregate.
    pub fn absorb(&mut self, other: &StateBackendStats) {
        self.tiered_tasks += other.tiered_tasks;
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.segments_live += other.segments_live;
        self.segment_bytes += other.segment_bytes;
        self.point_reads += other.point_reads;
        self.filter_negatives += other.filter_negatives;
        self.filter_false_positives += other.filter_false_positives;
        self.faults += other.faults;
        self.evictions += other.evictions;
        self.resident_bytes += other.resident_bytes;
        self.tier_io_us += other.tier_io_us;
    }
}

/// Every per-task counter block. The cluster folds an incarnation's blocks
/// in when it retires it (kill, replacement, rollback) and reports retired +
/// live, so a failure erases no counts. In-flight peaks sum per incarnation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TaskCounters {
    pub ckpt: CheckpointStats,
    pub backend: StateBackendStats,
    pub log: clonos::causal_log::CausalLogStats,
    pub routing: RoutingStats,
    pub inflight: clonos::inflight::InFlightStats,
    pub ts_calls: u64,
    pub ts_determinants: u64,
}

impl TaskCounters {
    /// Sum `o` into this aggregate, block by block.
    pub fn absorb(&mut self, o: &TaskCounters) {
        self.ckpt.absorb(&o.ckpt);
        self.backend.absorb(&o.backend);
        self.log.absorb(&o.log);
        self.routing.records_routed += o.routing.records_routed;
        self.routing.channel_writes += o.routing.channel_writes;
        self.routing.route_encodes += o.routing.route_encodes;
        self.inflight.absorb(&o.inflight);
        self.ts_calls += o.ts_calls;
        self.ts_determinants += o.ts_determinants;
    }
}

/// One record committed at a sink: `(at, latency, sink)`.
pub type SinkSample = (VirtualTime, VirtualDuration, TaskId);

/// The report's throughput window: 1 s of virtual time.
const THROUGHPUT_WINDOW_US: u64 = 1_000_000;

/// Collected during a run by sinks and the job manager.
#[derive(Debug, Default)]
pub struct JobMetrics {
    /// One sample per record committed at a sink, in commit order per sink.
    pub sink_samples: Vec<SinkSample>,
    /// The run's trace: protocol hops and incidents, linked by
    /// `caused_by`. Its hops are checked against the static spec after
    /// chaos runs.
    pub trace: Vec<Event>,
    /// Records committed at sinks.
    pub records_out: u64,
    /// Records ingested at sources.
    pub records_in: u64,
    /// Failure/recovery counters the trace does not hold; the four it does
    /// stay zero here (see [`JobMetrics::recovery_stats`]).
    pub recovery: RecoveryStats,
}

impl JobMetrics {
    pub fn record_output(&mut self, sink: TaskId, at: VirtualTime, latency: VirtualDuration) {
        self.sink_samples.push((at, latency, sink));
        self.records_out += 1;
    }

    /// Append one hop or incident to the trace.
    pub fn record(
        &mut self,
        at: VirtualTime,
        kind: Kind,
        epoch: u64,
        task: TaskId,
        caused_by: Option<CausalRef>,
    ) {
        self.trace.push(Event { at, kind, epoch, task, caused_by });
    }

    /// The recovery counters, with `failures_detected` (and
    /// `detection_samples`, the same count), `gather_retries` and
    /// `escalations` counted off the trace entries that record them.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let count = |f: fn(Kind) -> bool| self.trace.iter().filter(|e| f(e.kind)).count() as u64;
        let detected = count(|k| k == Kind::FailureDetected);
        RecoveryStats {
            failures_detected: detected,
            detection_samples: detected,
            gather_retries: count(|k| matches!(k, Kind::GatherRetry { .. })),
            escalations: count(|k| {
                matches!(
                    k,
                    Kind::Escalated(Escalation::GatherExhausted | Escalation::Watchdog { .. })
                )
            }),
            ..self.recovery
        }
    }

    /// Last causal hop observed for the in-flight recovery of `task` at
    /// incarnation `gen` — the deepest event whose cause chain roots at a
    /// recovery entry (`FailureDetected`/`RestartAll`) concerning `task`.
    /// Used by the recovery watchdog to name the stalled hop instead of
    /// just reporting the elapsed timeout.
    pub fn last_recovery_hop(&self, task: TaskId, gen: u64) -> Option<Event> {
        let roots_at_task = |e: &Event| {
            cause_chain(&self.trace, e).last().is_some_and(|root| {
                root.caused_by.is_none()
                    && matches!(root.kind, Kind::FailureDetected | Kind::RestartAll)
                    && root.task == task
            })
        };
        self.trace
            .iter()
            .rev()
            .filter(|e| e.kind.is_hop())
            .find(|e| {
                if e.kind == Kind::FailureDetected {
                    // The entry names the incarnation that died, one below
                    // the recovering one.
                    return e.task == task && e.epoch < gen;
                }
                e.epoch == gen && roots_at_task(e)
            })
            .copied()
    }

    /// Fold a per-actor metrics shard (from the parallel runtime) into the
    /// job-wide accumulator. Recovery counters are deliberately untouched:
    /// the parallel runtime only runs failure-free, so shards never record
    /// any.
    pub fn absorb(&mut self, other: JobMetrics) {
        self.sink_samples.extend(other.sink_samples);
        self.trace.extend(other.trace);
        self.trace.sort_by_key(|e| e.at);
        self.records_out += other.records_out;
        self.records_in += other.records_in;
    }
}

/// Commits in each 1 s window — its rate per second — from time zero to
/// the last window holding a sample: `(window start, records per second)`.
pub(crate) fn throughput(samples: &[SinkSample]) -> Vec<(VirtualTime, f64)> {
    let mut counts: Vec<u64> = Vec::new();
    for &(at, ..) in samples {
        let window = (at.as_micros() / THROUGHPUT_WINDOW_US) as usize;
        if window >= counts.len() {
            counts.resize(window + 1, 0);
        }
        if let Some(count) = counts.get_mut(window) {
            *count += 1;
        }
    }
    (0..).zip(counts).map(|(i, c)| (VirtualTime(i * THROUGHPUT_WINDOW_US), c as f64)).collect()
}

/// The `p`-th percentile (0–100) of ascending `sorted`: the sample at rank
/// `round(p/100 · (n − 1))`; `None` when there is none.
pub(crate) fn percentile(sorted: &[VirtualDuration], p: f64) -> Option<VirtualDuration> {
    let last = sorted.len().checked_sub(1)?;
    sorted.get(((p / 100.0) * last as f64).round() as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut m = JobMetrics::default();
        m.record_output(5, VirtualTime(100), VirtualDuration::from_millis(3));
        m.record_output(6, VirtualTime(200), VirtualDuration::from_millis(5));
        m.record_output(5, VirtualTime(1_500_000), VirtualDuration::from_millis(4));
        assert_eq!(m.records_out, 3);
        assert_eq!(m.sink_samples.len(), 3);
        let mut shard = JobMetrics::default();
        shard.record_output(7, VirtualTime(150), VirtualDuration::from_millis(1));
        m.absorb(shard);
        assert_eq!(m.records_out, 4);
        let rates = throughput(&m.sink_samples);
        assert_eq!(rates, [(VirtualTime(0), 3.0), (VirtualTime(1_000_000), 1.0)]);
    }

    #[test]
    fn throughput_buckets_and_rates() {
        let at = |us| (VirtualTime(us), VirtualDuration::ZERO, 1);
        let samples = [at(200_000), at(900_000), at(3_100_000), at(3_200_000)];
        let rates = throughput(&samples);
        // Empty windows between samples count as zero; none after the last.
        assert_eq!(rates.iter().map(|r| r.1).collect::<Vec<_>>(), [2.0, 0.0, 0.0, 2.0]);
        assert_eq!(rates[3].0, VirtualTime(3_000_000));
        assert!(throughput(&[]).is_empty());
    }

    #[test]
    fn latency_percentiles() {
        let sorted: Vec<_> = (1..=100u64).map(VirtualDuration::from_micros).collect();
        let p = |q| percentile(&sorted, q).map(|d| d.as_micros());
        assert_eq!(p(50.0), Some(51)); // rank 49.5 rounds up
        assert_eq!(p(99.0), Some(99));
        assert_eq!(p(0.0), Some(1));
    }

    #[test]
    fn empty_recorder_returns_none() {
        // A job that committed no sink output has no latency percentiles
        // and no throughput windows in its report.
        let m = JobMetrics::default();
        let latencies: Vec<VirtualDuration> = m.sink_samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&latencies, 50.0), None);
        assert_eq!(percentile(&latencies, 99.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert!(throughput(&m.sink_samples).is_empty());
    }

    #[test]
    fn checkpoint_stats_absorb_sums_all_but_the_highwater() {
        // All fields set by exhaustive literal, so a new field fails to
        // compile here until `absorb` is taught about it.
        let one = CheckpointStats {
            full_snapshots: 1,
            delta_snapshots: 2,
            full_bytes: 3,
            delta_bytes: 4,
            dirty_entries: 5,
            rebases: 6,
            reconstructions: 7,
            reconstruct_us: 8,
            delta_dispatches: 9,
            alignment_stall_us: 10,
            channels_blocked_highwater: 11,
            overtaken_records: 12,
            overtaken_bytes: 13,
            unaligned_reinjections: 14,
        };
        let mut total = one;
        total.absorb(&CheckpointStats { channels_blocked_highwater: 3, ..one });
        assert_eq!(
            total,
            CheckpointStats {
                full_snapshots: 2,
                delta_snapshots: 4,
                full_bytes: 6,
                delta_bytes: 8,
                dirty_entries: 10,
                rebases: 12,
                reconstructions: 14,
                reconstruct_us: 16,
                delta_dispatches: 18,
                alignment_stall_us: 20,
                channels_blocked_highwater: 11,
                overtaken_records: 24,
                overtaken_bytes: 26,
                unaligned_reinjections: 28,
            }
        );
    }

    #[test]
    fn events_are_recorded() {
        let mut m = JobMetrics::default();
        m.record(VirtualTime(7), Kind::TaskKilled, 0, 3, None);
        let hop = Kind::FailureDetected;
        let cause = CausalRef { kind: hop, epoch: 0, task: 3 };
        m.record(VirtualTime(9), hop, 0, 3, None);
        let watchdog = Escalation::Watchdog { stalled_after: hop.as_hop() };
        m.record(VirtualTime(9), Kind::Escalated(watchdog), 1, 3, Some(cause));
        assert_eq!(m.trace.len(), 3);
        assert_eq!(m.trace[0].to_string(), "TaskKilled(epoch=0, task=3)");
        assert_eq!(
            m.trace[2].to_string(),
            "Escalated(Watchdog { stalled_after: Some(FailureDetected) })(epoch=1, task=3) \
             <- FailureDetected(epoch=0, task=3)"
        );
        assert!(HOPS.iter().all(|h| h.is_hop()) && !m.trace[0].kind.is_hop());
        assert!(m.trace[2].kind == "Escalated" && m.trace[2].kind.is_rollback());
        // The watchdog's stall is the last hop, never the incident after it.
        assert_eq!(m.last_recovery_hop(3, 1).map(|e| e.kind), Some(hop));
        // The counters the trace holds are counted off it.
        let rs = m.recovery_stats();
        assert_eq!((rs.failures_detected, rs.gather_retries, rs.escalations), (1, 0, 1));
    }
}
