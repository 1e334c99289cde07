//! Job-level measurement: sink latency/throughput series and recovery
//! event markers — the raw data behind Figures 5 and 6.

use clonos::TaskId;
use clonos_sim::{LatencyRecorder, ThroughputSeries, TimeSeries, VirtualDuration, VirtualTime};
use std::collections::BTreeMap;

/// A notable event during a run (failure injected, recovery steps, ...).
#[derive(Clone, Debug)]
pub struct RunEvent {
    pub at: VirtualTime,
    pub what: String,
}

/// Reference to a prior causal event, by protocol identity (not by index —
/// indices are not stable across metric absorption). Resolves to the
/// earliest event with the same `(kind, epoch, task)` key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalRef {
    /// `Msg` variant name of the cause (`"TriggerCheckpoint"`, ...).
    pub kind: &'static str,
    /// Checkpoint id for barrier events, incarnation for recovery events.
    pub epoch: u64,
    pub task: TaskId,
}

/// One hop of the runtime causal trace (DESIGN.md §11): a protocol message
/// was sent (requests, recorded at the sender) or accepted (responses,
/// recorded at the processing side), linked to the event that caused it.
/// Conformance checking validates these links against the statically
/// derived spec in `results/causal_spec.json`.
#[derive(Clone, Copy, Debug)]
pub struct CausalEvent {
    pub at: VirtualTime,
    /// `Msg` variant name (`"CheckpointAck"`, `"LogRequest"`, ...).
    pub kind: &'static str,
    /// Checkpoint id for barrier-chain events, incarnation (generation) for
    /// recovery-chain events.
    pub epoch: u64,
    /// The task the event concerns: the acker for an ack, the recovering
    /// task for install/replay hops, the surveyed survivor for log gathers.
    pub task: TaskId,
    /// Protocol cause, if the event is not a chain entry.
    pub caused_by: Option<CausalRef>,
}

impl CausalEvent {
    /// `LogRequest(epoch=3, task=2)` display form, used in blame chains.
    pub fn describe(&self) -> String {
        format!("{}(epoch={}, task={})", self.kind, self.epoch, self.task)
    }
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
    /// Failure notifications the JM acted on (stale-generation ones excluded).
    pub failures_detected: u64,
    /// Failures that arrived while another failure was still being handled
    /// (non-empty failed set, active recovery, or scheduled rollback).
    pub concurrent_failures: u64,
    /// Whole-node crash events injected.
    pub node_crashes: u64,
    /// Standby state-transfer interruptions injected.
    pub standby_interrupts: u64,
    /// Determinant-log gather rounds re-sent after a timeout.
    pub gather_retries: u64,
    /// Upstream replay requests re-sent by recovering tasks after a timeout.
    pub replay_request_retries: u64,
    /// Recoveries that gave up (gather exhausted / watchdog fired) and
    /// escalated to a global rollback.
    pub escalations: u64,
    /// Subset of `escalations` triggered by the whole-recovery watchdog.
    pub watchdog_escalations: u64,
    /// Recovery control messages dropped by injected control-plane chaos.
    pub ctrl_dropped: u64,
    /// Recovery control messages delayed by injected control-plane chaos.
    pub ctrl_delayed: u64,
    /// Watchdog escalations whose causal chain stalled in the gather phase
    /// (last observed hop was `InstallRecovery`/`LogRequest`/`LogResponse`).
    pub stalled_gather_escalations: u64,
    /// Watchdog escalations whose causal chain stalled in the replay phase
    /// (last observed hop was `BeginReplay`/`ReplayRequest`).
    pub stalled_replay_escalations: u64,
    /// Local (Clonos) recoveries that ran to completion.
    pub recoveries_completed: u64,
    /// Sum of kill→detection latencies, for averaging.
    pub detection_latency_us_total: u64,
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
        let (log, olog) = (&mut self.log, &o.log);
        log.determinants_recorded += olog.determinants_recorded;
        log.delta_bytes_shipped += olog.delta_bytes_shipped;
        log.delta_entries_shipped += olog.delta_entries_shipped;
        log.deltas_ingested += olog.deltas_ingested;
        log.entries_ingested += olog.entries_ingested;
        log.entries_encoded += olog.entries_encoded;
        log.delta_bytes_memcpy += olog.delta_bytes_memcpy;
        log.gap_resyncs += olog.gap_resyncs;
        log.held_spans_skipped += olog.held_spans_skipped;
        log.forwards_withheld += olog.forwards_withheld;
        self.routing.records_routed += o.routing.records_routed;
        self.routing.channel_writes += o.routing.channel_writes;
        self.routing.route_encodes += o.routing.route_encodes;
        let (inf, oinf) = (&mut self.inflight, &o.inflight);
        inf.buffers_logged += oinf.buffers_logged;
        inf.buffers_spilled += oinf.buffers_spilled;
        inf.spill_io = inf.spill_io + oinf.spill_io;
        inf.replay_io = inf.replay_io + oinf.replay_io;
        inf.blocked_appends += oinf.blocked_appends;
        inf.peak_resident_bytes += oinf.peak_resident_bytes;
        self.ts_calls += o.ts_calls;
        self.ts_determinants += o.ts_determinants;
    }
}

/// Collected during a run by sinks and the job manager.
#[derive(Debug)]
pub struct JobMetrics {
    /// Per-sink-task end-to-end latency samples over time.
    pub latency_series: BTreeMap<TaskId, TimeSeries>,
    /// Aggregate latency distribution across all sinks.
    pub latency: LatencyRecorder,
    /// Output records per second (all sinks combined).
    pub throughput: ThroughputSeries,
    pub events: Vec<RunEvent>,
    /// Causal protocol trace: one entry per protocol hop, linked by
    /// `caused_by`. Checked against the static spec after chaos runs.
    pub causal: Vec<CausalEvent>,
    /// Records committed at sinks.
    pub records_out: u64,
    /// Records ingested at sources.
    pub records_in: u64,
    /// Failure/recovery robustness counters.
    pub recovery: RecoveryStats,
}

impl JobMetrics {
    pub fn new(throughput_window: VirtualDuration) -> JobMetrics {
        JobMetrics {
            latency_series: BTreeMap::new(),
            latency: LatencyRecorder::new(),
            throughput: ThroughputSeries::new(throughput_window),
            events: Vec::new(),
            causal: Vec::new(),
            records_out: 0,
            records_in: 0,
            recovery: RecoveryStats::default(),
        }
    }

    pub fn record_output(&mut self, sink: TaskId, at: VirtualTime, latency: VirtualDuration) {
        self.latency_series.entry(sink).or_default().push(at, latency.as_secs_f64());
        self.latency.record(latency);
        self.throughput.record(at, 1);
        self.records_out += 1;
    }

    pub fn event(&mut self, at: VirtualTime, what: impl Into<String>) {
        self.events.push(RunEvent { at, what: what.into() });
    }

    /// Record one causal protocol hop.
    pub fn causal_event(
        &mut self,
        at: VirtualTime,
        kind: &'static str,
        epoch: u64,
        task: TaskId,
        caused_by: Option<CausalRef>,
    ) {
        self.causal.push(CausalEvent { at, kind, epoch, task, caused_by });
    }

    /// Last causal hop observed for the in-flight recovery of `task` at
    /// incarnation `gen` — the deepest event whose cause chain roots at a
    /// recovery entry (`FailureDetected`/`RestartAll`) concerning `task`.
    /// Used by the recovery watchdog to name the stalled hop instead of
    /// just reporting the elapsed timeout.
    pub fn last_recovery_hop(&self, task: TaskId, gen: u64) -> Option<CausalEvent> {
        self.causal
            .iter()
            .rev()
            .find(|e| {
                if e.kind == "FailureDetected" {
                    // The entry names the incarnation that died, one below
                    // the recovering one.
                    return e.task == task && e.epoch < gen;
                }
                e.epoch == gen && self.recovery_chain_root(e).is_some_and(|r| r.task == task)
            })
            .copied()
    }

    /// Walk `caused_by` links back to the chain entry; `Some(root)` when the
    /// root is a recovery entry event. Link resolution is by protocol
    /// identity `(kind, epoch, task)`, earliest match wins.
    fn recovery_chain_root(&self, e: &CausalEvent) -> Option<CausalEvent> {
        let mut cur = *e;
        // Chains are short (≤ 6 hops); the bound guards against a
        // self-referential link ever being recorded.
        for _ in 0..16 {
            let Some(cause) = cur.caused_by else {
                return matches!(cur.kind, "FailureDetected" | "RestartAll").then_some(cur);
            };
            cur = *self
                .causal
                .iter()
                .find(|c| c.kind == cause.kind && c.epoch == cause.epoch && c.task == cause.task)?;
        }
        None
    }

    /// Fold a per-actor metrics shard (from the parallel runtime) into the
    /// job-wide accumulator. Recovery counters are deliberately untouched:
    /// the parallel runtime only runs failure-free, so shards never record
    /// any.
    pub fn absorb(&mut self, other: JobMetrics) {
        for (sink, series) in other.latency_series {
            self.latency_series.entry(sink).or_default().absorb(&series);
        }
        self.latency.absorb(&other.latency);
        self.throughput.absorb(&other.throughput);
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self.causal.extend(other.causal);
        self.causal.sort_by_key(|e| e.at);
        self.records_out += other.records_out;
        self.records_in += other.records_in;
    }

    /// Combined latency time series across sinks, time-ordered.
    pub fn combined_latency_series(&self) -> TimeSeries {
        let mut all: Vec<(VirtualTime, f64)> = self
            .latency_series
            .values()
            .flat_map(|s| s.points().iter().copied())
            .collect();
        all.sort_by_key(|&(t, _)| t);
        let mut ts = TimeSeries::new();
        for (t, v) in all {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut m = JobMetrics::new(VirtualDuration::from_secs(1));
        m.record_output(5, VirtualTime(100), VirtualDuration::from_millis(3));
        m.record_output(6, VirtualTime(200), VirtualDuration::from_millis(5));
        m.record_output(5, VirtualTime(1_500_000), VirtualDuration::from_millis(4));
        assert_eq!(m.records_out, 3);
        assert_eq!(m.latency.len(), 3);
        assert_eq!(m.throughput.total(), 3);
        let combined = m.combined_latency_series();
        assert_eq!(combined.len(), 3);
        // Time-ordered despite interleaved sinks.
        let times: Vec<_> = combined.points().iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
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
        let mut m = JobMetrics::new(VirtualDuration::from_secs(1));
        m.event(VirtualTime(7), "kill task 3");
        assert_eq!(m.events.len(), 1);
        assert_eq!(m.events[0].what, "kill task 3");
    }
}
