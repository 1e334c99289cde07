//! The task runtime: the unit of deployment, failure, and recovery.
//!
//! A task executes one parallel instance of a vertex (source, operator, or
//! sink). Its main loop consumes input buffers, runs the operator, and
//! writes serialized output into per-channel network buffers. All of the
//! paper's fault-tolerance machinery hangs off this loop:
//!
//! - every nondeterministic choice is recorded through the task's
//!   [`CausalLogManager`] (input order, timers, RPCs, service calls, flush
//!   decisions);
//! - every dispatched buffer is logged in the [`InFlightLog`] with its
//!   piggybacked determinant delta;
//! - during recovery the same loop runs in **replay mode**: buffer
//!   consumption follows `Order` determinants, services return logged
//!   values, timers fire at logged offsets, output buffers are cut at
//!   logged sizes and the first `skip[ch]` buffers per channel are rebuilt
//!   but not re-sent (sender-side deduplication, protocol step 6).

use crate::config::{CheckpointMode, EngineConfig, FtMode};
use crate::error::EngineError;
use crate::graph::{Partitioning, SinkSpec, SourceSpec, TaskSpec, TimestampMode, VertexKind};
use crate::messages::{Msg, SegmentAck};
use crate::metrics::{CausalRef, CheckpointStats, JobMetrics, RecoveryStats, RoutingStats};
use crate::operator::{timer_id, Emit, OpCtx, Operator, TimerKind};
use crate::record::{barrier_only, BufferReader, Datum, Element, Record, StreamElement};
use crate::state::{StateStore, StateTimer, SEC_META};
use bytes::Bytes;
use clonos::causal_log::{CausalLogManager, TaskLogSnapshot};
use clonos::config::GuaranteeMode;
use clonos::determinant::{Determinant, RpcKind};
use clonos::inflight::{InFlightLog, ReplayCursor, SentBuffer};
use clonos::recovery::LogRetrievalResponse;
use clonos::services::CausalServices;
use clonos::{ChannelId, EpochId, TaskId};
use clonos_sim::{Link, Scheduler, ServiceQueue, SimRng, VirtualDuration, VirtualTime};
use clonos_storage::codec::{ByteReader, ByteWriter, CodecError};
use clonos_storage::deltamap;
use clonos_storage::log::{DurableLog, Meta};
use clonos_storage::spill::SpillDevice;
use clonos_storage::external::ExternalKv;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Timer id reserved for the source watermark tick.
const WM_TIMER_ID: u64 = u64::MAX - 1;

/// Everything a task handler may touch outside the task itself.
pub struct TaskCtx<'a> {
    pub sched: &'a mut dyn Scheduler<Msg>,
    pub links: &'a mut BTreeMap<(TaskId, TaskId), Link>,
    pub external: &'a mut ExternalKv,
    pub topics: &'a mut BTreeMap<String, DurableLog>,
    pub config: &'a EngineConfig,
    pub entropy: &'a mut SimRng,
    pub metrics: &'a mut JobMetrics,
}

impl<'a> TaskCtx<'a> {
    /// Send a data buffer over the task-pair link, no earlier than `at`.
    pub fn send_data(&mut self, from: TaskId, to: TaskId, at: VirtualTime, msg: Msg) {
        let link = self
            .links
            .entry((from, to))
            .or_insert_with(|| {
                Link::new(
                    self.config.link_latency,
                    self.config.link_jitter,
                    SimRng::new(self.config.seed).fork(from.wrapping_mul(1_000_003) ^ to),
                )
            });
        let base = at.max(self.sched.now());
        // delivery_time uses "now" as the send instant.
        let deliver = link.delivery_time(base);
        self.sched.schedule_at(deliver, to, msg);
    }

    /// Send a control-plane message (fixed small latency).
    pub fn send_ctrl(&mut self, to: TaskId, msg: Msg) {
        self.sched.schedule_in(VirtualDuration::from_micros(100), to, msg);
    }

    /// Send a recovery-path control message (LogResponse / ReplayRequest),
    /// subject to the configured control-plane chaos: the message may be
    /// dropped or delayed. Senders own the retry; receivers dedup.
    pub fn send_recovery_ctrl(&mut self, to: TaskId, msg: Msg) {
        let base = VirtualDuration::from_micros(100);
        if let Some(delay) =
            recovery_ctrl_delay(self.config, self.entropy, &mut self.metrics.recovery, base)
        {
            self.sched.schedule_in(delay, to, msg);
        }
    }
}

/// The control-plane chaos rule for one recovery-path message that would
/// take `base` to deliver: `None` if it is lost, else its (possibly
/// stretched) delay. Entropy is only drawn when chaos is enabled, so default
/// runs keep their exact pre-chaos event sequences.
pub(crate) fn recovery_ctrl_delay(
    config: &EngineConfig,
    entropy: &mut SimRng,
    stats: &mut RecoveryStats,
    base: VirtualDuration,
) -> Option<VirtualDuration> {
    if config.ctrl_loss_prob > 0.0 && entropy.gen_bool(config.ctrl_loss_prob) {
        stats.ctrl_dropped += 1;
        return None;
    }
    if config.ctrl_delay_prob > 0.0
        && config.ctrl_max_delay > VirtualDuration::ZERO
        && entropy.gen_bool(config.ctrl_delay_prob)
    {
        stats.ctrl_delayed += 1;
        let extra = entropy.gen_range(config.ctrl_max_delay.as_micros().max(1));
        return Some(base + VirtualDuration::from_micros(extra));
    }
    Some(base)
}

/// Decoded per-task checkpoint payload: a full delta-map image parsed into
/// a fresh [`StateStore`] plus the execution-progress scalars carried in the
/// image's META section. (Encoding happens directly on the task's reusable
/// scratch writer — see `Task::open_capture` — so the steady-state barrier
/// path is O(dirty) and allocation-free.)
#[derive(Debug, Default)]
pub struct TaskSnapshot {
    pub store: StateStore,
    pub emit_seq: u64,
    pub source_offset: u64,
    pub max_event_time: u64,
    /// The task's combined low watermark at the checkpoint.
    pub watermark: u64,
    /// Per-input-channel watermarks at the checkpoint. Unlike Flink's global
    /// restarts, Clonos' local replay must reproduce the exact emission
    /// sequence, and watermark-advance decisions depend on this state.
    pub channel_watermarks: Vec<u64>,
    /// Unaligned checkpoints only: in-flight buffers the barrier overtook,
    /// captured per input channel in arrival order (the canonical
    /// `(channel, seq)` key order of `SEC_OVERTAKEN` preserves it). Recovery
    /// re-injects these ahead of replayed channel traffic.
    pub overtaken: Vec<(ChannelId, SentBuffer)>,
}

impl TaskSnapshot {
    /// Parse a reconstructed *full* image (a base, or base + merged deltas).
    pub fn decode(bytes: &[u8]) -> Result<TaskSnapshot, EngineError> {
        let mut snap = TaskSnapshot::default();
        let entries = deltamap::read_entries(bytes)?;
        snap.store.reserve_entries(&entries);
        for e in entries {
            if e.section == SEC_META {
                let Some(v) = e.value else { continue };
                let mut r = ByteReader::new(v);
                snap.emit_seq = r.get_varint()?;
                snap.source_offset = r.get_varint()?;
                snap.max_event_time = r.get_varint()?;
                snap.watermark = r.get_varint()?;
                let n = r.get_varint()? as usize;
                snap.channel_watermarks = Vec::with_capacity(n.min(64 * 1024));
                for _ in 0..n {
                    snap.channel_watermarks.push(r.get_varint()?);
                }
                r.finish("bytes after the META scalars")?;
            } else if e.section == deltamap::SEC_OVERTAKEN {
                // Intercept before the state store (which rejects unknown
                // sections): key = channel u16 BE ++ seq u32 BE, value = an
                // encoded SentBuffer.
                let Some(v) = e.value else { continue };
                if e.key.len() != 6 {
                    return Err(EngineError::Protocol(format!(
                        "overtaken-record key has {} bytes, expected 6",
                        e.key.len()
                    )));
                }
                let ch = u16::from_be_bytes([e.key[0], e.key[1]]) as ChannelId;
                let mut r = ByteReader::new(v);
                let epoch = r.get_varint()?;
                let records = u32::try_from(r.get_varint()?)
                    .map_err(|_| CodecError::Inconsistent { context: "overtaken-record count past u32" })?;
                let dlen = r.get_varint()? as usize;
                let delta = Bytes::copy_from_slice(r.get_raw(dlen)?);
                let payload = Bytes::copy_from_slice(r.get_raw(r.remaining())?);
                snap.overtaken.push((ch, SentBuffer { epoch, payload, delta, records }));
            } else {
                snap.store.apply_entry(&e)?;
            }
        }
        Ok(snap)
    }
}

/// Sink output handling mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SinkMode {
    /// Write records immediately; `dedup` rebuilds the committed-ident set
    /// from the output log's determinant metadata on recovery (§5.5).
    Immediate { dedup: bool },
    /// Buffer per epoch; pre-commit to the output topic at the snapshot cut
    /// that seals the epoch (the baseline's transactional two-phase sink).
    /// The pre-committed write is durable — it survives the sink dying
    /// right after its checkpoint ack — and a restart's abort markers roll
    /// back any transaction whose checkpoint never completed.
    Transactional,
}

enum Role {
    Source {
        spec: SourceSpec,
        offset: u64,
        max_event_time: u64,
    },
    Op {
        op: Box<dyn Operator + Send>,
    },
    Sink {
        spec: SinkSpec,
        mode: SinkMode,
        /// Idents written per un-checkpointed epoch (dedup set).
        committed: CommittedIdents,
        /// Buffered uncommitted output (transactional mode).
        pending: BTreeMap<EpochId, Vec<SinkOut>>,
    },
}

/// The idents an immediate sink has written in epochs no checkpoint covers
/// yet (the §5.5 dedup set), per producer and epoch as an ascending vector.
/// A producer's records reach a sink in ident order (FIFO channel, monotone
/// `emit_seq`), so the steady-state insert is one comparison against the
/// producer's high-water ident and a push; only what a replaying or
/// rolled-back producer sends again is searched for.
#[derive(Default)]
struct CommittedIdents {
    /// A sink has a handful of producers: a scan, tried first at `hint`.
    producers: Vec<ProducerIdents>,
    /// Slot of the last insert's producer (records arrive in buffers).
    hint: usize,
}

struct ProducerIdents {
    producer: TaskId,
    /// One past the highest ident inserted since the last `clear`: an ident
    /// at or above it is held in no epoch. Truncation leaves it alone — a
    /// mark that is too high only sends an insert down the searching path.
    fresh_from: u64,
    /// Live epochs, each with its idents ascending.
    epochs: BTreeMap<EpochId, Vec<u64>>,
}

impl CommittedIdents {
    /// Add `ident` under `epoch`; false if some live epoch already holds it.
    fn insert(&mut self, epoch: EpochId, ident: u64) -> bool {
        let producer = ident >> 40;
        if self.producers.get(self.hint).is_none_or(|p| p.producer != producer) {
            self.hint = self.producers.iter().position(|p| p.producer == producer).unwrap_or_else(|| {
                self.producers.push(ProducerIdents { producer, fresh_from: 0, epochs: BTreeMap::new() });
                self.producers.len() - 1
            });
        }
        self.producers.get_mut(self.hint).is_some_and(|p| p.insert(epoch, ident))
    }

    fn truncate_through(&mut self, epoch: EpochId) {
        for p in &mut self.producers {
            p.epochs.retain(|&e, _| e > epoch);
        }
    }

    fn clear(&mut self) {
        self.producers.clear();
    }
}

impl ProducerIdents {
    fn insert(&mut self, epoch: EpochId, ident: u64) -> bool {
        if ident >= self.fresh_from {
            self.fresh_from = ident + 1;
            self.epochs.entry(epoch).or_default().push(ident);
            return true;
        }
        if self.epochs.values().any(|idents| idents.binary_search(&ident).is_ok()) {
            return false;
        }
        let idents = self.epochs.entry(epoch).or_default();
        idents.insert(idents.partition_point(|&i| i < ident), ident);
        true
    }
}

/// One record on its way to the output topic: the two header fields the sink
/// itself needs, and the record's wire bytes as a slice of the network
/// buffer it arrived in (a refcount bump, no copy; see DESIGN.md "Record
/// path ownership" for why pinning that buffer costs no resident bytes).
struct SinkOut {
    ident: u64,
    create_ts: u64,
    payload: Bytes,
}

struct InChannel {
    from: TaskId,
    input: u8,
    pending: VecDeque<SentBuffer>,
    /// Barrier alignment: true while waiting for other channels' barriers.
    blocked: bool,
    expected_gen: u32,
    /// True from `ReplayRequest` send until the first buffer accepted by
    /// this incarnation: the request doubles as the live-stream
    /// re-subscription, so until traffic proves the upstream processed it,
    /// the retry tick keeps re-sending — even after replay itself drained.
    /// A dropped request would otherwise leave the upstream streaming to
    /// the dead incarnation forever and stall every later barrier here.
    awaiting_resume: bool,
    /// Buffers received per (un-checkpointed) epoch — the dedup counts
    /// reported to the job manager during a neighbour's recovery.
    received: BTreeMap<EpochId, u64>,
    watermark: u64,
}

struct OutChannel {
    to: TaskId,
    dest_in: ChannelId,
    writer: ByteWriter,
    records: u32,
    dest_gen: u32,
    /// Replay pump over the in-flight log, while serving a recovering
    /// downstream task.
    pump: Option<ReplayCursor>,
    /// False while pumping: fresh flushes are logged but not sent directly.
    live: bool,
    rr: u64,
    /// Downstream incarnation whose replay request was already served on
    /// this channel. Recovering tasks re-send `ReplayRequest` on a timeout
    /// (the original may have been dropped by control-plane chaos); serving
    /// a duplicate would re-deliver the whole in-flight log.
    served_replay_gen: Option<u32>,
    /// Buffers delivered to the *current* `dest_gen` incarnation. A replay
    /// request from an incarnation this channel has already been streaming
    /// to live is stale — the channel is reliable FIFO, so that incarnation
    /// has missed nothing — and serving it would re-deliver every buffer
    /// sent since it resumed (seen when a chaos-delayed `ReplayRequest`
    /// lands after a global restart has already resumed live traffic).
    sent_to_gen: u64,
}

/// Whether the task participates in in-flight logging / causal logging.
#[derive(Clone, Copy, Debug)]
struct FtFlags {
    inflight: bool,
    causal: bool,
    skip_dedup: bool,
}

/// A checkpoint cut awaiting its seal. The state is encoded at the cut; an
/// aligned cut (and any source's) overtakes nothing and seals in the same
/// step. An unaligned cut at a non-source task stays open while buffers the
/// barrier overtook on not-yet-barriered channels accumulate here, until
/// every input has delivered its barrier. Only then is the final image
/// assembled and acked — completing earlier would let the JM truncate
/// upstream in-flight logs while overtaken buffers are still on the wire.
struct Capture {
    /// The image as it stands with nothing overtaken: entry count, META,
    /// state entries — frozen at the snapshot point.
    image: Bytes,
    /// Entries in `image`, META included, and where they start (past the
    /// count prefix).
    state_entries: u64,
    body_at: usize,
    /// Whether the image is a full base (vs an O(dirty) delta).
    full: bool,
    delta_parent: Option<u64>,
    /// Overtaken buffers per input channel, in arrival (FIFO) order; no
    /// channels at all for a cut that overtakes nothing.
    captured: Vec<Vec<SentBuffer>>,
    /// Tiered backend: live segment ids + newly sealed payloads, cut at the
    /// same instant as the state bytes (the deferred ack carries them).
    segments: Option<SegmentAck>,
}

/// One deployed (or standby-activated) task instance.
pub struct Task {
    pub spec: TaskSpec,
    pub gen: u32,
    role: Role,
    edge_partitioning: Vec<Partitioning>,
    /// Out-channel indices grouped by edge, indexed by edge id (ordered by
    /// downstream subtask within each edge).
    edge_channels: Vec<Vec<usize>>,
    ins: Vec<InChannel>,
    outs: Vec<OutChannel>,
    arrivals: VecDeque<u32>,
    state: StateStore,
    emit_seq: u64,
    pub epoch: EpochId,
    step: u64,
    watermark: u64,
    pub log: CausalLogManager,
    pub services: CausalServices,
    inflight: Option<InFlightLog>,
    spill: SpillDevice,
    queue: ServiceQueue,
    flags: FtFlags,
    /// Per-out-channel buffers to rebuild-but-not-send during replay.
    skip: Vec<u64>,
    /// Set once BeginReplay installed; false again when replay drains.
    installed: bool,
    /// First epoch of the current replay; re-sent verbatim by retry ticks.
    replay_from_epoch: EpochId,
    pub dead: bool,
    buffer_size: usize,
    /// Scratch encoder for the routing fast path: a routed record is
    /// serialized once here, then its bytes are copied to each destination
    /// channel's builder.
    route_scratch: ByteWriter,
    /// The record being processed: buffer elements (and source topic rows)
    /// are decoded into it, so its row keeps its capacity across records.
    scratch_rec: Record,
    /// Operator scratch, lent to each `OpCtx` and taken back drained.
    emits: Vec<Emit>,
    new_timers: Vec<StateTimer>,
    pub routing: RoutingStats,
    /// Scratch encoder for checkpoint images (full or delta): reused across
    /// barriers so the steady-state snapshot path allocates nothing.
    snap_scratch: ByteWriter,
    /// Checkpoint id of the last image this incarnation acked — the parent
    /// of the next delta. `None` forces a full base (fresh incarnations and
    /// disabled incremental mode).
    chain_parent: Option<u64>,
    /// Delta images since the last full base; at
    /// `checkpoint_rebase_interval` the next barrier rebases.
    snaps_since_base: u32,
    /// Incremental-checkpoint counters, aggregated job-wide by the cluster.
    pub ckpt: CheckpointStats,
    /// Chaos slow-consumer injection: processing-cost multiplier in effect
    /// until `slow_until` (1 = normal speed).
    slow_factor: u64,
    slow_until: VirtualTime,
    /// A `ServiceTick` wakeup is already scheduled (throttled consumption).
    service_tick_pending: bool,
    /// Aligned mode: when the first input channel blocked on barrier
    /// alignment (cleared when the last barrier arrives).
    align_start: Option<VirtualTime>,
    /// Unaligned mode: input channels whose barrier for a given checkpoint
    /// id has arrived (pruned when the capture closes / completes).
    ua_seen: BTreeMap<u64, std::collections::BTreeSet<usize>>,
    /// Unaligned mode: open captures by checkpoint id (close in id order).
    ua_captures: BTreeMap<u64, Capture>,
    /// Per-channel overtaken-buffer counts in this incarnation's previous
    /// image — delta images tombstone `new..prev` so the restore-time fold
    /// never resurrects a stale capture.
    prev_overtaken: Vec<u32>,
    /// Times the tiered backend was (re-)enabled on this task object —
    /// folded with `gen` into the segment-id namespace so no two
    /// incarnations of a task ever mint the same segment id.
    tier_epoch: u32,
}

impl Task {
    pub fn new(
        spec: TaskSpec,
        kind: &VertexKind,
        edge_partitioning: Vec<Partitioning>,
        config: &EngineConfig,
        graph_depth: u32,
        gen: u32,
    ) -> Task {
        let (flags, dsd, cache_us, pool, spill_policy) = match &config.ft {
            FtMode::Clonos(c) => {
                let dsd = c.effective_dsd(graph_depth);
                let flags = match c.guarantee {
                    GuaranteeMode::AtMostOnce => {
                        FtFlags { inflight: false, causal: false, skip_dedup: false }
                    }
                    GuaranteeMode::AtLeastOnce => {
                        FtFlags { inflight: true, causal: false, skip_dedup: false }
                    }
                    GuaranteeMode::ExactlyOnce => {
                        FtFlags { inflight: true, causal: true, skip_dedup: true }
                    }
                };
                (flags, dsd, c.timestamp_cache_us, c.inflight_pool_buffers, c.spill)
            }
            _ => (
                FtFlags { inflight: false, causal: false, skip_dedup: false },
                0,
                1_000,
                0,
                clonos::SpillPolicy::InMemory,
            ),
        };
        let num_outs = spec.outputs.len();
        let num_ins = spec.inputs.len();
        let role = match kind {
            VertexKind::Source(s) => {
                Role::Source { spec: s.clone(), offset: 0, max_event_time: 0 }
            }
            VertexKind::Operator(f) => Role::Op { op: f() },
            VertexKind::Sink(s) => {
                let mode = match &config.ft {
                    FtMode::GlobalRollback => SinkMode::Transactional,
                    FtMode::Clonos(c) => SinkMode::Immediate {
                        dedup: c.guarantee == GuaranteeMode::ExactlyOnce,
                    },
                    FtMode::None => SinkMode::Immediate { dedup: false },
                };
                Role::Sink {
                    spec: s.clone(),
                    mode,
                    committed: CommittedIdents::default(),
                    pending: BTreeMap::new(),
                }
            }
        };
        let mut edge_channels: Vec<Vec<usize>> = vec![Vec::new(); edge_partitioning.len()];
        for (i, &(_, _, edge, _)) in spec.outputs.iter().enumerate() {
            if edge >= edge_channels.len() {
                edge_channels.resize_with(edge + 1, Vec::new);
            }
            edge_channels[edge].push(i);
        }
        let ins = spec
            .inputs
            .iter()
            .map(|&(_, from, input)| InChannel {
                from,
                input,
                pending: VecDeque::new(),
                blocked: false,
                awaiting_resume: false,
                expected_gen: gen,
                received: BTreeMap::new(),
                watermark: 0,
            })
            .collect();
        let outs = spec
            .outputs
            .iter()
            .map(|&(_, to, _edge, dest_in)| OutChannel {
                to,
                dest_in,
                writer: ByteWriter::new(),
                records: 0,
                dest_gen: gen,
                pump: None,
                live: true,
                rr: 0,
                served_replay_gen: None,
                sent_to_gen: 0,
            })
            .collect();
        let inflight = flags
            .inflight
            .then(|| InFlightLog::new(num_outs, spill_policy, pool.max(1)));
        let mut log = CausalLogManager::new(spec.id, num_outs, if flags.causal { dsd } else { 0 });
        log.set_epoch(1);
        let mut task = Task {
            spec,
            gen,
            role,
            edge_partitioning,
            edge_channels,
            ins,
            outs,
            arrivals: VecDeque::new(),
            state: StateStore::new(),
            emit_seq: 0,
            epoch: 1,
            step: 0,
            watermark: 0,
            log,
            services: CausalServices::new(cache_us),
            inflight,
            spill: SpillDevice::new(),
            queue: ServiceQueue::new(),
            flags,
            skip: vec![0; num_outs],
            installed: true,
            replay_from_epoch: 1,
            dead: false,
            buffer_size: config.buffer_size,
            route_scratch: ByteWriter::new(),
            scratch_rec: Record::default(),
            emits: Vec::new(),
            new_timers: Vec::new(),
            routing: RoutingStats::default(),
            snap_scratch: ByteWriter::new(),
            chain_parent: None,
            snaps_since_base: 0,
            ckpt: CheckpointStats::default(),
            slow_factor: 1,
            slow_until: VirtualTime::ZERO,
            service_tick_pending: false,
            align_start: None,
            ua_seen: BTreeMap::new(),
            ua_captures: BTreeMap::new(),
            prev_overtaken: vec![0; num_ins],
            tier_epoch: 0,
        };
        if config.state_memory_budget > 0 {
            task.state.enable_tiering(config.state_memory_budget, task.tier_id_base());
        }
        task
    }

    /// Segment-id namespace for the current incarnation: generation and
    /// tier epoch occupy the high bits, so ids minted by different
    /// incarnations (or re-enables after a restore) never collide in the
    /// checkpoint store's per-task segment arena.
    fn tier_id_base(&self) -> u64 {
        ((self.gen as u64 + 1) << 40) | ((self.tier_epoch as u64) << 32)
    }

    /// Align per-channel generation expectations with the cluster's view of
    /// neighbour incarnations (used when constructing a replacement task:
    /// its own generation is bumped, but neighbours keep theirs).
    pub fn set_neighbor_gens(&mut self, gen_of: impl Fn(TaskId) -> u32) {
        for c in &mut self.ins {
            c.expected_gen = gen_of(c.from);
        }
        for o in &mut self.outs {
            o.dest_gen = gen_of(o.to);
            o.sent_to_gen = 0;
        }
    }

    pub fn is_source(&self) -> bool {
        matches!(self.role, Role::Source { .. })
    }

    /// This incarnation's counter blocks, which the cluster sums job-wide.
    pub(crate) fn counters(&self) -> crate::metrics::TaskCounters {
        crate::metrics::TaskCounters {
            ckpt: self.ckpt,
            backend: self.state.backend_stats(),
            log: self.log.stats,
            routing: self.routing,
            inflight: self.inflight.as_ref().map(|l| l.stats).unwrap_or_default(),
            ts_calls: self.services.ts_calls,
            ts_determinants: self.services.ts_determinants,
        }
    }

    /// Chaos slow-consumer injection: multiply this task's per-record
    /// processing cost by `factor` until `until`. While throttled, the task
    /// stops consuming ahead of its service queue (see `try_process`), so
    /// input queues actually back up — the backpressure that makes barrier
    /// alignment stall and unaligned overtaking observable.
    pub fn apply_slowdown(&mut self, factor: u64, until: VirtualTime) {
        self.slow_factor = factor.max(1);
        self.slow_until = until;
    }

    /// True while the chaos slowdown window is active.
    fn slowed(&self, now: VirtualTime) -> bool {
        self.slow_factor > 1 && now < self.slow_until
    }

    /// Abandon determinant-guided replay mid-flight: continue live with
    /// fresh nondeterminism and no sender-side dedup (at-least-once for this
    /// incident, §5.4).
    pub fn abandon_replay(&mut self, ctx: &mut TaskCtx<'_>) {
        self.log.abandon_replay();
        for s in &mut self.skip {
            *s = 0;
        }
        self.services.invalidate_cache();
        let _ = self.finish_recovery(ctx);
        // Consume whatever input queued up while replay was stuck.
        let _ = self.try_process(ctx);
    }

    pub fn is_sink(&self) -> bool {
        matches!(self.role, Role::Sink { .. })
    }

    pub fn source_offset(&self) -> u64 {
        match &self.role {
            Role::Source { offset, .. } => *offset,
            _ => 0,
        }
    }

    pub fn state_digest(&self) -> u64 {
        self.state.digest()
    }

    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut StateStore {
        &mut self.state
    }

    pub fn inflight_total_bytes(&self) -> u64 {
        self.inflight.as_ref().map(|l| l.total_bytes()).unwrap_or(0)
    }

    /// Schedule this task's periodic self-events after (re)deployment.
    pub fn start(&mut self, ctx: &mut TaskCtx<'_>) {
        let me = self.spec.id;
        if self.is_source() {
            ctx.sched.schedule_in(VirtualDuration::from_micros(10), me, Msg::SourcePoll);
            if let Role::Source { spec, .. } = &self.role {
                ctx.sched.schedule_in(
                    VirtualDuration::from_micros(spec.watermark_interval_us),
                    me,
                    Msg::WatermarkTick,
                );
            }
        }
        if !self.outs.is_empty() {
            ctx.sched.schedule_in(ctx.config.flush_interval, me, Msg::FlushTick);
        }
        // Reschedule restored processing-time timers.
        let timers: Vec<StateTimer> = self.state.proc_timers().copied().collect();
        for t in timers {
            let at = VirtualTime(t.ts).max(ctx.sched.now());
            ctx.sched.schedule_at(at, me, Msg::ProcTimerFire(t));
        }
        // Initial epoch's RNG seed (normal mode records it; replay pops it in
        // try_process instead).
        if !self.replaying() {
            let entropy = ctx.entropy.next_u64();
            let _ = self.services.renew_rng_seed(&mut self.log, entropy);
        }
    }

    fn replaying(&self) -> bool {
        self.log.replaying()
    }

    /// Input topic, if this task is a source (the parallel runtime uses
    /// this to give each source actor a private copy of its partition).
    pub fn source_topic(&self) -> Option<&str> {
        match &self.role {
            Role::Source { spec, .. } => Some(&spec.topic),
            _ => None,
        }
    }

    /// Output topic, if this task is a sink.
    pub fn sink_topic(&self) -> Option<&str> {
        match &self.role {
            Role::Sink { spec, .. } => Some(&spec.topic),
            _ => None,
        }
    }

    /// True if any out-channel holds buffered-but-unflushed records. The
    /// parallel runtime injects a flush before parking such a task: its
    /// remaining flush ticks are horizon-gated, and without checkpoint
    /// barriers nothing else would push out a trailing partial buffer.
    pub fn has_buffered_output(&self) -> bool {
        !self.dead && self.outs.iter().any(|o| o.records > 0)
    }

    /// Entry point for all messages.
    pub fn handle(&mut self, msg: Msg, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.dead {
            return Ok(());
        }
        match msg {
            Msg::Data { from, channel, from_gen, dest_gen, buffer } => {
                self.on_data(from, channel, from_gen, dest_gen, buffer, ctx)
            }
            Msg::SourcePoll => self.on_source_poll(ctx),
            Msg::ServiceTick => {
                self.service_tick_pending = false;
                self.try_process(ctx)
            }
            Msg::FlushTick => self.on_flush_tick(ctx),
            Msg::WatermarkTick => self.on_watermark_tick(ctx),
            Msg::ProcTimerFire(t) => self.on_proc_timer(t, ctx),
            Msg::TriggerCheckpoint { id } => self.on_trigger_checkpoint(id, ctx),
            Msg::CheckpointComplete { id } => self.on_checkpoint_complete(id, ctx),
            Msg::LogRequest { origin, after_cp, gather_id } => {
                self.on_log_request(origin, after_cp, gather_id, ctx)
            }
            Msg::BeginReplay { snapshot, skip, resume_cp, state, rebuild_sink_dedup } => {
                self.on_begin_replay(snapshot, skip, resume_cp, state, rebuild_sink_dedup, ctx)
            }
            Msg::ReplayRequest { from_task, dest_in, dest_gen, from_epoch } => {
                self.on_replay_request(from_task, dest_in, dest_gen, from_epoch, ctx)
            }
            Msg::ReplayRetryTick { attempt } => {
                self.on_replay_retry_tick(attempt, ctx);
                Ok(())
            }
            Msg::ReplayPump { channel } => self.on_replay_pump(channel, ctx),
            Msg::ChannelReset { from, new_gen } => {
                for c in self.ins.iter_mut().filter(|c| c.from == from) {
                    c.expected_gen = new_gen;
                }
                Ok(())
            }
            // Cluster/JM-internal messages that should never reach a task.
            other => Err(EngineError::Protocol(format!(
                "task {} received unexpected message {other:?}",
                self.spec.id
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn on_data(
        &mut self,
        from: TaskId,
        channel: ChannelId,
        from_gen: u32,
        dest_gen: u32,
        buffer: SentBuffer,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        if dest_gen != self.gen {
            return Ok(()); // addressed to a dead incarnation
        }
        let ch = channel as usize;
        let Some(in_ch) = self.ins.get_mut(ch) else {
            return Err(EngineError::Protocol(format!("unknown input channel {channel}")));
        };
        debug_assert_eq!(in_ch.from, from);
        if from_gen != in_ch.expected_gen {
            return Ok(()); // stale buffer from a dead upstream incarnation
        }
        // Traffic addressed to this incarnation proves the upstream has
        // processed our `ReplayRequest` — the channel is live again.
        in_ch.awaiting_resume = false;
        // Ingest the piggybacked determinant delta BEFORE the records can
        // affect state (always-no-orphans, Eq. 2).
        self.log.ingest_delta(&buffer.delta)?;
        *in_ch.received.entry(buffer.epoch).or_insert(0) += 1;
        if ctx.config.checkpoint_mode == CheckpointMode::Unaligned && !self.is_source() {
            // Barriers travel alone (flush/barrier/flush discipline) and are
            // handled out-of-band: they never queue behind backlogged data,
            // which is the entire point of the unaligned mode.
            if let Some(id) = barrier_only(&buffer.payload) {
                return self.on_unaligned_barrier(ch, id, ctx);
            }
            // Data arriving on a channel whose barrier for an open capture
            // has not arrived yet was overtaken by that barrier: it belongs
            // to the capture's channel state (a buffer can land in several
            // overlapping captures).
            if !self.ua_captures.is_empty() {
                let seen = &self.ua_seen;
                for (&id, cap) in self.ua_captures.iter_mut() {
                    if buffer.epoch <= id && !seen.get(&id).is_some_and(|s| s.contains(&ch)) {
                        cap.captured[ch].push(buffer.clone());
                    }
                }
            }
        }
        self.ins[ch].pending.push_back(buffer);
        self.arrivals.push_back(channel);
        self.try_process(ctx)
    }

    /// Unaligned mode, barrier for checkpoint `id` arrived on input `ch`
    /// (out-of-band — the buffer never enters the pending queue). The first
    /// barrier of a checkpoint snapshots immediately and forwards the
    /// barrier; later barriers just retire their channel from the capture.
    /// The ack is deferred until every channel's barrier has arrived.
    fn on_unaligned_barrier(
        &mut self,
        ch: usize,
        id: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let first = !self.ua_seen.contains_key(&id);
        self.ua_seen.entry(id).or_default().insert(ch);
        if first && !self.replaying() {
            // Anchor the snapshot point in the determinant stream BEFORE the
            // barrier flush so the decision replicates downstream with the
            // barrier itself — a replacement replays the snapshot at the
            // same point even if this task dies right after forwarding.
            self.log.record(Determinant::Rpc {
                kind: RpcKind::TriggerCheckpoint,
                arg: id,
                offset: self.step,
            });
            self.emit_barrier_and_snapshot(id, ctx)?;
        }
        // During replay the snapshot is driven by the logged Rpc determinant
        // instead; barriers arriving off the replay pump only mark their
        // channel (and orphans — barriers the dead incarnation never reached
        // — are snapshotted when replay drains, see `finish_recovery`).
        self.maybe_close_unaligned_captures(ctx)
    }

    /// The main processing loop: consume whatever can be consumed.
    fn try_process(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        loop {
            if self.replaying() {
                if !self.replay_step(ctx)? {
                    break;
                }
                if !self.replaying() {
                    self.finish_recovery(ctx)?;
                }
                continue;
            }
            // Throttled (chaos slow-consumer): never consume ahead of the
            // service queue. Instead of the instant-consume model, queue the
            // arrival and wake up when the in-progress record finishes —
            // this is what lets input queues physically back up.
            let now = ctx.sched.now();
            if self.slowed(now) && self.queue.busy_until() > now {
                if !self.service_tick_pending && !self.arrivals.is_empty() {
                    self.service_tick_pending = true;
                    ctx.sched.schedule_at(self.queue.busy_until(), self.spec.id, Msg::ServiceTick);
                }
                break;
            }
            // Normal mode: consume the oldest unblocked arrival.
            let Some(pos) = self
                .arrivals
                .iter()
                .position(|&c| !self.ins[c as usize].blocked && !self.ins[c as usize].pending.is_empty())
            else {
                break;
            };
            let ch = self.arrivals.remove(pos).expect("position valid");
            self.log.record(Determinant::Order { channel: ch });
            self.consume_buffer(ch, ctx)?;
        }
        Ok(())
    }

    /// One step of determinant-guided replay. Returns false when blocked
    /// (waiting for input).
    fn replay_step(&mut self, ctx: &mut TaskCtx<'_>) -> Result<bool, EngineError> {
        self.drain_replay_flushes(ctx)?;
        let Some(det) = self.log.peek_replay().cloned() else {
            return Ok(false);
        };
        match det {
            Determinant::Order { channel } => {
                let ch = channel as usize;
                if ch >= self.ins.len() || self.ins[ch].pending.is_empty() {
                    return Ok(false); // wait for the upstream replay to deliver
                }
                self.log.pop_replay();
                // Remove the matching arrival-queue entry if present.
                if let Some(pos) = self.arrivals.iter().position(|&c| c == channel) {
                    self.arrivals.remove(pos);
                }
                self.consume_buffer(channel, ctx)?;
                Ok(true)
            }
            Determinant::Timer { timer_id: id, offset } => {
                if offset == self.step {
                    self.log.pop_replay();
                    self.fire_timer_by_id(id, ctx)?;
                    Ok(true)
                } else if self.is_source() && offset > self.step {
                    self.replay_emit_source(ctx)
                } else {
                    Err(EngineError::Protocol(format!(
                        "timer replay offset {offset} does not match step {} at task {}",
                        self.step, self.spec.id
                    )))
                }
            }
            Determinant::Rpc { kind: RpcKind::TriggerCheckpoint, arg, offset } => {
                if offset == self.step {
                    self.log.pop_replay();
                    self.source_checkpoint(arg, ctx)?;
                    Ok(true)
                } else if self.is_source() && offset > self.step {
                    self.replay_emit_source(ctx)
                } else {
                    Err(EngineError::Protocol(format!(
                        "rpc replay offset {offset} does not match step {} at task {}",
                        self.step, self.spec.id
                    )))
                }
            }
            Determinant::Rpc { .. } => {
                self.log.pop_replay();
                Ok(true)
            }
            Determinant::RngSeed { .. } => {
                self.services.renew_rng_seed(&mut self.log, 0)?;
                Ok(true)
            }
            // Emission-level determinants at sources mean: emit the next
            // record (its processing will consume them).
            Determinant::Timestamp { .. } | Determinant::Watermark { .. }
                if self.is_source() =>
            {
                self.replay_emit_source(ctx)
            }
            other => Err(EngineError::Protocol(format!(
                "unexpected top-level replay determinant {other:?} at task {}",
                self.spec.id
            ))),
        }
    }

    /// Consume one buffer from input `ch`, processing all its elements.
    fn consume_buffer(&mut self, ch: ChannelId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let buffer = self.ins[ch as usize]
            .pending
            .pop_front()
            .ok_or_else(|| EngineError::Protocol("consume from empty channel".into()))?;
        // Lend the scratch record to the loop. A nested `consume_buffer`
        // (alignment release inside `handle_barrier`) finds an empty one and
        // grows its own, which is dropped when this one is put back.
        let mut rec = std::mem::take(&mut self.scratch_rec);
        let result = self.consume_elements(ch, &buffer.payload, &mut rec, ctx);
        self.scratch_rec = rec;
        result
    }

    fn consume_elements(
        &mut self,
        ch: ChannelId,
        payload: &Bytes,
        rec: &mut Record,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let input = self.ins[ch as usize].input;
        // A sink forwards record bytes as they are and only needs the header.
        let header_only = self.is_sink();
        let mut reader = BufferReader::new(payload);
        loop {
            let el = if header_only { reader.next_header(rec)? } else { reader.next_into(rec)? };
            match el {
                Some(Element::Record(range)) => {
                    self.process_record(input, rec, payload, range, ctx)?;
                    self.fire_due_async(ctx)?;
                }
                Some(Element::Watermark(ts)) => self.advance_watermark(ch, ts, ctx)?,
                Some(Element::Barrier(id)) => self.handle_barrier(ch, id, ctx)?,
                None => return Ok(()),
            }
        }
    }

    /// Fire replayed asynchronous events anchored at the current step.
    fn fire_due_async(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.log.replay_complete() {
            return Ok(());
        }
        while self.replaying() {
            match self.log.peek_replay() {
                Some(&Determinant::Timer { timer_id: id, offset }) if offset == self.step => {
                    self.log.pop_replay();
                    self.fire_timer_by_id(id, ctx)?;
                }
                Some(&Determinant::Rpc { kind: RpcKind::TriggerCheckpoint, arg, offset })
                    if offset == self.step =>
                {
                    self.log.pop_replay();
                    self.source_checkpoint(arg, ctx)?;
                }
                _ => break,
            }
        }
        self.drain_replay_flushes(ctx)
    }

    fn fire_timer_by_id(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if id == WM_TIMER_ID {
            return self.emit_source_watermark(ctx);
        }
        let Some(&t) = self.state.proc_timers().find(|t| timer_id(t) == id) else {
            return Err(EngineError::Protocol(format!(
                "replayed timer {id:#x} not registered at task {}",
                self.spec.id
            )));
        };
        self.state.take_proc_timer(t);
        self.run_operator(|op, opctx| op.on_timer(t, TimerKind::ProcessingTime, opctx), 0, ctx)
    }

    /// Run one record through the operator / sink. `payload[range]` is the
    /// record's wire encoding (sinks forward it; `rec.row` is empty there).
    fn process_record(
        &mut self,
        input: u8,
        rec: &Record,
        payload: &Bytes,
        range: Range<usize>,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let now = ctx.sched.now();
        let cost = if self.slowed(now) {
            VirtualDuration::from_micros(ctx.config.record_cost.as_micros() * self.slow_factor)
        } else {
            ctx.config.record_cost
        };
        let finish = self.queue.admit(now, cost);
        match &mut self.role {
            Role::Op { .. } => {
                let create = rec.create_ts;
                self.run_operator_at(
                    |op, opctx| op.on_record(input, rec, opctx),
                    create,
                    finish,
                    ctx,
                )?;
            }
            Role::Sink { .. } => {
                self.sink_write(rec, payload, range, finish, ctx)?;
            }
            Role::Source { .. } => {
                return Err(EngineError::Protocol("source received a data record".into()));
            }
        }
        self.step += 1;
        Ok(())
    }

    /// Run an operator callback with a fully-wired context, then route
    /// emissions and schedule new timers.
    fn run_operator(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Operator + Send>, &mut OpCtx<'_>) -> Result<(), EngineError>,
        default_create: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        self.run_operator_at(f, default_create, at, ctx)
    }

    fn run_operator_at(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Operator + Send>, &mut OpCtx<'_>) -> Result<(), EngineError>,
        default_create: u64,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let Role::Op { op } = &mut self.role else {
            return Ok(());
        };
        let mut opctx = OpCtx::new(
            &mut self.state,
            &mut self.services,
            &mut self.log,
            ctx.external,
            at,
            self.watermark,
            default_create,
            self.step,
        );
        // Lend the task's scratch vectors for the callback; they come back
        // below, drained, with whatever capacity they have grown to.
        opctx.emitted = std::mem::take(&mut self.emits);
        opctx.new_proc_timers = std::mem::take(&mut self.new_timers);
        let result = f(op, &mut opctx);
        let mut emits = std::mem::take(&mut opctx.emitted);
        let mut new_timers = std::mem::take(&mut opctx.new_proc_timers);
        drop(opctx);
        // A state read the tier could not serve answered `None`: whatever
        // the callback made of that must not leave the task.
        let result = result
            .and_then(|()| self.state.take_tier_error().map_or(Ok(()), |e| Err(e.into())))
            .and_then(|()| self.route_emissions(&mut emits, &mut new_timers, at, ctx));
        emits.clear();
        new_timers.clear();
        self.emits = emits;
        self.new_timers = new_timers;
        result
    }

    /// Schedule the timers and route the records an operator callback left
    /// behind, draining both vectors.
    fn route_emissions(
        &mut self,
        emits: &mut Vec<Emit>,
        new_timers: &mut Vec<StateTimer>,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        // Replay fires processing-time timers from determinants instead.
        let live = !self.replaying();
        for t in new_timers.drain(..) {
            if live {
                let fire_at = VirtualTime(t.ts).max(ctx.sched.now());
                ctx.sched.schedule_at(fire_at, self.spec.id, Msg::ProcTimerFire(t));
            }
        }
        for e in emits.drain(..) {
            let ident = (self.spec.id << 40) | self.emit_seq;
            self.emit_seq += 1;
            let rec = Record {
                key: e.key,
                event_time: e.event_time,
                create_ts: e.create_ts,
                ident,
                row: e.row,
            };
            self.route(&rec, at, ctx)?;
        }
        Ok(())
    }

    /// Route a record to output channels per each outgoing edge's
    /// partitioning strategy.
    ///
    /// Hot path: the record is serialized exactly once into `route_scratch`;
    /// every destination channel (one per edge, or all of them on broadcast)
    /// receives a byte copy of that encoding. No deep `Record` clones, no
    /// per-channel re-encode, and no allocator call of the engine's own per
    /// record in any role: a source decodes its topic row into the task's
    /// scratch record and routes from there; an operator task decodes into
    /// the same scratch and lends its emit and timer vectors to the callback
    /// (what the callback builds is the operator's own); a sink forwards a
    /// slice of the arriving buffer and allocates only the frozen meta bytes.
    /// Allocation is otherwise per buffer (freeze, in-flight log, message),
    /// which `crates/engine/tests/alloc_budget.rs` holds to a budget.
    fn route(&mut self, rec: &Record, at: VirtualTime, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let key = rec.key;
        self.route_scratch.clear();
        rec.encode_element(&mut self.route_scratch);
        self.routing.records_routed += 1;
        self.routing.route_encodes += 1;
        for edge in 0..self.edge_channels.len() {
            let nchans = self.edge_channels[edge].len();
            if nchans == 0 {
                continue;
            }
            match self.edge_partitioning[edge] {
                Partitioning::Forward => {
                    let c = self.edge_channels[edge][0];
                    self.write_routed(c, at, ctx)?;
                }
                Partitioning::Hash => {
                    let c = self.edge_channels[edge][(key % nchans as u64) as usize];
                    self.write_routed(c, at, ctx)?;
                }
                Partitioning::Broadcast => {
                    for i in 0..nchans {
                        let c = self.edge_channels[edge][i];
                        self.write_routed(c, at, ctx)?;
                    }
                }
                Partitioning::Rebalance => {
                    // Round-robin counter lives on the first channel of the
                    // edge group.
                    let rr = {
                        let oc = &mut self.outs[self.edge_channels[edge][0]];
                        let v = oc.rr;
                        oc.rr += 1;
                        v
                    };
                    let c = self.edge_channels[edge][(rr % nchans as u64) as usize];
                    self.write_routed(c, at, ctx)?;
                }
            }
        }
        Ok(())
    }

    /// Append the pre-encoded record bytes in `route_scratch` to a channel's
    /// buffer builder (a memcpy) and apply flush policy.
    fn write_routed(
        &mut self,
        out_idx: usize,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        {
            let scratch = self.route_scratch.as_slice();
            let oc = &mut self.outs[out_idx];
            oc.writer.put_raw(scratch);
            oc.records += 1;
        }
        self.routing.channel_writes += 1;
        self.after_append(out_idx, at, ctx)
    }

    /// Append one element to an out channel's buffer builder and apply flush
    /// policy (size-triggered in normal mode; logged-size cuts in replay).
    fn write_element(
        &mut self,
        out_idx: usize,
        el: &StreamElement,
        count_record: bool,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        {
            let oc = &mut self.outs[out_idx];
            el.encode(&mut oc.writer);
            if count_record {
                oc.records += 1;
            }
        }
        self.after_append(out_idx, at, ctx)
    }

    /// Flush policy shared by the routing fast path and `write_element`
    /// (size-triggered in normal mode; logged-size cuts in replay).
    fn after_append(
        &mut self,
        out_idx: usize,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let chan = out_idx as ChannelId;
        if self.log.replaying_flushes(chan) {
            self.drain_replay_flushes_for(out_idx, at, ctx)?;
        } else if self.outs[out_idx].writer.len() >= self.buffer_size {
            self.flush_channel(out_idx, at, ctx)?;
        }
        Ok(())
    }

    /// Cut buffers on `out_idx` wherever the builder has reached the next
    /// logged flush size (deduplicating replay, protocol step 6).
    fn drain_replay_flushes_for(
        &mut self,
        out_idx: usize,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let chan = out_idx as ChannelId;
        while let Some((size, _records)) = self.log.peek_replay_flush(chan) {
            let have = self.outs[out_idx].writer.len();
            if have < size as usize {
                break;
            }
            if have > size as usize {
                return Err(EngineError::Protocol(format!(
                    "replay flush divergence on task {} channel {chan}: builder {have}B, logged {size}B",
                    self.spec.id
                )));
            }
            self.log.pop_replay_flush(chan);
            self.flush_channel_inner(out_idx, at, false, ctx)?;
        }
        Ok(())
    }

    fn drain_replay_flushes(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.log.replay_complete() {
            return Ok(());
        }
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            if self.log.replaying_flushes(i as ChannelId) {
                self.drain_replay_flushes_for(i, at, ctx)?;
            }
        }
        Ok(())
    }

    /// Flush a channel in normal mode (logs the flush determinant).
    fn flush_channel(
        &mut self,
        out_idx: usize,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        self.flush_channel_inner(out_idx, at, true, ctx)
    }

    fn flush_channel_inner(
        &mut self,
        out_idx: usize,
        at: VirtualTime,
        log_flush: bool,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let (payload, records) = {
            let oc = &mut self.outs[out_idx];
            if oc.writer.is_empty() {
                return Ok(());
            }
            // Freeze-and-reset keeps the builder's allocation: each channel
            // reuses one pooled writer across every buffer it cuts.
            let payload = oc.writer.take_frozen();
            let records = oc.records;
            oc.records = 0;
            (payload, records)
        };
        let chan = out_idx as ChannelId;
        if log_flush {
            self.log.record_flush(chan, payload.len() as u32, records);
        }
        if records > 0 {
            self.log.mark_records(chan);
        }
        let delta = self.log.collect_delta(chan);
        // Causal-logging cost: shipping the delta costs serialization and
        // network time proportional to its size.
        let mut send_at = at;
        if !delta.is_empty() && ctx.config.delta_byte_cost_ns > 0 {
            let cost = VirtualDuration::from_micros(
                (delta.len() as u64 * ctx.config.delta_byte_cost_ns) / 1_000,
            );
            send_at = self.queue.admit(send_at, cost);
        }
        let buffer = SentBuffer { epoch: self.epoch, payload, delta, records };
        if let Some(inflight) = &mut self.inflight {
            let outcome = inflight.append(chan, buffer.clone(), &mut self.spill);
            if outcome.io > VirtualDuration::ZERO {
                send_at = self.queue.admit(send_at, outcome.io);
            }
            if outcome.blocked {
                // Backpressure: pool exhausted; model as a processing stall.
                send_at = self.queue.admit(send_at, VirtualDuration::from_millis(1));
            }
        }
        let oc = &mut self.outs[out_idx];
        let suppress = self.skip[out_idx] > 0;
        if suppress {
            self.skip[out_idx] -= 1;
        }
        if oc.live && !suppress {
            oc.sent_to_gen += 1;
            let msg = Msg::Data {
                from: self.spec.id,
                channel: oc.dest_in,
                from_gen: self.gen,
                dest_gen: oc.dest_gen,
                buffer,
            };
            let to = oc.to;
            ctx.send_data(self.spec.id, to, send_at, msg);
        }
        Ok(())
    }

    fn flush_all(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            if !self.log.replaying_flushes(i as ChannelId) {
                self.flush_channel(i, at, ctx)?;
            }
        }
        Ok(())
    }

    fn on_flush_tick(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.replaying() {
            self.flush_all(ctx)?;
        }
        // clonos-lint: allow(non-progressing-cycle, reason = "fixed-interval flush timer: each firing is idempotent and the sim horizon bounds the loop; there is no protocol state to advance")
        ctx.sched.schedule_in(ctx.config.flush_interval, self.spec.id, Msg::FlushTick);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Watermarks & timers
    // ------------------------------------------------------------------

    fn advance_watermark(
        &mut self,
        ch: ChannelId,
        ts: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let in_ch = &mut self.ins[ch as usize];
        in_ch.watermark = in_ch.watermark.max(ts);
        let min_wm = self.ins.iter().map(|c| c.watermark).min().unwrap_or(0);
        if min_wm <= self.watermark {
            return Ok(());
        }
        self.watermark = min_wm;
        // Fire due event-time timers (deterministic given input order).
        let due = self.state.pop_due_event_timers(min_wm);
        for t in due {
            self.run_operator(|op, opctx| op.on_timer(t, TimerKind::EventTime, opctx), 0, ctx)?;
        }
        self.run_operator(|op, opctx| op.on_watermark(min_wm, opctx), 0, ctx)?;
        // Forward the watermark on every output channel.
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            self.write_element(i, &StreamElement::Watermark(min_wm), false, at, ctx)?;
        }
        Ok(())
    }

    fn on_proc_timer(&mut self, t: StateTimer, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.replaying() {
            return Ok(()); // fired from determinants instead
        }
        if !self.state.take_proc_timer(t) {
            return Ok(()); // stale or already fired during replay
        }
        self.log.record(Determinant::Timer { timer_id: timer_id(&t), offset: self.step });
        self.run_operator(|op, opctx| op.on_timer(t, TimerKind::ProcessingTime, opctx), 0, ctx)
    }

    // ------------------------------------------------------------------
    // Sources
    // ------------------------------------------------------------------

    fn on_source_poll(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let Role::Source { spec, offset, .. } = &self.role else {
            return Ok(());
        };
        let (batch, rate) = (spec.batch, spec.rate);
        // The topic is pre-populated, but it models a steady external
        // producer emitting `rate` records/second: the source consumes at
        // that pace. When its offset falls behind the producer frontier
        // (after a rollback rewound it, or after an outage), it catches up
        // at several times the nominal rate — like a real consumer draining
        // Kafka at full speed.
        let frontier = (spec.rate * ctx.sched.now().as_micros()) / 1_000_000;
        let behind = *offset + 4 * (batch as u64) < frontier;
        if !self.replaying() {
            let n = if behind { batch * 8 } else { batch };
            for _ in 0..n {
                if !self.emit_next_source_record(ctx)? {
                    break;
                }
            }
        }
        let delay = VirtualDuration::from_micros((batch as u64 * 1_000_000) / rate.max(1));
        ctx.sched.schedule_in(delay, self.spec.id, Msg::SourcePoll);
        Ok(())
    }

    /// Emit the next record from the input topic. Returns false if none is
    /// available yet.
    fn emit_next_source_record(&mut self, ctx: &mut TaskCtx<'_>) -> Result<bool, EngineError> {
        let replaying = self.replaying();
        let Role::Source { spec, offset, max_event_time } = &mut self.role else {
            return Ok(false);
        };
        let (part, off) = (self.spec.subtask, *offset);
        // Respect the modelled producer frontier under normal operation
        // (replay may read anything the predecessor already read).
        if !replaying {
            let frontier =
                (spec.rate * ctx.sched.now().as_micros()) / 1_000_000 + spec.batch as u64;
            if off >= frontier {
                return Ok(false);
            }
        }
        let Some(log_rec) = ctx
            .topics
            .get(&spec.topic)
            .and_then(|t| t.partition(part % t.num_partitions()).get(off))
        else {
            return Ok(false);
        };
        let rec = &mut self.scratch_rec;
        rec.row.decode_into(&mut ByteReader::new(&log_rec.payload))?;
        let finish = self.queue.admit(ctx.sched.now(), ctx.config.record_cost);
        // Ingestion timestamp through the causal service (logged/replayed).
        rec.create_ts = self.services.timestamp(&mut self.log, finish, self.step)?;
        rec.event_time = match spec.timestamps {
            TimestampMode::EventTimeField(i) => rec.row.int(i).max(0) as u64,
            TimestampMode::IngestionTime => rec.create_ts,
        };
        rec.key = match spec.key_field {
            Some(i) => hash_datum(rec.row.get(i)),
            None => off,
        };
        rec.ident = (self.spec.id << 40) | self.emit_seq;
        self.emit_seq += 1;
        *offset += 1;
        *max_event_time = (*max_event_time).max(rec.event_time);
        ctx.metrics.records_in += 1;
        let rec = std::mem::take(&mut self.scratch_rec);
        let routed = self.route(&rec, finish, ctx);
        self.scratch_rec = rec;
        routed?;
        self.step += 1;
        Ok(true)
    }

    /// During replay: emit exactly one source record (its service calls pop
    /// the corresponding determinants). Returns false if the topic has no
    /// record at the offset (cannot happen for data the predecessor read).
    fn replay_emit_source(&mut self, ctx: &mut TaskCtx<'_>) -> Result<bool, EngineError> {
        let emitted = self.emit_next_source_record(ctx)?;
        if !emitted {
            return Err(EngineError::Protocol(format!(
                "source {} replay ran past the durable log",
                self.spec.id
            )));
        }
        self.fire_due_async(ctx)?;
        Ok(true)
    }

    fn on_watermark_tick(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let Role::Source { spec, .. } = &self.role else {
            return Ok(());
        };
        let interval = spec.watermark_interval_us;
        if !self.replaying() {
            self.log.record(Determinant::Timer { timer_id: WM_TIMER_ID, offset: self.step });
            self.emit_source_watermark(ctx)?;
        }
        ctx.sched.schedule_in(
            VirtualDuration::from_micros(interval),
            self.spec.id,
            // clonos-lint: allow(non-progressing-cycle, reason = "fixed-interval watermark timer: each firing is idempotent and the sim horizon bounds the loop; there is no protocol state to advance")
            Msg::WatermarkTick,
        );
        Ok(())
    }

    fn emit_source_watermark(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let Role::Source { spec, max_event_time, .. } = &self.role else {
            return Ok(());
        };
        let fresh = max_event_time.saturating_sub(spec.out_of_orderness_us);
        let wm = self.services.watermark(&mut self.log, fresh)?;
        if wm == 0 || wm <= self.watermark {
            return Ok(());
        }
        self.watermark = wm;
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            self.write_element(i, &StreamElement::Watermark(wm), false, at, ctx)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    fn on_trigger_checkpoint(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.is_source() || self.replaying() {
            return Ok(()); // replay injects barriers from Rpc determinants
        }
        self.log.record(Determinant::Rpc {
            kind: RpcKind::TriggerCheckpoint,
            arg: id,
            offset: self.step,
        });
        self.source_checkpoint(id, ctx)
    }

    /// Source barrier injection + snapshot.
    fn source_checkpoint(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        self.emit_barrier_and_snapshot(id, ctx)
    }

    fn handle_barrier(
        &mut self,
        ch: ChannelId,
        id: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        if ctx.config.checkpoint_mode == CheckpointMode::Unaligned && !self.is_source() {
            // Unaligned barriers are normally intercepted at arrival and
            // never reach the consume path; if one does (a barrier that
            // shared a buffer with data, which the flush discipline rules
            // out), treat it as a late out-of-band arrival.
            return self.on_unaligned_barrier(ch as usize, id, ctx);
        }
        self.ins[ch as usize].blocked = true;
        let all = self.ins.iter().all(|c| c.blocked);
        if !all {
            // Alignment stall begins at the first blocked channel; the
            // highwater tracks how wide the stall got.
            let blocked = self.ins.iter().filter(|c| c.blocked).count() as u64;
            self.ckpt.channels_blocked_highwater =
                self.ckpt.channels_blocked_highwater.max(blocked);
            if self.align_start.is_none() {
                self.align_start = Some(ctx.sched.now());
            }
            return Ok(());
        }
        if let Some(start) = self.align_start.take() {
            self.ckpt.alignment_stall_us += ctx.sched.now().saturating_sub(start).as_micros();
        }
        self.emit_barrier_and_snapshot(id, ctx)?;
        for c in &mut self.ins {
            c.blocked = false;
        }
        // Alignment may have left consumable buffers queued.
        self.try_process(ctx)
    }

    /// Shared path: flush, forward the barrier, snapshot, ack, open epoch.
    fn emit_barrier_and_snapshot(&mut self, id: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        // Flush pending data, then the barrier, in dedicated buffers. In
        // replay mode both cuts come from logged flush determinants.
        for i in 0..self.outs.len() {
            if !self.log.replaying_flushes(i as ChannelId) {
                self.flush_channel(i, at, ctx)?;
            }
            self.write_element(i, &StreamElement::Barrier(id), false, at, ctx)?;
            if !self.log.replaying_flushes(i as ChannelId) {
                self.flush_channel(i, at, ctx)?;
            }
        }
        // Snapshot state and ack: a full base for the incarnation's first
        // checkpoint (and every K-th thereafter — chain-length rebase; K = 0
        // rebases every time), an O(dirty) delta otherwise.
        let full = self.chain_parent.is_none()
            || self.snaps_since_base >= ctx.config.checkpoint_rebase_interval;
        let delta_parent = if full { None } else { self.chain_parent };
        if full {
            if self.chain_parent.is_some() {
                self.ckpt.rebases += 1;
            }
            self.ckpt.full_snapshots += 1;
            self.snaps_since_base = 0;
        } else {
            self.ckpt.delta_snapshots += 1;
            self.snaps_since_base += 1;
        }
        self.chain_parent = Some(id);
        // Tiered backend: turn the epoch's dirty values into an L0 segment
        // at the cut — the image below then carries only resident sections,
        // and value state travels as segment ids + newly sealed payloads.
        let segments = self.cut_tier_segments();
        self.charge_tier_io(ctx);
        let unaligned =
            ctx.config.checkpoint_mode == CheckpointMode::Unaligned && !self.is_source();
        let cap = self.open_capture(id, full, delta_parent, segments, unaligned);
        if unaligned {
            // The state cut is taken now (at first-barrier time), but the
            // image is not sealed — records the barrier overtook on
            // not-yet-barriered channels still have to be captured into it.
            // The ack is deferred until every input channel has barriered.
            self.ua_captures.insert(id, cap);
            self.maybe_close_unaligned_captures(ctx)?;
        } else {
            self.close_unaligned_capture(id, cap, ctx);
        }
        // 2PC pre-commit: the cut seals every buffered transaction up to
        // this checkpoint — write them out now so they survive the sink
        // (aligned and unaligned cuts both pass through here).
        self.commit_pending(id, ctx)?;
        // Transactional sinks learn their epoch boundary from barriers.
        // Open the next epoch.
        self.epoch = id + 1;
        self.log.set_epoch(self.epoch);
        self.step = 0;
        let entropy = ctx.entropy.next_u64();
        self.services.renew_rng_seed(&mut self.log, entropy)?;
        let epoch = self.epoch;
        self.run_operator(|op, opctx| op.on_epoch(epoch, opctx), 0, ctx)?;
        Ok(())
    }

    /// Tiered backend barrier step: sync the dirty value change-log into a
    /// sealed L0 segment and gather the checkpoint's segment view (every live
    /// segment id + payloads sealed since the previous ack). `None` untiered.
    fn cut_tier_segments(&mut self) -> Option<SegmentAck> {
        if !self.state.tiering_enabled() {
            return None;
        }
        // Dirty value entries synced here are the O(dirty) barrier work.
        self.ckpt.dirty_entries += self.state.tier_sync_dirty();
        let sealed = self.state.take_sealed_segments();
        let live = self.state.live_segments();
        Some(SegmentAck { live, sealed })
    }

    /// Charge accrued tier I/O (faults, flushes, compactions) to the service
    /// queue so spilling shows up as processing latency, not free work.
    fn charge_tier_io(&mut self, ctx: &mut TaskCtx<'_>) {
        let io = self.state.take_tier_io();
        if io > VirtualDuration::ZERO {
            self.queue.admit(ctx.sched.now(), io);
        }
    }

    /// Cut the state for checkpoint `id` now: encode the image layer (entry
    /// count, META, state sections in canonical order) into the reusable
    /// scratch writer and consume the change log. The META entry
    /// (execution-progress scalars) is written in every layer — full or
    /// delta — since those scalars change each epoch; a tiered store leaves
    /// its values to the segments cut beside the layer. With `overtaking`
    /// (an unaligned cut) every input channel's still-queued buffers from
    /// epochs `<= id` are unconsumed at this cut and therefore belong to the
    /// capture; channels that have not barriered yet keep feeding it as data
    /// arrives (`on_data`).
    fn open_capture(
        &mut self,
        id: u64,
        full: bool,
        delta_parent: Option<u64>,
        segments: Option<SegmentAck>,
        overtaking: bool,
    ) -> Capture {
        let source_offset = self.source_offset();
        let max_event_time = match &self.role {
            Role::Source { max_event_time, .. } => *max_event_time,
            _ => 0,
        };
        let state_entries = 1 + self.state.entry_count(full);
        if !full {
            self.ckpt.dirty_entries += state_entries - 1;
        }
        self.snap_scratch.clear();
        self.snap_scratch.put_varint(state_entries);
        let body_at = self.snap_scratch.len();
        let pos = deltamap::write_put_header(&mut self.snap_scratch, SEC_META, &[]);
        self.snap_scratch.put_varint(self.emit_seq);
        self.snap_scratch.put_varint(source_offset);
        self.snap_scratch.put_varint(max_event_time);
        self.snap_scratch.put_varint(self.watermark);
        self.snap_scratch.put_varint(self.ins.len() as u64);
        for c in &self.ins {
            self.snap_scratch.put_varint(c.watermark);
        }
        self.snap_scratch.end_u32_len(pos);
        self.state.write_entries(full, &mut self.snap_scratch);
        let image = self.snap_scratch.take_frozen();
        let mut captured: Vec<Vec<SentBuffer>> = Vec::new();
        if overtaking {
            captured.resize(self.ins.len(), Vec::new());
            for (ch, c) in self.ins.iter().enumerate() {
                for buf in &c.pending {
                    if buf.epoch <= id {
                        debug_assert!(
                            barrier_only(&buf.payload).is_none(),
                            "barrier buffers must never enter pending in unaligned mode"
                        );
                        captured[ch].push(buf.clone());
                    }
                }
            }
        }
        Capture { image, state_entries, body_at, full, delta_parent, captured, segments }
    }

    /// Seal and ack every open capture whose barriers have all arrived, in
    /// checkpoint-id order. FIFO channels guarantee barrier `id - 1` arrives
    /// before `id` on every channel, so completion is always a prefix of the
    /// open set — the loop stops at the first incomplete capture.
    fn maybe_close_unaligned_captures(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        loop {
            let Some((&id, _)) = self.ua_captures.iter().next() else { return Ok(()) };
            let complete = self
                .ua_seen
                .get(&id)
                .is_some_and(|seen| (0..self.ins.len()).all(|ch| seen.contains(&ch)));
            if !complete {
                return Ok(());
            }
            let Some(cap) = self.ua_captures.remove(&id) else { return Ok(()) };
            self.close_unaligned_capture(id, cap, ctx);
        }
    }

    /// Seal a capture and ack it to the JM — the only place a task image is
    /// sealed. With nothing overtaken (every aligned cut) the state cut
    /// already is the image; otherwise the overtaken-record section is
    /// appended behind it under a corrected entry count. Delta images also
    /// write tombstones for the previous checkpoint's now-stale capture
    /// slots so the restore-time fold cannot resurrect them.
    fn close_unaligned_capture(&mut self, id: u64, cap: Capture, ctx: &mut TaskCtx<'_>) {
        let Capture { image, state_entries, body_at, full, delta_parent, captured, segments } =
            cap;
        let mut extra = 0u64;
        for (ch, bufs) in captured.iter().enumerate() {
            let prev = if full { 0 } else { self.prev_overtaken[ch] as usize };
            extra += bufs.len().max(prev) as u64;
        }
        let snapshot = if extra == 0 {
            image
        } else {
            self.snap_scratch.clear();
            self.snap_scratch.put_varint(state_entries + extra);
            self.snap_scratch.put_raw(&image[body_at..]);
            let sec_start = self.snap_scratch.len();
            for (ch, bufs) in captured.iter().enumerate() {
                let mut key = [0u8; 6];
                key[..2].copy_from_slice(&(ch as u16).to_be_bytes());
                for (seq, buf) in bufs.iter().enumerate() {
                    key[2..].copy_from_slice(&(seq as u32).to_be_bytes());
                    let pos = deltamap::write_put_header(
                        &mut self.snap_scratch,
                        deltamap::SEC_OVERTAKEN,
                        &key,
                    );
                    self.snap_scratch.put_varint(buf.epoch);
                    self.snap_scratch.put_varint(buf.records as u64);
                    self.snap_scratch.put_varint(buf.delta.len() as u64);
                    self.snap_scratch.put_raw(&buf.delta);
                    self.snap_scratch.put_raw(&buf.payload);
                    self.snap_scratch.end_u32_len(pos);
                    self.ckpt.overtaken_records += buf.records as u64;
                }
                if !full {
                    // Tombstone the previous capture's higher slots.
                    for seq in bufs.len()..self.prev_overtaken[ch] as usize {
                        key[2..].copy_from_slice(&(seq as u32).to_be_bytes());
                        deltamap::write_tombstone(
                            &mut self.snap_scratch,
                            deltamap::SEC_OVERTAKEN,
                            &key,
                        );
                    }
                }
            }
            self.ckpt.overtaken_bytes += (self.snap_scratch.len() - sec_start) as u64;
            self.snap_scratch.take_frozen()
        };
        for (prev, bufs) in self.prev_overtaken.iter_mut().zip(&captured) {
            *prev = bufs.len() as u32;
        }
        if full {
            self.ckpt.full_bytes += snapshot.len() as u64;
        } else {
            self.ckpt.delta_bytes += snapshot.len() as u64;
        }
        self.send_checkpoint_ack(id, snapshot, delta_parent, segments, ctx);
    }

    /// Record the ack's causal hop and send it to the coordinator — unless a
    /// seeded ack-loss injection targets exactly this `(task, checkpoint)`,
    /// in which case the ack vanishes *before* the trace boundary: the
    /// conformance checker must then diagnose the barrier as stalled at this
    /// task's missing `CheckpointAck`.
    fn send_checkpoint_ack(
        &mut self,
        id: u64,
        snapshot: Bytes,
        delta_parent: Option<u64>,
        segments: Option<SegmentAck>,
        ctx: &mut TaskCtx<'_>,
    ) {
        if ctx.config.inject_ack_loss == Some((self.spec.id, id)) {
            ctx.metrics.recovery.ctrl_dropped += 1;
            return;
        }
        ctx.metrics.causal_event(
            ctx.sched.now(),
            "CheckpointAck",
            id,
            self.spec.id,
            Some(CausalRef { kind: "TriggerCheckpoint", epoch: id, task: 0 }),
        );
        ctx.send_ctrl(
            0,
            Msg::CheckpointAck {
                task: self.spec.id,
                id,
                snapshot,
                delta_parent,
                segments: segments.map(Box::new),
            },
        );
    }

    fn on_checkpoint_complete(&mut self, id: u64, _ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        self.log.truncate_through(id);
        if let Some(inflight) = &mut self.inflight {
            inflight.truncate_through(id, &mut self.spill);
        }
        for c in &mut self.ins {
            c.received.retain(|&e, _| e > id);
        }
        // Completed checkpoints are final; drop their barrier-seen
        // bookkeeping (captures for <= id are already sealed and gone).
        self.ua_seen.retain(|&k, _| k > id);
        if let Role::Sink { committed, .. } = &mut self.role {
            committed.truncate_through(id);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sinks
    // ------------------------------------------------------------------

    /// `rec` carries the header of the record whose wire bytes are
    /// `payload[range]`; those bytes go to the output topic as they are.
    fn sink_write(
        &mut self,
        rec: &Record,
        payload: &Bytes,
        range: Range<usize>,
        commit_at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let epoch = self.epoch;
        let Role::Sink { mode, committed, pending, .. } = &mut self.role else {
            return Ok(());
        };
        if let SinkMode::Immediate { dedup: true } = *mode {
            // §5.5: determinants piggybacked on output records let a
            // recovered sink skip rewrites.
            if !committed.insert(epoch, rec.ident) {
                return Ok(());
            }
        }
        let out =
            SinkOut { ident: rec.ident, create_ts: rec.create_ts, payload: payload.slice(range) };
        match *mode {
            SinkMode::Immediate { .. } => self.write_out(out, epoch, commit_at, ctx),
            SinkMode::Transactional => {
                pending.entry(epoch).or_default().push(out);
                Ok(())
            }
        }
    }

    /// Two-phase-commit pre-commit for transactional sinks, run at the
    /// snapshot cut for checkpoint `through`: append every buffered epoch
    /// `<= through` to the output topic, tagged with the epoch that produced
    /// it. The write makes the transaction durable the moment the sink acks
    /// — a sink that dies between its ack and the completion notification no
    /// longer takes committed-but-unwritten records down with it. Visibility
    /// stays read-committed through the abort markers a restart appends: a
    /// rollback to checkpoint `r` hides every older-generation record with
    /// epoch `> r`, which is exactly the set of pre-committed transactions
    /// whose checkpoint never completed.
    fn commit_pending(&mut self, through: EpochId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let mut to_write: Vec<(EpochId, Vec<SinkOut>)> = Vec::new();
        if let Role::Sink { mode, pending, .. } = &mut self.role {
            if *mode == SinkMode::Transactional {
                let epochs: Vec<EpochId> = pending.keys().copied().filter(|&e| e <= through).collect();
                for e in epochs {
                    to_write.push((e, pending.remove(&e).unwrap_or_default()));
                }
            }
        }
        let now = ctx.sched.now();
        for (e, recs) in to_write {
            for out in recs {
                self.write_out(out, e, now, ctx)?;
            }
        }
        Ok(())
    }

    /// Physically append to the output topic and record metrics. `epoch` is
    /// the transaction tag the record is committed under (the epoch that
    /// produced it), which the read-committed filter compares against abort
    /// markers.
    fn write_out(
        &mut self,
        out: SinkOut,
        epoch: EpochId,
        commit_at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let Role::Sink { spec, .. } = &self.role else {
            return Ok(());
        };
        let t = ctx
            .topics
            .get_mut(&spec.topic)
            .ok_or_else(|| EngineError::Protocol(format!("missing output topic {}", spec.topic)))?;
        let meta = Meta::tagged(META_DATA, [self.spec.id, self.gen as u64, epoch, out.ident]);
        let p = self.spec.subtask % t.num_partitions();
        t.partition_mut(p).append_with_meta(out.payload, Some(meta));
        let latency = commit_at.saturating_sub(VirtualTime(out.create_ts));
        ctx.metrics.record_output(self.spec.id, commit_at, latency);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery protocol
    // ------------------------------------------------------------------

    /// Step 3 (survivor side): export the replica + received counts. The
    /// export is a pure read, so answering a re-sent (duplicate) request is
    /// harmless — the JM merges responses idempotently and drops responses
    /// carrying a stale `gather_id`.
    fn on_log_request(
        &mut self,
        origin: TaskId,
        after_cp: u64,
        gather_id: u64,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let snapshot = self.log.export_replica(origin).unwrap_or_default();
        let received_buffers: Vec<(ChannelId, u64)> = self
            .ins
            .iter()
            .enumerate()
            .filter(|(_, c)| c.from == origin)
            .map(|(i, c)| {
                let count: u64 =
                    c.received.iter().filter(|&(&e, _)| e > after_cp).map(|(_, &n)| n).sum();
                (i as ChannelId, count)
            })
            .collect();
        ctx.send_recovery_ctrl(
            0,
            Msg::LogResponse {
                origin,
                from: self.spec.id,
                gather_id,
                resp: LogRetrievalResponse {
                    snapshot,
                    received_buffers,
                },
            },
        );
        Ok(())
    }

    /// Steps 1–5 (recovering side): install state + determinant snapshot,
    /// then request in-flight replay from upstream.
    #[allow(clippy::too_many_arguments)]
    fn on_begin_replay(
        &mut self,
        snapshot: TaskLogSnapshot,
        skip: Vec<(ChannelId, u64)>,
        resume_cp: u64,
        state: Bytes,
        rebuild_sink_dedup: bool,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        // Restore checkpointed state (empty bytes = fresh start, cp 0). The
        // image is always a reconstructed *full* one (the store merges delta
        // chains on read); this incarnation's own chain starts over with a
        // full base at its first barrier (`chain_parent` is None).
        self.watermark = 0;
        // Replacements are built fresh, but abandon-and-restart paths reuse
        // this task object: drop any unaligned bookkeeping from the previous
        // attempt before installing the image.
        self.ua_seen.clear();
        self.ua_captures.clear();
        for p in &mut self.prev_overtaken {
            *p = 0;
        }
        let mut overtaken: Vec<(ChannelId, SentBuffer)> = Vec::new();
        if !state.is_empty() {
            let snap = TaskSnapshot::decode(&state)?;
            self.state = snap.store;
            self.emit_seq = snap.emit_seq;
            self.watermark = snap.watermark;
            overtaken = snap.overtaken;
            for (c, wm) in self.ins.iter_mut().zip(&snap.channel_watermarks) {
                c.watermark = *wm;
            }
            if let Role::Source { offset, max_event_time, .. } = &mut self.role {
                *offset = snap.source_offset;
                *max_event_time = snap.max_event_time;
            }
        }
        // The restored store is untiered; re-enable the tiered backend under
        // a fresh segment-id namespace (this incarnation republishes its
        // value state as bulk-load segments at its first full-base ack).
        if ctx.config.state_memory_budget > 0 {
            if state.is_empty() && self.state.tiering_enabled() {
                // No image (resume at cp 0) on a reused object: materialize
                // the canonical fold so re-enabling starts from the same
                // logical state an untiered task would keep.
                self.state = StateStore::restore(&self.state.snapshot())?;
            }
            self.tier_epoch += 1;
            self.state.enable_tiering(ctx.config.state_memory_budget, self.tier_id_base());
            self.charge_tier_io(ctx);
        }
        self.epoch = resume_cp + 1;
        self.step = 0;
        for (ch, n) in skip {
            if self.flags.skip_dedup {
                if let Some(s) = self.skip.get_mut(ch as usize) {
                    *s = n;
                }
            }
        }
        self.log.begin_replay(snapshot, resume_cp + 1);
        // Unaligned images carry the buffers their barrier overtook: re-queue
        // them ahead of replayed channel traffic (they preceded the barrier
        // on the wire, so FIFO order demands they are consumed first). Their
        // piggybacked determinant deltas rebuild the upstream replicas in the
        // original order, ahead of the deltas replay will deliver. Received
        // counts are NOT bumped: the sender-side skip math counts only
        // post-checkpoint deliveries, and these buffers are part of the
        // checkpoint itself.
        for (ch, buf) in overtaken {
            self.log.ingest_delta(&buf.delta)?;
            self.ins[ch as usize].pending.push_back(buf);
            self.arrivals.push_back(ch);
            self.ckpt.unaligned_reinjections += 1;
        }
        // Sinks rebuild their committed-ident sets from the output topic's
        // determinant metadata (§5.5's "return them when requested").
        if let Role::Sink { spec, mode, committed, .. } = &mut self.role {
            if matches!(mode, SinkMode::Immediate { dedup: true }) {
                committed.clear();
                if rebuild_sink_dedup {
                    if let Some(topic) = ctx.topics.get(&spec.topic) {
                        let p = self.spec.subtask % topic.num_partitions();
                        let me = self.spec.id;
                        for m in effective_sink_meta(topic.partition(p), me) {
                            if m.epoch > resume_cp {
                                committed.insert(m.epoch, m.ident);
                            }
                        }
                    }
                }
            }
        }
        self.installed = true;
        self.replay_from_epoch = resume_cp + 1;
        // Step 4: ask upstream tasks to replay their in-flight logs. The
        // requests travel over the chaos-subject control plane; a retry tick
        // re-sends them if replay has not finished by then (upstreams dedup
        // by requester incarnation, so duplicates are no-ops).
        let me = self.spec.id;
        let gen = self.gen;
        for c in &mut self.ins {
            c.awaiting_resume = true;
        }
        let ups: Vec<(TaskId, ChannelId)> =
            self.ins.iter().enumerate().map(|(i, c)| (c.from, i as ChannelId)).collect();
        let has_upstreams = !ups.is_empty();
        for (up, dest_in) in ups {
            // Recorded at the send attempt: a chaos-dropped request shows up
            // as a replay hop that never led to `RecoveryDone`.
            ctx.metrics.causal_event(
                ctx.sched.now(),
                "ReplayRequest",
                gen as u64,
                up,
                Some(CausalRef { kind: "BeginReplay", epoch: gen as u64, task: me }),
            );
            ctx.send_recovery_ctrl(
                up,
                Msg::ReplayRequest { from_task: me, dest_in, dest_gen: gen, from_epoch: resume_cp + 1 },
            );
        }
        if has_upstreams {
            ctx.sched.schedule_in(
                ctx.config.replay_request_timeout,
                me,
                Msg::ReplayRetryTick { attempt: 0 },
            );
        }
        // Kick timers/polls/flushes for the new incarnation.
        self.start(ctx);
        // Sources with replay determinants start re-emitting immediately.
        self.try_process(ctx)?;
        if !self.replaying() {
            self.finish_recovery(ctx)?;
        }
        Ok(())
    }

    /// Replay not drained — or some input channel still silent in this
    /// incarnation — when the retry timer fired: the original
    /// `ReplayRequest`s may have been lost. Re-send the unacknowledged ones
    /// (upstreams dedup by incarnation) with doubled timeouts, up to the
    /// retry budget; past that, the JM's recovery watchdog owns escalation.
    /// The channel-resume condition matters even after replay finishes: the
    /// request is also the live-stream re-subscription, and a fast task
    /// (e.g. a sink with an empty log) can complete replay long before its
    /// dropped request would ever be re-sent, leaving the upstream streaming
    /// to the dead incarnation and every later barrier stalled.
    fn on_replay_retry_tick(&mut self, attempt: u32, ctx: &mut TaskCtx<'_>) {
        let outstanding = self.installed || self.ins.iter().any(|c| c.awaiting_resume);
        if !outstanding || attempt >= ctx.config.max_replay_request_retries {
            return;
        }
        let me = self.spec.id;
        let gen = self.gen;
        let from_epoch = self.replay_from_epoch;
        ctx.metrics.recovery.replay_request_retries += 1;
        ctx.metrics.event(
            ctx.sched.now(),
            format!("task {me} replay retry {} (re-requesting upstream replay)", attempt + 1),
        );
        let ups: Vec<(TaskId, ChannelId)> = self
            .ins
            .iter()
            .enumerate()
            .filter(|(_, c)| self.installed || c.awaiting_resume)
            .map(|(i, c)| (c.from, i as ChannelId))
            .collect();
        for (up, dest_in) in ups {
            ctx.metrics.causal_event(
                ctx.sched.now(),
                "ReplayRequest",
                gen as u64,
                up,
                Some(CausalRef { kind: "BeginReplay", epoch: gen as u64, task: me }),
            );
            ctx.send_recovery_ctrl(
                up,
                Msg::ReplayRequest { from_task: me, dest_in, dest_gen: gen, from_epoch },
            );
        }
        let backoff = VirtualDuration::from_micros(
            ctx.config.replay_request_timeout.as_micros() << (attempt + 1),
        );
        ctx.sched.schedule_in(backoff, me, Msg::ReplayRetryTick { attempt: attempt + 1 });
    }

    fn finish_recovery(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.installed {
            return Ok(());
        }
        self.installed = false;
        // Unaligned orphan barriers: ids whose barriers arrived during replay
        // but for which the dead incarnation never logged a TriggerCheckpoint
        // determinant (it died before its first barrier for that id). The
        // replay pump only marked their channels; snapshot them now, in id
        // order, exactly as the live path would have at first-barrier time.
        // (Aligned replay gets this for free: the replayed barrier buffers
        // sit in pending and are consumed after replay drains.)
        let orphans: Vec<u64> = self
            .ua_seen
            .keys()
            .copied()
            .filter(|&id| {
                !self.ua_captures.contains_key(&id)
                    && id >= self.replay_from_epoch
                    && self.chain_parent.is_none_or(|p| id > p)
            })
            .collect();
        for id in orphans {
            self.log.record(Determinant::Rpc {
                kind: RpcKind::TriggerCheckpoint,
                arg: id,
                offset: self.step,
            });
            self.emit_barrier_and_snapshot(id, ctx)?;
        }
        self.maybe_close_unaligned_captures(ctx)?;
        ctx.metrics.event(
            ctx.sched.now(),
            format!("task {} ({}) replay complete", self.spec.id, self.spec.name),
        );
        ctx.metrics.causal_event(
            ctx.sched.now(),
            "RecoveryDone",
            self.gen as u64,
            self.spec.id,
            Some(CausalRef { kind: "BeginReplay", epoch: self.gen as u64, task: self.spec.id }),
        );
        ctx.send_ctrl(0, Msg::RecoveryDone { task: self.spec.id });
        // Any processing-time timers registered during replay but not yet
        // fired need real simulator events now.
        let me = self.spec.id;
        let timers: Vec<StateTimer> = self.state.proc_timers().copied().collect();
        for t in timers {
            let at = VirtualTime(t.ts).max(ctx.sched.now());
            ctx.sched.schedule_at(at, me, Msg::ProcTimerFire(t));
        }
        Ok(())
    }

    /// Step 4/5 (upstream side): switch the channel into replay mode.
    fn on_replay_request(
        &mut self,
        from_task: TaskId,
        dest_in: ChannelId,
        dest_gen: u32,
        from_epoch: EpochId,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        let Some(idx) = self
            .outs
            .iter()
            .position(|o| o.to == from_task && o.dest_in == dest_in)
        else {
            return Err(EngineError::Protocol(format!(
                "replay request for unknown channel to task {from_task}"
            )));
        };
        if self.outs[idx].served_replay_gen == Some(dest_gen) {
            return Ok(()); // duplicate of a request already being served
        }
        if self.outs[idx].dest_gen == dest_gen && self.outs[idx].sent_to_gen > 0 {
            // Stale request: this channel has already been streaming live to
            // the requesting incarnation, so (reliable FIFO) it has missed
            // nothing — replaying the in-flight log now would re-deliver
            // every buffer sent since it resumed. Happens when a chaos-
            // delayed `ReplayRequest` from a global restart arrives after
            // live traffic has resumed.
            self.outs[idx].served_replay_gen = Some(dest_gen);
            return Ok(());
        }
        self.outs[idx].served_replay_gen = Some(dest_gen);
        self.outs[idx].dest_gen = dest_gen;
        self.outs[idx].sent_to_gen = 0;
        match &self.inflight {
            Some(inflight) => {
                let cursor = inflight.open_replay(idx as ChannelId, from_epoch);
                self.outs[idx].pump = Some(cursor);
                self.outs[idx].live = false;
                ctx.sched.schedule_in(
                    VirtualDuration::from_micros(200),
                    self.spec.id,
                    Msg::ReplayPump { channel: idx as ChannelId },
                );
            }
            None => {
                // Gap recovery: no log to replay; resume live immediately.
                self.outs[idx].live = true;
            }
        }
        Ok(())
    }

    fn on_replay_pump(&mut self, channel: ChannelId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let idx = channel as usize;
        let batch = ctx.config.replay_batch;
        let me = self.spec.id;
        for _ in 0..batch {
            let Some(mut cursor) = self.outs[idx].pump else { return Ok(()) };
            let Some(inflight) = &mut self.inflight else { return Ok(()) };
            match inflight.replay_next(&mut cursor, &mut self.spill) {
                Some((buffer, _io)) => {
                    self.outs[idx].pump = Some(cursor);
                    self.outs[idx].sent_to_gen += 1;
                    let oc = &self.outs[idx];
                    let msg = Msg::Data {
                        from: me,
                        channel: oc.dest_in,
                        from_gen: self.gen,
                        dest_gen: oc.dest_gen,
                        buffer,
                    };
                    let to = oc.to;
                    let now = ctx.sched.now();
                    ctx.send_data(me, to, now, msg);
                }
                None => {
                    self.outs[idx].pump = Some(cursor);
                    // Caught up. If we are ourselves mid-replay, more rebuilt
                    // buffers may still be appended — check again shortly.
                    if self.replaying() {
                        ctx.sched.schedule_in(
                            VirtualDuration::from_millis(2),
                            me,
                            // clonos-lint: allow(non-progressing-cycle, reason = "caught-up pump polling for buffers still being rebuilt by our own replay; replay completion (monotone emit_seq elsewhere) terminates the loop")
                            Msg::ReplayPump { channel },
                        );
                    } else {
                        self.outs[idx].pump = None;
                        self.outs[idx].live = true;
                    }
                    return Ok(());
                }
            }
        }
        ctx.sched.schedule_in(VirtualDuration::from_millis(1), me, Msg::ReplayPump { channel });
        Ok(())
    }
}

/// Hash a datum into a partitioning key.
///
/// FNV-1a with a SplitMix64 avalanche finalizer: raw FNV's low bit is the
/// XOR-parity of the input bytes (its multiplier is odd), which makes
/// `hash % parallelism` catastrophically biased for small parallelism —
/// the finalizer restores full low-bit diffusion.
pub fn hash_datum(d: &Datum) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    match d {
        Datum::Null => feed(&[0]),
        Datum::Bool(b) => feed(&[1, *b as u8]),
        Datum::Int(v) => feed(&v.to_le_bytes()),
        Datum::Float(v) => feed(&v.to_bits().to_le_bytes()),
        Datum::Str(s) => feed(s.as_bytes()),
    }
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Row;
    use crate::state::{SEC_LISTS, SEC_VALUES};

    /// A task image as `open_capture` and `close_unaligned_capture` cut it:
    /// META, state values, a list, both timer kinds and an overtaken buffer.
    /// `meta_extra`, `row_extra` and `list_extra` append bytes to those
    /// values; `records` is the overtaken buffer's record count.
    fn task_image(meta_extra: &[u8], row_extra: &[u8], list_extra: &[u8], records: u64) -> Vec<u8> {
        let mut store = StateStore::new();
        store.set_value(0, 7, Row::new(vec![Datum::Int(42), Datum::str("seven")]));
        store.set_value(1, 9, Row::new(vec![Datum::Float(0.5), Datum::Null]));
        store.push_list(2, 7, Row::new(vec![Datum::Int(1)]));
        store.push_list(2, 7, Row::new(vec![Datum::Bool(true)]));
        store.register_event_timer(StateTimer { ts: 1_000, key: 7, tag: 3 });
        store.register_proc_timer(StateTimer { ts: 2_000, key: 9, tag: 0 });
        let state = store.snapshot();
        let entries = deltamap::read_entries(&state).unwrap();
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64 + 2);
        let mut meta = ByteWriter::new();
        // emit_seq, source_offset, max_event_time, watermark, two channels.
        for v in [5u64, 6, 7, 8, 2, 100, 200] {
            meta.put_varint(v);
        }
        meta.put_raw(meta_extra);
        deltamap::write_put(&mut w, SEC_META, &[], meta.as_slice());
        for e in &entries {
            let extra = match e.section {
                SEC_VALUES if e.key == entries[0].key => row_extra,
                SEC_LISTS => list_extra,
                _ => &[],
            };
            deltamap::write_put(&mut w, e.section, e.key, &[e.value.unwrap(), extra].concat());
        }
        let mut buf = ByteWriter::new();
        for v in [3, records, 4] {
            buf.put_varint(v);
        }
        buf.put_raw(&[1, 2, 3, 4]);
        buf.put_raw(b"payload");
        deltamap::write_put(&mut w, deltamap::SEC_OVERTAKEN, &[0, 1, 0, 0, 0, 2], buf.as_slice());
        w.freeze().to_vec()
    }

    #[test]
    fn task_snapshot_decode_fails_closed() {
        let image = task_image(&[], &[], &[], 2);
        let snap = TaskSnapshot::decode(&image).unwrap();
        assert_eq!((snap.emit_seq, snap.source_offset, snap.max_event_time, snap.watermark), (5, 6, 7, 8));
        assert_eq!(snap.channel_watermarks, [100, 200]);
        assert_eq!(snap.store.list(2, 7).len(), 2);
        assert_eq!(snap.store.event_timers_len(), 1);
        let (ch, buf) = &snap.overtaken[0];
        assert_eq!((*ch, buf.epoch, buf.records, &buf.delta[..], &buf.payload[..]), (1, 3, 2, &[1, 2, 3, 4][..], &b"payload"[..]));
        // Bytes left over after a value, and a count `as u32` would cut.
        for (what, bad) in [
            ("META scalars", task_image(&[0], &[], &[], 2)),
            ("a value row", task_image(&[], &[0], &[], 2)),
            ("a list", task_image(&[], &[], &[0], 2)),
            ("overtaken records", task_image(&[], &[], &[], u32::MAX as u64 + 1)),
        ] {
            assert!(TaskSnapshot::decode(&bad).is_err(), "{what}: accepted");
        }
        for len in 0..image.len() {
            assert!(TaskSnapshot::decode(&image[..len]).is_err(), "truncated to {len} bytes: accepted");
        }
        // Every single-bit flip decodes or fails; none panics.
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = TaskSnapshot::decode(&flipped);
        }
    }

    #[test]
    fn hash_datum_low_bits_are_unbiased() {
        // Even integers must not all land on the same parity class.
        let evens_on_zero = (0..1_000)
            .filter(|&i| hash_datum(&Datum::Int(i * 2)).is_multiple_of(2))
            .count();
        assert!(
            (350..=650).contains(&evens_on_zero),
            "hash parity bias: {evens_on_zero}/1000"
        );
        // And modulo small parallelism spreads roughly evenly.
        let mut counts = [0u32; 5];
        for i in 0..10_000 {
            counts[(hash_datum(&Datum::Int(i)) % 5) as usize] += 1;
        }
        for &c in &counts {
            assert!((1_500..=2_500).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn committed_idents_behave_as_a_set_per_live_epoch() {
        let id = |producer: u64, seq: u64| (producer << 40) | seq;
        let mut c = CommittedIdents::default();
        // In-order arrivals from two interleaved producers.
        for seq in 0..5 {
            assert!(c.insert(1, id(7, seq)));
            assert!(c.insert(1, id(3, seq * 2)));
        }
        assert!(c.insert(2, id(7, 5)));
        // Replays are refused whichever live epoch holds them.
        assert!(!c.insert(2, id(7, 0)));
        assert!(!c.insert(2, id(7, 5)));
        assert!(!c.insert(2, id(3, 8)));
        // An ident below the newest that was never written is still new, once.
        assert!(c.insert(2, id(3, 3)));
        assert!(!c.insert(2, id(3, 3)));
        assert!(c.insert(2, id(3, 1)));
        assert!(!c.insert(3, id(3, 1)));
        // Checkpoint 1 completes: its idents are forgotten, epoch 2's are not.
        c.truncate_through(1);
        assert!(c.insert(3, id(7, 0)));
        assert!(!c.insert(3, id(7, 5)));
        c.clear();
        assert!(c.insert(3, id(7, 5)));

        // A rolled-back producer re-sends across an epoch boundary: it wrote
        // 10..14 in epoch 4 and 14..18 in epoch 5, then restarts from 12.
        let mut c = CommittedIdents::default();
        for seq in 10..18 {
            assert!(c.insert(if seq < 14 { 4 } else { 5 }, id(9, seq)));
        }
        for seq in 12..18 {
            assert!(!c.insert(5, id(9, seq)), "re-sent {seq} written twice");
        }
        assert!(c.insert(5, id(9, 18)));
        // Checkpoint 4 completes between two re-sends: epoch 4's idents are
        // forgotten (the producer never rolls back behind a completed
        // checkpoint, but the set must still answer), epoch 5's are kept,
        // and the high-water mark survives so nothing above it is searched.
        c.truncate_through(4);
        assert!(c.insert(6, id(9, 12)), "epoch 4 was truncated");
        assert!(!c.insert(6, id(9, 12)));
        assert!(!c.insert(6, id(9, 15)), "epoch 5 is still live");
        assert!(!c.insert(6, id(9, 18)));
        assert!(c.insert(6, id(9, 19)));
        // An old ident filed under an epoch older than the newest live one
        // keeps every vector ascending.
        assert!(c.insert(5, id(9, 11)));
        assert!(!c.insert(6, id(9, 11)));
        // Another producer's idents are independent of this one's mark.
        assert!(c.insert(6, id(2, 0)));
        assert!(!c.insert(6, id(2, 0)));
    }

    #[test]
    fn sink_meta_roundtrip_and_abort_filtering() {
        let mut part = clonos_storage::log::LogPartition::default();
        // Two records in epoch 2 by sink 7 gen 0, then an abort marker
        // (gen < 1, epoch > 1), then a rewrite in gen 1.
        let meta = |gen: u32, epoch: u64, ident: u64| Meta::tagged(META_DATA, [7, u64::from(gen), epoch, ident]);
        let payload = {
            let rec = Record {
                key: 1,
                event_time: 0,
                create_ts: 0,
                ident: 100,
                row: crate::record::Row::default(),
            };
            let mut w = ByteWriter::new();
            rec.encode(&mut w);
            w.freeze()
        };
        part.append_with_meta(payload.clone(), Some(meta(0, 1, 100))); // committed epoch 1
        part.append_with_meta(payload.clone(), Some(meta(0, 2, 101))); // will be aborted
        part.append_with_meta(bytes::Bytes::new(), Some(encode_abort_marker(7, 1, 1)));
        part.append_with_meta(payload.clone(), Some(meta(1, 2, 102))); // rewrite
        let effective = effective_sink_meta(&part, 7);
        let idents: Vec<u64> = effective.iter().map(|m| m.ident).collect();
        assert_eq!(idents, vec![100, 102]);
        // Records of another sink are invisible.
        assert!(effective_sink_meta(&part, 9).is_empty());
        let recs = effective_sink_records(&part, 7);
        assert_eq!(recs.len(), 2);
    }
}

/// Sink-output metadata kinds (see `write_out` / abort markers).
pub const META_DATA: u8 = 0;
pub const META_ABORT: u8 = 1;

/// Parsed sink metadata attached to an output record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkMeta {
    pub task: TaskId,
    pub gen: u32,
    pub epoch: EpochId,
    pub ident: u64,
}

fn parse_meta(meta: &[u8]) -> Option<(u8, SinkMeta)> {
    let mut r = ByteReader::new(meta);
    let kind = r.get_u8().ok()?;
    Some((
        kind,
        SinkMeta {
            task: r.get_varint().ok()?,
            gen: r.get_varint().ok()? as u32,
            epoch: r.get_varint().ok()?,
            ident: r.get_varint().ok()?,
        },
    ))
}

/// Encode an abort marker: output of `task` from generations `< gen` in
/// epochs `> epoch` is aborted (the global-rollback analogue of a Kafka
/// transaction abort; read-committed consumers skip the records it covers).
pub fn encode_abort_marker(task: TaskId, gen: u32, epoch: EpochId) -> Meta {
    Meta::tagged(META_ABORT, [task, u64::from(gen), epoch, 0])
}

/// Walk a sink partition and yield the *effective* (read-committed) output
/// metadata of `sink`: data records not covered by any abort marker.
pub fn effective_sink_meta(
    partition: &clonos_storage::log::LogPartition,
    sink: TaskId,
) -> Vec<SinkMeta> {
    let records = partition.fetch(0, usize::MAX);
    let mut aborts: Vec<(u32, EpochId)> = Vec::new();
    for r in records {
        if let Some((kind, m)) = r.meta.as_deref().and_then(parse_meta) {
            if kind == META_ABORT && m.task == sink {
                aborts.push((m.gen, m.epoch));
            }
        }
    }
    records
        .iter()
        .filter_map(|r| r.meta.as_deref().and_then(parse_meta))
        .filter(|(kind, m)| *kind == META_DATA && m.task == sink)
        .map(|(_, m)| m)
        .filter(|m| !aborts.iter().any(|&(g, e)| m.gen < g && m.epoch > e))
        .collect()
}

/// Like [`effective_sink_meta`] but returns the decoded records too.
pub fn effective_sink_records(
    partition: &clonos_storage::log::LogPartition,
    sink: TaskId,
) -> Vec<(SinkMeta, Record)> {
    let records = partition.fetch(0, usize::MAX);
    let mut aborts: Vec<(u32, EpochId)> = Vec::new();
    for r in records {
        if let Some((kind, m)) = r.meta.as_deref().and_then(parse_meta) {
            if kind == META_ABORT && m.task == sink {
                aborts.push((m.gen, m.epoch));
            }
        }
    }
    records
        .iter()
        .filter_map(|r| {
            let (kind, m) = r.meta.as_deref().and_then(parse_meta)?;
            if kind != META_DATA || m.task != sink {
                return None;
            }
            if aborts.iter().any(|&(g, e)| m.gen < g && m.epoch > e) {
                return None;
            }
            let rec = Record::decode(&mut ByteReader::new(&r.payload)).ok()?;
            Some((m, rec))
        })
        .collect()
}
