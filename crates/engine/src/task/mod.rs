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
//!
//! One file per concern: `data_path.rs`, `checkpoint.rs`, `recovery.rs` and
//! `sink.rs`; this one holds [`Task`] and [`Task::handle`], its one dispatch.

mod checkpoint;
mod data_path;
mod recovery;
mod sink;

pub use checkpoint::TaskSnapshot;
pub use sink::{effective_sink_meta, effective_sink_records, encode_abort_marker};
pub use sink::{SinkMeta, META_ABORT, META_DATA};

use crate::config::{
    EngineConfig, FtMode, FLUSH_INTERVAL, LINK_JITTER, LINK_LATENCY, TIMESTAMP_CACHE_US,
};
use crate::error::EngineError;
use crate::graph::{Partitioning, SourceSpec, TaskSpec, VertexKind};
use crate::messages::Msg;
use crate::metrics::{JobMetrics, RecoveryStats, RoutingStats};
use crate::operator::{Emit, Operator};
use crate::record::{Datum, Record};
use crate::state::{StateStore, StateTimer};
use clonos::causal_log::CausalLogManager;
use clonos::config::GuaranteeMode;
use clonos::inflight::InFlightLog;
use clonos::services::CausalServices;
use clonos::{EpochId, TaskId};
use clonos_sim::{Link, Scheduler, ServiceQueue, SimRng, VirtualDuration, VirtualTime};
use clonos_storage::codec::ByteWriter;
use clonos_storage::log::DurableLog;
use clonos_storage::spill::SpillDevice;
use clonos_storage::external::ExternalKv;
use std::collections::{BTreeMap, VecDeque};

/// Everything a task handler may touch outside the task itself.
pub struct TaskCtx<'a> {
    pub sched: &'a mut dyn Scheduler<Msg>,
    pub links: &'a mut BTreeMap<(TaskId, TaskId), Link>,
    pub external: &'a ExternalKv,
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
                    LINK_LATENCY,
                    LINK_JITTER,
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

enum Role {
    Source {
        spec: SourceSpec,
        offset: u64,
        max_event_time: u64,
    },
    Op {
        op: Box<dyn Operator + Send>,
    },
    Sink(sink::Sink),
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
    ins: Vec<data_path::InChannel>,
    outs: Vec<data_path::OutChannel>,
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
    /// Replay bookkeeping (`recovery.rs`).
    replay: recovery::Replay,
    pub dead: bool,
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
    /// Checkpoint state and counters (`checkpoint.rs`).
    ckpt: checkpoint::CheckpointState,
    /// Chaos slow-consumer injection: processing-cost multiplier in effect
    /// until `slow_until` (1 = normal speed).
    slow_factor: u64,
    slow_until: VirtualTime,
    /// A `ServiceTick` wakeup is already scheduled (throttled consumption).
    service_tick_pending: bool,
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
        // At-most-once logs nothing, at-least-once only in-flight buffers,
        // exactly-once in-flight buffers and determinants.
        let (guarantee, dsd, pool, spill_policy) = match &config.ft {
            FtMode::Clonos(c) => {
                (c.guarantee, c.effective_dsd(graph_depth), c.inflight_pool_buffers, c.spill)
            }
            _ => (GuaranteeMode::AtMostOnce, 0, 0, clonos::SpillPolicy::InMemory),
        };
        let num_outs = spec.outputs.len();
        let num_ins = spec.inputs.len();
        let role = match kind {
            VertexKind::Source(s) => {
                Role::Source { spec: s.clone(), offset: 0, max_event_time: 0 }
            }
            VertexKind::Operator(f) => Role::Op { op: f() },
            VertexKind::Sink(s) => Role::Sink(sink::Sink::new(s, &config.ft)),
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
            .map(|&(_, from, input)| data_path::InChannel {
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
            .map(|&(_, to, _edge, dest_in)| data_path::OutChannel {
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
        let inflight = (guarantee != GuaranteeMode::AtMostOnce)
            .then(|| InFlightLog::new(num_outs, spill_policy, pool.max(1)));
        let causal = guarantee == GuaranteeMode::ExactlyOnce;
        let mut log = CausalLogManager::new(spec.id, num_outs, if causal { dsd } else { 0 });
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
            services: CausalServices::new(TIMESTAMP_CACHE_US),
            inflight,
            spill: SpillDevice::new(),
            queue: ServiceQueue::new(),
            replay: recovery::Replay::new(num_outs),
            dead: false,
            route_scratch: ByteWriter::new(),
            scratch_rec: Record::default(),
            emits: Vec::new(),
            new_timers: Vec::new(),
            routing: RoutingStats::default(),
            ckpt: checkpoint::CheckpointState::new(num_ins),
            slow_factor: 1,
            slow_until: VirtualTime::ZERO,
            service_tick_pending: false,
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
            ckpt: self.ckpt.stats,
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

    pub fn is_sink(&self) -> bool {
        matches!(self.role, Role::Sink(_))
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
        if let Role::Source { spec, .. } = &self.role {
            ctx.sched.schedule_in(VirtualDuration::from_micros(10), me, Msg::SourcePoll);
            ctx.sched.schedule_in(
                VirtualDuration::from_micros(spec.watermark_interval_us),
                me,
                Msg::WatermarkTick,
            );
        }
        if !self.outs.is_empty() {
            ctx.sched.schedule_in(FLUSH_INTERVAL, me, Msg::FlushTick);
        }
        // Reschedule restored processing-time timers.
        self.schedule_proc_timers(ctx);
        // Initial epoch's RNG seed (normal mode records it; replay pops it in
        // try_process instead).
        if !self.log.replaying() {
            let entropy = ctx.entropy.next_u64();
            let _ = self.services.renew_rng_seed(&mut self.log, entropy);
        }
    }

    /// Give every registered processing-time timer its simulator event.
    fn schedule_proc_timers(&self, ctx: &mut TaskCtx<'_>) {
        let timers: Vec<StateTimer> = self.state.proc_timers().copied().collect();
        for t in timers {
            let at = VirtualTime(t.ts).max(ctx.sched.now());
            ctx.sched.schedule_at(at, self.spec.id, Msg::ProcTimerFire(t));
        }
    }

    /// Input topic, if this task is a source (the parallel runtime lends
    /// each source actor its partition of it for the run).
    pub fn source_topic(&self) -> Option<&str> {
        match &self.role {
            Role::Source { spec, .. } => Some(&spec.topic),
            _ => None,
        }
    }

    /// Output topic, if this task is a sink.
    pub fn sink_topic(&self) -> Option<&str> {
        match &self.role {
            Role::Sink(sink) => Some(&sink.spec.topic),
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
}
