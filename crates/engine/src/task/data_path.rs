//! The data path (§4): input consumption, the operator, routing and buffer
//! cuts, watermarks, timers and sources, logging what it decides as it goes.

use super::*;
use crate::config::{CheckpointMode, BUFFER_SIZE, DELTA_BYTE_COST_NS, FLUSH_INTERVAL};
use crate::graph::TimestampMode;
use crate::operator::{timer_id, OpCtx, TimerKind};
use crate::record::{barrier_only, BufferReader, Element, StreamElement};
use bytes::Bytes;
use clonos::determinant::Determinant;
use clonos::inflight::{ReplayCursor, SentBuffer};
use clonos::ChannelId;
use clonos_storage::codec::ByteReader;
use std::ops::Range;

/// Timer id reserved for the source watermark tick.
pub(super) const WM_TIMER_ID: u64 = u64::MAX - 1;

pub(super) struct InChannel {
    pub(super) from: TaskId,
    pub(super) input: u8,
    pub(super) pending: VecDeque<SentBuffer>,
    /// Barrier alignment: true while waiting for other channels' barriers.
    pub(super) blocked: bool,
    pub(super) expected_gen: u32,
    /// True from `ReplayRequest` send until the first buffer accepted by
    /// this incarnation: the request doubles as the live-stream
    /// re-subscription, so until traffic proves the upstream processed it,
    /// the retry tick keeps re-sending — even after replay itself drained.
    /// A dropped request would otherwise leave the upstream streaming to
    /// the dead incarnation forever and stall every later barrier here.
    pub(super) awaiting_resume: bool,
    /// Buffers received per (un-checkpointed) epoch — the dedup counts
    /// reported to the job manager during a neighbour's recovery.
    pub(super) received: BTreeMap<EpochId, u64>,
    pub(super) watermark: u64,
}

pub(super) struct OutChannel {
    pub(super) to: TaskId,
    pub(super) dest_in: ChannelId,
    pub(super) writer: ByteWriter,
    pub(super) records: u32,
    pub(super) dest_gen: u32,
    /// Replay pump over the in-flight log, while serving a recovering
    /// downstream task.
    pub(super) pump: Option<ReplayCursor>,
    /// False while pumping: fresh flushes are logged but not sent directly.
    pub(super) live: bool,
    pub(super) rr: u64,
    /// Downstream incarnation whose replay request was already served on
    /// this channel. Recovering tasks re-send `ReplayRequest` on a timeout
    /// (the original may have been dropped by control-plane chaos); serving
    /// a duplicate would re-deliver the whole in-flight log.
    pub(super) served_replay_gen: Option<u32>,
    /// Buffers delivered to the *current* `dest_gen` incarnation. A replay
    /// request from an incarnation this channel has already been streaming
    /// to live is stale — the channel is reliable FIFO, so that incarnation
    /// has missed nothing — and serving it would re-deliver every buffer
    /// sent since it resumed (seen when a chaos-delayed `ReplayRequest`
    /// lands after a global restart has already resumed live traffic).
    pub(super) sent_to_gen: u64,
}

impl Task {
    pub(super) fn on_data(
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
            self.ckpt.capture_overtaken(ch, &buffer);
        }
        self.ins[ch].pending.push_back(buffer);
        self.arrivals.push_back(channel);
        self.try_process(ctx)
    }

    /// The main processing loop: consume whatever can be consumed.
    pub(super) fn try_process(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        loop {
            if self.log.replaying() {
                if !self.replay_step(ctx)? {
                    break;
                }
                if !self.log.replaying() {
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

    /// Consume one buffer from input `ch`, processing all its elements.
    pub(super) fn consume_buffer(&mut self, ch: ChannelId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
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
            Role::Sink(_) => {
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
    pub(super) fn run_operator(
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
        let live = !self.log.replaying();
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
    pub(super) fn write_element(
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
            self.drain_replay_flushes(out_idx..out_idx + 1, at, ctx)?;
        } else if self.outs[out_idx].writer.len() >= BUFFER_SIZE {
            self.flush_channel(out_idx, at, true, ctx)?;
        }
        Ok(())
    }

    /// Cut, log and send the buffer built on `out_idx`; `log_flush` records
    /// the cut as a flush determinant (normal mode, not replay).
    pub(super) fn flush_channel(
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
        if !delta.is_empty() {
            let cost = VirtualDuration::from_micros(delta.len() as u64 * DELTA_BYTE_COST_NS / 1_000);
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
        let suppress = self.replay.consume_skip(out_idx);
        let oc = &mut self.outs[out_idx];
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
                self.flush_channel(i, at, true, ctx)?;
            }
        }
        Ok(())
    }

    pub(super) fn on_flush_tick(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.log.replaying() {
            self.flush_all(ctx)?;
        }
        // clonos-lint: allow(non-progressing-cycle, reason = "fixed-interval flush timer: each firing is idempotent and the sim horizon bounds the loop; there is no protocol state to advance")
        ctx.sched.schedule_in(FLUSH_INTERVAL, self.spec.id, Msg::FlushTick);
        Ok(())
    }

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
        self.forward_watermark(min_wm, ctx)
    }

    /// Forward watermark `wm` on every output channel.
    fn forward_watermark(&mut self, wm: u64, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        for i in 0..self.outs.len() {
            self.write_element(i, &StreamElement::Watermark(wm), false, at, ctx)?;
        }
        Ok(())
    }

    pub(super) fn on_proc_timer(&mut self, t: StateTimer, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.log.replaying() {
            return Ok(()); // fired from determinants instead
        }
        if !self.state.take_proc_timer(t) {
            return Ok(()); // stale or already fired during replay
        }
        self.log.record(Determinant::Timer { timer_id: timer_id(&t), offset: self.step });
        self.run_operator(|op, opctx| op.on_timer(t, TimerKind::ProcessingTime, opctx), 0, ctx)
    }

    pub(super) fn on_source_poll(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
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
        if !self.log.replaying() {
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
    pub(super) fn emit_next_source_record(&mut self, ctx: &mut TaskCtx<'_>) -> Result<bool, EngineError> {
        let replaying = self.log.replaying();
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

    pub(super) fn on_watermark_tick(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let Role::Source { spec, .. } = &self.role else {
            return Ok(());
        };
        let interval = spec.watermark_interval_us;
        if !self.log.replaying() {
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

    pub(super) fn emit_source_watermark(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let Role::Source { spec, max_event_time, .. } = &self.role else {
            return Ok(());
        };
        let fresh = max_event_time.saturating_sub(spec.out_of_orderness_us);
        let wm = self.services.watermark(&mut self.log, fresh)?;
        if wm == 0 || wm <= self.watermark {
            return Ok(());
        }
        self.watermark = wm;
        self.forward_watermark(wm, ctx)
    }
}
