//! Causal recovery (§5): install and replay on the recovering task, gather
//! answers and in-flight log replay on survivors. [`Replay`] is its state.

use super::data_path::{InChannel, WM_TIMER_ID};
use super::*;
use crate::config::{MAX_REPLAY_REQUEST_RETRIES, REPLAY_BATCH, REPLAY_REQUEST_TIMEOUT};
use crate::metrics::{CausalRef, Kind};
use crate::operator::{timer_id, TimerKind};
use bytes::Bytes;
use clonos::causal_log::TaskLogSnapshot;
use clonos::determinant::{Determinant, RpcKind};
use clonos::recovery::LogRetrievalResponse;
use clonos::ChannelId;
use std::ops::Range;

/// One incarnation's replay bookkeeping.
pub(super) struct Replay {
    /// Per-out-channel buffers to rebuild-but-not-send during replay.
    skip: Vec<u64>,
    /// Set once BeginReplay installed; false again when replay drains.
    installed: bool,
    /// First epoch of the current replay; re-sent verbatim by retry ticks.
    from_epoch: EpochId,
}

impl Replay {
    pub(super) fn new(num_outs: usize) -> Replay {
        Replay { skip: vec![0; num_outs], installed: true, from_epoch: 1 }
    }

    /// The flush path cut a buffer on `out_idx`: true if the downstream
    /// already holds it (rebuilt, not re-sent).
    pub(super) fn consume_skip(&mut self, out_idx: usize) -> bool {
        let suppress = self.skip[out_idx] > 0;
        if suppress {
            self.skip[out_idx] -= 1;
        }
        suppress
    }
}

impl Task {
    /// One step of determinant-guided replay. Returns false when blocked
    /// (waiting for input).
    pub(super) fn replay_step(&mut self, ctx: &mut TaskCtx<'_>) -> Result<bool, EngineError> {
        let at = self.queue.busy_until().max(ctx.sched.now());
        self.drain_replay_flushes(0..self.outs.len(), at, ctx)?;
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
                    self.emit_barrier_and_snapshot(arg, ctx)?;
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

    /// Fire replayed asynchronous events anchored at the current step.
    pub(super) fn fire_due_async(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if self.log.replay_complete() {
            return Ok(());
        }
        while self.log.replaying() {
            match self.log.peek_replay() {
                Some(&Determinant::Timer { timer_id: id, offset }) if offset == self.step => {
                    self.log.pop_replay();
                    self.fire_timer_by_id(id, ctx)?;
                }
                Some(&Determinant::Rpc { kind: RpcKind::TriggerCheckpoint, arg, offset })
                    if offset == self.step =>
                {
                    self.log.pop_replay();
                    self.emit_barrier_and_snapshot(arg, ctx)?;
                }
                _ => break,
            }
        }
        let at = self.queue.busy_until().max(ctx.sched.now());
        self.drain_replay_flushes(0..self.outs.len(), at, ctx)
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

    /// Cut buffers on the output channels `chans` wherever a builder has
    /// reached the next logged flush size (deduplicating replay, step 6).
    pub(super) fn drain_replay_flushes(
        &mut self,
        chans: Range<usize>,
        at: VirtualTime,
        ctx: &mut TaskCtx<'_>,
    ) -> Result<(), EngineError> {
        for out_idx in chans {
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
                self.flush_channel(out_idx, at, false, ctx)?;
            }
        }
        Ok(())
    }

    /// Abandon determinant-guided replay mid-flight: continue live with
    /// fresh nondeterminism and no sender-side dedup (at-least-once for this
    /// incident, §5.4).
    pub fn abandon_replay(&mut self, ctx: &mut TaskCtx<'_>) {
        self.log.abandon_replay();
        self.replay.skip.fill(0);
        self.services.invalidate_cache();
        let _ = self.finish_recovery(ctx);
        // Consume whatever input queued up while replay was stuck.
        let _ = self.try_process(ctx);
    }

    /// Step 3 (survivor side): export the replica + received counts. The
    /// export is a pure read, so answering a re-sent (duplicate) request is
    /// harmless — the JM merges responses idempotently and drops responses
    /// carrying a stale `gather_id`.
    pub(super) fn on_log_request(
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
    pub(super) fn on_begin_replay(
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
        // full base at its first barrier.
        self.watermark = 0;
        self.ckpt.reset_for_incarnation();
        let mut overtaken = Vec::new();
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
        // Sender-side dedup is the exactly-once guarantee's; weaker ones
        // re-send everything they rebuild.
        if ctx.config.ft.clonos().is_some_and(|c| c.guarantee == GuaranteeMode::ExactlyOnce) {
            for (ch, n) in skip {
                if let Some(s) = self.replay.skip.get_mut(ch as usize) {
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
            self.ckpt.stats.unaligned_reinjections += 1;
        }
        self.restore_sink_dedup(resume_cp, rebuild_sink_dedup, ctx);
        self.replay.installed = true;
        self.replay.from_epoch = resume_cp + 1;
        // Step 4: ask upstream tasks to replay their in-flight logs. The
        // requests travel over the chaos-subject control plane; a retry tick
        // re-sends them if replay has not finished by then (upstreams dedup
        // by requester incarnation, so duplicates are no-ops).
        for c in &mut self.ins {
            c.awaiting_resume = true;
        }
        self.send_replay_requests(|_| true, ctx);
        if !self.ins.is_empty() {
            ctx.sched.schedule_in(
                REPLAY_REQUEST_TIMEOUT,
                self.spec.id,
                Msg::ReplayRetryTick { attempt: 0 },
            );
        }
        // Kick timers/polls/flushes for the new incarnation.
        self.start(ctx);
        // Sources with replay determinants start re-emitting immediately.
        self.try_process(ctx)?;
        if !self.log.replaying() {
            self.finish_recovery(ctx)?;
        }
        Ok(())
    }

    /// Send a `ReplayRequest` to the upstream of every input channel `pick`
    /// selects, each recorded first as a causal hop: a chaos-dropped request
    /// shows up as a replay hop that never led to `RecoveryDone`.
    fn send_replay_requests(&self, pick: impl Fn(&InChannel) -> bool, ctx: &mut TaskCtx<'_>) {
        let (me, gen, from_epoch) = (self.spec.id, self.gen, self.replay.from_epoch);
        for (i, c) in self.ins.iter().enumerate().filter(|(_, c)| pick(c)) {
            let cause = CausalRef { kind: Kind::BeginReplay, epoch: gen as u64, task: me };
            ctx.metrics.record(ctx.sched.now(), Kind::ReplayRequest, gen as u64, c.from, Some(cause));
            ctx.send_recovery_ctrl(
                c.from,
                Msg::ReplayRequest { from_task: me, dest_in: i as ChannelId, dest_gen: gen, from_epoch },
            );
        }
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
    pub(super) fn on_replay_retry_tick(&mut self, attempt: u32, ctx: &mut TaskCtx<'_>) {
        let installed = self.replay.installed;
        let outstanding = installed || self.ins.iter().any(|c| c.awaiting_resume);
        if !outstanding || attempt >= MAX_REPLAY_REQUEST_RETRIES {
            return;
        }
        let me = self.spec.id;
        let cause = CausalRef { kind: Kind::BeginReplay, epoch: self.gen as u64, task: me };
        let kind = Kind::ReplayRetry { attempt: attempt + 1 };
        ctx.metrics.record(ctx.sched.now(), kind, self.gen as u64, me, Some(cause));
        self.send_replay_requests(|c| installed || c.awaiting_resume, ctx);
        let backoff = VirtualDuration::from_micros(REPLAY_REQUEST_TIMEOUT.as_micros() << (attempt + 1));
        ctx.sched.schedule_in(backoff, me, Msg::ReplayRetryTick { attempt: attempt + 1 });
    }

    pub(super) fn finish_recovery(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        if !self.replay.installed {
            return Ok(());
        }
        self.replay.installed = false;
        // Unaligned orphan barriers: the replay pump only marked their
        // channels; snapshot them now, in id order, exactly as the live path
        // would have at first-barrier time. (Aligned replay gets this for
        // free: the replayed barrier buffers sit in pending and are consumed
        // after replay drains.)
        for id in self.ckpt.orphan_barriers_since(self.replay.from_epoch) {
            self.log.record(Determinant::Rpc {
                kind: RpcKind::TriggerCheckpoint,
                arg: id,
                offset: self.step,
            });
            self.emit_barrier_and_snapshot(id, ctx)?;
        }
        self.maybe_close_unaligned_captures(ctx)?;
        let (me, gen) = (self.spec.id, self.gen as u64);
        let cause = CausalRef { kind: Kind::BeginReplay, epoch: gen, task: me };
        ctx.metrics.record(ctx.sched.now(), Kind::RecoveryDone, gen, me, Some(cause));
        ctx.send_ctrl(0, Msg::RecoveryDone { task: self.spec.id });
        // Any processing-time timers registered during replay but not yet
        // fired need real simulator events now.
        self.schedule_proc_timers(ctx);
        Ok(())
    }

    /// Step 4/5 (upstream side): switch the channel into replay mode.
    pub(super) fn on_replay_request(
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

    pub(super) fn on_replay_pump(&mut self, channel: ChannelId, ctx: &mut TaskCtx<'_>) -> Result<(), EngineError> {
        let idx = channel as usize;
        let batch = REPLAY_BATCH;
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
                    if self.log.replaying() {
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
