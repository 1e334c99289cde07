//! Built-in operator library: map/filter, keyed reduce, tumbling &
//! sliding windows (event- and processing-time), interval and full-history
//! joins, and a raw process function for arbitrary UDFs.
//!
//! Everything keeps its state in the engine's [`StateStore`] so checkpoints
//! and recovery work uniformly, and draws all nondeterminism from the
//! [`OpCtx`] causal services.

use crate::error::EngineError;
use crate::operator::{OpCtx, Operator, TimerKind};
use crate::record::{Datum, Record, Row};
use crate::state::StateTimer;
use std::sync::Arc;

// State ids used by the built-ins (operators own their whole task's store).
const S_ACC: u16 = 0;
const S_META: u16 = 2;
const S_LEFT: u16 = 3;
const S_RIGHT: u16 = 4;

/// Stateless transformation: `f` may emit any number of records via the ctx.
pub struct ProcessOp<F> {
    f: F,
}

impl<F> ProcessOp<F>
where
    F: FnMut(u8, &Record, &mut OpCtx<'_>) -> Result<(), EngineError>,
{
    pub fn new(f: F) -> ProcessOp<F> {
        ProcessOp { f }
    }
}

impl<F> Operator for ProcessOp<F>
where
    F: FnMut(u8, &Record, &mut OpCtx<'_>) -> Result<(), EngineError>,
{
    fn on_record(&mut self, input: u8, rec: &Record, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        (self.f)(input, rec, ctx)
    }
}

/// Map: 1→1 row transform, optionally re-keying. Returns an
/// [`crate::operator::OperatorFactory`]-compatible constructor.
pub fn map_op(f: impl Fn(&Record) -> (u64, Row) + Send + Sync + 'static) -> crate::operator::OperatorFactory {
    let f = Arc::new(f);
    Arc::new(move || {
        let f = f.clone();
        Box::new(ProcessOp::new(move |_input, rec: &Record, ctx: &mut OpCtx<'_>| {
            let (key, row) = f(rec);
            ctx.emit(key, rec.event_time, row);
            Ok(())
        }))
    })
}

/// Filter: pass records satisfying the predicate.
pub fn filter_op(pred: impl Fn(&Record) -> bool + Send + Sync + 'static) -> crate::operator::OperatorFactory {
    let pred = Arc::new(pred);
    Arc::new(move || {
        let pred = pred.clone();
        Box::new(ProcessOp::new(move |_input, rec: &Record, ctx: &mut OpCtx<'_>| {
            if pred(rec) {
                ctx.emit(rec.key, rec.event_time, rec.row.clone());
            }
            Ok(())
        }))
    })
}

/// Keyed rolling reduce: folds `f(acc, row) -> acc` per key and emits the
/// updated accumulator for every input.
pub struct ReduceOp<F> {
    f: F,
}

impl<F> ReduceOp<F>
where
    F: Fn(Option<&Row>, &Row) -> Row,
{
    pub fn new(f: F) -> ReduceOp<F> {
        ReduceOp { f }
    }
}

impl<F> Operator for ReduceOp<F>
where
    F: Fn(Option<&Row>, &Row) -> Row,
{
    fn on_record(&mut self, _input: u8, rec: &Record, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        let acc = ctx.state.value(S_ACC, rec.key);
        let next = (self.f)(acc, &rec.row);
        ctx.state.set_value_from(S_ACC, rec.key, &next);
        ctx.emit(rec.key, rec.event_time, next);
        Ok(())
    }
}

/// Aggregation a window computes over its rows, folded in as they arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowAggregate {
    Count,
    /// Sum of row field `i`.
    SumInt(usize),
    /// Max of row field `i`.
    MaxInt(usize),
    /// Min of row field `i`.
    MinInt(usize),
    /// Average of row field `i` (emitted as Float).
    AvgInt(usize),
}

impl WindowAggregate {
    /// Fold `row`, the window's `count`-th row so far (from 0), into `acc`.
    fn accumulate(&self, count: i64, acc: i64, row: &Row) -> i64 {
        match *self {
            WindowAggregate::Count => 0,
            WindowAggregate::SumInt(i) | WindowAggregate::AvgInt(i) => acc.wrapping_add(row.int(i)),
            WindowAggregate::MaxInt(i) if count > 0 => acc.max(row.int(i)),
            WindowAggregate::MinInt(i) if count > 0 => acc.min(row.int(i)),
            WindowAggregate::MaxInt(i) | WindowAggregate::MinInt(i) => row.int(i),
        }
    }

    /// The aggregate of `count` rows folded into `acc`. An average divides
    /// the exact sum, which is the float sum of the rows while the sums stay
    /// under 2⁵³ in magnitude.
    fn aggregate_of(&self, count: i64, acc: i64) -> Datum {
        match *self {
            WindowAggregate::Count => Datum::Int(count),
            WindowAggregate::AvgInt(_) => Datum::Float(acc as f64 / count as f64),
            _ => Datum::Int(acc),
        }
    }
}

/// Which clock drives window assignment and firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowTime {
    /// Event-time windows, fired by the watermark. Deterministic.
    Event,
    /// Processing-time windows: assignment reads the causal timestamp
    /// service; firing uses processing-time timers. Nondeterministic — the
    /// workload class Clonos exists for (§4.1).
    Processing,
}

/// Keyed tumbling/sliding window with a built-in aggregate.
///
/// Emits `(key, window_start, aggregate)` rows when windows fire. A window
/// holds no rows: its state is one accumulator row `[count, acc, newest
/// create_ts]`, folded in place per record, and its timer is registered when
/// the accumulator is created, so the timer is pending exactly while the
/// accumulator exists.
pub struct WindowOp {
    pub time: WindowTime,
    pub size_us: u64,
    /// Slide; equal to `size_us` for tumbling windows.
    pub slide_us: u64,
    pub agg: WindowAggregate,
}

impl WindowOp {
    pub fn tumbling(time: WindowTime, size_us: u64, agg: WindowAggregate) -> WindowOp {
        WindowOp { time, size_us, slide_us: size_us, agg }
    }

    pub fn sliding(time: WindowTime, size_us: u64, slide_us: u64, agg: WindowAggregate) -> WindowOp {
        WindowOp { time, size_us, slide_us, agg }
    }

    /// Starts of the windows containing `ts`, newest first.
    fn windows_for(&self, ts: u64) -> impl Iterator<Item = u64> {
        let (size, slide) = (self.size_us, self.slide_us);
        let first = (ts / slide) * slide;
        std::iter::successors(Some(first), move |&s| s.checked_sub(slide))
            .take_while(move |&s| s + size > ts)
    }

    fn bucket_key(key: u64, window_start: u64) -> u64 {
        // Combine key and window start into a composite state key.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [key, window_start] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    fn fire(&self, key: u64, start: u64, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        let Some(mut row) = ctx.state.take_value(S_ACC, Self::bucket_key(key, start)) else {
            return Ok(());
        };
        let [Datum::Int(count), Datum::Int(acc), Datum::Int(newest_create)] = row.0[..] else {
            return Ok(());
        };
        // The accumulator's buffer becomes the output row.
        row.0.clear();
        row.0.extend([Datum::Int(key as i64), Datum::Int(start as i64), self.agg.aggregate_of(count, acc)]);
        ctx.emit_with_create(key, start + self.size_us, newest_create as u64, row);
        Ok(())
    }
}

impl Operator for WindowOp {
    fn on_record(&mut self, _input: u8, rec: &Record, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        let ts = match self.time {
            WindowTime::Event => rec.event_time,
            WindowTime::Processing => ctx.timestamp()?,
        };
        for start in self.windows_for(ts) {
            let created = ctx.state.update_value(
                S_ACC,
                Self::bucket_key(rec.key, start),
                || Row::new(vec![Datum::Int(0), Datum::Int(0), Datum::Int(0)]),
                |row| {
                    if let [Datum::Int(count), Datum::Int(acc), Datum::Int(newest)] = &mut row.0[..] {
                        *acc = self.agg.accumulate(*count, *acc, &rec.row);
                        *count += 1;
                        // The newest contributor's create_ts, for latency.
                        *newest = (*newest).max(rec.create_ts as i64);
                    }
                },
            );
            if created {
                let end = start + self.size_us;
                match self.time {
                    WindowTime::Event => ctx.register_event_timer(end, rec.key, start),
                    WindowTime::Processing => ctx.register_proc_timer(end, rec.key, start),
                }
            }
        }
        Ok(())
    }

    fn on_timer(
        &mut self,
        timer: StateTimer,
        _kind: TimerKind,
        ctx: &mut OpCtx<'_>,
    ) -> Result<(), EngineError> {
        self.fire(timer.key, timer.tag, ctx)
    }
}

/// Full-history incremental two-input join on the record key (the Q3-style
/// join: every left row joins all stored right rows and vice versa).
///
/// `emit` builds the output row from a matched (left, right) pair.
pub struct HistoryJoinOp<F> {
    emit: F,
}

impl<F> HistoryJoinOp<F>
where
    F: Fn(&Row, &Row) -> Row,
{
    pub fn new(emit: F) -> HistoryJoinOp<F> {
        HistoryJoinOp { emit }
    }
}

impl<F> Operator for HistoryJoinOp<F>
where
    F: Fn(&Row, &Row) -> Row,
{
    fn on_record(&mut self, input: u8, rec: &Record, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        let (mine, theirs) = if input == 0 { (S_LEFT, S_RIGHT) } else { (S_RIGHT, S_LEFT) };
        ctx.state.push_list(mine, rec.key, rec.row.clone());
        let emit = &self.emit;
        if input == 0 {
            ctx.emit_for_list(theirs, rec.key, rec.event_time, |other| emit(&rec.row, other));
        } else {
            ctx.emit_for_list(theirs, rec.key, rec.event_time, |other| emit(other, &rec.row));
        }
        Ok(())
    }
}

/// Event-time tumbling window join (the Q8-style join): buffers both sides
/// per (key, window) and emits matches when the watermark closes the window.
pub struct WindowJoinOp<F> {
    pub size_us: u64,
    emit: F,
}

impl<F> WindowJoinOp<F>
where
    F: Fn(&Row, &Row) -> Row,
{
    pub fn new(size_us: u64, emit: F) -> WindowJoinOp<F> {
        WindowJoinOp { size_us, emit }
    }

    fn bucket(key: u64, start: u64, side: u16) -> u64 {
        let mut h: u64 = 0x100 + side as u64;
        for v in [key, start] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

impl<F> Operator for WindowJoinOp<F>
where
    F: Fn(&Row, &Row) -> Row,
{
    fn on_record(&mut self, input: u8, rec: &Record, ctx: &mut OpCtx<'_>) -> Result<(), EngineError> {
        let start = (rec.event_time / self.size_us) * self.size_us;
        let side = if input == 0 { S_LEFT } else { S_RIGHT };
        let bucket = Self::bucket(rec.key, start, side);
        ctx.state.push_list(side, bucket, rec.row.clone());
        let meta = Self::bucket(rec.key, start, S_META);
        let newest = ctx.state.value(S_META, meta).map(|r| r.int(0) as u64).unwrap_or(0);
        if rec.create_ts > newest {
            ctx.state.set_value(S_META, meta, Row::new(vec![Datum::Int(rec.create_ts as i64)]));
        }
        ctx.register_event_timer(start + self.size_us, rec.key, start);
        Ok(())
    }

    fn on_timer(
        &mut self,
        timer: StateTimer,
        _kind: TimerKind,
        ctx: &mut OpCtx<'_>,
    ) -> Result<(), EngineError> {
        let (key, start) = (timer.key, timer.tag);
        let left = ctx.state.take_list(S_LEFT, Self::bucket(key, start, S_LEFT));
        let right = ctx.state.take_list(S_RIGHT, Self::bucket(key, start, S_RIGHT));
        let create = ctx
            .state
            .take_value(S_META, Self::bucket(key, start, S_META))
            .map(|r| r.int(0) as u64)
            .unwrap_or(0);
        for l in &left {
            for r in &right {
                let out = (self.emit)(l, r);
                ctx.emit_with_create(key, start + self.size_us, create, out);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateStore;

    fn windows(w: &WindowOp, ts: u64) -> Vec<u64> {
        w.windows_for(ts).collect()
    }

    #[test]
    fn tumbling_window_assignment() {
        let w = WindowOp::tumbling(WindowTime::Event, 10, WindowAggregate::Count);
        assert_eq!(windows(&w, 0), vec![0]);
        assert_eq!(windows(&w, 9), vec![0]);
        assert_eq!(windows(&w, 10), vec![10]);
        assert_eq!(windows(&w, 25), vec![20]);
    }

    #[test]
    fn sliding_window_assignment_covers_all_containing_windows() {
        let w = WindowOp::sliding(WindowTime::Event, 10, 5, WindowAggregate::Count);
        // ts=12 is inside [10,20) and [5,15); newest window first.
        assert_eq!(windows(&w, 12), vec![10, 5]);
        // ts=3 is inside [0,10) only (no negative window here).
        assert_eq!(windows(&w, 3), vec![0]);
    }

    /// The window starts and their order, against the definition: every
    /// slide-aligned start `s` with `s <= ts < s + size`, newest first.
    #[test]
    fn window_starts_match_definition_for_tumbling_sliding_and_hopping() {
        for (size, slide) in [(10, 10), (10, 5), (60, 1), (7, 3), (3, 7), (1, 1)] {
            let w = WindowOp::sliding(WindowTime::Event, size, slide, WindowAggregate::Count);
            for ts in 0..200 {
                let mut expected: Vec<u64> = (0..=ts)
                    .filter(|s| s % slide == 0 && ts < s + size)
                    .collect();
                expected.reverse();
                assert_eq!(windows(&w, ts), expected, "size {size} slide {slide} ts {ts}");
            }
        }
    }

    /// The buffered definition of an aggregate, the oracle the incremental
    /// window is checked against.
    fn buffered_aggregate(agg: WindowAggregate, rows: &[Row]) -> Datum {
        match agg {
            WindowAggregate::Count => Datum::Int(rows.len() as i64),
            WindowAggregate::SumInt(i) => Datum::Int(rows.iter().map(|r| r.int(i)).sum()),
            WindowAggregate::MaxInt(i) => Datum::Int(rows.iter().map(|r| r.int(i)).max().unwrap_or(0)),
            WindowAggregate::MinInt(i) => Datum::Int(rows.iter().map(|r| r.int(i)).min().unwrap_or(0)),
            WindowAggregate::AvgInt(i) => {
                if rows.is_empty() {
                    Datum::Float(0.0)
                } else {
                    Datum::Float(rows.iter().map(|r| r.int(i) as f64).sum::<f64>() / rows.len() as f64)
                }
            }
        }
    }

    #[test]
    fn aggregates_compute() {
        let rows = vec![
            Row::new(vec![Datum::Int(5)]),
            Row::new(vec![Datum::Int(2)]),
            Row::new(vec![Datum::Int(9)]),
        ];
        assert_eq!(buffered_aggregate(WindowAggregate::Count, &rows), Datum::Int(3));
        assert_eq!(buffered_aggregate(WindowAggregate::SumInt(0), &rows), Datum::Int(16));
        assert_eq!(buffered_aggregate(WindowAggregate::MaxInt(0), &rows), Datum::Int(9));
        assert_eq!(buffered_aggregate(WindowAggregate::MinInt(0), &rows), Datum::Int(2));
        match buffered_aggregate(WindowAggregate::AvgInt(0), &rows) {
            Datum::Float(v) => assert!((v - 16.0 / 3.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[derive(Clone, Debug)]
    enum WinOp {
        /// key, event time, field value, create_ts
        Record(u64, u64, i64, u64),
        /// Advance the watermark by this much.
        Watermark(u64),
        /// Snapshot the store and carry on with the restored image.
        Restore,
    }

    fn win_op() -> impl proptest::Strategy<Value = WinOp> {
        use proptest::prelude::*;
        // Values -50..50; event times up to 240 reach well behind the
        // watermark, so late rows reopen windows that fired.
        let record = || {
            (0u64..4, 0u64..240, 0u64..100, 0u64..1_000)
                .prop_map(|(k, t, v, c)| WinOp::Record(k, t, v as i64 - 50, c))
        };
        // The shim's `prop_oneof!` is uniform: repeats are the weights.
        prop_oneof![
            record(),
            record(),
            record(),
            (0u64..30).prop_map(WinOp::Watermark),
            Just(WinOp::Restore),
        ]
    }

    /// What a window emitted: key, event time, create_ts and row.
    type Fired = (u64, u64, u64, Row);

    /// The buffered window: every row kept per (key, start) until the
    /// watermark passes the window's end, fired in timer order.
    #[derive(Default)]
    struct BufferedWindows {
        rows: std::collections::BTreeMap<(u64, u64), (Vec<Row>, u64)>,
        timers: std::collections::BTreeSet<(u64, u64, u64)>,
    }

    impl BufferedWindows {
        fn record(&mut self, w: &WindowOp, key: u64, ts: u64, row: Row, create_ts: u64) {
            let starts = (0..=ts).filter(|s| s % w.slide_us == 0 && ts < s + w.size_us);
            for start in starts {
                let (rows, newest) = self.rows.entry((key, start)).or_default();
                rows.push(row.clone());
                *newest = (*newest).max(create_ts);
                self.timers.insert((start + w.size_us, key, start));
            }
        }

        fn advance(&mut self, w: &WindowOp, wm: u64, out: &mut Vec<Fired>) {
            while let Some(&(end, key, start)) = self.timers.first().filter(|t| t.0 <= wm) {
                self.timers.remove(&(end, key, start));
                if let Some((rows, newest)) = self.rows.remove(&(key, start)) {
                    let agg = buffered_aggregate(w.agg, &rows);
                    let row = Row::new(vec![Datum::Int(key as i64), Datum::Int(start as i64), agg]);
                    out.push((key, end, newest, row));
                }
            }
        }
    }

    /// Drive `w` through `ops` on a real store and the buffered model
    /// beside it; both must emit the same records in the same order.
    fn run_window_against_buffered(w: &WindowOp, ops: &[WinOp]) {
        use clonos::causal_log::CausalLogManager;
        use clonos::services::CausalServices;
        use clonos_sim::VirtualTime;
        use clonos_storage::external::ExternalKv;

        let mut state = StateStore::new();
        let mut services = CausalServices::new(0);
        let mut log = CausalLogManager::new(1, 1, 1);
        let mut external = ExternalKv::new(1);
        let mut op = WindowOp { ..*w };
        let mut model = BufferedWindows::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut wm = 0;
        for o in ops {
            let mut ctx =
                OpCtx::new(&mut state, &mut services, &mut log, &mut external, VirtualTime(0), wm, 0, 0);
            match *o {
                WinOp::Record(key, ts, v, create_ts) => {
                    let row = Row::new(vec![Datum::Int(v), Datum::str("payload")]);
                    let rec = Record { key, event_time: ts, create_ts, ident: 0, row: row.clone() };
                    op.on_record(0, &rec, &mut ctx).unwrap();
                    model.record(w, key, ts, row, create_ts);
                }
                WinOp::Watermark(by) => {
                    wm += by;
                    for t in ctx.state.pop_due_event_timers(wm) {
                        op.on_timer(t, TimerKind::EventTime, &mut ctx).unwrap();
                    }
                    model.advance(w, wm, &mut want);
                }
                WinOp::Restore => {}
            }
            got.extend(ctx.emitted.drain(..).map(|e| (e.key, e.event_time, e.create_ts, e.row)));
            if matches!(o, WinOp::Restore) {
                state = StateStore::restore(&state.snapshot()).unwrap();
            }
        }
        assert_eq!(got, want);
        // Every window left open holds a pending timer and an accumulator.
        assert_eq!(state.event_timers_len(), model.timers.len());
        assert_eq!(state.entries(), model.rows.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_window_matches_buffered_definition(
            ops in proptest::collection::vec(win_op(), 1..120),
        ) {
            let aggs = [
                WindowAggregate::Count,
                WindowAggregate::SumInt(0),
                WindowAggregate::MaxInt(0),
                WindowAggregate::MinInt(0),
                WindowAggregate::AvgInt(0),
            ];
            for agg in aggs {
                for (size, slide) in [(40, 40), (40, 10), (30, 20)] {
                    let w = WindowOp::sliding(WindowTime::Event, size, slide, agg);
                    run_window_against_buffered(&w, &ops);
                }
            }
        }
    }

    #[test]
    fn window_bucket_keys_distinct() {
        let a = WindowOp::bucket_key(1, 0);
        let b = WindowOp::bucket_key(1, 10);
        let c = WindowOp::bucket_key(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
