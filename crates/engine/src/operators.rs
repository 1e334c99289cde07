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
const S_WINDOW: u16 = 1;
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
        ctx.state.set_value(S_ACC, rec.key, next.clone());
        ctx.emit(rec.key, rec.event_time, next);
        Ok(())
    }
}

/// Aggregation applied to a window's buffered rows when it fires.
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
    fn apply(&self, rows: &[Row]) -> Datum {
        match *self {
            WindowAggregate::Count => Datum::Int(rows.len() as i64),
            WindowAggregate::SumInt(i) => Datum::Int(rows.iter().map(|r| r.int(i)).sum()),
            WindowAggregate::MaxInt(i) => {
                Datum::Int(rows.iter().map(|r| r.int(i)).max().unwrap_or(0))
            }
            WindowAggregate::MinInt(i) => {
                Datum::Int(rows.iter().map(|r| r.int(i)).min().unwrap_or(0))
            }
            WindowAggregate::AvgInt(i) => {
                if rows.is_empty() {
                    Datum::Float(0.0)
                } else {
                    Datum::Float(rows.iter().map(|r| r.int(i) as f64).sum::<f64>() / rows.len() as f64)
                }
            }
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
/// Emits `(key, window_start, aggregate)` rows when windows fire.
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
        let bucket = Self::bucket_key(key, start);
        let rows = ctx.state.take_list(S_WINDOW, bucket);
        if rows.is_empty() {
            return Ok(());
        }
        let newest_create = ctx
            .state
            .take_value(S_META, bucket)
            .map(|r| r.int(0) as u64)
            .unwrap_or(0);
        let agg = self.agg.apply(&rows);
        let end = start + self.size_us;
        ctx.emit_with_create(
            key,
            end,
            newest_create,
            Row::new(vec![Datum::Int(key as i64), Datum::Int(start as i64), agg]),
        );
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
            let bucket = Self::bucket_key(rec.key, start);
            ctx.state.push_list(S_WINDOW, bucket, rec.row.clone());
            // Track the newest contributor's create_ts for latency.
            let newest = ctx.state.value(S_META, bucket).map(|r| r.int(0) as u64).unwrap_or(0);
            if rec.create_ts > newest {
                ctx.state
                    .set_value(S_META, bucket, Row::new(vec![Datum::Int(rec.create_ts as i64)]));
            }
            let end = start + self.size_us;
            match self.time {
                WindowTime::Event => ctx.register_event_timer(end, rec.key, start),
                WindowTime::Processing => ctx.register_proc_timer(end, rec.key, start),
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
        let matches: Vec<Row> = ctx.state.list(theirs, rec.key).to_vec();
        for other in matches {
            let out = if input == 0 {
                (self.emit)(&rec.row, &other)
            } else {
                (self.emit)(&other, &rec.row)
            };
            ctx.emit(rec.key, rec.event_time, out);
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

    #[test]
    fn aggregates_compute() {
        let rows = vec![
            Row::new(vec![Datum::Int(5)]),
            Row::new(vec![Datum::Int(2)]),
            Row::new(vec![Datum::Int(9)]),
        ];
        assert_eq!(WindowAggregate::Count.apply(&rows), Datum::Int(3));
        assert_eq!(WindowAggregate::SumInt(0).apply(&rows), Datum::Int(16));
        assert_eq!(WindowAggregate::MaxInt(0).apply(&rows), Datum::Int(9));
        assert_eq!(WindowAggregate::MinInt(0).apply(&rows), Datum::Int(2));
        match WindowAggregate::AvgInt(0).apply(&rows) {
            Datum::Float(v) => assert!((v - 16.0 / 3.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
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
