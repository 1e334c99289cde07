//! Measurement primitives: time series, throughput windows, and latency
//! percentiles — the raw material for regenerating the paper's Figures 5/6.

use crate::time::{VirtualDuration, VirtualTime};

/// A plain `(time, value)` series, e.g. per-record end-to-end latency samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(VirtualTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    pub fn push(&mut self, t: VirtualTime, v: f64) {
        self.points.push((t, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[(VirtualTime, f64)] {
        &self.points
    }

    /// Fold another series into this one, keeping the merged points
    /// time-ordered (stable, so same-time points keep `self`-then-`other`
    /// order).
    pub fn absorb(&mut self, other: &TimeSeries) {
        self.points.extend_from_slice(&other.points);
        self.points.sort_by_key(|&(t, _)| t);
    }

    /// Mean of values with `t >= from && t < to`.
    pub fn mean_in(&self, from: VirtualTime, to: VirtualTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.points {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// First time at or after `from` where all subsequent values stay within
    /// `tolerance × baseline`. This is the paper's recovery-time metric: the
    /// instant observed latency returns to within 10 % of pre-failure latency
    /// *and stays there*.
    pub fn stabilization_time(
        &self,
        from: VirtualTime,
        baseline: f64,
        tolerance: f64,
    ) -> Option<VirtualTime> {
        let limit = baseline * tolerance;
        let mut candidate: Option<VirtualTime> = None;
        for &(t, v) in &self.points {
            if t < from {
                continue;
            }
            if v <= limit {
                candidate.get_or_insert(t);
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

/// Throughput bucketed into fixed windows of virtual time.
#[derive(Clone, Debug)]
pub struct ThroughputSeries {
    window: VirtualDuration,
    counts: Vec<u64>,
}

impl ThroughputSeries {
    pub fn new(window: VirtualDuration) -> ThroughputSeries {
        assert!(window.as_micros() > 0);
        ThroughputSeries { window, counts: Vec::new() }
    }

    pub fn record(&mut self, t: VirtualTime, n: u64) {
        let idx = (t.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(count) = self.counts.get_mut(idx) {
            *count += n;
        }
    }

    /// `(window_start_time, records_per_second)` pairs.
    pub fn rates(&self) -> Vec<(VirtualTime, f64)> {
        let w = self.window.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (VirtualTime(i as u64 * self.window.as_micros()), c as f64 / w))
            .collect()
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another series (same window size) into this one, element-wise.
    pub fn absorb(&mut self, other: &ThroughputSeries) {
        assert_eq!(
            self.window.as_micros(),
            other.window.as_micros(),
            "cannot absorb a throughput series with a different window"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
    }

    /// Mean rate over buckets fully inside `[from, to)`.
    pub fn mean_rate_in(&self, from: VirtualTime, to: VirtualTime) -> f64 {
        let w = self.window.as_micros();
        let lo = from.as_micros().div_ceil(w);
        let hi = to.as_micros() / w;
        if hi <= lo {
            return 0.0;
        }
        let slice: &[u64] = {
            let end = (hi as usize).min(self.counts.len());
            let start = (lo as usize).min(end);
            &self.counts[start..end]
        };
        if slice.is_empty() {
            return 0.0;
        }
        let total: u64 = slice.iter().sum();
        total as f64 / (slice.len() as f64 * self.window.as_secs_f64())
    }
}

/// Latency distribution with exact percentiles (stores all samples; fine at
/// simulation scale).
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>, // micros
    sorted: bool,
}

impl LatencyRecorder {
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    pub fn record(&mut self, latency: VirtualDuration) {
        self.samples.push(latency.as_micros());
        self.sorted = false;
    }

    /// Fold another recorder's samples into this one.
    pub fn absorb(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]`; `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<VirtualDuration> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        Some(VirtualDuration::from_micros(self.samples[rank]))
    }

    pub fn mean(&self) -> Option<VirtualDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Some(VirtualDuration::from_micros((sum / self.samples.len() as u128) as u64))
    }

    pub fn max(&mut self) -> Option<VirtualDuration> {
        self.ensure_sorted();
        self.samples.last().map(|&s| VirtualDuration::from_micros(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_mean_in_window() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(VirtualTime(i * 100), i as f64);
        }
        let m = ts.mean_in(VirtualTime(200), VirtualTime(500)).unwrap();
        assert_eq!(m, 3.0); // values 2,3,4
        assert!(ts.mean_in(VirtualTime(5_000), VirtualTime(6_000)).is_none());
    }

    #[test]
    fn stabilization_requires_staying_low() {
        let mut ts = TimeSeries::new();
        ts.push(VirtualTime(0), 1.0);
        ts.push(VirtualTime(100), 50.0); // failure spike
        ts.push(VirtualTime(200), 1.0); // transient dip
        ts.push(VirtualTime(300), 40.0); // spike again
        ts.push(VirtualTime(400), 1.05);
        ts.push(VirtualTime(500), 1.02);
        let t = ts.stabilization_time(VirtualTime(100), 1.0, 1.10).unwrap();
        assert_eq!(t, VirtualTime(400));
    }

    #[test]
    fn stabilization_none_if_never_recovers() {
        let mut ts = TimeSeries::new();
        ts.push(VirtualTime(0), 10.0);
        ts.push(VirtualTime(1), 10.0);
        assert!(ts.stabilization_time(VirtualTime(0), 1.0, 1.1).is_none());
    }

    #[test]
    fn throughput_buckets_and_rates() {
        let mut tp = ThroughputSeries::new(VirtualDuration::from_secs(1));
        tp.record(VirtualTime(200_000), 10);
        tp.record(VirtualTime(900_000), 5);
        tp.record(VirtualTime(1_100_000), 7);
        let rates = tp.rates();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].1, 15.0);
        assert_eq!(rates[1].1, 7.0);
        assert_eq!(tp.total(), 22);
    }

    #[test]
    fn mean_rate_in_range() {
        let mut tp = ThroughputSeries::new(VirtualDuration::from_secs(1));
        for s in 0..10u64 {
            tp.record(VirtualTime(s * 1_000_000 + 1), 100);
        }
        let r = tp.mean_rate_in(VirtualTime(2_000_000), VirtualTime(5_000_000));
        assert_eq!(r, 100.0);
        assert_eq!(tp.mean_rate_in(VirtualTime(50_000_000), VirtualTime(60_000_000)), 0.0);
    }

    #[test]
    fn latency_percentiles() {
        let mut l = LatencyRecorder::new();
        for i in 1..=100u64 {
            l.record(VirtualDuration::from_micros(i));
        }
        assert_eq!(l.percentile(50.0).unwrap().as_micros(), 51); // rank 49.5 rounds up
        assert_eq!(l.percentile(99.0).unwrap().as_micros(), 99);
        assert_eq!(l.percentile(0.0).unwrap().as_micros(), 1);
        assert_eq!(l.max().unwrap().as_micros(), 100);
        assert_eq!(l.mean().unwrap().as_micros(), 50);
    }

    #[test]
    fn empty_recorder_returns_none() {
        let mut l = LatencyRecorder::new();
        assert!(l.percentile(50.0).is_none());
        assert!(l.mean().is_none());
        assert!(l.max().is_none());
    }
}
