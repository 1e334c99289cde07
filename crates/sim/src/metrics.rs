//! Measurement primitive: a `(time, value)` series with the windowed mean
//! and the stabilization point behind the paper's recovery-time metric.

use crate::time::VirtualTime;

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

    pub fn points(&self) -> &[(VirtualTime, f64)] {
        &self.points
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

impl FromIterator<(VirtualTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (VirtualTime, f64)>>(points: I) -> TimeSeries {
        TimeSeries { points: points.into_iter().collect() }
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
}
