//! Virtual time. All simulated timing — processing time, ingestion time,
//! heartbeat timeouts, checkpoint intervals — reads this clock, never the
//! host's wall clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(pub u64);

impl VirtualTime {
    pub const ZERO: VirtualTime = VirtualTime(0);
    /// Far future; used as an "infinite" deadline sentinel.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float, for plotting/reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn saturating_sub(self, other: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.max(other.0))
    }
}

impl VirtualDuration {
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    #[inline]
    pub const fn from_micros(us: u64) -> VirtualDuration {
        VirtualDuration(us)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> VirtualDuration {
        VirtualDuration(ms * 1_000)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> VirtualDuration {
        VirtualDuration(s * 1_000_000)
    }

    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    /// Panics in debug builds if `rhs > self`; use `saturating_sub` when the
    /// ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        debug_assert!(self.0 >= rhs.0, "virtual time underflow");
        VirtualDuration(self.0 - rhs.0)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = VirtualTime::ZERO + VirtualDuration::from_secs(2);
        assert_eq!(t.as_millis(), 2_000);
        let t2 = t + VirtualDuration::from_millis(500);
        assert_eq!((t2 - t).as_millis(), 500);
        assert_eq!(t2.as_secs_f64(), 2.5);
    }

    #[test]
    fn saturating_sub_does_not_underflow() {
        let a = VirtualTime(5);
        let b = VirtualTime(10);
        assert_eq!(a.saturating_sub(b), VirtualDuration::ZERO);
        assert_eq!(b.saturating_sub(a), VirtualDuration(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtualDuration::from_micros(42).to_string(), "42us");
        assert_eq!(VirtualDuration::from_millis(42).to_string(), "42ms");
        assert_eq!(VirtualDuration::from_secs(4).to_string(), "4.000s");
        assert_eq!(VirtualTime(1_500_000).to_string(), "1.500s");
    }

    #[test]
    fn max_is_far_future() {
        let t = VirtualTime(123) + VirtualDuration::from_secs(1_000_000);
        assert!(t < VirtualTime::MAX);
        assert_eq!(VirtualTime::MAX + VirtualDuration::from_secs(1), VirtualTime::MAX);
    }
}
