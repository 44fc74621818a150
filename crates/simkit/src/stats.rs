//! Streaming summary statistics for simulations.
//!
//! [`Summary`] keeps the count, sum, minimum and maximum of a stream of
//! observations (command lifetimes, queue waits) without storing them;
//! [`Section::set_summary`](crate::obs::Section::set_summary) snapshots
//! one into a metrics report.

use crate::time::Duration;

/// Streaming summary statistics over `f64` observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration observation in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_ns() as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        s.record(2.0);
        s.record(8.0);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(8.0));
        assert_eq!(s.count(), 2);
        let mut t = Summary::new();
        t.record(100.0);
        s.merge(&t);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), Some(100.0));
    }
}
