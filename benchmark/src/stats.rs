//! Order statistics of timing samples.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here is the
//! spread a reader recomputes from the same samples in Python.

/// Median, quartiles and maximum of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set: every measurement loop takes at
    /// least one sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s);
        Summary {
            n: s.len(),
            median: median_sorted(&s),
            q1,
            q3,
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted data, Python's exclusive method.
/// With one sample both quartiles are that sample.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert!(close(s.q1, 1.0) && close(s.median, 2.0) && close(s.q3, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert!(close(s.q1, 0.75) && close(s.q3, 2.25));
        assert_eq!(s.max, 2.0);
        // statistics.quantiles([0.5, 0.1, 0.9, 0.3, 0.7], n=4)
        //   == [0.2, 0.5, 0.8]
        let s = Summary::of(&[0.5, 0.1, 0.9, 0.3, 0.7]);
        assert!(close(s.q1, 0.2) && close(s.median, 0.5) && close(s.q3, 0.8));
        assert!(close(s.rel_iqr(), 1.2));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3, s.max), (1, 4.0, 4.0, 4.0, 4.0));
        assert_eq!(Summary::of(&[9.0, 1.0, 5.0, 3.0]).median, 4.0);
    }
}
