//! Summary statistics for the benchmark's samples: the median, the
//! highest percentile that still has at least [`TAIL_BEYOND`] samples
//! beyond it, and ratios that keep their base.

use std::fmt;

/// A tail percentile is only reported where at least this many samples
/// lie beyond it, so one outlier can never be the whole tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample of rank `n - TAIL_BEYOND` (1-based) in ascending
/// order, reported as percentile `100 * (n - TAIL_BEYOND) / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub n: usize,
}

impl Tail {
    /// `None` when fewer than `TAIL_BEYOND + 1` samples exist: no
    /// percentile then has enough samples beyond it.
    pub fn of(values: &[f64]) -> Option<Tail> {
        let n = values.len();
        if n <= TAIL_BEYOND {
            return None;
        }
        let rank = n - TAIL_BEYOND;
        Some(Tail {
            value: sorted(values)[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            n,
        })
    }

    /// [`Tail::of`], falling back to the maximum (reported as p100)
    /// when there are too few samples for a proper tail. Panics on an
    /// empty slice.
    pub fn of_or_max(values: &[f64]) -> Tail {
        Tail::of(values).unwrap_or_else(|| Tail {
            value: sorted(values).last().copied().expect("at least one sample"),
            percentile: 100.0,
            n: values.len(),
        })
    }
}

impl fmt::Display for Tail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n <= TAIL_BEYOND {
            return write!(
                f,
                "maximum of N={} (too few samples for {} beyond a percentile)",
                self.n, TAIL_BEYOND
            );
        }
        write!(
            f,
            "p{:.1} of N={} ({} beyond)",
            self.percentile, self.n, TAIL_BEYOND
        )
    }
}

/// A ratio that remembers its numerator and denominator, so every
/// printed share states its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} (= {} / {})", self.value(), self.num, self.den)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [9.0, 2.0, 7.0, 4.0, 4.5];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Tail::of(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = Tail::of(&eleven).unwrap();
        assert_eq!(t.value, 1.0, "only the minimum has 10 samples beyond it");
        assert_eq!(t.n, 11);
    }

    #[test]
    fn tail_of_one_hundred_is_p90() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = Tail::of(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.to_string(), "p90.0 of N=100 (10 beyond)");
    }

    #[test]
    fn tail_of_two_hundred_fifty_is_p96() {
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = Tail::of(&v).unwrap();
        assert_eq!(t.value, 240.0);
        assert!((t.percentile - 96.0).abs() < 1e-12);
    }

    #[test]
    fn short_samples_fall_back_to_the_maximum() {
        let t = Tail::of_or_max(&[2.0, 9.0, 4.0]);
        assert_eq!((t.value, t.n), (9.0, 3));
        assert!(t.to_string().starts_with("maximum of N=3"));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Tail::of_or_max(&v), Tail::of(&v).unwrap());
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "0.250000 (= 3 / 12)");
        assert_eq!(Ratio::new(1.0, 0.0).value(), 0.0);
    }
}
