//! Order statistics over run samples: median, quartiles, the tail rule,
//! and quantiles read from the engine's log2 histograms.

use fpvm_obs::Log2Histogram;

/// Median, first and third quartile of a sample set, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Band {
    /// The band of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Band {
        let s = sorted(samples);
        let (q1, q3) = quartiles(&s);
        Band {
            median: median(&s),
            q1,
            q3,
            n: s.len(),
        }
    }

    /// The band of `f(x)` for a monotone `f`: decreasing functions swap the
    /// quartiles.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Band {
        let (a, b) = (f(self.q1), f(self.q3));
        Band {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "a band needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of sorted data (mean of the two middle values for even sizes).
fn median(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted data by Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so run bands read the same as the spread the acceptance check computes.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Percentile `p` (0..=100) by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile that has at least ten samples beyond it,
/// with its value (nearest rank): `(percentile, value)`. `None` below
/// eleven samples.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let p = 100 * (n - 10) / n;
    let rank = (p * n).div_ceil(100).max(1);
    Some((p as u32, sorted(samples)[rank - 1]))
}

/// Quantile `q` of a log2 histogram, interpolated linearly by rank inside
/// the bucket that holds it (the histogram's own quantile answers only
/// the bucket's upper bound), clamped to the largest sample seen.
pub fn hist_quantile(h: &Log2Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = (q * h.count() as f64).ceil().clamp(1.0, h.count() as f64);
    let mut below = 0.0;
    for (i, &c) in h.buckets().iter().enumerate() {
        let c = c as f64;
        if below + c >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = (Log2Histogram::bucket_upper(i).min(h.max()) as f64 + 1.0).max(lo);
            let v = lo + (hi - lo) * (rank - below - 0.5) / c;
            return v.min(h.max() as f64);
        }
        below += c;
    }
    h.max() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let b = Band::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((b.q1, b.median, b.q3, b.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let b = Band::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((b.q1, b.median, b.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let b = Band::of(&[5.0, 3.0]);
        assert_eq!((b.q1, b.median, b.q3), (2.5, 4.0, 5.5));
        let one = Band::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn map_keeps_quartiles_ordered_under_a_decreasing_function() {
        let b = Band::of(&[1.0, 2.0, 4.0, 8.0, 16.0]).map(|x| 8.0 / x);
        assert_eq!((b.q1, b.median, b.q3), (8.0 / 12.0, 2.0, 8.0 / 1.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is the 90th value; values 91..=100 lie beyond it.
        assert_eq!(tail(&hundred), Some((90, 90.0)));
        let sixty: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        // floor(100 * 50 / 60) = 83; rank ceil(0.83 * 60) = 50.
        assert_eq!(tail(&sixty), Some((83, 50.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((9, 1.0)));
        for n in 11..300usize {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = tail(&s).unwrap();
            let beyond = s.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond p{p}");
            // One percentile higher would leave fewer than ten beyond.
            let rank = ((p as usize + 1) * n).div_ceil(100);
            assert!(n - rank < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 18.0);
        assert_eq!(percentile(&s, 100.0), 20.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let mut h = Log2Histogram::default();
        assert_eq!(hist_quantile(&h, 0.5), 0.0);
        for v in [512, 600, 700, 800] {
            h.record(v);
        }
        // All four samples share bucket [512, 1024); max clamps it to 800.
        let p50 = hist_quantile(&h, 0.5);
        assert!(p50 > 512.0 && p50 < 800.0, "{p50}");
        assert!(hist_quantile(&h, 0.99) <= 800.0);
        assert!(hist_quantile(&h, 0.25) < p50);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
