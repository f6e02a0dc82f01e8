//! A log-linear latency histogram with interpolated percentiles.
//!
//! Values below 64 have a bucket each; above that every power of two is
//! split into 64 equal buckets (under 1.6% relative width). Percentiles
//! interpolate linearly inside their bucket, so a percentile moves with
//! the samples instead of snapping to a bucket edge.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Counts of `u64` samples (nanoseconds, or any other non-negative unit).
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB as usize + ((v >> shift) - SUB) as usize
}

/// The lower edge and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    let (group, m) = (i as u64 / SUB, i as u64 % SUB);
    if group == 0 {
        (m as f64, 1.0)
    } else {
        let shift = group - 1;
        (((SUB + m) << shift) as f64, (1u64 << shift) as f64)
    }
}

impl Hist {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Adds `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[index(v)] += n;
        self.total += n;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), interpolated inside its bucket;
    /// 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= target {
                let (lo, width) = bucket(i);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * width;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, u64::MAX] {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v as f64 && v as f64 <= lo + width, "v {v}: [{lo}, +{width})");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_the_samples() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!((p50 - 500.0).abs() < 10.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 20.0, "p99 {p99}");
        assert_eq!(Hist::default().percentile(0.5), 0.0);
    }
}
