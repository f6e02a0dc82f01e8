//! Wall-clock measurement helpers for the latency experiments.

use std::time::{Duration, Instant};

/// Blocks [`bench_ns`] splits its iteration budget into. The median over
/// blocks ignores a block that a burst of host noise landed in; the spread
/// over blocks says how far one reading can be trusted.
pub const BLOCKS: usize = 7;

/// Nanoseconds per call measured by [`bench_ns`], one reading per block,
/// in run order.
#[derive(Clone, Copy, Debug)]
pub struct BlockNs([f64; BLOCKS]);

impl BlockNs {
    /// Median over blocks.
    pub fn median(&self) -> f64 {
        quartiles(&self.0).1
    }

    /// Interquartile range over blocks.
    pub fn iqr(&self) -> f64 {
        let (q1, _, q3) = quartiles(&self.0);
        q3 - q1
    }

    /// Block-by-block difference `self − base`: the cost of what this
    /// variant does beyond `base` (SC = the LL;SC pair − LL). Never
    /// clamped, so a difference lost in noise shows as negative.
    pub fn minus(&self, base: &BlockNs) -> BlockNs {
        BlockNs(std::array::from_fn(|i| self.0[i] - base.0[i]))
    }
}

/// Times `variants` variants of an operation, `f(0)` to
/// `f(variants - 1)`, each called about `min_iters` times after a warm-up
/// pass of `min_iters / 10` calls, and returns each variant's nanoseconds
/// per call, block by block.
///
/// The budget is split into [`BLOCKS`] rounds, and each round times every
/// variant in turn. Block `i` of every variant thus ran in the same short
/// stretch of host time: a shift in host speed lands on one block of each
/// variant, where the median ignores it, and a difference of two variants
/// (SC = the LL;SC pair − LL) is taken between back-to-back blocks.
pub fn bench_ns(min_iters: u64, variants: usize, mut f: impl FnMut(usize)) -> Vec<BlockNs> {
    for v in 0..variants {
        for _ in 0..(min_iters / 10).max(1) {
            f(v);
        }
    }
    let per_block = min_iters.div_ceil(BLOCKS as u64).max(1);
    let mut ns = vec![[0.0; BLOCKS]; variants];
    for block in 0..BLOCKS {
        for (v, ns) in ns.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..per_block {
                f(v);
            }
            ns[block] = start.elapsed().as_nanos() as f64 / per_block as f64;
        }
    }
    ns.into_iter().map(BlockNs).collect()
}

/// First quartile, median and third quartile of `xs`, interpolating
/// linearly between order statistics.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The wall of a multi-worker run, from each worker's own `(start, end)`
/// stamps: `max(end) − min(start)`.
///
/// Each worker stamps `start` after the start barrier releases it and
/// `end` when its own work is done. Timing from the thread that spawned
/// the workers instead counts spawn, attach and join, and on a shared
/// core that thread can be descheduled past whole worker lifetimes,
/// inflating throughput by orders of magnitude.
pub fn worker_wall(spans: impl IntoIterator<Item = (Instant, Instant)>) -> Duration {
    let (start, end) = spans
        .into_iter()
        .reduce(|(s0, e0), (s1, e1)| (s0.min(s1), e0.max(e1)))
        .expect("at least one worker");
    end.duration_since(start)
}

/// Least-squares slope and intercept of `y` over `x` (simple linear fit;
/// used to verify "latency is linear in W" numerically).
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Pearson correlation coefficient, for reporting fit quality.
pub fn correlation(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let mx: f64 = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my: f64 = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|x| (x as f64, 3.0 * x as f64 + 2.0)).collect();
        let (slope, intercept) = linear_fit(&pts);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 2.0).abs() < 1e-9);
        assert!((correlation(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worker_wall_spans_earliest_start_to_latest_end() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let spans = [(t + ms(5), t + ms(20)), (t + ms(2), t + ms(10)), (t + ms(8), t + ms(30))];
        assert_eq!(worker_wall(spans), ms(28));
        assert_eq!(worker_wall([(t, t + ms(7))]), ms(7));
    }

    #[test]
    fn bench_ns_returns_positive() {
        let mut calls = [0u64; 2];
        let ns = bench_ns(1000, 2, |v| calls[v] += 1);
        assert_eq!(ns.len(), 2);
        assert!(ns.iter().all(|t| t.median() >= 0.0 && t.iqr() >= 0.0));
        assert!(calls.iter().all(|&c| c >= 1000), "every variant ran its warm-up and blocks");
    }

    #[test]
    fn quartiles_interpolate_and_differences_stay_signed() {
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0]), (2.5, 4.0, 5.5));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.5, 2.0, 2.5));
        let pair = BlockNs([10.0; BLOCKS]);
        let base = BlockNs([11.0; BLOCKS]);
        assert_eq!(pair.minus(&base).median(), -1.0);
    }
}
