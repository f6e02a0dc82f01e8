//! Wall-clock measurement helpers for the latency experiments.

use std::time::{Duration, Instant};

/// Calls `f` repeatedly for roughly `min_iters` iterations (at least), and
/// returns the average nanoseconds per call.
///
/// Runs one warm-up pass of `min_iters / 10` calls first.
pub fn bench_ns(min_iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..(min_iters / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..min_iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / min_iters as f64
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
        let mut x = 0u64;
        let ns = bench_ns(1000, || x = x.wrapping_add(1));
        assert!(ns >= 0.0);
        assert!(x > 0);
    }
}
