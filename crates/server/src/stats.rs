//! Server counters: lock-free accumulation, snapshot on demand.

use mwllsc::sync::{AtomicU64, Ordering};

/// Number of batch-size histogram buckets: sizes `1`, `2–3`, `4–7`, …,
/// `≥128` (powers of two).
pub const HIST_BUCKETS: usize = 8;

/// Live counters shared by the acceptor, the workers, and the
/// [`Server`](crate::Server) handle. All increments are `Relaxed` —
/// these are metrics, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub conns_accepted: AtomicU64,
    pub conns_closed: AtomicU64,
    /// Logical requests answered (one per response frame).
    pub requests: AtomicU64,
    pub error_replies: AtomicU64,
    pub bad_frames: AtomicU64,
    /// Dispatch waves run (ticks with at least one pending request).
    pub waves: AtomicU64,
    pub write_batches: AtomicU64,
    pub write_entries: AtomicU64,
    pub read_batches: AtomicU64,
    pub read_keys: AtomicU64,
    /// Batch sizes (writes and reads combined), log₂-bucketed.
    pub batch_hist: [AtomicU64; HIST_BUCKETS],
    /// Ticks where a connection's queued output exceeded the cap and its
    /// socket was left unread (slow-reader backpressure).
    pub backpressure_skips: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn record_write_batch(&self, entries: usize) {
        self.write_batches.fetch_add(1, Ordering::Relaxed);
        self.write_entries.fetch_add(entries as u64, Ordering::Relaxed);
        self.batch_hist[bucket(entries)].fetch_add(1, Ordering::Relaxed); // bucket() clamps to HIST_BUCKETS - 1
    }

    pub(crate) fn record_read_batch(&self, keys: usize) {
        self.read_batches.fetch_add(1, Ordering::Relaxed);
        self.read_keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.batch_hist[bucket(keys)].fetch_add(1, Ordering::Relaxed); // bucket() clamps to HIST_BUCKETS - 1
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            error_replies: self.error_replies.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_entries: self.write_entries.load(Ordering::Relaxed),
            read_batches: self.read_batches.load(Ordering::Relaxed),
            read_keys: self.read_keys.load(Ordering::Relaxed),
            batch_hist: std::array::from_fn(|i| self.batch_hist[i].load(Ordering::Relaxed)), // i < HIST_BUCKETS by from_fn
            backpressure_skips: self.backpressure_skips.load(Ordering::Relaxed),
        }
    }
}

/// Log₂ bucket for a batch size (`1 → 0`, `2–3 → 1`, …, `≥128 → 7`).
fn bucket(size: usize) -> usize {
    debug_assert!(size >= 1, "batches are non-empty");
    ((usize::BITS - 1 - size.max(1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// A point-in-time snapshot of a server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Connections the acceptor handed to workers.
    pub conns_accepted: u64,
    /// Connections workers have dropped (EOF, error, or poison).
    pub conns_closed: u64,
    /// Logical requests answered (one per response frame).
    pub requests: u64,
    /// Responses that were [`Response::Error`](crate::proto::Response).
    pub error_replies: u64,
    /// Connections poisoned by undecodable bytes.
    pub bad_frames: u64,
    /// Dispatch waves run.
    pub waves: u64,
    /// `update_many` dispatches.
    pub write_batches: u64,
    /// Total write entries across those dispatches.
    pub write_entries: u64,
    /// `read_many` dispatches.
    pub read_batches: u64,
    /// Total keys across those dispatches.
    pub read_keys: u64,
    /// Batch sizes, log₂-bucketed: `1`, `2–3`, `4–7`, …, `≥128`.
    pub batch_hist: [u64; HIST_BUCKETS],
    /// Read-polls skipped because a peer read too slowly.
    pub backpressure_skips: u64,
}

impl ServerStats {
    /// Mean entries per write batch (how much coalescing happened).
    #[must_use]
    pub fn mean_write_batch(&self) -> f64 {
        if self.write_batches == 0 {
            0.0
        } else {
            self.write_entries as f64 / self.write_batches as f64
        }
    }

    /// Mean keys per read batch.
    #[must_use]
    pub fn mean_read_batch(&self) -> f64 {
        if self.read_batches == 0 {
            0.0
        } else {
            self.read_keys as f64 / self.read_batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(7), 2);
        assert_eq!(bucket(8), 3);
        assert_eq!(bucket(127), 6);
        assert_eq!(bucket(128), 7);
        assert_eq!(bucket(1 << 20), 7);
    }

    #[test]
    fn snapshot_reflects_recorded_batches() {
        let s = AtomicStats::default();
        s.record_write_batch(10);
        s.record_write_batch(2);
        s.record_read_batch(64);
        let snap = s.snapshot();
        assert_eq!(snap.write_batches, 2);
        assert_eq!(snap.write_entries, 12);
        assert_eq!(snap.read_batches, 1);
        assert_eq!(snap.read_keys, 64);
        assert_eq!(snap.mean_write_batch(), 6.0);
        assert_eq!(snap.batch_hist[3], 1, "10 lands in 8-15");
        assert_eq!(snap.batch_hist[1], 1, "2 lands in 2-3");
        assert_eq!(snap.batch_hist[6], 1, "64 lands in 64-127");
    }
}
