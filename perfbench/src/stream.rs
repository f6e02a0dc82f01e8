//! Seeded op streams, generated before the clock starts.
//!
//! A stream is a sequence of rounds. Each round holds its update keys
//! first and its read keys after them, drawn with the harness's
//! `KeyGen`/`SplitMix64`/`MixSpec` exactly as E16 draws them, so the same
//! `(seed, thread)` gives the same keys on every host and the same key
//! sequence whatever the round size. Per-op workloads use rounds of one.
//! Threads replay their stream cyclically for as long as the clock runs.

use mwllsc_harness::workload::{KeyDist, KeyGen, MixSpec, SplitMix64};

/// One thread's op stream.
#[derive(Clone, Debug)]
pub struct Stream {
    keys: Vec<u64>,
    writes: Vec<u8>,
    round: usize,
}

impl Stream {
    /// Draws `rounds` rounds of `round` ops over `0..key_space` for
    /// `thread` under `seed`.
    ///
    /// # Panics
    ///
    /// If `round` is 0 or above 255.
    #[must_use]
    pub fn generate(
        dist: KeyDist,
        key_space: u64,
        mix: MixSpec,
        round: usize,
        rounds: usize,
        seed: u64,
        thread: usize,
    ) -> Self {
        assert!((1..=255).contains(&round), "round size {round} out of 1..=255");
        let mut gen = KeyGen::new(dist, key_space);
        let mut rng = SplitMix64::new(seed ^ ((thread as u64 + 1) << 40));
        let mut keys = Vec::with_capacity(round * rounds);
        let mut writes = Vec::with_capacity(rounds);
        let (mut r, mut w) = (Vec::with_capacity(round), Vec::with_capacity(round));
        for _ in 0..rounds {
            mix.fill_round(&mut gen, &mut rng, round, &mut r, &mut w);
            writes.push(w.len() as u8);
            keys.extend_from_slice(&w);
            keys.extend_from_slice(&r);
        }
        Self { keys, writes, round }
    }

    /// Number of rounds before the stream repeats.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.writes.len()
    }

    /// Ops per round.
    #[must_use]
    pub fn round_size(&self) -> usize {
        self.round
    }

    /// Round `i`'s `(update keys, read keys)`.
    #[must_use]
    pub fn round(&self, i: usize) -> (&[u64], &[u64]) {
        let ops = &self.keys[i * self.round..(i + 1) * self.round];
        ops.split_at(usize::from(self.writes[i]))
    }

    /// Adds to `acked[k]` one per update of key `k` in the `done` rounds
    /// of the cyclic replay that start at round `first`.
    pub fn add_acked(&self, first: usize, done: u64, acked: &mut [u64]) {
        let n = self.rounds() as u64;
        let (full, rem) = (done / n, done % n);
        for i in 0..self.rounds() {
            let offset = (i as u64 + n - first as u64 % n) % n;
            let times = full + u64::from(offset < rem);
            if times > 0 {
                for &k in self.round(i).0 {
                    acked[k as usize] += times;
                }
            }
        }
    }

    /// The same ops regrouped into rounds of `round` (the batch rungs
    /// replay a per-op stream in a batch shape).
    #[must_use]
    pub fn regroup(&self, round: usize) -> Self {
        assert!((1..=255).contains(&round), "round size {round} out of 1..=255");
        let mut ops: Vec<(bool, u64)> = Vec::with_capacity(self.keys.len());
        for i in 0..self.rounds() {
            let (w, r) = self.round(i);
            ops.extend(w.iter().map(|&k| (true, k)));
            ops.extend(r.iter().map(|&k| (false, k)));
        }
        let mut keys = Vec::with_capacity(ops.len());
        let mut writes = Vec::new();
        for chunk in ops.chunks_exact(round) {
            let w = chunk.iter().filter(|o| o.0).count();
            writes.push(w as u8);
            keys.extend(chunk.iter().filter(|o| o.0).map(|o| o.1));
            keys.extend(chunk.iter().filter(|o| !o.0).map(|o| o.1));
        }
        Self { keys, writes, round }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwllsc_harness::workload::MIX_A;

    const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };

    #[test]
    fn same_seed_same_stream_and_round_size_keeps_the_key_sequence() {
        let a = Stream::generate(ZIPF, 1000, MIX_A, 1, 64, 9, 0);
        let b = Stream::generate(ZIPF, 1000, MIX_A, 1, 64, 9, 0);
        assert_eq!(a.keys, b.keys);
        let c = Stream::generate(ZIPF, 1000, MIX_A, 1, 64, 9, 1);
        assert_ne!(a.keys, c.keys, "threads draw distinct streams");
        let mut per_op: Vec<u64> = Vec::new();
        for i in 0..a.rounds() {
            let (w, r) = a.round(i);
            per_op.extend(w.iter().chain(r));
        }
        let rounds = Stream::generate(ZIPF, 1000, MIX_A, 32, 2, 9, 0);
        let mut sorted_a = per_op.clone();
        let mut sorted_b = rounds.keys.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "rounds regroup the same draws");
    }

    #[test]
    fn acked_counts_follow_the_cyclic_replay() {
        let s = Stream::generate(KeyDist::Uniform, 8, MIX_A, 4, 3, 1, 0);
        let per_cycle: u64 = (0..3).map(|i| s.round(i).0.len() as u64).sum();
        let mut acked = vec![0u64; 8];
        s.add_acked(0, 7, &mut acked);
        let first: u64 = s.round(0).0.len() as u64;
        assert_eq!(acked.iter().sum::<u64>(), 2 * per_cycle + first);
        let mut from_two = vec![0u64; 8];
        s.add_acked(2, 2, &mut from_two);
        let (last, wrapped) = (s.round(2).0.len() as u64, s.round(0).0.len() as u64);
        assert_eq!(from_two.iter().sum::<u64>(), last + wrapped, "rounds 2 then 0");
    }

    #[test]
    fn regroup_keeps_every_op() {
        let s = Stream::generate(ZIPF, 100, MIX_A, 1, 64, 3, 0);
        let g = s.regroup(32);
        assert_eq!(g.rounds(), 2);
        let mut a = vec![0u64; 100];
        let mut b = vec![0u64; 100];
        s.add_acked(0, 64, &mut a);
        g.add_acked(0, 2, &mut b);
        assert_eq!(a, b, "same updates per key");
    }
}
