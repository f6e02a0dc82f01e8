//! Router properties: stability (the same key always routes to the same
//! shard) and balance (shard load within 2× of ideal across 64 shards).
//!
//! Both properties are load-bearing for the store. Stability is
//! correctness: a key's shard decides which slot lease gives a handle its
//! process id on the key's object, so two handles disagreeing on the shard
//! could both use one process id there. Balance is the scaling claim: a
//! skewed router would concentrate slot leases and cache traffic on a few
//! shards and void the point of sharding.

use proptest::prelude::*;

use mwllsc_store::{fnv1a, Router};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn routing_is_stable_and_in_range(key in any::<u64>(), shards in 1usize..200) {
        let r = Router::new(shards);
        let s = r.shard_of(key);
        prop_assert!(s < shards);
        prop_assert_eq!(s, r.shard_of(key), "same router, same key, same shard");
        prop_assert_eq!(
            s,
            Router::new(shards).shard_of(key),
            "routing is a pure function of (key, shards), not of the instance"
        );
        prop_assert_eq!(fnv1a(key), fnv1a(key));
    }

    #[test]
    fn random_keysets_balance_within_2x_over_64_shards(seed in any::<u64>()) {
        const SHARDS: usize = 64;
        const KEYS: usize = 8192;
        let r = Router::new(SHARDS);
        let mut counts = [0usize; SHARDS];
        // SplitMix64 stream: decorrelated from the FNV hash under test.
        let mut state = seed;
        for _ in 0..KEYS {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            counts[r.shard_of(z ^ (z >> 31))] += 1;
        }
        let ideal = KEYS / SHARDS;
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max <= 2 * ideal, "max shard load {max} > 2x ideal {ideal}");
        prop_assert!(min > 0, "some shard starved entirely");
    }
}

/// Sequential ids are the common real-world key shape (row ids, user ids)
/// and the adversarial one for weak hashes — the whole low-entropy range
/// must still spread.
#[test]
fn sequential_keys_balance_within_2x_over_64_shards() {
    const SHARDS: usize = 64;
    let r = Router::new(SHARDS);
    for (start, n) in [(0u64, 16_384usize), (1 << 24, 16_384), (u64::MAX - 20_000, 16_384)] {
        let mut counts = [0usize; SHARDS];
        for i in 0..n as u64 {
            counts[r.shard_of(start.wrapping_add(i))] += 1;
        }
        let ideal = n / SHARDS;
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= 2 * ideal,
            "sequential keys from {start}: max shard load {max} > 2x ideal {ideal}"
        );
        assert!(counts.iter().all(|&c| c > 0), "sequential keys from {start}: starved shard");
    }
}

/// Strided keys (hash-table resize patterns, page-aligned addresses):
/// power-of-two strides must not alias the shard choice.
#[test]
fn strided_keys_balance_within_2x_over_64_shards() {
    const SHARDS: usize = 64;
    let r = Router::new(SHARDS);
    for stride in [64u64, 4096, 1 << 20] {
        let n = 8192usize;
        let mut counts = [0usize; SHARDS];
        for i in 0..n as u64 {
            counts[r.shard_of(i * stride)] += 1;
        }
        let ideal = n / SHARDS;
        let max = *counts.iter().max().unwrap();
        assert!(max <= 2 * ideal, "stride {stride}: max shard load {max} > 2x ideal {ideal}");
    }
}
