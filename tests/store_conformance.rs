//! Store conformance: the `read`/`update`/`read_many`/`update_many`/
//! `write_many` surface of `mwllsc-store` checked against a sequential
//! model, a 2-thread exact-sum phase, and the beyond-the-ceiling capacity
//! demonstration. The store-layer companion of `tests/trait_conformance.rs`.

use std::collections::HashMap;
use std::sync::Barrier;

use mwllsc_suite::llsc_baselines::{try_build, Algo, AmStyleLlSc};
use mwllsc_suite::mwllsc::layout::Layout;
use mwllsc_suite::mwllsc::ConfigError;
use mwllsc_suite::mwllsc_store::{Store, StoreConfig, StoreError};

/// Tiny deterministic LCG so the model comparison is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// A random single-threaded op tape, mirrored into a `HashMap` model:
/// reads, per-key updates, batched reads, batched updates (with repeated
/// keys) and blind batched writes must all agree with the model exactly,
/// and the space rollup must hold `touched × per_key` exactly.
#[test]
fn read_update_conform_to_the_sequential_model() {
    let w = 3;
    let keyspace = 4096u64;
    let initial = vec![5u64, 6, 7];
    let store = Store::new(StoreConfig::new(16, 2, w, keyspace).with_initial(&initial));
    let mut h = store.attach();
    let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut rng = Lcg(0xC0FFEE);

    for step in 0..4000 {
        let key = rng.next() % keyspace;
        match rng.next() % 5 {
            0 => {
                let got = h.read_vec(key).unwrap();
                let want = model.get(&key).unwrap_or(&initial);
                assert_eq!(&got, want, "step {step}: read({key})");
            }
            1 => {
                let add = rng.next() % 100;
                let got = h
                    .update(key, |v| {
                        v[0] += add;
                        v[2] = v[0] ^ v[1];
                    })
                    .unwrap();
                let e = model.entry(key).or_insert_with(|| initial.clone());
                e[0] += add;
                e[2] = e[0] ^ e[1];
                assert_eq!(&got, e, "step {step}: update({key})");
            }
            2 => {
                let batch: Vec<u64> = (0..8).map(|_| rng.next() % keyspace).collect();
                let got = h.read_many(&batch).unwrap();
                for (i, k) in batch.iter().enumerate() {
                    let want = model.get(k).unwrap_or(&initial);
                    assert_eq!(&got[i], want, "step {step}: read_many[{i}]({k})");
                }
            }
            3 => {
                // Drawn from 64 hot keys, so batches repeat keys and fold:
                // entry i adds i + 1.
                let mut batch: Vec<(u64, _)> = (0..8u64)
                    .map(|i| (rng.next() % 64, move |v: &mut [u64]| v[0] += i + 1))
                    .collect();
                h.update_many(&mut batch).unwrap();
                for (i, (k, _)) in batch.iter().enumerate() {
                    model.entry(*k).or_insert_with(|| initial.clone())[0] += i as u64 + 1;
                }
            }
            _ => {
                let vals: Vec<Vec<u64>> = (0..4)
                    .map(|i| (0..w as u64).map(|j| i * 10 + j + rng.next() % 5).collect())
                    .collect();
                let batch: Vec<(u64, &[u64])> = vals
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (((rng.next() >> 7) + i as u64) % keyspace, v.as_slice()))
                    .collect();
                h.write_many(&batch).unwrap();
                for (k, v) in &batch {
                    model.insert(*k, v.to_vec());
                }
            }
        }
    }

    // Touched keys (reads materialize too) bound the rollup, exactly.
    let space = store.space();
    assert!(space.touched_keys >= model.len(), "every updated key is materialized");
    assert!(space.touched_keys as u64 <= keyspace);
    assert_eq!(space.shared_words, space.touched_keys * space.per_key_shared_words);
    drop(h);
    assert_eq!(store.live_slot_leases(), 0, "handle drop released leases");
}

/// The acceptance headline: one `Store` serves a key space of 2^24 logical
/// `W`-word variables — 4× beyond the single-object process ceiling — with
/// both boundary keys live, per-shard capacity validated against
/// `Layout::MAX_PROCESSES`, and nothing materialized for untouched keys.
#[test]
fn one_store_serves_2pow24_logical_variables() {
    let keys = 1u64 << 24;
    assert!(keys > Layout::MAX_PROCESSES as u64, "the ceiling the store exists to pass");

    let store = Store::new(StoreConfig::new(64, 2, 2, keys));
    let mut h = store.attach();
    h.update(0, |v| v[0] = 1).unwrap();
    h.update(keys / 2, |v| v[0] = 2).unwrap();
    h.update(keys - 1, |v| v[0] = 3).unwrap();
    assert_eq!(h.read_vec(0).unwrap(), vec![1, 0]);
    assert_eq!(h.read_vec(keys - 1).unwrap(), vec![3, 0]);
    assert_eq!(
        h.update(keys, |_| ()).unwrap_err(),
        StoreError::KeyOutOfRange { key: keys, capacity: keys }
    );

    let space = store.space();
    assert_eq!(space.key_capacity, keys);
    assert_eq!(space.touched_keys, 3, "16M-key capacity, 3 materialized objects");
    assert_eq!(space.shared_words, 3 * space.per_key_shared_words);
    // What the store would cost without lazy materialization: ~2^24 × 19
    // words ≈ 2.5 GiB — the figure the lazy table avoids paying up front.
    assert_eq!(space.eager_words(), u128::from(keys) * 19);

    // And the guard rail the ceiling demands: per-*shard* capacity is
    // still validated against the per-object maximum.
    assert_eq!(
        Store::try_new(StoreConfig::new(2, Layout::MAX_PROCESSES + 1, 1, 10)).unwrap_err(),
        StoreError::ShardCapacityTooLarge {
            capacity: Layout::MAX_PROCESSES + 1,
            max: Layout::MAX_PROCESSES
        }
    );
}

/// The typed-error matrix mirrored from `MwLlSc::try_new`: every invalid
/// configuration is an error value, never a panic.
#[test]
fn constructors_report_typed_errors() {
    let ok = StoreConfig::new(2, 2, 2, 16);
    assert!(Store::try_new(ok.clone()).is_ok());
    for (cfg, want) in [
        (StoreConfig { shards: 0, ..ok.clone() }, StoreError::ZeroShards),
        (StoreConfig { shard_capacity: 0, ..ok.clone() }, StoreError::ZeroShardCapacity),
        (StoreConfig { width: 0, initial: vec![], ..ok.clone() }, StoreError::ZeroWords),
        (StoreConfig { keys: 0, ..ok.clone() }, StoreError::ZeroKeys),
        (
            StoreConfig { initial: vec![0; 5], ..ok.clone() },
            StoreError::WrongInitLen { expected: 2, got: 5 },
        ),
    ] {
        assert_eq!(Store::try_new(cfg.clone()).err(), Some(want), "{cfg:?}");
    }
}

/// Capacity ceilings are per backend: the store's shards are paper
/// objects, so shard capacity is judged against the paper's `2^22`; the
/// baselines keep their own at object level — AM-style's `2^15`, none for
/// the `O(W)` baselines (probed at a ceiling low enough to allocate).
#[test]
fn shard_capacity_ceiling_is_per_backend() {
    let cfg = |cap: usize| StoreConfig::new(1, cap, 1, 16);
    assert_eq!(
        Store::try_new(cfg(Layout::MAX_PROCESSES + 1)).unwrap_err(),
        StoreError::ShardCapacityTooLarge {
            capacity: Layout::MAX_PROCESSES + 1,
            max: Layout::MAX_PROCESSES
        }
    );
    assert!(Store::try_new(cfg(AmStyleLlSc::MAX_PROCESSES + 1)).is_ok());
    assert_eq!(
        try_build(Algo::AmStyle, AmStyleLlSc::MAX_PROCESSES + 1, 1, &[0]).err(),
        Some(ConfigError::TooManyProcesses)
    );
    assert!(try_build(Algo::Lock, AmStyleLlSc::MAX_PROCESSES + 1, 1, &[0]).is_ok());
}

/// Two threads add `1` to every word of a few hot keys through
/// `update_with` and `update_many_with`, interleaved with reads. A read
/// must be untorn (the same increase on every word) and must never show a
/// key below its start value plus the reader's own acked increments.
/// Afterwards every key holds its start value plus all acked increments,
/// exactly: nothing lost, nothing applied twice.
#[test]
fn concurrent_increments_sum_exactly() {
    const HOT: [u64; 3] = [7, 8, 9];
    const ROUNDS: usize = 1000;
    const W: usize = 3;
    let start = [5u64; W];
    let store = Store::new(StoreConfig::new(8, 2, W, 1024).with_initial(&start));
    let barrier = Barrier::new(2);
    let acked: Vec<[u64; HOT.len()]> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|t| {
                let (store, barrier) = (&store, &barrier);
                s.spawn(move || {
                    let mut h = store.attach();
                    let mut acked = [0u64; HOT.len()];
                    let mut buf = [0u64; W];
                    let add_one = |v: &mut [u64]| v.iter_mut().for_each(|x| *x += 1);
                    barrier.wait();
                    for r in 0..ROUNDS {
                        let (i, j) = ((r + t) % HOT.len(), (r + t + 1) % HOT.len());
                        h.update_with(HOT[i], &mut buf, add_one).unwrap();
                        acked[i] += 1;
                        // A batch with a repeated key: each entry commits.
                        h.update_many_with(&[HOT[j], HOT[i], HOT[j]], |_, v| add_one(v)).unwrap();
                        acked[i] += 1;
                        acked[j] += 2;
                        h.read(HOT[j], &mut buf).unwrap();
                        let floor = start[0] + acked[j];
                        assert!(buf[0] >= floor, "read {} < own floor {floor}", buf[0]);
                        let grew = buf[0] - start[0];
                        assert_eq!(buf, start.map(|x| x + grew), "torn read of key {}", HOT[j]);
                    }
                    acked
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let mut h = store.attach();
    for (i, &k) in HOT.iter().enumerate() {
        let total: u64 = acked.iter().map(|a| a[i]).sum();
        let want = start.map(|x| x + total).to_vec();
        assert_eq!(h.read_vec(k).unwrap(), want, "key {k} after {total} acked +1s");
    }
    drop(h);
    assert_eq!(store.live_slot_leases(), 0, "handle drops released leases");
}
