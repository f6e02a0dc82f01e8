//! Store conformance: the `read`/`update`/`read_many`/`update_many`
//! surface of `mwllsc-store` checked against a sequential model — over
//! the default paper backend *and* every backend `try_build_store`
//! accepts — plus the beyond-the-ceiling capacity demonstration. The
//! store-layer companion of `tests/trait_conformance.rs`.

use std::collections::HashMap;
use std::sync::Barrier;

use mwllsc_suite::llsc_baselines::{try_build_store, Algo};
use mwllsc_suite::mwllsc::layout::Layout;
use mwllsc_suite::mwllsc_store::{DynStore, EpochBackend, Store, StoreConfig, StoreError};

/// Tiny deterministic LCG so the model comparison is reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// A random single-threaded op tape, mirrored into a `HashMap` model:
/// after every operation the store and the model must agree exactly.
#[test]
fn read_update_conform_to_the_sequential_model() {
    let w = 3;
    let keyspace = 4096u64;
    let store = Store::new(StoreConfig::new(16, 2, w, keyspace).with_initial(&[5, 6, 7]));
    let mut h = store.attach();
    let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
    let initial = vec![5u64, 6, 7];
    let mut rng = Lcg(0xC0FFEE);

    for step in 0..4000 {
        let key = rng.next() % keyspace;
        match rng.next() % 3 {
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
            _ => {
                let batch: Vec<u64> = (0..8).map(|_| rng.next() % keyspace).collect();
                let got = h.read_many(&batch).unwrap();
                for (i, k) in batch.iter().enumerate() {
                    let want = model.get(k).unwrap_or(&initial);
                    assert_eq!(&got[i], want, "step {step}: read_many[{i}]({k})");
                }
            }
        }
    }

    // Touched keys (reads materialize too) bound the rollup, exactly.
    let space = store.space();
    assert!(space.touched_keys >= model.len(), "every updated key is materialized");
    assert!(space.touched_keys as u64 <= keyspace);
    assert_eq!(space.shared_words, space.touched_keys * space.per_key_shared_words);
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
/// configuration is an error value, never a panic — for the typed
/// constructor and for every backend `try_build_store` accepts.
#[test]
fn constructors_report_typed_errors() {
    let ok = StoreConfig::new(2, 2, 2, 16);
    assert!(Store::try_new(ok.clone()).is_ok());
    let matrix = |build: &dyn Fn(StoreConfig) -> Option<StoreError>, who: &str| {
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
            assert_eq!(build(cfg.clone()), Some(want), "{who}: {cfg:?}");
        }
    };
    matrix(&|cfg| Store::try_new(cfg).err(), "paper (typed)");
    matrix(&|cfg| Store::<EpochBackend>::try_new_in(cfg).err(), "paper-epoch (typed)");
    for algo in Algo::ALL {
        matrix(&move |cfg| try_build_store(algo, cfg).err(), algo.name());
    }
}

/// Runs the random op tape of the paper-backend model test over an
/// erased store: reads, per-key updates, batched reads, batched updates,
/// and blind batched writes must all agree with a `HashMap` model, and
/// the space rollup must hold the per-backend invariant exactly.
fn conforms_to_the_sequential_model(store: &dyn DynStore) {
    let backend = store.backend();
    let w = store.width();
    let keyspace = store.key_capacity();
    let initial = vec![5u64; w];
    let mut h = store.attach_dyn();
    let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut rng = Lcg(0xFEED ^ keyspace);

    for step in 0..1500 {
        let key = rng.next() % keyspace;
        match rng.next() % 5 {
            0 => {
                let got = h.read_vec(key).unwrap();
                let want = model.get(&key).unwrap_or(&initial);
                assert_eq!(&got, want, "{backend} step {step}: read({key})");
            }
            1 => {
                let add = rng.next() % 100;
                let mut buf = vec![0u64; w];
                h.update_with_dyn(key, &mut buf, &mut |v| {
                    v[0] += add;
                    v[w - 1] = v[0] ^ 7;
                })
                .unwrap();
                let e = model.entry(key).or_insert_with(|| initial.clone());
                e[0] += add;
                e[w - 1] = e[0] ^ 7;
                assert_eq!(&buf, e, "{backend} step {step}: update({key})");
            }
            2 => {
                let batch: Vec<u64> = (0..8).map(|_| rng.next() % keyspace).collect();
                let got = h.read_many(&batch).unwrap();
                for (i, k) in batch.iter().enumerate() {
                    let want = model.get(k).unwrap_or(&initial);
                    assert_eq!(&got[i], want, "{backend} step {step}: read_many[{i}]({k})");
                }
            }
            3 => {
                // Batched updates, with duplicates: entry i adds i + 1.
                let batch: Vec<u64> = (0..8).map(|_| rng.next() % (keyspace / 4)).collect();
                h.update_many_dyn(&batch, &mut |i, v| v[0] += i as u64 + 1).unwrap();
                for (i, k) in batch.iter().enumerate() {
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

    let space = store.space();
    assert_eq!(space.backend, backend);
    assert!(space.touched_keys >= model.len(), "{backend}: every updated key materialized");
    assert_eq!(
        space.shared_words,
        space.touched_keys * space.per_key_shared_words,
        "{backend}: space invariant"
    );
    drop(h);
    assert_eq!(store.live_slot_leases(), 0, "{backend}: handle drop released leases");
}

/// Two threads add `1` to every word of a few hot keys through
/// `update_with_dyn` and `update_many_dyn`, interleaved with reads. A
/// read must be untorn (the same increase on every word) and must never
/// show a key below its start value plus the reader's own acked
/// increments. Afterwards every key holds its start value plus all acked
/// increments, exactly: nothing lost, nothing applied twice.
fn concurrent_increments_sum_exactly(store: &dyn DynStore) {
    const HOT: [u64; 3] = [7, 8, 9];
    const ROUNDS: usize = 1000;
    let backend = store.backend();
    let w = store.width();
    let start: Vec<Vec<u64>> = {
        let mut h = store.attach_dyn();
        HOT.iter().map(|&k| h.read_vec(k).unwrap()).collect()
    };
    let barrier = Barrier::new(2);
    let acked: Vec<[u64; HOT.len()]> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|t| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let mut h = store.attach_dyn();
                    let mut acked = [0u64; HOT.len()];
                    let mut buf = vec![0u64; w];
                    let add_one = |v: &mut [u64]| v.iter_mut().for_each(|x| *x += 1);
                    barrier.wait();
                    for r in 0..ROUNDS {
                        let (i, j) = ((r + t) % HOT.len(), (r + t + 1) % HOT.len());
                        h.update_with_dyn(HOT[i], &mut buf, &mut |v| add_one(v)).unwrap();
                        acked[i] += 1;
                        // A batch with a repeated key: each entry commits.
                        h.update_many_dyn(&[HOT[j], HOT[i], HOT[j]], &mut |_, v| add_one(v))
                            .unwrap();
                        acked[i] += 1;
                        acked[j] += 2;
                        h.read(HOT[j], &mut buf).unwrap();
                        let floor = start[j][0] + acked[j];
                        assert!(buf[0] >= floor, "{backend}: read {} < own floor {floor}", buf[0]);
                        let grew = buf[0] - start[j][0];
                        let want: Vec<u64> = start[j].iter().map(|x| x + grew).collect();
                        assert_eq!(buf, want, "{backend}: torn read of key {}", HOT[j]);
                    }
                    acked
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let mut h = store.attach_dyn();
    for (i, &k) in HOT.iter().enumerate() {
        let total: u64 = acked.iter().map(|a| a[i]).sum();
        let want: Vec<u64> = start[i].iter().map(|x| x + total).collect();
        assert_eq!(h.read_vec(k).unwrap(), want, "{backend}: key {k} after {total} acked +1s");
    }
    drop(h);
    assert_eq!(store.live_slot_leases(), 0, "{backend}: handle drops released leases");
}

/// The backend conformance matrix: the sequential-model tape over every
/// backend `try_build_store` accepts, plus the typed epoch-substrate
/// store — same router, same semantics, per-backend space accounting —
/// then a 2-thread phase checking concurrent increments sum exactly.
#[test]
fn every_backend_conforms_to_the_sequential_model() {
    let config = StoreConfig::new(8, 2, 3, 1024).with_initial(&[5, 5, 5]);
    for algo in Algo::ALL {
        let store = try_build_store(algo, config.clone()).unwrap_or_else(|e| panic!("{algo}: {e}"));
        conforms_to_the_sequential_model(store.as_ref());
        concurrent_increments_sum_exactly(store.as_ref());
    }
    let epoch: Box<dyn DynStore> = Box::new(Store::<EpochBackend>::new_in(config));
    conforms_to_the_sequential_model(epoch.as_ref());
    concurrent_increments_sum_exactly(epoch.as_ref());
}

/// Per-backend capacity ceilings flow through the store's validation:
/// the paper's 2^22 for tagged layouts, AM-style's 2^15, none for the
/// `O(W)` baselines (probed at a ceiling low enough to allocate).
#[test]
fn shard_capacity_ceiling_is_per_backend() {
    let cfg = |cap: usize| StoreConfig::new(1, cap, 1, 16);
    assert_eq!(
        try_build_store(Algo::Jp, cfg(Layout::MAX_PROCESSES + 1)).unwrap_err(),
        StoreError::ShardCapacityTooLarge {
            capacity: Layout::MAX_PROCESSES + 1,
            max: Layout::MAX_PROCESSES
        }
    );
    assert_eq!(
        try_build_store(Algo::AmStyle, cfg((1 << 15) + 1)).unwrap_err(),
        StoreError::ShardCapacityTooLarge { capacity: (1 << 15) + 1, max: 1 << 15 }
    );
    assert!(try_build_store(Algo::Lock, cfg((1 << 15) + 1)).is_ok());
}
