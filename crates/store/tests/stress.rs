//! Store stress: concurrent per-key read-modify-writes over a 2^24-key
//! space, with per-key exact counters, in-flight monotonicity, and the
//! rolled-up space invariant; shard slots handed between live threads;
//! and the store's own operation counters read live.
//!
//! The single-object suite proves one `MwLlSc` is linearizable; what the
//! store must prove on top is that the composition is sound: the router
//! never sends one key to two objects, shard-slot leasing never hands two
//! handles the same process id, and lazy materialization accounts for
//! exactly the touched keys. A violation of any of these shows up here as
//! a lost increment, a torn `(counter, 7·counter)` pair, or a space
//! mismatch.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mwllsc::layout::Layout;
use mwllsc_store::{Store, StoreConfig, StoreStats};

/// Logical key space: 2^24 — beyond the single-object process ceiling
/// (`Layout::MAX_PROCESSES` = 2^22), which is the point of the store.
const KEY_CAPACITY: u64 = 1 << 24;
const SHARDS: usize = 64;
const UPDATERS: usize = 4;
const W: usize = 2;

/// Iteration budget scaled by the `MWLLSC_STRESS_ITERS` env knob — an
/// integer multiplier, default 1 — so CI stays inside its time budget
/// while many-core soak runs can scale the same test up (e.g.
/// `MWLLSC_STRESS_ITERS=8 cargo test --release -p mwllsc-store --test stress`).
fn stress_iters(base: usize) -> usize {
    let mult = std::env::var("MWLLSC_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    base.saturating_mul(mult)
}

/// Workload-randomization seed, pinned by the `MWLLSC_STRESS_SEED` env
/// knob. Soak runs randomize each updater's key-walk offset and timing;
/// when one finds a schedule-dependent failure, exporting the printed seed
/// replays the exact same run in a plain `cargo test` invocation.
fn stress_seed() -> u64 {
    let seed = std::env::var("MWLLSC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x5EED_0001);
    eprintln!("MWLLSC_STRESS_SEED={seed}");
    seed
}

/// splitmix64 over `seed ^ stream`: one independent stream per thread.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seeded schedule perturbation: an xorshift stream that occasionally
/// spins for a pseudo-random beat. Different seeds steer the real threads
/// into different interleaving neighborhoods; the same seed replays the
/// same rhythm.
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64, stream: u64) -> Self {
        Jitter(mix(seed, stream) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn perturb(&mut self) {
        let r = self.next();
        if r % 8 == 0 {
            for _ in 0..(r >> 59) {
                std::hint::spin_loop();
            }
        }
    }
}

/// The touched-key working set: distinct keys spread across the whole
/// 2^24 space (odd-multiplier stride is injective mod 2^24), always
/// including both boundary keys.
fn key_set(count: usize) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut keys = vec![0u64, KEY_CAPACITY - 1];
    seen.extend(keys.iter().copied());
    let mut j = 1u64;
    while keys.len() < count {
        let k = j.wrapping_mul(1_000_003) % KEY_CAPACITY;
        if seen.insert(k) {
            keys.push(k);
        }
        j += 1;
    }
    keys
}

/// The headline churn test: `UPDATERS` threads each apply `ROUNDS` batched
/// increments to every key of a working set drawn from the full 2^24
/// space, while a reader thread continuously checks value consistency and
/// per-key monotonicity. Afterwards every key must hold exactly
/// `UPDATERS × ROUNDS` and the space rollup must equal
/// `touched × (3cW + 3c + 1)`.
#[test]
fn per_key_counters_are_exact_across_a_2pow24_key_space() {
    const ROUNDS: usize = 2;
    let seed = stress_seed();
    let distinct_keys = stress_iters(2048).min(1 << 20);
    let keys = Arc::new(key_set(distinct_keys));

    // One slot per updater plus one for the reader: capacity is exact, so
    // the test also proves the lease discipline never double-grants.
    let store = Store::new(StoreConfig::new(SHARDS, UPDATERS + 1, W, KEY_CAPACITY));
    assert!(KEY_CAPACITY > Layout::MAX_PROCESSES as u64);

    let barrier = Arc::new(Barrier::new(UPDATERS + 1));
    let stop = Arc::new(AtomicBool::new(false));

    let mut joins = Vec::new();
    for t in 0..UPDATERS {
        let store = Arc::clone(&store);
        let keys = Arc::clone(&keys);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut jitter = Jitter::new(seed, t as u64);
            let mut h = store.attach();
            let mut buf = [0u64; W];
            barrier.wait();
            for round in 0..ROUNDS {
                // Each thread walks the key set from a seeded offset so
                // threads collide on different keys at different times —
                // and the same seed reproduces the same collision pattern.
                let start = (mix(seed, (t * ROUNDS + round) as u64) as usize) % keys.len();
                for i in 0..keys.len() {
                    jitter.perturb();
                    let key = keys[(start + i) % keys.len()];
                    h.update_with(key, &mut buf, |v| {
                        v[0] += 1;
                        v[1] = v[0] * 7;
                    })
                    .unwrap();
                }
            }
        }));
    }

    // Reader: every observed value must satisfy the committed-value
    // relation (torn-read detector) and per-key counters must be
    // monotone (linearizability smoke at the store level).
    let reader = {
        let store = Arc::clone(&store);
        let keys = Arc::clone(&keys);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = store.attach();
            let mut last: HashMap<u64, u64> = HashMap::new();
            barrier.wait();
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let start = (batches as usize * 251) % keys.len();
                let batch: Vec<u64> = (0..64).map(|i| keys[(start + i) % keys.len()]).collect();
                for (i, v) in h.read_many(&batch).unwrap().into_iter().enumerate() {
                    assert_eq!(v[1], v[0] * 7, "torn value at key {}: {v:?}", batch[i]);
                    let prev = last.entry(batch[i]).or_insert(0);
                    assert!(
                        v[0] >= *prev,
                        "counter of key {} went backwards: {} -> {}",
                        batch[i],
                        *prev,
                        v[0]
                    );
                    *prev = v[0];
                }
                batches += 1;
            }
            batches
        })
    };

    for j in joins {
        j.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let batches = reader.join().unwrap();
    assert!(batches > 0, "the reader must have observed the storm");

    // Every key holds exactly the total number of increments.
    let expected = (UPDATERS * ROUNDS) as u64;
    let mut h = store.attach();
    for chunk in keys.chunks(512) {
        for (i, v) in h.read_many(chunk).unwrap().into_iter().enumerate() {
            assert_eq!(
                v,
                vec![expected, expected * 7],
                "key {} lost or duplicated an increment",
                chunk[i]
            );
        }
    }
    drop(h);

    // Updater/reader exits released every shard slot.
    assert_eq!(store.live_slot_leases(), 0);

    // The rolled-up space invariant: exactly the touched keys are
    // materialized, each costing the paper's per-object footprint.
    let space = store.space();
    assert_eq!(space.touched_keys, keys.len());
    assert_eq!(space.per_key_shared_words, 3 * (UPDATERS + 1) * W + 3 * (UPDATERS + 1) + 1);
    assert_eq!(space.shared_words, keys.len() * space.per_key_shared_words);

    // And the stats rollup agrees with the workload.
    let stats = store.stats();
    assert_eq!(stats.objects, keys.len());
    assert_eq!(stats.updates, expected * keys.len() as u64);
    assert_eq!(stats.sc_successes, stats.updates, "every update landed exactly one SC");
    assert_eq!(stats.sc_attempts, stats.updates + stats.update_retries);
}

/// Handle churn: short-lived workers each attach a handle, increment
/// shared keys, and drop it before exiting; totals stay exact and all
/// leases come back.
#[test]
fn worker_churn_releases_leases_and_loses_nothing() {
    const WORKERS: usize = 6;
    let seed = stress_seed();
    let rounds = stress_iters(4);
    let incs = stress_iters(64) as u64;
    let store = Store::new(StoreConfig::new(8, WORKERS, 1, 1 << 20));
    for round in 0..rounds {
        let joins: Vec<_> = (0..WORKERS)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut jitter = Jitter::new(seed, (round * WORKERS + t) as u64);
                    let mut h = store.attach();
                    for i in 0..incs {
                        jitter.perturb();
                        // Two hot shared keys plus a per-thread private one.
                        let key = match i % 3 {
                            0 => 11,
                            1 => 777_777,
                            _ => 1000 + t as u64,
                        };
                        h.update(key, |v| v[0] += 1).unwrap();
                    }
                    drop(h);
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(store.live_slot_leases(), 0, "dropped worker handles released their leases");
    }
    let mut h = store.attach();
    let mut total = 0u64;
    for k in [11u64, 777_777].into_iter().chain((0..WORKERS).map(|t| 1000 + t as u64)) {
        total += h.read_vec(k).unwrap()[0];
    }
    assert_eq!(total, rounds as u64 * WORKERS as u64 * incs, "no increment lost across churn");
}

/// Shard-slot hand-off between live threads. A store handle borrows its
/// shard slot `p` on a key's object for each operation; the slot's `mybuf`
/// (the buffer process `p` owns) is parked in the object when the
/// operation ends, and the slot's counters are written only by its
/// leaseholder. When handles come and go, slot `p` passes from thread to
/// thread, and both must pass with it: an operation that started from a
/// stale `mybuf` would write its value into a buffer the object may still
/// be serving reads from, and a count lost or doubled at the hand-off
/// would break the totals. Three threads read and update the hot keys of
/// one shard and re-attach every few operations, so shard slots change
/// hands constantly. A reader keeps its own slot and checks every value
/// it reads for tearing, and a poller reads `Store::stats()` live: every
/// counter must be monotone between its polls, and exact at the end.
#[test]
fn shard_slots_pass_between_live_threads_with_their_buffers_and_counters() {
    const WIDTH: usize = 4;
    const HOT: [u64; 4] = [0, 1, 2, 3];
    const CHURNERS: usize = 3;
    const REATTACH_EVERY: usize = 8;
    let seed = stress_seed();
    let ops = stress_iters(4_000);
    // Two slots of slack: `lease_any` can report `ShardExhausted` while
    // another thread is between dropping its handle and the release store
    // of its slot, which capacity == threads would turn into a spurious
    // failure.
    let store = Store::new(StoreConfig::new(1, CHURNERS + 3, WIDTH, 64));
    let inc = |v: &mut [u64]| v.iter_mut().for_each(|x| *x += 1);
    // Every counter, leaving out the `live_slot_leases` gauge.
    let counters = |s: StoreStats| {
        [s.objects as u64, s.reads, s.updates, s.update_retries, s.ll_ops]
            .into_iter()
            .chain([s.sc_attempts, s.sc_successes, s.lls_helped, s.helps_given])
            .collect::<Vec<_>>()
    };
    let (stop, barrier) = (AtomicBool::new(false), Barrier::new(CHURNERS + 1));
    let (acked, reads, rounds) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut h, mut v, mut reads) = (store.attach(), [0u64; WIDTH], 0);
            barrier.wait();
            while reads == 0 || !stop.load(Ordering::Relaxed) {
                for key in HOT {
                    h.read(key, &mut v).unwrap();
                    assert!(v.iter().all(|&x| x == v[0]), "torn read of key {key}: {v:?}");
                }
                reads += HOT.len() as u64;
            }
            reads
        });
        scope.spawn(|| {
            let mut last = counters(store.stats());
            while !stop.load(Ordering::Relaxed) {
                let now = counters(store.stats());
                assert!(last.iter().zip(&now).all(|(a, b)| a <= b), "{last:?} -> {now:?}");
                last = now;
            }
        });
        let churners: Vec<_> = (0..CHURNERS as u64)
            .map(|t| {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    let mut rng = Jitter::new(seed, t);
                    let (mut acked, mut reads, mut v) = ([0u64; HOT.len()], 0, [0u64; WIDTH]);
                    let (mut all, mut rounds) = ([0u64; HOT.len() * WIDTH], 0);
                    barrier.wait();
                    let mut h = store.attach();
                    for i in 0..ops {
                        if i % REATTACH_EVERY == 0 {
                            // The old handle's shard slot goes back to the
                            // pool, to be leased next by whichever thread
                            // gets there first.
                            drop(h);
                            h = store.attach();
                        }
                        let k = (rng.next() % HOT.len() as u64) as usize;
                        match i % 4 {
                            0 => {
                                h.read(HOT[k], &mut v).unwrap();
                                assert!(v.iter().all(|&x| x == v[0]), "torn read: {v:?}");
                                reads += 1;
                            }
                            1 => {
                                h.update_many_with(&HOT, |_, v| {
                                    rounds += 1;
                                    inc(v)
                                })
                                .unwrap();
                                acked.iter_mut().for_each(|a| *a += 1);
                            }
                            2 => {
                                h.read_many_into(&HOT, &mut all).unwrap();
                                assert!(all.chunks(WIDTH).all(|v| v.iter().all(|&x| x == v[0])));
                                reads += HOT.len() as u64;
                            }
                            _ => {
                                h.update_with(HOT[k], &mut v, |v| {
                                    rounds += 1;
                                    inc(v)
                                })
                                .unwrap();
                                acked[k] += 1;
                            }
                        }
                    }
                    (acked, reads, rounds)
                })
            })
            .collect();
        let (mut acked, mut reads, mut rounds) = ([0u64; HOT.len()], 0, 0);
        for c in churners {
            let (a, r, n) = c.join().unwrap();
            acked.iter_mut().zip(a).for_each(|(total, n)| *total += n);
            (reads, rounds) = (reads + r, rounds + n);
        }
        stop.store(true, Ordering::Relaxed);
        (acked, reads + reader.join().unwrap(), rounds)
    });
    assert_eq!(store.live_slot_leases(), 0, "every handle released its shard slot");
    let stats = store.stats();
    let updates: u64 = acked.iter().sum();
    assert_eq!((stats.reads, stats.updates, stats.objects), (reads, updates, HOT.len()));
    // The batches name each hot key once, so every update is its own SC,
    // and each LL/SC round runs the key's closure once.
    assert_eq!(stats.sc_successes, stats.updates);
    assert_eq!(stats.sc_attempts, stats.updates + stats.update_retries);
    assert_eq!(stats.sc_attempts, rounds, "one SC per closure round");
    let mut h = store.attach();
    for (key, sum) in HOT.into_iter().zip(acked) {
        assert_eq!(
            h.read_vec(key).unwrap(),
            vec![sum; WIDTH],
            "key {key} lost or duplicated updates"
        );
    }
}
