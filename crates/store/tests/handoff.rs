//! Shard-slot hand-off between live threads.
//!
//! A store handle borrows its shard slot `p` on a key's object for each
//! operation, and the slot's `mybuf` (the buffer process `p` owns) is
//! parked in the object when the operation ends. When handles come and
//! go, slot `p` passes from thread to thread, and the parked `mybuf` must
//! pass with it: an operation that started from a stale `mybuf` would
//! write its value into a buffer the object may still be serving reads
//! from. Writers here re-attach every few updates on a handful of hot
//! keys in one shard, so shard slots change hands constantly, while a
//! reader keeps its own slot and checks every value it reads for tearing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mwllsc_store::{Store, StoreConfig};

const W: usize = 4;
const HOT_KEYS: u64 = 4;
const WRITERS: usize = 3;
const REATTACH_EVERY: usize = 8;

/// Iteration budget scaled by the `MWLLSC_STRESS_ITERS` env knob (an
/// integer multiplier, default 1).
fn stress_iters(base: usize) -> usize {
    let mult = std::env::var("MWLLSC_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    base.saturating_mul(mult)
}

/// Workload seed, pinned by the `MWLLSC_STRESS_SEED` env knob; printed so
/// a failing run can be replayed.
fn stress_seed() -> u64 {
    let seed = std::env::var("MWLLSC_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x5EED_0002);
    eprintln!("MWLLSC_STRESS_SEED={seed}");
    seed
}

/// splitmix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn shard_slots_pass_between_live_threads_with_their_buffers() {
    let seed = stress_seed();
    let updates = stress_iters(4_000);
    let threads = WRITERS + 1;
    // Two slots of slack: `lease_any` can report `ShardExhausted` while
    // another thread is between dropping its handle and the release store
    // of its slot, which capacity == threads would turn into a spurious
    // failure.
    let store = Store::new(StoreConfig::new(1, threads + 2, W, 64));
    let barrier = Arc::new(Barrier::new(threads));
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = seed ^ (t as u64).wrapping_mul(0xA24B_AED4_963E_E407);
                let mut acked = [0u64; HOT_KEYS as usize];
                let mut buf = [0u64; W];
                barrier.wait();
                let mut h = store.attach();
                for i in 0..updates {
                    if i % REATTACH_EVERY == 0 {
                        // The old handle's shard slot goes back to the
                        // pool, to be leased next by whichever thread
                        // gets there first.
                        drop(h);
                        h = store.attach();
                    }
                    let key = next(&mut rng) % HOT_KEYS;
                    h.update_with(key, &mut buf, |v| v.iter_mut().for_each(|x| *x += 1)).unwrap();
                    acked[key as usize] += 1;
                }
                acked
            })
        })
        .collect();

    let reader = {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut h = store.attach();
            let mut v = [0u64; W];
            let mut passes = 0u64;
            barrier.wait();
            while passes == 0 || !done.load(Ordering::Relaxed) {
                for key in 0..HOT_KEYS {
                    h.read(key, &mut v).unwrap();
                    assert!(v.iter().all(|&x| x == v[0]), "torn read of key {key}: {v:?}");
                }
                passes += 1;
            }
            passes
        })
    };

    let mut acked = [0u64; HOT_KEYS as usize];
    for w in writers {
        for (total, n) in acked.iter_mut().zip(w.join().unwrap()) {
            *total += n;
        }
    }
    done.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);
    assert_eq!(store.live_slot_leases(), 0, "every handle released its shard slot");

    let mut h = store.attach();
    for key in 0..HOT_KEYS {
        let sum = acked[key as usize];
        assert_eq!(h.read_vec(key).unwrap(), vec![sum; W], "key {key} lost or duplicated updates");
    }
    assert_eq!(acked.iter().sum::<u64>(), (WRITERS * updates) as u64);
}
