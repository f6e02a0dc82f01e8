//! Store shard scaling: a worker pool driving a 2^24-key sharded store —
//! four times past the `N = 2^22` ceiling of a single object.
//!
//! A 64-shard [`Store`] serves 16,777,216 logical 2-word LL/SC variables.
//! Each worker attaches its own [`StoreHandle`] and hammers a working set
//! of keys strided across the *entire* key space (including both boundary
//! keys); the store materializes only what is touched:
//! the final report shows live words tracking the working set (tens of
//! MiB) while the eager (materialize-everything) figure is ~9 GiB — the
//! cost lazy initialization avoids.
//!
//! Run with: `cargo run --release --example store_shard_scaling`
//!
//! [`Store`]: mwllsc_store::Store
//! [`StoreHandle`]: mwllsc_store::StoreHandle

use std::sync::Arc;
use std::time::Instant;

use mwllsc_suite::mwllsc::layout::Layout;
use mwllsc_suite::mwllsc_store::{Store, StoreConfig};

const SHARDS: usize = 64;
const KEYS: u64 = 1 << 24;
const W: usize = 2;
const WORKERS: usize = 8;
const UPDATES_PER_WORKER: u64 = 100_000;
/// Distinct keys in the working set, strided across all 2^24.
const TOUCH: u64 = 1 << 15;

fn main() {
    assert!(KEYS > Layout::MAX_PROCESSES as u64, "the whole point: beyond one object's N");
    let store = Store::new(StoreConfig::new(SHARDS, WORKERS, W, KEYS));
    println!(
        "store: {SHARDS} shards x capacity {WORKERS}, W={W}, key space {KEYS} \
         ({}x the single-object ceiling of {})",
        KEYS / Layout::MAX_PROCESSES as u64,
        Layout::MAX_PROCESSES,
    );
    println!(
        "per materialized key: {} words; eager materialization would cost {} MiB up front\n",
        store.space().per_key_shared_words,
        store.space().eager_words() * 8 / (1 << 20),
    );

    let stride = KEYS / TOUCH;
    let start = Instant::now();
    let joins: Vec<_> = (0..WORKERS as u64)
        .map(|wid| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut h = store.attach();
                let mut x = wid + 1;
                let mut buf = [0u64; W];
                for i in 0..UPDATES_PER_WORKER {
                    // A worker's first and last ops pin the space's two
                    // boundary keys; the rest walk a scrambled stride.
                    let key = if i == 0 {
                        0
                    } else if i == UPDATES_PER_WORKER - 1 {
                        KEYS - 1
                    } else {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        ((x >> 13) % TOUCH) * stride
                    };
                    h.update_with(key, &mut buf, |v| {
                        v[0] += 1;
                        v[1] = v[0] ^ key; // per-key torn-write detector
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    let total_ops = WORKERS as u64 * UPDATES_PER_WORKER;

    // Verify: the sum of all counters equals the ops performed, values are
    // consistent, and both boundary keys took exactly WORKERS hits each.
    let mut h = store.attach();
    let mut sum = 0u64;
    for i in 0..TOUCH {
        let v = h.read_vec(i * stride).unwrap();
        assert_eq!(v[1], v[0] ^ (i * stride), "torn value at key {}", i * stride);
        sum += v[0];
    }
    sum += h.read_vec(KEYS - 1).unwrap()[0];
    assert_eq!(sum, total_ops, "no update lost across {WORKERS} workers");
    // Each worker pinned both boundary keys once (key 0 also collects
    // strided hits — it is the stride's own multiple of zero).
    assert!(h.read_vec(0).unwrap()[0] >= WORKERS as u64);
    assert_eq!(h.read_vec(KEYS - 1).unwrap()[0], WORKERS as u64);
    drop(h);

    let space = store.space();
    let stats = store.stats();
    assert_eq!(space.shared_words, space.touched_keys * space.per_key_shared_words);
    // The per-slot counters, summed, count every update exactly once.
    assert_eq!(stats.updates, total_ops);
    assert_eq!(stats.sc_successes, stats.updates, "one SC commits each update_with");
    assert_eq!(stats.sc_attempts, stats.updates + stats.update_retries);
    println!(
        "{total_ops} updates by {WORKERS} workers in {secs:.2}s ({:.2} Mops/s)",
        total_ops as f64 / secs / 1e6
    );
    println!(
        "touched {} of {} keys -> {} live words ({} KiB); retries {}, helps given {}",
        space.touched_keys,
        space.key_capacity,
        space.shared_words,
        space.shared_words * 8 / 1024,
        stats.update_retries,
        stats.helps_given,
    );
    println!("space invariant: touched x {} words, exactly — honest rollup holds", {
        space.per_key_shared_words
    });
}
