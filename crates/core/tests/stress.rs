//! Real-thread stress tests.
//!
//! These run the object under genuine hardware concurrency. Assertions are
//! schedule-independent properties:
//!
//! * every value returned by LL/Read carries a valid checksum (no torn
//!   value is ever *returned* — torn reads may happen internally, but the
//!   algorithm must mask them);
//! * fetch-increment totals are exact (each successful SC is counted once);
//! * counter words are monotone across LLs (a consequence of
//!   linearizability for an increment-only workload).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use llsc_word::EpochLlSc;
use mwllsc::MwLlSc;

/// Per-thread iteration budget: `base` scaled by the `MWLLSC_STRESS_ITERS`
/// env knob — an integer multiplier, default 1 — so CI stays inside its
/// time budget while many-core soak runs can scale the same tests up
/// (e.g. `MWLLSC_STRESS_ITERS=50 cargo test --release --test stress`).
fn stress_iters(base: u64) -> u64 {
    let mult = std::env::var("MWLLSC_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    base.saturating_mul(mult)
}

/// Workload-randomization seed, pinned by the `MWLLSC_STRESS_SEED` env
/// knob. Soak runs randomize thread timing through [`Jitter`]; when one
/// finds a schedule-dependent failure, exporting the printed seed replays
/// the exact same perturbation in a plain `cargo test` invocation.
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

/// Fills `v[..W-1]` from `seed` and sets the last word to a checksum.
fn make_value(w: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> =
        (0..w as u64 - 1).map(|i| seed.wrapping_mul(0x9E37).wrapping_add(i)).collect();
    v.push(checksum(&v));
    v
}

fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF29CE484222325, |acc, &x| (acc ^ x).wrapping_mul(0x100000001B3))
}

fn assert_checksummed(v: &[u64], ctx: &str) {
    let (body, tail) = v.split_at(v.len() - 1);
    assert_eq!(tail[0], checksum(body), "{ctx}: torn value escaped: {v:?}");
}

/// N threads hammer fetch-increment on word 0 (checksum maintained); the
/// final counter must equal the number of successful SCs. Handle 0 stays on
/// the main thread so the final value can be verified directly.
fn fetch_increment_storm_verified(n: usize, w: usize, per_thread: u64) {
    assert!(n >= 2 && w >= 2);
    let seed = stress_seed();
    let init = {
        let mut v = vec![0u64; w - 1];
        let c = checksum(&v);
        v.push(c);
        v
    };
    let obj = MwLlSc::new(n, w, &init);
    let mut handles = obj.handles();
    let mut h0 = handles.remove(0);
    let mut joins = Vec::new();
    for (t, mut h) in handles.into_iter().enumerate() {
        joins.push(std::thread::spawn(move || {
            let mut jitter = Jitter::new(seed, t as u64 + 1);
            let mut v = vec![0u64; w];
            let mut successes = 0u64;
            while successes < per_thread {
                jitter.perturb();
                h.ll(&mut v);
                assert_checksummed(&v, "LL in storm");
                v[0] += 1;
                for i in 1..w - 1 {
                    v[i] = v[0].wrapping_mul(i as u64 + 2);
                }
                v[w - 1] = checksum(&v[..w - 1]);
                if h.sc(&v) {
                    successes += 1;
                }
            }
            h.stats()
        }));
    }
    // Main thread: increments too, and checks monotonicity of word 0.
    let mut jitter = Jitter::new(seed, 0);
    let mut v = vec![0u64; w];
    let mut last_seen = 0u64;
    let mut successes = 0u64;
    while successes < per_thread {
        jitter.perturb();
        h0.ll(&mut v);
        assert_checksummed(&v, "main LL");
        assert!(v[0] >= last_seen, "counter went backwards: {} < {last_seen}", v[0]);
        last_seen = v[0];
        v[0] += 1;
        for i in 1..w - 1 {
            v[i] = v[0].wrapping_mul(i as u64 + 2);
        }
        v[w - 1] = checksum(&v[..w - 1]);
        if h0.sc(&v) {
            successes += 1;
        }
    }
    let mut s = h0.stats();
    for j in joins {
        s += j.join().unwrap();
    }
    h0.ll(&mut v);
    assert_checksummed(&v, "final LL");
    assert_eq!(v[0], n as u64 * per_thread, "every successful SC counted exactly once");
    // Counters are per handle; their sum counts every process's SCs.
    assert_eq!(s.sc_successes, n as u64 * per_thread);
    assert!(s.lls_rescued <= s.lls_helped);
}

#[test]
fn storm_n2_w2() {
    fetch_increment_storm_verified(2, 2, stress_iters(30_000));
}

#[test]
fn storm_n4_w8() {
    fetch_increment_storm_verified(4, 8, stress_iters(10_000));
}

#[test]
fn storm_n8_w4() {
    fetch_increment_storm_verified(8, 4, stress_iters(5_000));
}

#[test]
fn storm_n3_w64_wide_values() {
    fetch_increment_storm_verified(3, 64, stress_iters(3_000));
}

#[test]
fn storm_epoch_substrate() {
    // Same storm on the epoch-pointer substrate: cross-checks the tagged
    // realization against an independently built one.
    let n = 4;
    let w = 4;
    let seed = stress_seed();
    let per_thread = stress_iters(5_000);
    let init = {
        let mut v = vec![0u64; w - 1];
        let c = checksum(&v);
        v.push(c);
        v
    };
    let obj = MwLlSc::<EpochLlSc>::try_new_in(n, w, &init).unwrap();
    let mut handles = obj.handles();
    let mut h0 = handles.remove(0);
    let mut joins = Vec::new();
    for (t, mut h) in handles.into_iter().enumerate() {
        joins.push(std::thread::spawn(move || {
            let mut jitter = Jitter::new(seed, t as u64 + 1);
            let mut v = vec![0u64; w];
            let mut successes = 0u64;
            while successes < per_thread {
                jitter.perturb();
                h.ll(&mut v);
                assert_checksummed(&v, "epoch LL");
                v[0] += 1;
                for i in 1..w - 1 {
                    v[i] = v[0].wrapping_mul(i as u64 + 2);
                }
                v[w - 1] = checksum(&v[..w - 1]);
                if h.sc(&v) {
                    successes += 1;
                }
            }
        }));
    }
    let mut v = vec![0u64; w];
    let mut successes = 0u64;
    while successes < per_thread {
        h0.ll(&mut v);
        assert_checksummed(&v, "epoch main LL");
        v[0] += 1;
        for i in 1..w - 1 {
            v[i] = v[0].wrapping_mul(i as u64 + 2);
        }
        v[w - 1] = checksum(&v[..w - 1]);
        if h0.sc(&v) {
            successes += 1;
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    h0.ll(&mut v);
    assert_eq!(v[0], n as u64 * per_thread);
}

#[test]
fn slow_reader_under_writer_storm_never_sees_torn_value() {
    // One dedicated reader LLs wide values while writers cycle the object
    // as fast as possible; with W large and 2N small, internal torn reads
    // become likely, and every one must be masked by the helping machinery.
    let n = 3;
    let w = 256;
    let base = stress_seed();
    let init = make_value(w, 0);
    let obj = MwLlSc::new(n, w, &init);
    let mut handles = obj.handles();
    let mut reader = handles.remove(0);
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for (t, mut h) in handles.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut jitter = Jitter::new(base, t as u64 + 1);
            let mut v = vec![0u64; w];
            let mut seed = mix(base, t as u64).max(1);
            h.ll(&mut v);
            while !stop.load(Ordering::Relaxed) {
                jitter.perturb();
                let next = make_value(w, seed);
                if h.sc(&next) {
                    seed += 1;
                }
                h.ll(&mut v);
                assert_checksummed(&v, "writer LL");
            }
            h.stats()
        }));
    }
    let mut jitter = Jitter::new(base, 0);
    let mut v = vec![0u64; w];
    for _ in 0..stress_iters(20_000) {
        jitter.perturb();
        reader.ll(&mut v);
        assert_checksummed(&v, "reader LL");
        reader.read(&mut v);
        assert_checksummed(&v, "reader Read");
    }
    stop.store(true, Ordering::Relaxed);
    let mut s = reader.stats();
    for j in joins {
        s += j.join().unwrap();
    }
    // Informative: rescues can legitimately be zero on a fast machine, but
    // helped LLs at least must never exceed total LLs.
    assert!(s.lls_helped <= s.ll_ops);
    assert!(s.lls_rescued <= s.lls_helped);
}

#[test]
fn vl_only_observer_is_consistent() {
    // An observer repeatedly LLs then VLs; whenever VL returns true, a
    // subsequent SC by the observer with no interference must succeed.
    let seed = stress_seed();
    let obj = MwLlSc::new(2, 2, &[0, 0]);
    let mut hs = obj.handles();
    let mut writer = hs.pop().unwrap();
    let mut observer = hs.pop().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let w_stop = Arc::clone(&stop);
    let wj = std::thread::spawn(move || {
        let mut jitter = Jitter::new(seed, 1);
        let mut v = [0u64; 2];
        let mut i = 0u64;
        while !w_stop.load(Ordering::Relaxed) {
            jitter.perturb();
            writer.ll(&mut v);
            i += 1;
            let _ = writer.sc(&[i, i]);
        }
    });
    let mut jitter = Jitter::new(seed, 0);
    let mut v = [0u64; 2];
    let mut vl_true = 0u64;
    for _ in 0..stress_iters(100_000) {
        jitter.perturb();
        observer.ll(&mut v);
        if observer.vl() {
            vl_true += 1;
        }
        assert_eq!(v[0], v[1], "writer always installs equal words");
    }
    stop.store(true, Ordering::Relaxed);
    wj.join().unwrap();
    // With a periodically-pausing writer the observer must often validate.
    assert!(vl_true > 0, "VL never returned true in 100k attempts");
}

#[test]
fn handles_move_across_threads() {
    // A handle is Send: pass it through a channel mid-session.
    let obj = MwLlSc::new(2, 2, &[1, 1]);
    let mut hs = obj.handles();
    let mut h0 = hs.remove(0);
    let mut v = [0u64; 2];
    h0.ll(&mut v);
    assert!(h0.sc(&[2, 2]));
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(h0).unwrap();
    let j = std::thread::spawn(move || {
        let mut h0 = rx.recv().unwrap();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert_eq!(v, [2, 2]);
        assert!(h0.sc(&[3, 3]));
    });
    j.join().unwrap();
}
