//! The batch paths marked `// lint: no-alloc` allocate nothing once warm:
//! after one call has sized the handle's scratch, `read_many_into` and
//! `update_many_with` over already-materialized keys make zero heap
//! allocations. The lexical L004 rule cannot see through calls; this
//! counting allocator can.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwllsc_store::{Store, StoreConfig};

thread_local! {
    /// Allocations made by this thread (per thread, so the test harness's
    /// own threads are not counted).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so bumping it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_batch_paths_allocate_nothing() {
    const W: usize = 2;
    let store = Store::new(StoreConfig::new(4, 2, W, 1 << 12));
    let mut h = store.attach();
    // Duplicates and several shards, so runs fold and shard runs change.
    let keys: Vec<u64> = (0..64u64).map(|i| (i * 37) % 48).collect();
    let mut out = vec![0u64; keys.len() * W];

    // Warm-up: materializes every key, leases every shard slot, and sizes
    // the handle's scratch.
    h.update_many_with(&keys, |_, v| v[0] += 1).unwrap();
    h.read_many_into(&keys, &mut out).unwrap();

    let n = allocs_in(|| h.update_many_with(&keys, |i, v| v[1] += i as u64).unwrap());
    assert_eq!(n, 0, "update_many_with allocated {n} times");
    let n = allocs_in(|| h.read_many_into(&keys, &mut out).unwrap());
    assert_eq!(n, 0, "read_many_into allocated {n} times");

    // The scratch did not change the answers: every key absorbed one +1
    // per occurrence in the warm-up batch.
    for (i, &k) in keys.iter().enumerate() {
        let hits = keys.iter().filter(|&&x| x == k).count() as u64;
        assert_eq!(out[i * W], hits, "key {k}");
    }
}
