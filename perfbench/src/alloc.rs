//! A counting global allocator: exact net heap bytes over a window.
//!
//! Counting is per thread and off except inside [`heap_delta`]: only
//! the allocations and frees of the thread that opened the window count,
//! so other threads cannot disturb it, the counts are exact and repeat
//! from run to run, and the hot loops pay one thread-local flag read per
//! allocation and no shared write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is inside a window, and its net bytes so far.
    static WINDOW: Cell<Option<i64>> = const { Cell::new(None) };
}

/// [`System`] plus a net byte counter that is live only inside a window.
#[derive(Debug)]
pub struct Counting;

fn count(bytes: i64) {
    // `try_with`: a thread may still free memory while its locals are
    // torn down, after which it counts nothing.
    let _ = WINDOW.try_with(|w| {
        if let Some(net) = w.get() {
            w.set(Some(net + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic that
// no allocation decision reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with counting on and returns its result with the net heap
/// bytes this thread allocated inside the window and still holds when it
/// closes. Allocations `f` causes on other threads do not count.
pub fn heap_delta<T>(f: impl FnOnce() -> T) -> (T, i64) {
    WINDOW.set(Some(0));
    // The optimizer may move an allocation whose result is not yet used;
    // `black_box` pins `f`'s result (and what it allocated) inside.
    let out = std::hint::black_box(f());
    let net = WINDOW.replace(None).unwrap_or(0);
    (out, net)
}
