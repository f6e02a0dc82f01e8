//! A shared helper for pointer-swap cells with epoch-based reclamation.
//!
//! Both [`EpochLlSc`](crate::EpochLlSc) and the `llsc-baselines`
//! pointer-swap comparator need the same primitive: an atomic pointer to
//! an immutable heap node tagged with a monotone sequence number, where
//! a successful swap retires the old node. Retired nodes are handed to
//! the hand-rolled epoch-based reclamation subsystem in [`crate::smr`]
//! and freed as soon as every reader that could still observe them has
//! finished — so the memory high-water mark under sustained swap traffic
//! is `O(threads × bag size)`, independent of the total number of
//! successful swaps. (Earlier revisions deferred all reclamation to the
//! cell's `Drop`, which grew memory linearly with swap count; that
//! design is gone.)
//!
//! Reads are guard-scoped: [`load`](DeferredSwapCell::load) pins the
//! current epoch and returns a [`Pinned`] that derefs to the payload;
//! the node it points at cannot be freed until the `Pinned` is dropped.
//!
//! Keeping the `unsafe` here — in one place, next to `smr` — is the
//! point: the two consumers contain no unsafe code of their own.

use core::marker::PhantomData;
use core::ops::Deref;
use std::sync::Arc;

use crate::smr;
use crate::sync::{AtomicPtr, AtomicUsize, Ordering};

struct Node<T> {
    payload: T,
    seq: u64,
    /// The owning cell's live+retired node counter; decremented when the
    /// node is finally dropped (possibly long after the cell itself).
    tracker: Arc<AtomicUsize>,
}

impl<T> Node<T> {
    fn boxed(payload: T, seq: u64, tracker: &Arc<AtomicUsize>) -> *mut Node<T> {
        tracker.fetch_add(1, Ordering::Relaxed); // lint: cell=TRACK
        Box::into_raw(Box::new(Node { payload, seq, tracker: Arc::clone(tracker) }))
    }
}

impl<T> Drop for Node<T> {
    fn drop(&mut self) {
        self.tracker.fetch_sub(1, Ordering::Relaxed); // lint: cell=TRACK
    }
}

/// An atomic pointer to an immutable `(payload, seq)` node, with
/// compare-and-swap keyed on the sequence number and epoch-based
/// reclamation of replaced nodes (see the module docs).
///
/// `seq` starts at 0 and increments on every successful
/// [`compare_swap`](Self::compare_swap), so it is unique over the cell's
/// lifetime: comparing sequence numbers can never suffer pointer-ABA.
pub struct DeferredSwapCell<T> {
    /// The current node. Never null after construction.
    ptr: AtomicPtr<Node<T>>,
    /// Live + retired-but-unreclaimed nodes allocated by this cell
    /// (including the current one). Shared with every node so late frees
    /// settle the count even after the cell is gone.
    nodes: Arc<AtomicUsize>,
}

// SAFETY: published nodes are immutable; unlinked nodes are freed only
// by the epoch subsystem once no pinned reader can reach them. Payload
// references (`Pinned`) are handed to other threads, hence `T: Send +
// Sync`; `'static` because a retired payload may outlive the cell's
// borrows inside the limbo bags.
unsafe impl<T: Send + Sync + 'static> Send for DeferredSwapCell<T> {}
unsafe impl<T: Send + Sync + 'static> Sync for DeferredSwapCell<T> {}

impl<T: Send + Sync + 'static> std::fmt::Debug for DeferredSwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredSwapCell").field("seq", &self.load().seq()).finish()
    }
}

/// A guard-scoped view of a cell's current `(payload, seq)` node.
///
/// Holds an epoch pin ([`smr::Guard`]) for as long as it lives: the node
/// it points at — even one unlinked by a concurrent
/// [`compare_swap`](DeferredSwapCell::compare_swap) the instant after
/// the load — stays allocated until this value is dropped. Dropping it
/// promptly is what keeps the garbage backlog at its bound; `Pinned` is
/// deliberately `!Send` (the pin lives in the loading thread's epoch
/// record).
pub struct Pinned<'c, T> {
    /// Field order matters for drop order only in that neither drop
    /// touches the other; the guard must simply outlive every deref,
    /// which the borrow rules of `Deref` already enforce.
    _guard: smr::Guard,
    node: *const Node<T>,
    _cell: PhantomData<&'c DeferredSwapCell<T>>,
}

impl<T> Pinned<'_, T> {
    /// The node's sequence number (unique over the cell's lifetime).
    #[must_use]
    pub fn seq(&self) -> u64 {
        // SAFETY: `node` was the cell's current node when `_guard` was
        // already pinned, so it cannot be freed while `self` lives.
        unsafe { (*self.node).seq }
    }

    /// The payload (also available through `Deref`).
    #[must_use]
    pub fn value(&self) -> &T {
        // SAFETY: as in `seq`.
        unsafe { &(*self.node).payload }
    }
}

impl<T> Deref for Pinned<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Pinned<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pinned").field("seq", &self.seq()).field("value", self.value()).finish()
    }
}

impl<T: Send + Sync + 'static> DeferredSwapCell<T> {
    /// Creates a cell holding `init` at sequence number 0.
    #[must_use]
    pub fn new(init: T) -> Self {
        let nodes = Arc::new(AtomicUsize::new(0));
        Self { ptr: AtomicPtr::new(Node::boxed(init, 0, &nodes)), nodes }
    }

    /// The current payload and its sequence number, valid for as long as
    /// the returned [`Pinned`] lives.
    pub fn load(&self) -> Pinned<'_, T> {
        let guard = smr::pin();
        // Acquire: synchronizes with the Release publication in
        // `compare_swap`, making the node's payload (written before the
        // publishing CAS) visible through the returned reference. The
        // *liveness* of the node is the guard's job, not the ordering's:
        // pinning happened above, so whatever this load observes cannot
        // be reclaimed until `guard` drops.
        let node = self.ptr.load(Ordering::Acquire); // lint: cell=PTR
        Pinned { _guard: guard, node, _cell: PhantomData }
    }

    /// Installs `payload` at `expect_seq + 1` iff the current node's
    /// sequence number equals `expect_seq`; returns whether it did.
    pub fn compare_swap(&self, expect_seq: u64, payload: T) -> bool {
        // Pinned pre-check: a stale seq — every lost race and every
        // retry of a caller's read-modify-write loop — fails without
        // paying for an allocation.
        {
            let _guard = smr::pin();
            // Acquire: see `load` — we dereference `cur`.
            let cur = self.ptr.load(Ordering::Acquire); // lint: cell=PTR
                                                        // SAFETY: `cur` was the current node while `_guard` was
                                                        // pinned, so it stays allocated until the pin drops.
            if unsafe { &*cur }.seq != expect_seq {
                return false;
            }
        }
        // Allocate *outside* the pin: the candidate's seq depends only on
        // `expect_seq`, and keeping each pinned window down to
        // load–check–CAS minimizes the damage a preemption mid-window
        // does to epoch advancing (a descheduled pinned thread blocks
        // reclamation for its whole quantum).
        let next = Node::boxed(payload, expect_seq + 1, &self.nodes);
        let won = {
            let guard = smr::pin();
            // Acquire: see `load` — we dereference `cur` below.
            let cur = self.ptr.load(Ordering::Acquire); // lint: cell=PTR
                                                        // SAFETY: `cur` was the current node while `guard` was
                                                        // pinned, so it stays allocated at least until `guard` drops.
            if unsafe { &*cur }.seq != expect_seq {
                false
            } else {
                // Success = Release: publishes `next`'s payload/seq
                // (written above, before the CAS) to the Acquire loads in
                // `load` / `compare_swap`. No Acquire needed on success —
                // `cur` was already read through an Acquire load, and the
                // retire below needs only program order plus the epoch
                // fences inside `smr`. Failure = Relaxed: the observed
                // value is discarded (we return `false` without touching
                // it).
                // lint: cell=PTR
                match self.ptr.compare_exchange(cur, next, Ordering::Release, Ordering::Relaxed) {
                    Ok(_) => {
                        // SAFETY: our CAS unlinked `cur` — no shared
                        // location leads to it anymore, we are the
                        // exclusive retirer, and `guard` is the pin
                        // `retire` requires.
                        unsafe { smr::retire(&guard, cur) };
                        true
                    }
                    Err(_) => false,
                }
            }
            // `guard` drops here: the decongestion below must run
            // unpinned (a pinned yielder would itself block advancing).
        };
        if won {
            smr::decongest();
        } else {
            // SAFETY: `next` was never published; we still own it
            // exclusively.
            drop(unsafe { Box::from_raw(next) });
        }
        won
    }

    /// Nodes currently allocated by this cell: the live one plus any
    /// retired ones the epoch subsystem has not yet reclaimed. The
    /// reclamation stress suite asserts this stays `O(threads ×
    /// bag size)` under sustained swap traffic; it is also what makes
    /// the substrates' `space()` reporting honest.
    #[must_use]
    pub fn tracked_nodes(&self) -> usize {
        self.nodes.load(Ordering::Relaxed) // lint: cell=CTR
    }

    /// 64-bit words occupied by one heap node (header + inline payload;
    /// heap data *owned* by the payload, e.g. a `Vec`'s buffer, is the
    /// caller's to add). Used for space accounting.
    #[must_use]
    pub fn node_words() -> usize {
        std::mem::size_of::<Node<T>>().div_ceil(8)
    }
}

impl<T> Drop for DeferredSwapCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no `Pinned` borrows this cell anymore and no other
        // thread can reach it, so the *current* node is exclusively ours.
        // Already-retired nodes are the epoch subsystem's problem and are
        // freed by it — their `tracker` Arc keeps the counter alive.
        let cur = *self.ptr.get_mut();
        if !cur.is_null() {
            // SAFETY: exclusive access; the current node was never
            // retired (a node is retired only after being unlinked).
            drop(unsafe { Box::from_raw(cur) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Iteration budget: full size natively, floored under Miri — the
    /// interpreter runs these storms ~100x slower, and the assertions are
    /// count-parametric, so a smaller budget exercises the same paths.
    fn scaled(n: u64) -> u64 {
        if cfg!(miri) {
            (n / 50).max(8)
        } else {
            n
        }
    }

    #[test]
    fn load_and_swap_sequence() {
        let c = DeferredSwapCell::new(10u64);
        let p = c.load();
        assert_eq!((*p, p.seq()), (10, 0));
        drop(p);
        assert!(c.compare_swap(0, 11));
        let p = c.load();
        assert_eq!((*p, p.seq()), (11, 1));
        drop(p);
        assert!(!c.compare_swap(0, 99), "stale seq must fail");
        assert_eq!(*c.load(), 11);
    }

    #[test]
    fn failed_swap_frees_candidate() {
        // A failing compare_swap must not leak its candidate node: the
        // cell's node counter ends where it started.
        let c = DeferredSwapCell::new(vec![1u64, 2]);
        for _ in 0..scaled(1000) {
            assert!(!c.compare_swap(77, vec![9, 9]));
        }
        assert_eq!(c.tracked_nodes(), 1, "only the live node remains tracked");
    }

    #[test]
    fn pinned_survives_concurrent_swap() {
        let _gate = crate::testgate();
        let c = Arc::new(DeferredSwapCell::new(vec![7u64; 32]));
        let held = c.load();
        let c2 = Arc::clone(&c);
        std::thread::spawn(move || {
            for i in 0..scaled(500) {
                let seq = c2.load().seq();
                c2.compare_swap(seq, vec![i; 32]);
            }
        })
        .join()
        .unwrap();
        // The node we pinned was retired hundreds of swaps ago; the pin
        // must have kept it whole.
        assert_eq!(held.seq(), 0);
        assert!(held.iter().all(|&x| x == 7), "pinned payload mutated or freed");
    }

    #[test]
    fn concurrent_swaps_every_seq_won_once() {
        let _gate = crate::testgate();
        let per_thread = scaled(2_000);
        let c = Arc::new(DeferredSwapCell::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let mut wins = 0u64;
                while wins < per_thread {
                    let p = c.load();
                    let (v, seq) = (*p, p.seq());
                    drop(p);
                    if c.compare_swap(seq, v + 1) {
                        wins += 1;
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let p = c.load();
        assert_eq!((*p, p.seq()), (4 * per_thread, 4 * per_thread));
    }

    #[test]
    fn sustained_swaps_do_not_grow_tracked_nodes() {
        // The whole point of the EBR rewrite: many successful swaps, yet
        // the cell never accumulates more than a bounded backlog.
        let _gate = crate::testgate();
        let c = DeferredSwapCell::new(0u64);
        let mut high_water = 0;
        for i in 0..scaled(10_000) {
            assert!(c.compare_swap(i, i + 1));
            high_water = high_water.max(c.tracked_nodes());
        }
        // Single-threaded bound: one live node + at most one epoch's
        // worth of unflushed garbage per collection interval, plus slack
        // for garbage pinned by sibling tests in this binary.
        assert!(
            high_water <= 16 * smr::ADVANCE_EVERY as usize,
            "backlog grew unbounded: high water {high_water}"
        );
        drop(c);
    }
}
