//! The garbage-collected baseline: atomic pointer swap with epoch-based
//! reclamation.
//!
//! In a GC'd language (or with a safe-memory-reclamation scheme like
//! epochs), multiword LL/SC is trivial: keep the value in an immutable
//! heap node behind an atomic pointer; SC allocates a fresh node and CASes
//! the pointer. The paper's problem statement is precisely that hardware
//! and classical shared-memory models give you *bounded* memory and no
//! GC — the entire `O(N²W) → O(NW)` contribution is about achieving this
//! simplicity's semantics with statically bounded buffers.
//!
//! Included so E8 can quantify what the bounded-space discipline costs
//! relative to an allocation-per-SC design, and because it is the fairest
//! "modern Rust" comparator: it is exactly how one would build this with
//! an SMR crate such as `crossbeam_epoch`. The node management is
//! [`llsc_word::DeferredSwapCell`] over the hand-rolled epoch subsystem
//! in `llsc_word::smr`: reads are guard-scoped, retired nodes sit in
//! epoch-stamped limbo bags until no reader can observe them, and the
//! transient-garbage high-water mark is `O(threads × bag size)` rather
//! than the seed behavior of growing with every successful SC.
//!
//! Progress: LL/VL/read are wait-free; SC is wait-free per attempt.
//! Space: `W + O(1)` live words plus the *bounded* limbo backlog — which
//! [`PtrSwapLlSc::space`] reports honestly via
//! [`SpaceEstimate::retired_words`], the number the paper's bounded
//! algorithms keep at zero by construction.

use mwllsc::sync::{AtomicBool, Ordering};
use std::sync::Arc;

use llsc_word::DeferredSwapCell;
use mwllsc::ClaimError;

use crate::traits::{MwHandle, Progress, SpaceEstimate};

/// A `W`-word LL/SC/VL object as an immutable node behind an atomic
/// pointer (epoch-based reclamation; see the module docs).
pub struct PtrSwapLlSc {
    cell: DeferredSwapCell<Vec<u64>>,
    n: usize,
    w: usize,
    claimed: Box<[AtomicBool]>,
}

impl std::fmt::Debug for PtrSwapLlSc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtrSwapLlSc").field("n", &self.n).field("w", &self.w).finish()
    }
}

impl PtrSwapLlSc {
    /// Creates the object.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `w == 0`, or `initial.len() != w`.
    #[must_use]
    pub fn new(n: usize, w: usize, initial: &[u64]) -> Arc<Self> {
        assert!(n > 0 && w > 0, "need at least one process and one word");
        assert_eq!(initial.len(), w, "initial value must have W words");
        Arc::new(Self {
            cell: DeferredSwapCell::new(initial.to_vec()),
            n,
            w,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Leases the handle for process `p`. Fails while another live handle
    /// holds the id; dropping the handle frees it (the same lease
    /// semantics as [`MwLlSc::claim`](mwllsc::MwLlSc::claim)).
    pub fn try_claim(self: &Arc<Self>, p: usize) -> Result<PtrSwapHandle, ClaimError> {
        if p >= self.n {
            return Err(ClaimError::OutOfRange { p, n: self.n });
        }
        if self.claimed[p].swap(true, Ordering::AcqRel) {
            return Err(ClaimError::AlreadyClaimed { p });
        }
        Ok(PtrSwapHandle { obj: Arc::clone(self), p, linked_seq: None })
    }

    /// [`try_claim`](Self::try_claim), panicking on errors.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or currently-leased id.
    #[must_use]
    pub fn claim(self: &Arc<Self>, p: usize) -> PtrSwapHandle {
        self.try_claim(p).unwrap_or_else(|e| panic!("claim: {e}"))
    }

    /// All `N` handles, in process order.
    #[must_use]
    pub fn handles(self: &Arc<Self>) -> Vec<PtrSwapHandle> {
        (0..self.n).map(|p| self.claim(p)).collect()
    }

    /// Progress: wait-free operations, bounded transient memory.
    #[must_use]
    pub fn progress() -> Progress {
        Progress::WaitFree
    }

    /// Heap nodes currently allocated: the live one plus the retired ones
    /// the epoch subsystem has not yet reclaimed.
    #[must_use]
    pub fn tracked_nodes(&self) -> usize {
        self.cell.tracked_nodes()
    }

    /// Space: the live node, plus the limbo backlog reported honestly in
    /// [`SpaceEstimate::retired_words`] — each retired node holds a
    /// `W`-word value buffer plus its node header.
    #[must_use]
    pub fn space(&self) -> SpaceEstimate {
        let node_words = self.w + DeferredSwapCell::<Vec<u64>>::node_words();
        SpaceEstimate {
            shared_words: self.w + 2,
            retired_words: self.cell.tracked_nodes().saturating_sub(1) * node_words,
            asymptotic: "O(W) live + O(threads) retired",
        }
    }
}

/// Per-process handle to a [`PtrSwapLlSc`] (a lease: dropping it frees
/// the process id for a later claim).
pub struct PtrSwapHandle {
    obj: Arc<PtrSwapLlSc>,
    p: usize,
    linked_seq: Option<u64>,
}

impl Drop for PtrSwapHandle {
    fn drop(&mut self) {
        self.obj.claimed[self.p].store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for PtrSwapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtrSwapHandle").field("linked", &self.linked_seq.is_some()).finish()
    }
}

impl MwHandle for PtrSwapHandle {
    fn ll(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "ll: output slice length must equal W");
        // Guard-scoped read: the pin lives exactly as long as the copy.
        let pinned = self.obj.cell.load();
        out.copy_from_slice(&pinned);
        self.linked_seq = Some(pinned.seq());
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        assert_eq!(v.len(), self.obj.w, "sc: value slice length must equal W");
        let linked = self.linked_seq.expect("sc: no preceding ll on this handle");
        self.obj.cell.compare_swap(linked, v.to_vec())
    }

    fn vl(&mut self) -> bool {
        let linked = self.linked_seq.expect("vl: no preceding ll on this handle");
        self.obj.cell.load().seq() == linked
    }

    fn read(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "read: output slice length must equal W");
        // Nodes are immutable: one guard-scoped pointer load is a
        // consistent wait-free read, and the link is untouched.
        out.copy_from_slice(&self.obj.cell.load());
    }

    fn width(&self) -> usize {
        self.obj.w
    }

    fn progress(&self) -> Progress {
        PtrSwapLlSc::progress()
    }

    fn space(&self) -> SpaceEstimate {
        self.obj.space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_a_lease() {
        let obj = PtrSwapLlSc::new(2, 1, &[0]);
        let h = obj.try_claim(0).unwrap();
        assert_eq!(obj.try_claim(0).unwrap_err(), ClaimError::AlreadyClaimed { p: 0 });
        drop(h);
        let _re = obj.try_claim(0).expect("dropping the handle frees the id");
    }

    #[test]
    fn semantics() {
        let obj = PtrSwapLlSc::new(2, 3, &[1, 2, 3]);
        let mut hs = obj.handles();
        let mut v = [0u64; 3];
        hs[0].ll(&mut v);
        assert_eq!(v, [1, 2, 3]);
        hs[1].ll(&mut v);
        assert!(hs[0].sc(&[4, 5, 6]));
        assert!(!hs[1].sc(&[7, 8, 9]));
        assert!(!hs[1].vl());
        hs[1].ll(&mut v);
        assert_eq!(v, [4, 5, 6]);
    }

    #[test]
    fn concurrent_counter_exact() {
        let obj = PtrSwapLlSc::new(4, 2, &[0, 0]);
        let handles = obj.handles();
        let mut joins = Vec::new();
        for mut h in handles {
            joins.push(std::thread::spawn(move || {
                let mut v = [0u64; 2];
                let mut wins = 0;
                while wins < 2_000 {
                    h.ll(&mut v);
                    assert_eq!(v[0], v[1], "values are installed atomically");
                    if h.sc(&[v[0] + 1, v[0] + 1]) {
                        wins += 1;
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn sustained_swaps_keep_memory_bounded() {
        let obj = PtrSwapLlSc::new(1, 2, &[0, 0]);
        let mut h = obj.claim(0);
        let mut v = [0u64; 2];
        let mut high_water = 0;
        for i in 0..5_000u64 {
            h.ll(&mut v);
            assert!(h.sc(&[i, i]));
            high_water = high_water.max(obj.tracked_nodes());
        }
        assert!(high_water < 5_000, "limbo backlog tracked total SCs: {high_water}");
    }

    #[test]
    fn space_reports_limbo_backlog_honestly() {
        let obj = PtrSwapLlSc::new(1, 4, &[0; 4]);
        let mut h = obj.claim(0);
        let mut v = [0u64; 4];
        // A short burst leaves *some* backlog before the next collection
        // tick; the estimate must expose it rather than report 0.
        let node = 4 + llsc_word::DeferredSwapCell::<Vec<u64>>::node_words();
        let mut saw_backlog = false;
        for i in 0..200u64 {
            h.ll(&mut v);
            assert!(h.sc(&[i; 4]));
            // The limbo bags are global: another test's thread may free
            // this cell's retired nodes at any moment, but nothing adds
            // one until our next SC. So the node count can only fall
            // while we sample, and `t0`/`t1` bracket what `space()` saw.
            let t0 = obj.tracked_nodes();
            let s = obj.space();
            let t1 = obj.tracked_nodes();
            assert_eq!(s.shared_words, 4 + 2, "live footprint is W + O(1)");
            assert!(
                (t1 - 1) * node <= s.retired_words && s.retired_words <= (t0 - 1) * node,
                "retired_words {} must track the node counter ({t0} then {t1} nodes)",
                s.retired_words
            );
            saw_backlog |= s.retired_words > 0;
        }
        assert!(saw_backlog, "200 swaps never produced a visible backlog");
    }
}
