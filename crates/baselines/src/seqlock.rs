//! The seqlock baseline: version word + raced data words.
//!
//! A classic systems idiom: a version counter is even when the data is
//! stable and odd while a writer is mid-update. Readers copy the data and
//! retry if the version moved; writers acquire exclusivity by CAS-ing the
//! version from the even value they linked against to odd.
//!
//! As an LL/SC object the version doubles as the link: `SC` is a CAS on
//! the version, so it succeeds exactly when no successful SC intervened.
//! Space is optimal (`W + 1` words) and the fast path is very cheap — but
//! the progress guarantees are strictly weaker than the paper's algorithm:
//!
//! * readers are only *lock-free* (a continuous writer storm can starve a
//!   reader indefinitely — experiment E8 demonstrates exactly this), and
//! * a writer that crashes between acquiring (odd) and releasing leaves
//!   the object permanently unreadable: not fault-tolerant.

use mwllsc::sync::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mwllsc::{ClaimError, ConfigError, MwFactory};

use crate::traits::{MwHandle, Progress, SpaceEstimate};

/// A `W`-word LL/SC/VL object with seqlock internals.
pub struct SeqLockLlSc {
    version: AtomicU64,
    data: Box<[AtomicU64]>,
    n: usize,
    claimed: Box<[AtomicBool]>,
}

impl std::fmt::Debug for SeqLockLlSc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqLockLlSc").field("n", &self.n).field("w", &self.data.len()).finish()
    }
}

impl SeqLockLlSc {
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
            version: AtomicU64::new(0),
            data: initial.iter().map(|&x| AtomicU64::new(x)).collect(),
            n,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Leases the handle for process `p`. Fails while another live handle
    /// holds the id; dropping the handle frees it (the same lease
    /// semantics as [`MwLlSc::claim`](mwllsc::MwLlSc::claim)).
    pub fn try_claim(self: &Arc<Self>, p: usize) -> Result<SeqLockHandle, ClaimError> {
        if p >= self.n {
            return Err(ClaimError::OutOfRange { p, n: self.n });
        }
        if self.claimed[p].swap(true, Ordering::AcqRel) {
            return Err(ClaimError::AlreadyClaimed { p });
        }
        Ok(SeqLockHandle { obj: Arc::clone(self), p, linked: None })
    }

    /// [`try_claim`](Self::try_claim), panicking on errors.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or currently-leased id.
    #[must_use]
    pub fn claim(self: &Arc<Self>, p: usize) -> SeqLockHandle {
        self.try_claim(p).unwrap_or_else(|e| panic!("claim: {e}"))
    }

    /// All `N` handles, in process order.
    #[must_use]
    pub fn handles(self: &Arc<Self>) -> Vec<SeqLockHandle> {
        (0..self.n).map(|p| self.claim(p)).collect()
    }

    /// Progress: lock-free reads, blocking on writer crash.
    #[must_use]
    pub fn progress() -> Progress {
        Progress::LockFree
    }

    /// Exact shared-space accounting.
    #[must_use]
    pub fn space(&self) -> SpaceEstimate {
        SpaceEstimate { shared_words: self.data.len() + 1, retired_words: 0, asymptotic: "O(W)" }
    }
}

/// Per-process handle to a [`SeqLockLlSc`] (a lease: dropping it frees
/// the process id for a later claim).
pub struct SeqLockHandle {
    obj: Arc<SeqLockLlSc>,
    p: usize,
    /// The (even) version this process linked against.
    linked: Option<u64>,
}

impl Drop for SeqLockHandle {
    fn drop(&mut self) {
        self.obj.claimed[self.p].store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for SeqLockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqLockHandle").field("linked", &self.linked.is_some()).finish()
    }
}

impl MwHandle for SeqLockHandle {
    fn ll(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.data.len(), "ll: output slice length must equal W");
        loop {
            let v1 = self.obj.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue; // writer in progress
            }
            for (d, s) in out.iter_mut().zip(self.obj.data.iter()) {
                *d = s.load(Ordering::Acquire);
            }
            let v2 = self.obj.version.load(Ordering::Acquire);
            if v1 == v2 {
                self.linked = Some(v1);
                return;
            }
            // Torn read: retry (this unbounded loop is the wait-freedom gap).
        }
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        assert_eq!(v.len(), self.obj.data.len(), "sc: value slice length must equal W");
        let linked = self.linked.expect("sc: no preceding ll on this handle");
        // Acquire exclusivity iff the version is still the linked one.
        if self
            .obj
            .version
            .compare_exchange(linked, linked + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        for (s, d) in v.iter().zip(self.obj.data.iter()) {
            d.store(*s, Ordering::Release);
        }
        self.obj.version.store(linked + 2, Ordering::Release);
        // Own success consumes the link.
        self.linked = Some(linked.wrapping_sub(2));
        true
    }

    fn vl(&mut self) -> bool {
        let linked = self.linked.expect("vl: no preceding ll on this handle");
        self.obj.version.load(Ordering::Acquire) == linked
    }

    fn read(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.data.len(), "read: output slice length must equal W");
        // The seqlock read protocol, without installing a link (lock-free,
        // same starvation caveat as `ll`).
        loop {
            let v1 = self.obj.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            for (d, s) in out.iter_mut().zip(self.obj.data.iter()) {
                *d = s.load(Ordering::Acquire);
            }
            if self.obj.version.load(Ordering::Acquire) == v1 {
                return;
            }
        }
    }

    fn width(&self) -> usize {
        self.obj.data.len()
    }

    fn progress(&self) -> Progress {
        SeqLockLlSc::progress()
    }

    fn space(&self) -> SpaceEstimate {
        self.obj.space()
    }
}

/// [`MwFactory`] marker: seqlocks as a store backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqLockBackend;

impl MwFactory for SeqLockBackend {
    type Object = SeqLockLlSc;
    type Slot<'a> = SeqLockHandle;

    const NAME: &'static str = "seqlock";

    fn progress() -> Progress {
        Progress::LockFree
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        ConfigError::validate(n, w, initial, Self::max_processes())?;
        Ok(SeqLockLlSc::new(n, w, initial))
    }

    /// Leases the ordinary handle; a held `p` breaks the caller's
    /// exclusivity precondition and panics.
    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.claim(p)
    }

    fn object_shared_words(_n: usize, w: usize) -> usize {
        w + 1 // data + version word, matching `space()`
    }

    fn measured_shared_words(obj: &Self::Object) -> usize {
        obj.space().shared_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_a_lease() {
        let obj = SeqLockLlSc::new(2, 1, &[0]);
        let h = obj.try_claim(1).unwrap();
        assert_eq!(obj.try_claim(1).unwrap_err(), ClaimError::AlreadyClaimed { p: 1 });
        drop(h);
        let _re = obj.try_claim(1).expect("dropping the handle frees the id");
    }

    #[test]
    fn semantics() {
        let obj = SeqLockLlSc::new(2, 2, &[9, 9]);
        let mut hs = obj.handles();
        let mut v = [0u64; 2];
        hs[0].ll(&mut v);
        assert_eq!(v, [9, 9]);
        hs[1].ll(&mut v);
        assert!(hs[1].vl());
        assert!(hs[0].sc(&[1, 1]));
        assert!(!hs[1].vl());
        assert!(!hs[1].sc(&[2, 2]));
        hs[1].ll(&mut v);
        assert_eq!(v, [1, 1]);
    }

    #[test]
    fn no_torn_reads_under_storm() {
        let obj = SeqLockLlSc::new(3, 8, &[0; 8]);
        let mut hs = obj.handles();
        let mut reader = hs.remove(0);
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for mut h in hs {
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut v = [0u64; 8];
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.ll(&mut v);
                    if h.sc(&[i; 8]) {
                        i += 1;
                    }
                }
            }));
        }
        let mut v = [0u64; 8];
        for _ in 0..20_000 {
            reader.ll(&mut v);
            assert!(v.iter().all(|&x| x == v[0]), "torn read: {v:?}");
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn concurrent_counter_exact() {
        let obj = SeqLockLlSc::new(4, 1, &[0]);
        let handles = obj.handles();
        let mut joins = Vec::new();
        for mut h in handles {
            joins.push(std::thread::spawn(move || {
                let mut v = [0u64];
                let mut wins = 0;
                while wins < 2_000 {
                    h.ll(&mut v);
                    if h.sc(&[v[0] + 1]) {
                        wins += 1;
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(obj.data[0].load(Ordering::Relaxed), 8_000);
    }
}
