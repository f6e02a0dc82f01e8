//! The blocking baseline: a mutex around `(value, version)`.
//!
//! This is what the paper's introduction argues *against* — locks impose
//! waiting, convoying, priority inversion, and zero fault tolerance (a
//! crashed lock-holder wedges the object forever). It is included because
//! it is the obvious engineering default and anchors the comparison: the
//! wait-free algorithms must be competitive with it on throughput while
//! strictly beating it on progress guarantees.
//!
//! Space: `W + O(1)` words — the lower bound any implementation shares.

use mwllsc::sync::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mwllsc::{ClaimError, ConfigError, MwFactory};

use crate::traits::{MwHandle, Progress, SpaceEstimate};

struct Inner {
    value: Vec<u64>,
    /// Bumped on every successful SC; LL links against it.
    version: u64,
}

/// A `W`-word LL/SC/VL object protected by a mutex.
pub struct LockLlSc {
    inner: Mutex<Inner>,
    n: usize,
    w: usize,
    claimed: Box<[AtomicBool]>,
}

impl std::fmt::Debug for LockLlSc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockLlSc").field("n", &self.n).field("w", &self.w).finish()
    }
}

impl LockLlSc {
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
            inner: Mutex::new(Inner { value: initial.to_vec(), version: 0 }),
            n,
            w,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Locks the inner state. The critical sections in this module never
    /// panic while holding the lock with the state inconsistent, so a
    /// poisoned mutex (panicking peer) can still be used safely.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Leases the handle for process `p`. Fails while another live handle
    /// holds the id; dropping the handle frees it (the same lease
    /// semantics as [`MwLlSc::claim`](mwllsc::MwLlSc::claim)).
    pub fn try_claim(self: &Arc<Self>, p: usize) -> Result<LockHandle, ClaimError> {
        if p >= self.n {
            return Err(ClaimError::OutOfRange { p, n: self.n });
        }
        if self.claimed[p].swap(true, Ordering::AcqRel) {
            return Err(ClaimError::AlreadyClaimed { p });
        }
        Ok(LockHandle { obj: Arc::clone(self), p, linked_version: None })
    }

    /// [`try_claim`](Self::try_claim), panicking on errors.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or currently-leased id.
    #[must_use]
    pub fn claim(self: &Arc<Self>, p: usize) -> LockHandle {
        self.try_claim(p).unwrap_or_else(|e| panic!("claim: {e}"))
    }

    /// All `N` handles, in process order.
    #[must_use]
    pub fn handles(self: &Arc<Self>) -> Vec<LockHandle> {
        (0..self.n).map(|p| self.claim(p)).collect()
    }

    /// Progress guarantee: blocking.
    #[must_use]
    pub fn progress() -> Progress {
        Progress::Blocking
    }

    /// Exact shared-space accounting.
    #[must_use]
    pub fn space(&self) -> SpaceEstimate {
        SpaceEstimate {
            shared_words: self.w + 2, // value + version + lock word
            retired_words: 0,         // no dynamic allocation, ever
            asymptotic: "O(W)",
        }
    }
}

/// Per-process handle to a [`LockLlSc`] (a lease: dropping it frees the
/// process id for a later claim).
pub struct LockHandle {
    obj: Arc<LockLlSc>,
    p: usize,
    linked_version: Option<u64>,
}

impl Drop for LockHandle {
    fn drop(&mut self) {
        self.obj.claimed[self.p].store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for LockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockHandle").field("linked", &self.linked_version.is_some()).finish()
    }
}

impl MwHandle for LockHandle {
    fn ll(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "ll: output slice length must equal W");
        let g = self.obj.lock();
        out.copy_from_slice(&g.value);
        self.linked_version = Some(g.version);
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        assert_eq!(v.len(), self.obj.w, "sc: value slice length must equal W");
        let linked = self.linked_version.expect("sc: no preceding ll on this handle");
        let mut g = self.obj.lock();
        if g.version == linked {
            g.value.copy_from_slice(v);
            g.version += 1;
            // Our own successful SC invalidates the link (paper semantics).
            self.linked_version = Some(linked.wrapping_sub(1));
            true
        } else {
            false
        }
    }

    fn vl(&mut self) -> bool {
        let linked = self.linked_version.expect("vl: no preceding ll on this handle");
        self.obj.lock().version == linked
    }

    fn read(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "read: output slice length must equal W");
        // Copy under the lock without touching the link.
        out.copy_from_slice(&self.obj.lock().value);
    }

    fn width(&self) -> usize {
        self.obj.w
    }

    fn progress(&self) -> Progress {
        LockLlSc::progress()
    }

    fn space(&self) -> SpaceEstimate {
        self.obj.space()
    }
}

/// [`MwFactory`] marker: mutex-protected values as a store backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockBackend;

impl MwFactory for LockBackend {
    type Object = LockLlSc;
    type Slot<'a> = LockHandle;

    const NAME: &'static str = "lock";

    fn progress() -> Progress {
        Progress::Blocking
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        ConfigError::validate(n, w, initial, Self::max_processes())?;
        Ok(LockLlSc::new(n, w, initial))
    }

    /// Leases the ordinary handle; a held `p` breaks the caller's
    /// exclusivity precondition and panics.
    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.claim(p)
    }

    fn object_shared_words(_n: usize, w: usize) -> usize {
        w + 2 // value + version + lock word, matching `space()`
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
        let obj = LockLlSc::new(2, 1, &[0]);
        let h = obj.try_claim(0).unwrap();
        assert_eq!(obj.try_claim(0).unwrap_err(), ClaimError::AlreadyClaimed { p: 0 });
        assert_eq!(obj.try_claim(2).unwrap_err(), ClaimError::OutOfRange { p: 2, n: 2 });
        drop(h);
        let _re = obj.try_claim(0).expect("dropping the handle frees the id");
    }

    #[test]
    fn semantics() {
        let obj = LockLlSc::new(2, 2, &[1, 2]);
        let mut hs = obj.handles();
        let mut v = [0u64; 2];
        hs[0].ll(&mut v);
        assert_eq!(v, [1, 2]);
        hs[1].ll(&mut v);
        assert!(hs[0].sc(&[3, 4]));
        assert!(!hs[1].sc(&[5, 6]));
        assert!(!hs[0].sc(&[7, 8]), "own SC consumed the link");
        hs[1].ll(&mut v);
        assert_eq!(v, [3, 4]);
        assert!(hs[1].vl());
    }

    #[test]
    fn concurrent_counter_exact() {
        let obj = LockLlSc::new(4, 1, &[0]);
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
        assert_eq!(obj.lock().value[0], 8_000);
    }
}
