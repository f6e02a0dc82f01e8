//! The capability trait every multiword LL/SC implementation is driven
//! through: [`MwHandle`], plus the [`Progress`] and [`SpaceEstimate`]
//! vocabulary types.
//!
//! This used to live in the `llsc-baselines` crate, which wired the whole
//! application layer to the paper's concrete [`Handle`] type. It now lives
//! here in the core so that *consumers* (the `mwllsc-apps` crate, the
//! experiment harness) can be generic over any implementation — the paper's algorithm, the Anderson–Moir-style
//! reconstruction, locks, seqlocks, pointer swaps — while *producers* only
//! depend on the core crate they already build on.

use std::ops::Deref;

use llsc_word::NewCell;

use crate::handle::Handle;
use crate::variable::{LlStrategy, MwLlSc};

/// A per-process handle to some `W`-word LL/SC/VL object.
///
/// Semantics are those of the paper's Figure 1; progress guarantees differ
/// per implementation and are reported by [`progress`](Self::progress).
///
/// # Examples
///
/// Code written against `MwHandle` runs over every implementation:
///
/// ```
/// use mwllsc::{MwHandle, MwLlSc};
///
/// fn increment_first_word<H: MwHandle>(h: &mut H) -> u64 {
///     let mut v = vec![0u64; h.width()];
///     loop {
///         h.ll(&mut v);
///         v[0] += 1;
///         if h.sc(&v) {
///             return v[0];
///         }
///     }
/// }
///
/// let obj = MwLlSc::new(2, 3, &[0, 0, 0]);
/// let mut h = obj.attach().unwrap();
/// assert_eq!(increment_first_word(&mut h), 1);
/// ```
pub trait MwHandle: Send + std::fmt::Debug {
    /// Load-linked: reads the current value into `out`.
    fn ll(&mut self, out: &mut [u64]);

    /// Store-conditional: installs `v` iff no successful SC intervened
    /// since this process's latest `ll`.
    fn sc(&mut self, v: &[u64]) -> bool;

    /// Validate: `true` iff no successful SC intervened since the latest
    /// `ll`.
    fn vl(&mut self) -> bool;

    /// Reads the current value into `out` **without** linking: the outcome
    /// of a pending `sc`/`vl` for this process is unaffected.
    fn read(&mut self, out: &mut [u64]);

    /// Words per value.
    fn width(&self) -> usize;

    /// The progress guarantee this implementation provides.
    fn progress(&self) -> Progress;

    /// Space accounting for the object this handle operates on.
    fn space(&self) -> SpaceEstimate;
}

/// Progress guarantee provided by an implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Every operation completes in a bounded number of the caller's steps.
    WaitFree,
    /// System-wide progress; individual operations may retry unboundedly.
    LockFree,
    /// A stalled or crashed process can block everyone.
    Blocking,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::WaitFree => "wait-free",
            Self::LockFree => "lock-free",
            Self::Blocking => "blocking",
        })
    }
}

/// Asymptotic + exact space accounting for one object instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceEstimate {
    /// Exact shared 64-bit words allocated for the object (steady state,
    /// live structures only).
    pub shared_words: usize,
    /// 64-bit words currently held by retired-but-not-yet-reclaimed
    /// garbage (the reclamation limbo backlog), sampled at call time.
    /// Zero for the statically-bounded algorithms; for the pointer-swap
    /// substrates it is bounded by `O(threads × bag size)` but never
    /// zero-by-omission — the estimate is honest about what the process
    /// is actually holding.
    pub retired_words: usize,
    /// The asymptotic class, e.g. `"O(NW)"`.
    pub asymptotic: &'static str,
}

impl SpaceEstimate {
    /// Everything the object is currently holding: live structures plus
    /// the reclamation backlog.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.shared_words + self.retired_words
    }
}

// The paper's algorithm satisfies its own capability trait, over any
// substrate and however the handle holds its object.
impl<C: NewCell, O: Deref<Target = MwLlSc<C>> + Send> MwHandle for Handle<C, O> {
    fn ll(&mut self, out: &mut [u64]) {
        Handle::ll(self, out);
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        Handle::sc(self, v)
    }

    fn vl(&mut self) -> bool {
        Handle::vl(self)
    }

    fn read(&mut self, out: &mut [u64]) {
        Handle::read(self, out);
    }

    fn width(&self) -> usize {
        self.object().width()
    }

    fn progress(&self) -> Progress {
        match self.object().strategy() {
            LlStrategy::WaitFree => Progress::WaitFree,
            LlStrategy::RetryLoop => Progress::LockFree,
        }
    }

    fn space(&self) -> SpaceEstimate {
        SpaceEstimate {
            shared_words: self.object().space().shared_words(),
            // The paper's algorithm has no dynamic allocation, but the
            // *substrate* may (the epoch-pointer cells); report whatever
            // limbo backlog the cells are carrying rather than hiding it.
            retired_words: self.object().substrate_retired_words(),
            asymptotic: "O(NW)",
        }
    }
}

// Boxed and borrowed handles forward, so `Box<dyn MwHandle>` (the factory
// output) and `&mut H` (scoped lending, e.g. inside `MwLlSc::with`) slot
// into generic consumers directly.
impl<H: MwHandle + ?Sized> MwHandle for Box<H> {
    fn ll(&mut self, out: &mut [u64]) {
        (**self).ll(out);
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        (**self).sc(v)
    }

    fn vl(&mut self) -> bool {
        (**self).vl()
    }

    fn read(&mut self, out: &mut [u64]) {
        (**self).read(out);
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn progress(&self) -> Progress {
        (**self).progress()
    }

    fn space(&self) -> SpaceEstimate {
        (**self).space()
    }
}

impl<H: MwHandle + ?Sized> MwHandle for &mut H {
    fn ll(&mut self, out: &mut [u64]) {
        (**self).ll(out);
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        (**self).sc(v)
    }

    fn vl(&mut self) -> bool {
        (**self).vl()
    }

    fn read(&mut self, out: &mut [u64]) {
        (**self).read(out);
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn progress(&self) -> Progress {
        (**self).progress()
    }

    fn space(&self) -> SpaceEstimate {
        (**self).space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::MwLlSc;

    fn drive<H: MwHandle>(h: &mut H) {
        let w = h.width();
        let mut v = vec![0u64; w];
        h.ll(&mut v);
        assert!(h.vl());
        v[0] += 1;
        assert!(h.sc(&v));
        let mut r = vec![0u64; w];
        h.read(&mut r);
        assert_eq!(r, v);
    }

    #[test]
    fn handle_satisfies_trait_directly_boxed_and_borrowed() {
        let obj = MwLlSc::new(3, 2, &[0, 0]);
        let mut h = obj.attach().unwrap();
        drive(&mut h);
        drive(&mut (&mut h)); // &mut H forwarding
        let mut boxed: Box<dyn MwHandle> = Box::new(obj.attach().unwrap());
        drive(&mut boxed);
        assert_eq!(boxed.progress(), Progress::WaitFree);
        assert_eq!(boxed.space().shared_words, obj.space().shared_words());
        assert_eq!(boxed.space().asymptotic, "O(NW)");
    }

    #[test]
    fn retry_strategy_reports_lock_free() {
        let obj = MwLlSc::try_with_strategy(1, 1, &[0], LlStrategy::RetryLoop).unwrap();
        let h = obj.attach().unwrap();
        assert_eq!(MwHandle::progress(&h), Progress::LockFree);
    }
}
