//! The capability trait every multiword LL/SC implementation is driven
//! through: [`MwHandle`], plus the [`Progress`] and [`SpaceEstimate`]
//! vocabulary types.
//!
//! This used to live in the `llsc-baselines` crate, which wired the whole
//! application layer to the paper's concrete [`Handle`] type. It now lives
//! here in the core so that *consumers* (the `mwllsc-apps` crate, the
//! benches, the experiment harness) can be generic over any
//! implementation — the paper's algorithm, the Anderson–Moir-style
//! reconstruction, locks, seqlocks, pointer swaps — while *producers* only
//! depend on the core crate they already build on.

use std::ops::Deref;
use std::sync::Arc;

use llsc_word::{EpochLlSc, NewCell, TaggedLlSc};

use crate::handle::Handle;
use crate::layout::Layout;
use crate::stats::Stats;
use crate::variable::{ConfigError, LlStrategy, MwLlSc};

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

/// A *constructor* capability: everything a pooling layer (such as
/// `mwllsc-store`) needs to materialize `W`-word LL/SC objects of one
/// implementation and operate on them through per-process slots — without
/// naming the concrete object type.
///
/// [`MwHandle`] abstracts over a handle that already exists; `MwFactory`
/// widens that to *object construction*, so a sharded key table can
/// materialize paper objects, substrate ablations, or baseline
/// implementations behind one generic parameter. Implementors are
/// zero-sized marker types (the "backend" vocabulary of the store crate):
/// [`PaperBackend`], [`EpochBackend`], [`PaperRetryBackend`] here, plus
/// one marker per baseline in `llsc-baselines`.
///
/// # Contract
///
/// * `try_build(n, w, init)` validates with [`ConfigError::validate`]
///   semantics: `n`/`w` nonzero, `init.len() == w`,
///   `n <= max_processes()`.
/// * `borrow_slot(obj, p)` is the one per-process path: a handle for
///   process id `p` for one operation, for a caller that already holds
///   `p` exclusively (see its exclusivity precondition). Dropping the
///   handle hands `p`'s state to the next borrow.
/// * `object_shared_words(n, w)` is the *exact* steady-state shared words
///   one object costs — consumers assert space rollups against it, so it
///   must match what the objects actually allocate.
///
/// # Examples
///
/// ```
/// use mwllsc::traits::{MwFactory, MwHandle, PaperBackend};
///
/// fn bump_first_word<B: MwFactory>(initial: &[u64]) -> u64 {
///     let obj = B::try_build(2, initial.len(), initial).unwrap();
///     // This caller is the only user of process id 0.
///     let mut h = B::borrow_slot(&obj, 0);
///     let mut v = vec![0u64; initial.len()];
///     loop {
///         h.ll(&mut v);
///         v[0] += 1;
///         if h.sc(&v) {
///             return v[0];
///         }
///     }
/// }
///
/// assert_eq!(bump_first_word::<PaperBackend>(&[41, 0]), 42);
/// ```
pub trait MwFactory: Send + Sync + 'static {
    /// The shared object type this backend builds.
    type Object: Send + Sync + 'static;

    /// The handle [`borrow_slot`](Self::borrow_slot) lends for one
    /// operation.
    type Slot<'a>: MwHandle
    where
        Self: 'a;

    /// Short display name used in table rows and store reports.
    const NAME: &'static str;

    /// The progress guarantee objects of this backend provide.
    fn progress() -> Progress;

    /// Largest admissible process count per object.
    fn max_processes() -> usize {
        usize::MAX
    }

    /// Builds one object for `n` processes and `w`-word values.
    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError>;

    /// Borrows process id `p`'s slot on `obj` for one operation — the
    /// per-key path of a pool such as the sharded store. The paper
    /// backends lend a [`Handle`] that borrows the object: it reads
    /// `mybuf_p` from the slot with one load and parks it back on drop,
    /// with no lease read-modify-write and no reference count. The
    /// baselines lease their ordinary handle.
    ///
    /// # Exclusivity precondition
    ///
    /// The caller must hold `p` exclusively across every object it
    /// borrows on — the store's shard-level slot lease gives process id
    /// `p` to one handle at a time — and must drop the returned handle
    /// before borrowing `p` on the same object again.
    ///
    /// # Panics
    ///
    /// May panic if the precondition is broken. The leasing backends
    /// always detect it. The paper backends always detect a live
    /// `claim`/`attach` lease of `p`, and in debug builds any second
    /// holder.
    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_>;

    /// Exact steady-state shared words one `(n, w)` object costs, as a
    /// closed-form formula (consumers size and assert against this
    /// without building anything).
    fn object_shared_words(n: usize, w: usize) -> usize;

    /// Shared words `obj` *actually reports* about itself (its own space
    /// accounting). Deliberately separate from
    /// [`object_shared_words`](Self::object_shared_words): rollups sum
    /// this measured figure and assert it equals `touched × formula`, so
    /// a formula that drifts from what the objects allocate is caught,
    /// not defined away.
    fn measured_shared_words(obj: &Self::Object) -> usize;

    /// 64-bit words currently held in `obj`'s reclamation backlog
    /// (retired but not yet freed); zero for statically-bounded backends.
    fn retired_words(obj: &Self::Object) -> usize {
        let _ = obj;
        0
    }

    /// `obj`'s instrumentation counters; all-zero where the backend has
    /// none (only the paper algorithm counts its helping paths).
    fn object_stats(obj: &Self::Object) -> Stats {
        let _ = obj;
        Stats::default()
    }
}

/// The paper's algorithm over the default tagged-CAS substrate — the
/// backend every consumer gets unless it asks for another.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperBackend;

/// The paper's algorithm over the [`EpochLlSc`] pointer-swap substrate:
/// same Figure-2 logic, but every single-word cell is an atomic pointer
/// with epoch-based reclamation — the substrate ablation, now available
/// as a store backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochBackend;

/// The paper's algorithm with the retry-loop LL ablation (lock-free, not
/// wait-free): measures what the helping machinery buys at store scale.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperRetryBackend;

/// Shared words of one paper object: `3NW` buffer words plus the
/// `3N + 1` single-word cells (`X`, `Bank[2N]`, `Help[N]`).
fn paper_shared_words(n: usize, w: usize) -> usize {
    3 * n * w + 3 * n + 1
}

impl MwFactory for PaperBackend {
    type Object = MwLlSc<TaggedLlSc>;
    type Slot<'a> = Handle<TaggedLlSc, &'a MwLlSc<TaggedLlSc>>;

    const NAME: &'static str = "paper";

    fn progress() -> Progress {
        Progress::WaitFree
    }

    fn max_processes() -> usize {
        Layout::MAX_PROCESSES
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        MwLlSc::try_new(n, w, initial)
    }

    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.borrow_slot(p)
    }

    fn object_shared_words(n: usize, w: usize) -> usize {
        paper_shared_words(n, w)
    }

    fn measured_shared_words(obj: &Self::Object) -> usize {
        obj.space().shared_words()
    }

    fn object_stats(obj: &Self::Object) -> Stats {
        obj.stats()
    }
}

impl MwFactory for EpochBackend {
    type Object = MwLlSc<EpochLlSc>;
    type Slot<'a> = Handle<EpochLlSc, &'a MwLlSc<EpochLlSc>>;

    const NAME: &'static str = "paper-epoch";

    fn progress() -> Progress {
        Progress::WaitFree
    }

    fn max_processes() -> usize {
        Layout::MAX_PROCESSES
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        MwLlSc::try_new_in(n, w, initial)
    }

    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.borrow_slot(p)
    }

    fn object_shared_words(n: usize, w: usize) -> usize {
        // The paper's layout (3NW buffer words + 3N + 1 cells), plus the
        // live heap node each epoch cell points at: the indirection is
        // the substrate's real cost and must not be hidden when this
        // backend sits next to in-place designs in a space table.
        paper_shared_words(n, w) + (3 * n + 1) * EpochLlSc::live_node_words()
    }

    fn measured_shared_words(obj: &Self::Object) -> usize {
        let space = obj.space();
        space.shared_words() + space.llsc_cells * EpochLlSc::live_node_words()
    }

    fn retired_words(obj: &Self::Object) -> usize {
        obj.substrate_retired_words()
    }

    fn object_stats(obj: &Self::Object) -> Stats {
        obj.stats()
    }
}

impl MwFactory for PaperRetryBackend {
    type Object = MwLlSc<TaggedLlSc>;
    type Slot<'a> = Handle<TaggedLlSc, &'a MwLlSc<TaggedLlSc>>;

    const NAME: &'static str = "paper-retry-ll";

    fn progress() -> Progress {
        Progress::LockFree
    }

    fn max_processes() -> usize {
        Layout::MAX_PROCESSES
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        MwLlSc::try_with_strategy(n, w, initial, LlStrategy::RetryLoop)
    }

    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.borrow_slot(p)
    }

    fn object_shared_words(n: usize, w: usize) -> usize {
        paper_shared_words(n, w)
    }

    fn measured_shared_words(obj: &Self::Object) -> usize {
        obj.space().shared_words()
    }

    fn object_stats(obj: &Self::Object) -> Stats {
        obj.stats()
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

    fn drive_factory<B: MwFactory>() {
        assert!(B::try_build(0, 1, &[0]).is_err(), "{}: zero processes", B::NAME);
        assert!(B::try_build(1, 0, &[]).is_err(), "{}: zero words", B::NAME);
        assert!(B::try_build(2, 2, &[1]).is_err(), "{}: wrong init len", B::NAME);
        let obj = B::try_build(2, 2, &[7, 8]).unwrap();
        let mut v = [0u64; 2];
        B::borrow_slot(&obj, 0).read(&mut v);
        assert_eq!(v, [7, 8], "{}: initial value", B::NAME);
        // Each borrow starts from the state the previous one handed back.
        drive(&mut B::borrow_slot(&obj, 1));
        drive(&mut B::borrow_slot(&obj, 1));
        drive(&mut B::borrow_slot(&obj, 0));
        B::borrow_slot(&obj, 0).read(&mut v);
        assert_eq!(v, [10, 8], "{}: three increments", B::NAME);
    }

    #[test]
    fn factory_backends_build_claim_and_lease() {
        drive_factory::<PaperBackend>();
        drive_factory::<EpochBackend>();
        drive_factory::<PaperRetryBackend>();
        assert_eq!(PaperBackend::progress(), Progress::WaitFree);
        assert_eq!(PaperRetryBackend::progress(), Progress::LockFree);
        assert_eq!(PaperBackend::object_shared_words(3, 2), 3 * 3 * 2 + 3 * 3 + 1);
        // The formula must match what the object actually allocates.
        let obj = PaperBackend::try_build(3, 2, &[0, 0]).unwrap();
        assert_eq!(obj.space().shared_words(), PaperBackend::object_shared_words(3, 2));
    }

    #[test]
    fn retry_strategy_reports_lock_free() {
        let obj = MwLlSc::try_with_strategy(1, 1, &[0], LlStrategy::RetryLoop).unwrap();
        let h = obj.attach().unwrap();
        assert_eq!(MwHandle::progress(&h), Progress::LockFree);
    }
}
