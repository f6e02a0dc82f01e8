//! Single-word LL/SC/VL objects built from compare-and-swap.
//!
//! The multiword algorithm of Jayanti & Petrovic (TR2004-523 / ICDCS 2005)
//! assumes *word-sized* LL/SC/VL objects that additionally support plain
//! `read` and `write`. No mainstream processor exposes true LL/SC (hardware
//! variants are the restricted RLL/RSC, and x86-class machines expose only
//! CAS), so this crate closes the hardware–algorithm gap: it provides
//! software single-word LL/SC objects realized from `AtomicU64`
//! compare-and-swap.
//!
//! Two realizations are provided, both implementing the [`LlScCell`] trait:
//!
//! * [`TaggedLlSc`] — the value occupies the low `value_bits` bits of one
//!   64-bit word and a monotonically increasing *tag* occupies the rest.
//!   Every successful SC (and every `write`) bumps the tag, so a
//!   compare-and-swap against the word observed at LL time succeeds exactly
//!   when no successful SC/write intervened. This is the classic
//!   tag/sequence defence against the ABA problem; the residual failure mode
//!   (tag wrap-around, `2^(64-value_bits)` successful SCs between one
//!   process's LL and its SC) is quantified by
//!   [`TaggedLlSc::wraparound_bound`] and is astronomically far away for the
//!   field widths the multiword algorithm needs.
//! * [`EpochLlSc`] — the value lives in a heap node and the object is an
//!   atomic pointer; retired nodes are reclaimed by the hand-rolled
//!   epoch-based reclamation subsystem in [`smr`] as soon as no reader
//!   can still observe them, so memory stays bounded under sustained SC
//!   traffic (see [`deferred`] for the discipline). Values keep the full
//!   64-bit width and the uniqueness of the per-node sequence number is
//!   unbounded (64-bit).
//!
//! # Link tokens instead of hidden per-process state
//!
//! Hardware LL/SC keeps the "link" (the reservation established by LL) in
//! processor state. A software object would need one link slot per process
//! *per object*, which for the multiword algorithm's `Θ(N)` single-word
//! objects would silently re-introduce a `Θ(N²)` space term and falsify the
//! paper's `O(NW)` claim. We avoid that by making the link explicit: `ll`
//! returns a [`Link`] token that the caller stores (process-locally) and
//! passes back to `sc`/`vl`. Each process of the multiword algorithm holds
//! only `O(1)` links at a time, so the space accounting of the paper is
//! preserved exactly.
//!
//! # Semantics
//!
//! For an object `X` and a process `p` holding `link` from its latest
//! `X.ll()`:
//!
//! * `X.sc(link, v)` succeeds iff no successful SC and no `write` on `X`
//!   occurred since that LL; on success `X`'s value becomes `v`.
//! * `X.vl(link)` returns `true` iff no successful SC/write occurred since
//!   that LL.
//! * `X.read()` / `X.write(v)` are plain atomic read/write (a `write`
//!   invalidates all outstanding links, like a successful SC).
//!
//! All operations are wait-free: each is a constant number of machine
//! instructions (`sc` is a single `compare_exchange`; `write` is a bounded
//! retry loop only in the tagged realization — see
//! [`TaggedLlSc::write`] for why the loop is lock-free and how the
//! multiword algorithm only ever calls it from a single writer at a time).
//!
//! # Memory ordering
//!
//! [`TaggedLlSc`] uses `SeqCst` everywhere. The correctness proof of the
//! multiword algorithm reasons about a single global time order of events
//! on the word-sized objects; `SeqCst` gives exactly that, so the paper's
//! proof transfers without a weak-memory re-derivation, and the tagged
//! realization is the multiword algorithm's default substrate. The
//! measured cost of this conservative choice is one of the ablations in
//! the benchmark suite.
//!
//! [`EpochLlSc`]'s cell ([`DeferredSwapCell`]) instead uses the *minimal*
//! per-access orderings — Acquire loads paired with the Release
//! publication CAS, Relaxed where the value is discarded — with each
//! choice justified at its site. Two things keep this sound: every
//! LL/SC/VL decision is keyed on the sequence number of one single atomic
//! pointer, whose modification order is total by coherence alone; and
//! every operation begins by pinning an epoch guard, which executes a
//! `SeqCst` fence (see [`smr`]), preserving an operation-level global
//! time order across cells.

#![warn(missing_docs, missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod deferred;
mod epoch;
pub mod smr;
pub mod sync;
mod tagged;

/// Serializes the unit tests that either hold epoch pins for extended
/// stretches or assert backlog bounds: the epoch state is process-global,
/// so a pin held by one concurrently-running test would block reclamation
/// and flake another test's bound. Tests that pin from more threads than
/// the host has cores count as long holders: a pinned thread that is
/// preempted keeps its pin for a whole time slice. (The integration suite in
/// `tests/reclamation.rs` has its own copy of this gate.)
#[cfg(test)]
pub(crate) fn testgate() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use deferred::{DeferredSwapCell, Pinned};
pub use epoch::EpochLlSc;
pub use tagged::TaggedLlSc;

use core::fmt::Debug;

/// A link token returned by `ll` and consumed by `sc`/`vl`.
///
/// The token is `Copy` and intentionally opaque: it encodes everything the
/// realization needs to decide whether the word changed since the LL.
/// Passing a token from object `A` to object `B` is a logic error; in debug
/// builds the object identity is checked.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Realization-specific snapshot (raw tagged word, or node sequence).
    pub(crate) snapshot: u64,
    /// Object identity for debug-mode misuse detection.
    #[cfg(debug_assertions)]
    pub(crate) owner: usize,
}

impl Debug for Link {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Link").field("snapshot", &self.snapshot).finish()
    }
}

impl Link {
    /// Returns the raw snapshot carried by this link.
    ///
    /// Exposed for diagnostics and tests; the value is
    /// realization-specific and should not be interpreted by callers.
    #[must_use]
    pub fn raw(&self) -> u64 {
        self.snapshot
    }
}

/// A single-word (64-bit-value) LL/SC/VL/read/write object.
///
/// This is the primitive interface the multiword algorithm of Jayanti &
/// Petrovic is written against. See the crate docs for the exact semantics.
pub trait LlScCell: Send + Sync {
    /// Load-linked: returns the current value and a [`Link`] that a later
    /// [`sc`](Self::sc) or [`vl`](Self::vl) validates against.
    fn ll(&self) -> (u64, Link);

    /// Store-conditional: installs `v` and returns `true` iff no successful
    /// SC or `write` occurred since the LL that produced `link`.
    fn sc(&self, link: Link, v: u64) -> bool;

    /// Validate: returns `true` iff no successful SC or `write` occurred
    /// since the LL that produced `link`.
    fn vl(&self, link: Link) -> bool;

    /// Plain atomic read of the current value.
    fn read(&self) -> u64;

    /// Plain atomic write. Invalidates every outstanding link.
    fn write(&self, v: u64);

    /// The largest value this cell can store (inclusive).
    fn max_value(&self) -> u64;

    /// 64-bit words currently held by nodes this cell has retired but the
    /// reclamation subsystem has not yet freed. Zero for realizations with
    /// no transient garbage (the tagged cell); consumers add it to their
    /// space accounting so estimates never silently omit the limbo
    /// backlog.
    fn retired_words(&self) -> usize {
        0
    }

    /// Attaches an algorithmic label `(name, a, b)` to the cell's shared
    /// word(s) for model-checked builds (see [`sync::hook::Label`]). A
    /// no-op by default and in non-model builds.
    fn model_label(&self, _name: &'static str, _a: u32, _b: u32) {}
}

/// Construction of an [`LlScCell`] sized for a given value range.
///
/// The multiword algorithm is generic over its single-word substrate; this
/// trait lets it construct whichever realization it is instantiated with.
pub trait NewCell: LlScCell + Sized {
    /// Creates a cell able to store values `0..=max`, initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `init > max` or the realization cannot represent `max`.
    fn new_cell(max: u64, init: u64) -> Self;
}

impl NewCell for TaggedLlSc {
    fn new_cell(max: u64, init: u64) -> Self {
        assert!(init <= max, "init {init} > max {max}");
        TaggedLlSc::with_max(max, init)
    }
}

impl NewCell for EpochLlSc {
    fn new_cell(max: u64, init: u64) -> Self {
        assert!(init <= max, "init {init} > max {max}");
        EpochLlSc::new(init)
    }
}

/// Number of bits needed to represent values `0..=max` (at least 1).
///
/// Used by callers to size the value field of a [`TaggedLlSc`].
///
/// ```
/// assert_eq!(llsc_word::bits_for(0), 1);
/// assert_eq!(llsc_word::bits_for(1), 1);
/// assert_eq!(llsc_word::bits_for(5), 3);
/// assert_eq!(llsc_word::bits_for(255), 8);
/// assert_eq!(llsc_word::bits_for(256), 9);
/// ```
#[must_use]
pub fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
        for max in 1u64..1000 {
            let b = bits_for(max);
            assert!(max < (1u64 << b), "max={max} b={b}");
            assert!(b == 1 || max >= (1u64 << (b - 1)), "max={max} b={b}");
        }
    }
}
