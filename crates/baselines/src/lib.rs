//! Comparison baselines for multiword LL/SC.
//!
//! The paper's claim is relative: *same time, factor-`N` less space than
//! the previous best wait-free construction*. This crate supplies the
//! comparators that make the claim measurable (experiments E1 and E8):
//!
//! | implementation | progress | space | role |
//! |---|---|---|---|
//! | [`AmStyleLlSc`] | wait-free | `Θ(N²W)` | the prior state of the art's space class (Anderson–Moir 1995), reconstructed — see the module docs for exactly what is and is not claimed |
//! | [`LockLlSc`] | blocking | `O(W)` | the engineering default the lock-free literature argues against |
//! | [`SeqLockLlSc`] | lock-free reads | `O(W)` | minimal-space racy design; starvable readers, crash-fragile writers |
//! | [`PtrSwapLlSc`] | wait-free ops | `O(W)` live + unbounded garbage | the "just use GC/epochs" design whose space discipline the paper's bounded buffers replace |
//!
//! All of them (and the paper's algorithm, via an adapter) implement
//! [`MwHandle`], so the harness drives them identically; [`build`]
//! constructs any of them from an [`Algo`] tag. The comparison is object
//! against object, where the paper makes it: the sharded store above
//! (`mwllsc-store`) serves the paper's object only.
//!
//! The baselines' `claim` is a *lease*, like the core algorithm's:
//! dropping a handle frees its process id for a later
//! [`try_claim`](LockLlSc::try_claim).

#![warn(missing_docs, missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod am_style;
mod buffers;
mod factory;
mod lock;
mod ptrswap;
mod seqlock;
mod traits;

pub use am_style::{AmHandle, AmStyleLlSc};
pub use factory::{build, try_build, Algo};
pub use lock::{LockHandle, LockLlSc};
pub use ptrswap::{PtrSwapHandle, PtrSwapLlSc};
pub use seqlock::{SeqLockHandle, SeqLockLlSc};
pub use traits::{MwHandle, Progress, SpaceEstimate};
