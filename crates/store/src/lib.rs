//! `mwllsc-store` — a sharded register store serving **millions of logical
//! `W`-word LL/SC variables** over pools of the paper's wait-free
//! [`MwLlSc`](mwllsc::MwLlSc) objects.
//!
//! # Why a store
//!
//! One `MwLlSc` object is a *single* `W`-word variable shared by up to
//! `N ≤ 2^22` processes ([`Layout::MAX_PROCESSES`](mwllsc::layout::Layout)
//! — the tagged substrate's 16-tag-bit floor), and all `N` processes
//! contend on one `X`/`Help`/`Bank` region. Neither property matches a
//! service that must hold millions of independent variables for millions
//! of users. The paper's `O(NW)` space bound is what makes the fix
//! affordable: because *per-object* cost is linear in the processes that
//! touch it, the classic sharding move — many small, cache-friendly
//! objects behind a deterministic router, each shared by a handful of
//! processes — costs `keys × O(cW)` instead of the `keys × O(c²W)` an
//! Anderson–Moir-style object would multiply out to.
//!
//! # Architecture
//!
//! ```text
//! key ──fnv──► shard s ──► SlotRegistry(c): one process id p per StoreHandle
//!  │
//!  └─────────► key table ──► per-key B::Object (c slots, W words), slot p borrowed
//!                             B: MwFactory = PaperBackend
//! ```
//!
//! * [`Store`] owns `S` cache-line-padded shards, each a
//!   [`SlotRegistry`](mwllsc::SlotRegistry) of `c = shard_capacity`
//!   process slots, and one key table of per-key objects: a directory of
//!   once-initialized 256-key chunks, each slot of which is initialized
//!   on the key's first touch. A 16M-key store allocates a 1 MiB
//!   directory up front and **nothing** per key until the key is first
//!   touched (then one 4 KiB chunk if the key's chunk is new, plus the
//!   object: `3cW + 3c + 1` words on the default backend). Key spaces
//!   above [`Store::MAX_KEYS`] are a typed error.
//! * The store is **generic over its backend**: the type parameter
//!   `B: `[`MwFactory`] decides what a shard's key table materializes.
//!   [`PaperBackend`] (the default — `Store::new` is unchanged) builds
//!   paper objects on the tagged substrate;
//!   `Store::<EpochBackend>::new_in(...)` runs the same router and lease
//!   discipline over the epoch pointer-swap substrate; the baseline
//!   markers in `llsc-baselines` (lock, seqlock, pointer-swap, AM-style)
//!   open the 2^24-key workload to every implementation in the suite,
//!   and `llsc_baselines::try_build_store(algo, config)` selects one at
//!   runtime behind [`DynStore`].
//! * [`Router`] maps keys to shards with an FNV-1a hash — deterministic,
//!   dependency-free, balanced (the router property tests assert ≤ 2× of
//!   ideal across 64 shards).
//! * Batched paths amortize the store layer:
//!   [`read_many`](StoreHandle::read_many) and the write-side
//!   [`update_many`](StoreHandle::update_many) /
//!   [`write_many`](StoreHandle::write_many) process a batch in
//!   `(shard, key)` order — router validation and every needed shard
//!   lease happen up front (all-or-nothing before the first
//!   read/write), the per-shard counters are paid once per shard run
//!   instead of once per key, and a run of equal keys is folded into
//!   **one LL/SC commit**: several logical updates per SC.
//! * [`StoreHandle`] leases **one slot per touched shard**, on demand, and
//!   holds it for its lifetime (the same lease discipline as
//!   [`MwLlSc::attach`](mwllsc::MwLlSc::attach)). Holding shard slot `p`
//!   exclusively means no other handle uses process id `p` on *any*
//!   object in that shard, so a per-key operation just borrows slot `p`
//!   of the key's object ([`MwFactory::borrow_slot`]). On the paper
//!   backends an operation takes no lock, no hash probe, no reference
//!   count and no lease read-modify-write: two `Acquire` loads find the
//!   object, one load and one store move the slot's `mybuf`, and the
//!   rest is the paper's own `O(W)` steps.
//! * [`Store::space`] / [`Store::stats`] roll every materialized object's
//!   [`SpaceReport`](mwllsc::SpaceReport) (including the substrate's
//!   retired-words backlog) into one honest [`StoreSpace`] /
//!   [`StoreStats`] report.
//!
//! # Progress guarantees, honestly
//!
//! Per-key [`read`](StoreHandle::read) performs one wait-free `O(W)` LL on
//! the key's object; [`update`](StoreHandle::update) is the standard
//! LL/SC retry loop — every LL and SC inside it is wait-free, the loop
//! itself is lock-free under per-key contention (like any LL/SC loop).
//! One engineering caveat: materialization blocks. An operation on a key
//! that is already materialized never waits; concurrent *first* touches of
//! one key, or of keys in one not-yet-allocated 256-key chunk, wait for
//! the first toucher to finish building (the `OnceLock` contract). No
//! lock is ever held across an LL/SC operation.
//!
//! # Quickstart
//!
//! ```
//! use mwllsc_store::{Store, StoreConfig};
//!
//! // 2^24 logical 2-word variables over 8 shards, ≤ 4 concurrent
//! // handles per shard — far beyond one object's 2^22 process ceiling.
//! let store = Store::try_new(StoreConfig::new(8, 4, 2, 1 << 24)).unwrap();
//! let mut h = store.attach();
//!
//! h.update(7, |v| v[0] += 1).unwrap();
//! h.update((1 << 24) - 1, |v| v[1] = 9).unwrap();
//! assert_eq!(h.read_vec(7).unwrap(), vec![1, 0]);
//!
//! let space = store.space();
//! assert_eq!(space.touched_keys, 2, "only touched keys are materialized");
//! assert_eq!(space.shared_words, 2 * space.per_key_shared_words);
//! ```

#![warn(missing_docs, missing_debug_implementations)]
#![forbid(unsafe_code)]

mod dynstore;
mod handle;
mod router;
mod store;
mod table;
mod tls;

pub use dynstore::{DynStore, DynStoreHandle};
pub use handle::StoreHandle;
pub use router::{fnv1a, Router};
pub use store::{Store, StoreConfig, StoreError, StoreSpace, StoreStats};
pub use tls::detach_current_thread;

// The backend vocabulary, re-exported so store consumers need not import
// from the core crate: the default paper backend plus the substrate
// ablations. Baseline backends (lock, seqlock, pointer-swap, AM-style)
// live in `llsc-baselines` together with `try_build_store`.
pub use mwllsc::{EpochBackend, MwFactory, PaperBackend, PaperRetryBackend};
