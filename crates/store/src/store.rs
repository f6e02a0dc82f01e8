//! The sharded store: configuration, shards, lazy per-key objects, the
//! per-slot operation counters, and the rolled-up space/stats reports.

use mwllsc::sync::{AtomicU64, Ordering};
use std::sync::Arc;

use mwllsc::layout::Layout;
use mwllsc::{CachePadded, MwLlSc, SlotRegistry, Stats};

use crate::handle::StoreHandle;
use crate::router::Router;
use crate::table::{self, KeyTable};

/// Configuration for [`Store::try_new`].
///
/// `shards × shard_capacity` bounds the number of *concurrent*
/// [`StoreHandle`]s that can operate (each handle leases at most one slot
/// per shard); `keys` bounds the logical variable space, of which only
/// touched keys are ever materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards `S`.
    pub shards: usize,
    /// Process slots per shard `c` — the most handles that can touch one
    /// shard concurrently. Every per-key object is built for `c`
    /// processes, so per-key cost is `3cW + 3c + 1` words; each slot of
    /// each shard also has a 128-byte block of operation counters.
    pub shard_capacity: usize,
    /// Words per logical variable, `W`.
    pub width: usize,
    /// Logical key space: valid keys are `0..keys`, at most
    /// [`Store::MAX_KEYS`].
    pub keys: u64,
    /// Initial value of every variable (length `width`).
    pub initial: Vec<u64>,
}

impl StoreConfig {
    /// A configuration with every variable initially all-zero.
    #[must_use]
    pub fn new(shards: usize, shard_capacity: usize, width: usize, keys: u64) -> Self {
        Self { shards, shard_capacity, width, keys, initial: vec![0; width] }
    }

    /// Replaces the initial value (must have length `width`).
    #[must_use]
    pub fn with_initial(mut self, initial: &[u64]) -> Self {
        self.initial = initial.to_vec();
        self
    }
}

/// Errors from store construction and per-key operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// `shards` was zero.
    ZeroShards,
    /// `shard_capacity` was zero.
    ZeroShardCapacity,
    /// `width` was zero.
    ZeroWords,
    /// `keys` was zero.
    ZeroKeys,
    /// `keys` exceeds the largest key space the key table addresses
    /// ([`Store::MAX_KEYS`]).
    KeySpaceTooLarge {
        /// The requested key-space size.
        keys: u64,
        /// The largest admissible value.
        max: u64,
    },
    /// `shard_capacity` exceeds the per-object process ceiling
    /// ([`Layout::MAX_PROCESSES`]).
    ShardCapacityTooLarge {
        /// The requested per-shard capacity.
        capacity: usize,
        /// The largest admissible value.
        max: usize,
    },
    /// The initial value slice length differs from `width`.
    WrongInitLen {
        /// Configured word count `W`.
        expected: usize,
        /// Length of the supplied initial value.
        got: usize,
    },
    /// The key is outside the configured `0..keys` space.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The configured key-space size.
        capacity: u64,
    },
    /// A value slice's length differs from `width`.
    WrongValueLen {
        /// Configured word count `W`.
        expected: usize,
        /// Length of the supplied slice.
        got: usize,
    },
    /// All `shard_capacity` slots of the shard are leased by live
    /// [`StoreHandle`]s; drop one (or size `shard_capacity` to the
    /// worst-case number of concurrent handles per shard).
    ShardExhausted {
        /// The contested shard.
        shard: usize,
        /// Its slot capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "shard count must be at least 1"),
            Self::ZeroShardCapacity => write!(f, "shard capacity must be at least 1"),
            Self::ZeroWords => write!(f, "word count W must be at least 1"),
            Self::ZeroKeys => write!(f, "key space must hold at least 1 key"),
            Self::KeySpaceTooLarge { keys, max } => {
                write!(f, "key space of {keys} keys exceeds the addressable {max}")
            }
            Self::ShardCapacityTooLarge { capacity, max } => {
                write!(f, "shard capacity {capacity} exceeds the per-object process ceiling {max}")
            }
            Self::WrongInitLen { expected, got } => {
                write!(f, "initial value has {got} words, expected W = {expected}")
            }
            Self::KeyOutOfRange { key, capacity } => {
                write!(f, "key {key} outside the configured key space 0..{capacity}")
            }
            Self::WrongValueLen { expected, got } => {
                write!(f, "value slice has {got} words, expected W = {expected}")
            }
            Self::ShardExhausted { shard, capacity } => {
                write!(f, "all {capacity} slots of shard {shard} are leased by live store handles")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The operation counters of one (shard, slot) pair. Only the handle
/// leasing that slot writes them, so a count is a plain load and store,
/// not a read-modify-write. The shard's [`SlotRegistry::release`]
/// (`Release`) and the next holder's lease (`AcqRel`) order one holder's
/// counts before the next holder's, and [`Store::stats`] reads them with
/// `Relaxed`: live, monotone per field, and exact at quiescence.
#[derive(Default)]
pub(crate) struct SlotCounters {
    reads: AtomicU64,
    updates: AtomicU64,
    update_retries: AtomicU64,
    sc_successes: AtomicU64,
    lls_helped: AtomicU64,
    helps_given: AtomicU64,
}

impl SlotCounters {
    /// Counts one operation, or one batch run of equal keys, that made
    /// `reads` reads and `updates` logical updates through a single
    /// borrowed object handle. The handle's own counters `h` supply the
    /// rest: its successful SC, its failed ones (the retries) and its
    /// helping.
    pub(crate) fn count(&self, reads: u64, updates: u64, h: &Stats) {
        for (counter, n) in [
            (&self.reads, reads),
            (&self.updates, updates),
            (&self.update_retries, h.sc_attempts - h.sc_successes),
            (&self.sc_successes, h.sc_successes),
            (&self.lls_helped, h.lls_helped),
            (&self.helps_given, h.helps_given),
        ] {
            if n > 0 {
                counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            }
        }
    }
}

/// A sharded store of up to `keys` logical `W`-word LL/SC variables.
///
/// See the [crate docs](crate) for the architecture; construction is
/// [`Store::try_new`] (or the panicking [`Store::new`]), access is through
/// [`Store::attach`]. Every key's object is a paper [`MwLlSc`] on the
/// default tagged substrate.
pub struct Store {
    router: Router,
    /// Per-shard slot leases. A [`StoreHandle`] holding slot `p` of shard
    /// `si` owns process id `p` in *every* object of that shard, so it
    /// borrows slot `p` of any of them per operation
    /// ([`MwLlSc::borrow_slot`]) without a lease of its own.
    shards: Box<[CachePadded<SlotRegistry>]>,
    /// Counters of slot `p` of shard `si` at `si * shard_capacity + p`.
    counters: Box<[CachePadded<SlotCounters>]>,
    /// key → object, materialized on first touch.
    table: KeyTable<MwLlSc>,
    shard_capacity: usize,
    w: usize,
    keys: u64,
    initial: Box<[u64]>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("w", &self.w)
            .field("keys", &self.keys)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// The largest key space a store addresses: `keys` above this is a
    /// [`StoreError::KeySpaceTooLarge`]. The key table's directory — its
    /// one allocation proportional to `keys` — costs 1/16 byte per key, so
    /// this bounds it at 256 MiB.
    pub const MAX_KEYS: u64 = table::MAX_KEYS;

    /// Creates a store, reporting configuration problems as typed errors.
    ///
    /// Nothing is allocated per key here: the key table starts as a
    /// directory of empty chunks (1/16 byte per key) and a key's object is
    /// materialized on first touch.
    pub fn try_new(config: StoreConfig) -> Result<Arc<Self>, StoreError> {
        let StoreConfig { shards, shard_capacity, width, keys, initial } = config;
        if shards == 0 {
            return Err(StoreError::ZeroShards);
        }
        if shard_capacity == 0 {
            return Err(StoreError::ZeroShardCapacity);
        }
        if width == 0 {
            return Err(StoreError::ZeroWords);
        }
        if keys == 0 {
            return Err(StoreError::ZeroKeys);
        }
        if keys > table::MAX_KEYS {
            return Err(StoreError::KeySpaceTooLarge { keys, max: table::MAX_KEYS });
        }
        if shard_capacity > Layout::MAX_PROCESSES {
            return Err(StoreError::ShardCapacityTooLarge {
                capacity: shard_capacity,
                max: Layout::MAX_PROCESSES,
            });
        }
        if initial.len() != width {
            return Err(StoreError::WrongInitLen { expected: width, got: initial.len() });
        }
        Ok(Arc::new(Self {
            router: Router::new(shards),
            shards: (0..shards)
                .map(|_| CachePadded::new(SlotRegistry::new(shard_capacity)))
                .collect(),
            counters: (0..shards * shard_capacity).map(|_| CachePadded::default()).collect(),
            table: KeyTable::new(keys),
            shard_capacity,
            w: width,
            keys,
            initial: initial.into_boxed_slice(),
        }))
    }

    /// [`try_new`](Self::try_new), panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new` reports as errors.
    #[must_use]
    pub fn new(config: StoreConfig) -> Arc<Self> {
        // lint: panic-ok(documented `# Panics` convenience wrapper; try_new is the typed path)
        Self::try_new(config).unwrap_or_else(|e| panic!("Store::new: {e}"))
    }

    /// Attaches a [`StoreHandle`].
    ///
    /// Always succeeds: shard slots are leased lazily, one per shard the
    /// handle actually touches, so capacity pressure surfaces as a typed
    /// [`StoreError::ShardExhausted`] on the first operation that needs a
    /// full shard — not here.
    #[must_use]
    pub fn attach(self: &Arc<Self>) -> StoreHandle {
        StoreHandle::new(Arc::clone(self))
    }

    /// Number of shards `S`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Process slots per shard, `c`.
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Words per logical variable, `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Size of the logical key space (valid keys are `0..key_capacity()`).
    #[must_use]
    pub fn key_capacity(&self) -> u64 {
        self.keys
    }

    /// Number of logical keys materialized so far, counted by walking the
    /// key table (no per-operation counter keeps it).
    #[must_use]
    pub fn touched_keys(&self) -> usize {
        self.table.iter().count()
    }

    /// Number of shard slots currently leased by live [`StoreHandle`]s.
    #[must_use]
    pub fn live_slot_leases(&self) -> usize {
        self.shards.iter().map(|s| s.live()).sum()
    }

    /// The router (pure, deterministic key→shard function).
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// Validates `key` and returns its shard index — the public face of
    /// the routing step, for ownership layers (e.g. `mwllsc-mesh`) that
    /// partition shards across workers and must agree with the store on
    /// which shard a key lives in.
    pub fn try_route(&self, key: u64) -> Result<usize, StoreError> {
        self.route(key)
    }

    /// Validates `key` and returns its shard index.
    pub(crate) fn route(&self, key: u64) -> Result<usize, StoreError> {
        if key >= self.keys {
            return Err(StoreError::KeyOutOfRange { key, capacity: self.keys });
        }
        Ok(self.router.shard_of(key))
    }

    /// Shard `si`'s slot registry.
    pub(crate) fn registry(&self, si: usize) -> &SlotRegistry {
        &self.shards[si] // si comes from router.shard_of, bounded by shard count
    }

    /// The counters of slot `p` in shard `si`, written only by its
    /// leaseholder.
    pub(crate) fn counters(&self, si: usize, p: usize) -> &SlotCounters {
        // si < shards and p < shard_capacity, so the index is in bounds.
        &self.counters[si * self.shard_capacity + p]
    }

    /// The object for `key` (already checked by [`route`](Self::route)),
    /// materialized on first touch. A hit is two `Acquire` loads.
    #[inline]
    pub(crate) fn object(&self, key: u64) -> &Arc<MwLlSc> {
        self.table.get_or_init(key, || {
            MwLlSc::try_new(self.shard_capacity, self.w, &self.initial)
                .expect("per-key config was validated at store construction") // lint: panic-ok(try_new validated this exact config at store construction)
        })
    }

    /// Rolls every materialized object's space accounting into one
    /// [`StoreSpace`].
    ///
    /// `shared_words` sums what each object *measures* about itself
    /// ([`MwLlSc::space`]), while `per_key_shared_words` is the paper's
    /// closed-form `3cW + 3c + 1` — the store tests assert `shared_words
    /// == touched × per_key_shared_words`, which keeps the formula honest
    /// against the actual allocations rather than defining the invariant
    /// away.
    #[must_use]
    pub fn space(&self) -> StoreSpace {
        let mut shared_words = 0;
        let mut touched_keys = 0;
        for obj in self.table.iter() {
            touched_keys += 1;
            shared_words += obj.space().shared_words();
        }
        let (c, w) = (self.shard_capacity, self.w);
        StoreSpace {
            shards: self.shards.len(),
            key_capacity: self.keys,
            touched_keys,
            shared_words,
            per_key_shared_words: 3 * c * w + 3 * c + 1,
        }
    }

    /// Sums the counters of every (shard, slot) into one live
    /// [`StoreStats`].
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            objects: self.touched_keys(),
            live_slot_leases: self.live_slot_leases(),
            ..Default::default()
        };
        for c in self.counters.iter() {
            s.reads += c.reads.load(Ordering::Relaxed);
            s.updates += c.updates.load(Ordering::Relaxed);
            s.update_retries += c.update_retries.load(Ordering::Relaxed);
            s.sc_successes += c.sc_successes.load(Ordering::Relaxed);
            s.lls_helped += c.lls_helped.load(Ordering::Relaxed);
            s.helps_given += c.helps_given.load(Ordering::Relaxed);
        }
        // Every LL/SC round of a store op is one LL then one SC, and every
        // SC that did not commit is a retry.
        s.sc_attempts = s.sc_successes + s.update_retries;
        s.ll_ops = s.sc_attempts;
        s
    }
}

/// Honest space rollup for one [`Store`], in 64-bit words.
///
/// `shared_words` counts the exact per-object footprint
/// ([`MwLlSc::space`]) of every *materialized* object; keys never touched
/// cost nothing, which is the whole point of lazy initialization. The invariant
/// `shared_words == touched_keys × per_key_shared_words` is asserted by
/// the store stress tests. Word counts are logical registers (the paper's
/// unit); allocator and alignment slack, the key table's slots and the
/// objects' own headers are excluded by design (see [`CachePadded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreSpace {
    /// Shard count `S`.
    pub shards: usize,
    /// Configured logical key space.
    pub key_capacity: u64,
    /// Keys materialized by a first touch.
    pub touched_keys: usize,
    /// Live shared words over all materialized objects: `touched ×
    /// per_key_shared_words`.
    pub shared_words: usize,
    /// Cost of one materialized key: the paper's `3cW + 3c + 1` words.
    pub per_key_shared_words: usize,
}

impl StoreSpace {
    /// Everything the store currently holds, in words. The tagged cells
    /// retire nothing, so this is `shared_words`.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.shared_words
    }

    /// What materializing the *entire* key space up front would cost, in
    /// words — the figure lazy initialization avoids.
    #[must_use]
    pub fn eager_words(&self) -> u128 {
        u128::from(self.key_capacity) * self.per_key_shared_words as u128
    }
}

/// Aggregated instrumentation for one [`Store`]: its operation counts and
/// the paper-object counters ([`Stats`]) of the LL/SC rounds they ran.
///
/// The counters are owned per (shard, slot), written only by the handle
/// leasing that slot, and summed by [`Store::stats`]. A snapshot taken
/// while handles operate is live, not atomic; each counter is monotone
/// from one snapshot to the next, and a snapshot at quiescence is exact.
/// A batch counts each run of equal keys as it commits, so one cut short
/// by a panicking closure counts the runs it committed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Materialized per-key objects.
    pub objects: usize,
    /// Shard slots currently leased by live handles.
    pub live_slot_leases: usize,
    /// Completed [`StoreHandle::read`]-family operations.
    pub reads: u64,
    /// Completed [`StoreHandle::update`]-family logical updates.
    pub updates: u64,
    /// Extra LL/SC rounds taken by updates that lost an SC race.
    pub update_retries: u64,
    /// LLs the updates ran: one per LL/SC round, so `sc_attempts`.
    pub ll_ops: u64,
    /// SCs the updates ran: `sc_successes + update_retries`.
    pub sc_attempts: u64,
    /// Successful SCs: one per update, or per batch run of equal keys.
    pub sc_successes: u64,
    /// Helped LLs, over reads and updates.
    pub lls_helped: u64,
    /// Buffers the updates' SCs handed to helped LLs.
    pub helps_given: u64,
}

#[cfg(test)]
mod tests {
    use mwllsc::layout::Layout;

    use super::*;

    #[test]
    fn construction_validates() {
        let ok = StoreConfig::new(4, 2, 2, 100);
        assert!(Store::try_new(ok.clone()).is_ok());
        assert_eq!(
            Store::try_new(StoreConfig { shards: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroShards
        );
        assert_eq!(
            Store::try_new(StoreConfig { shard_capacity: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroShardCapacity
        );
        assert_eq!(
            Store::try_new(StoreConfig { width: 0, initial: vec![], ..ok.clone() }).unwrap_err(),
            StoreError::ZeroWords
        );
        assert_eq!(
            Store::try_new(StoreConfig { keys: 0, ..ok.clone() }).unwrap_err(),
            StoreError::ZeroKeys
        );
        assert_eq!(
            Store::try_new(StoreConfig { shard_capacity: Layout::MAX_PROCESSES + 1, ..ok.clone() })
                .unwrap_err(),
            StoreError::ShardCapacityTooLarge {
                capacity: Layout::MAX_PROCESSES + 1,
                max: Layout::MAX_PROCESSES
            }
        );
        assert_eq!(
            Store::try_new(StoreConfig { initial: vec![1], ..ok }).unwrap_err(),
            StoreError::WrongInitLen { expected: 2, got: 1 }
        );
    }

    #[test]
    fn lazy_materialization_counts_touches_once() {
        let store = Store::new(StoreConfig::new(4, 2, 1, 1000));
        assert_eq!(store.touched_keys(), 0);
        let a = store.object(17);
        let b = store.object(17);
        assert!(Arc::ptr_eq(a, b), "one object per key");
        assert_eq!(store.touched_keys(), 1);
        assert_eq!(store.space().shared_words, store.space().per_key_shared_words);
    }

    #[test]
    fn route_rejects_out_of_range_keys() {
        let store = Store::new(StoreConfig::new(2, 1, 1, 10));
        assert!(store.route(9).is_ok());
        assert_eq!(
            store.route(10).unwrap_err(),
            StoreError::KeyOutOfRange { key: 10, capacity: 10 }
        );
    }

    #[test]
    fn key_spaces_beyond_the_table_are_a_typed_error() {
        let max = Store::MAX_KEYS;
        assert_eq!(
            Store::try_new(StoreConfig::new(2, 1, 1, max + 1)).unwrap_err(),
            StoreError::KeySpaceTooLarge { keys: max + 1, max }
        );
        assert_eq!(
            Store::try_new(StoreConfig::new(2, 1, 1, u64::MAX)).unwrap_err(),
            StoreError::KeySpaceTooLarge { keys: u64::MAX, max }
        );
        assert!(StoreError::KeySpaceTooLarge { keys: 9, max: 8 }.to_string().contains("9 keys"));
    }

    #[test]
    fn eager_words_quantifies_what_lazy_avoids() {
        let store = Store::new(StoreConfig::new(64, 2, 2, 1 << 24));
        let space = store.space();
        assert_eq!(space.shared_words, 0);
        assert_eq!(space.per_key_shared_words, 3 * 2 * 2 + 3 * 2 + 1);
        assert_eq!(space.eager_words(), (1u128 << 24) * 19);
    }

    #[test]
    fn error_messages_render() {
        assert!(StoreError::ShardExhausted { shard: 3, capacity: 8 }
            .to_string()
            .contains("shard 3"));
        assert!(StoreError::KeyOutOfRange { key: 5, capacity: 4 }.to_string().contains("0..4"));
        assert!(StoreError::ShardCapacityTooLarge { capacity: 9, max: 8 }
            .to_string()
            .contains("ceiling 8"));
    }
}
