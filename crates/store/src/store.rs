//! The sharded store: configuration, shards, lazy per-key objects, and
//! the rolled-up space/stats reports.

use mwllsc::sync::{AtomicU64, Ordering};
use std::sync::Arc;

use mwllsc::{CachePadded, MwFactory, PaperBackend, SlotRegistry};

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
    /// processes, so per-key cost is `3cW + 3c + 1` words.
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
    /// `shard_capacity` exceeds the backend's per-object process ceiling
    /// ([`MwFactory::max_processes`] — `Layout::MAX_PROCESSES` for the
    /// paper backends).
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

/// One shard: the slot registry for handle leases, plus its operation
/// counters.
pub(crate) struct Shard {
    /// Shard-level slot leases. A [`StoreHandle`] holding slot `p` here
    /// owns process id `p` in *every* object of this shard, so it can
    /// borrow slot `p` of any of them per operation
    /// ([`MwFactory::borrow_slot`]) without a lease of its own.
    pub(crate) registry: SlotRegistry,
    // Operation counters live *per shard* (inside the shard's padded
    // block), not on the `Store`: a single store-global counter would be
    // one cache line RMW'd by every thread on every operation — exactly
    // the coherence ping-pong sharding exists to remove. Contention on
    // these mirrors shard contention, which is the quantity being scaled.
    /// Completed read-family operations against this shard.
    pub(crate) reads: AtomicU64,
    /// Completed updates against this shard.
    pub(crate) updates: AtomicU64,
    /// Extra LL/SC rounds taken by updates that lost an SC race.
    pub(crate) update_retries: AtomicU64,
}

/// A sharded store of up to `keys` logical `W`-word LL/SC variables.
///
/// See the [crate docs](crate) for the architecture; construction is
/// [`Store::try_new`] (or the panicking [`Store::new`]), access is through
/// [`Store::attach`] / [`Store::with`].
///
/// # Backends
///
/// The type parameter `B` selects the *backend*: the LL/SC implementation
/// the key table materializes. The default [`PaperBackend`] keeps
/// the original API — `Store::new(...)` still builds a store of paper
/// objects over the tagged substrate — while
/// `Store::<EpochBackend>::new_in(...)` (or any other [`MwFactory`])
/// serves the same 2^24-key workload over a different implementation.
/// Runtime selection (the harness CLI) goes through
/// `llsc_baselines::try_build_store`, which returns the type-erased
/// [`DynStore`](crate::DynStore) view.
pub struct Store<B: MwFactory = PaperBackend> {
    router: Router,
    shards: Box<[CachePadded<Shard>]>,
    /// key → object, materialized on first touch.
    table: KeyTable<B::Object>,
    shard_capacity: usize,
    w: usize,
    keys: u64,
    initial: Box<[u64]>,
}

impl<B: MwFactory> std::fmt::Debug for Store<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("backend", &B::NAME)
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("w", &self.w)
            .field("keys", &self.keys)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// The largest key space a store (of any backend) addresses: `keys`
    /// above this is a [`StoreError::KeySpaceTooLarge`]. The key table's
    /// directory — its one allocation proportional to `keys` — costs
    /// 1/16 byte per key, so this bounds it at 256 MiB.
    pub const MAX_KEYS: u64 = table::MAX_KEYS;

    /// Creates a [`PaperBackend`] store, reporting configuration problems
    /// as typed errors.
    ///
    /// This is [`try_new_in`](Store::try_new_in) pinned to the default
    /// backend, so `Store::try_new(...)` needs no type annotations.
    pub fn try_new(config: StoreConfig) -> Result<Arc<Self>, StoreError> {
        Self::try_new_in(config)
    }

    /// [`try_new`](Self::try_new), panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new` reports as errors.
    #[must_use]
    pub fn new(config: StoreConfig) -> Arc<Self> {
        Self::new_in(config)
    }
}

impl<B: MwFactory> Store<B> {
    /// Creates a store over backend `B`, reporting configuration problems
    /// as typed errors.
    ///
    /// Nothing is allocated per key here: the key table starts as a
    /// directory of empty chunks (1/16 byte per key) and a key's object is
    /// materialized on first touch. (For inference reasons the backend-generic constructors
    /// carry the `_in` suffix, mirroring `MwLlSc::try_new_in`; the
    /// unsuffixed [`Store::try_new`]/[`Store::new`] build the default
    /// [`PaperBackend`].)
    pub fn try_new_in(config: StoreConfig) -> Result<Arc<Self>, StoreError> {
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
        if shard_capacity > B::max_processes() {
            return Err(StoreError::ShardCapacityTooLarge {
                capacity: shard_capacity,
                max: B::max_processes(),
            });
        }
        if initial.len() != width {
            return Err(StoreError::WrongInitLen { expected: width, got: initial.len() });
        }
        Ok(Arc::new(Self {
            router: Router::new(shards),
            shards: (0..shards)
                .map(|_| {
                    CachePadded::new(Shard {
                        registry: SlotRegistry::new(shard_capacity),
                        reads: AtomicU64::new(0),
                        updates: AtomicU64::new(0),
                        update_retries: AtomicU64::new(0),
                    })
                })
                .collect(),
            table: KeyTable::new(keys),
            shard_capacity,
            w: width,
            keys,
            initial: initial.into_boxed_slice(),
        }))
    }

    /// [`try_new_in`](Self::try_new_in), panicking on configuration
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new_in` reports as errors.
    #[must_use]
    pub fn new_in(config: StoreConfig) -> Arc<Self> {
        // lint: panic-ok(documented `# Panics` convenience wrapper; try_new_in is the typed path)
        Self::try_new_in(config).unwrap_or_else(|e| panic!("Store::new: {e}"))
    }

    /// The backend's display name (e.g. `"paper"`, `"lock"`).
    #[must_use]
    pub fn backend(&self) -> &'static str {
        B::NAME
    }

    /// Attaches a [`StoreHandle`].
    ///
    /// Always succeeds: shard slots are leased lazily, one per shard the
    /// handle actually touches, so capacity pressure surfaces as a typed
    /// [`StoreError::ShardExhausted`] on the first operation that needs a
    /// full shard — not here.
    #[must_use]
    pub fn attach(self: &Arc<Self>) -> StoreHandle<B> {
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
        self.shards.iter().map(|s| s.registry.live()).sum()
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

    pub(crate) fn shard(&self, si: usize) -> &Shard {
        &self.shards[si] // si comes from router.shard_of, bounded by shard count
    }

    /// The object for `key` (already checked by [`route`](Self::route)),
    /// materialized on first touch. A hit is two `Acquire` loads.
    #[inline]
    pub(crate) fn object(&self, key: u64) -> &Arc<B::Object> {
        self.table.get_or_init(key, || {
            B::try_build(self.shard_capacity, self.w, &self.initial)
                .expect("per-key config was validated at store construction") // lint: panic-ok(try_build was proven Ok for this exact config at construction)
        })
    }

    /// Rolls every materialized object's space accounting (including the
    /// backend's retired-words backlog) into one [`StoreSpace`].
    ///
    /// `shared_words` sums what each object *measures* about itself
    /// ([`MwFactory::measured_shared_words`]), while
    /// `per_key_shared_words` is the backend's closed-form formula — the
    /// store tests assert `shared_words == touched ×
    /// per_key_shared_words`, which keeps the formula honest against the
    /// actual allocations rather than defining the invariant away.
    #[must_use]
    pub fn space(&self) -> StoreSpace {
        let mut shared_words = 0;
        let mut retired_words = 0;
        let mut touched_keys = 0;
        for obj in self.table.iter() {
            touched_keys += 1;
            shared_words += B::measured_shared_words(obj);
            retired_words += B::retired_words(obj);
        }
        StoreSpace {
            backend: B::NAME,
            shards: self.shards.len(),
            key_capacity: self.keys,
            touched_keys,
            shared_words,
            retired_words,
            per_key_shared_words: B::object_shared_words(self.shard_capacity, self.w),
        }
    }

    /// Rolls every shard's operation counters and every materialized
    /// object's instrumentation counters into one [`StoreStats`].
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats { live_slot_leases: self.live_slot_leases(), ..Default::default() };
        for shard in self.shards.iter() {
            s.reads += shard.reads.load(Ordering::Relaxed);
            s.updates += shard.updates.load(Ordering::Relaxed);
            s.update_retries += shard.update_retries.load(Ordering::Relaxed);
        }
        for obj in self.table.iter() {
            let os = B::object_stats(obj);
            s.objects += 1;
            s.ll_ops += os.ll_ops;
            s.sc_attempts += os.sc_attempts;
            s.sc_successes += os.sc_successes;
            s.lls_helped += os.lls_helped;
            s.helps_given += os.helps_given;
        }
        s
    }
}

/// Honest space rollup for one [`Store`], in 64-bit words.
///
/// `shared_words` counts the exact per-object footprint
/// ([`MwFactory::object_shared_words`]) of every *materialized* object;
/// keys never touched cost nothing, which is the whole point of lazy
/// initialization. The invariant
/// `shared_words == touched_keys × per_key_shared_words` is asserted by
/// the store stress tests. Word counts are logical registers (the paper's
/// unit); allocator and alignment slack, the key table's slots and the
/// objects' own headers are excluded by design (see [`CachePadded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreSpace {
    /// The backend that materialized the objects ([`MwFactory::NAME`]).
    pub backend: &'static str,
    /// Shard count `S`.
    pub shards: usize,
    /// Configured logical key space.
    pub key_capacity: u64,
    /// Keys materialized by a first touch.
    pub touched_keys: usize,
    /// Live shared words over all materialized objects: `touched ×
    /// per_key_shared_words` (`touched × (3cW + 3c + 1)` for the paper
    /// backends).
    pub shared_words: usize,
    /// Substrate reclamation backlog over all materialized objects
    /// (retired-but-not-freed words; zero for the default tagged
    /// substrate).
    pub retired_words: usize,
    /// Cost of one materialized key ([`MwFactory::object_shared_words`];
    /// `3cW + 3c + 1` words for the paper backends).
    pub per_key_shared_words: usize,
}

impl StoreSpace {
    /// Everything the store currently holds: live words plus the
    /// reclamation backlog.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.shared_words + self.retired_words
    }

    /// What materializing the *entire* key space up front would cost, in
    /// words — the figure lazy initialization avoids.
    #[must_use]
    pub fn eager_words(&self) -> u128 {
        u128::from(self.key_capacity) * self.per_key_shared_words as u128
    }
}

/// Aggregated instrumentation for one [`Store`]: store-level operation
/// counts plus the rollup of every materialized object's
/// [`Stats`](mwllsc::Stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Materialized per-key objects.
    pub objects: usize,
    /// Shard slots currently leased by live handles.
    pub live_slot_leases: usize,
    /// Completed [`StoreHandle::read`]-family operations.
    pub reads: u64,
    /// Completed [`StoreHandle::update`] operations.
    pub updates: u64,
    /// Extra LL/SC rounds taken by updates that lost an SC race.
    pub update_retries: u64,
    /// Sum of per-object LL counts.
    pub ll_ops: u64,
    /// Sum of per-object SC attempts.
    pub sc_attempts: u64,
    /// Sum of per-object successful SCs.
    pub sc_successes: u64,
    /// Sum of per-object helped LLs.
    pub lls_helped: u64,
    /// Sum of per-object helps given.
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
