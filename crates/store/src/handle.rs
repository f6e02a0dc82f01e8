//! [`StoreHandle`]: per-caller capability to read and update logical
//! variables.
//!
//! A handle leases **one process slot per touched shard**, lazily, and
//! holds each lease for its lifetime (dropping the handle releases them
//! all). The lease is the concurrency contract that makes per-key access
//! cheap: holding shard slot `p` exclusively means *no other handle* ever
//! uses process id `p` in that shard, so each operation borrows slot `p`
//! of the key's object ([`MwFactory::borrow_slot`]). For the paper
//! backends that borrow is one load of the slot's parked `mybuf` and one
//! store back — no lease read-modify-write, no reference count — and the
//! key table finds the object with two `Acquire` loads, so an operation
//! touches little besides the key's own paper object.
//!
//! The handle is generic over the store's backend `B`
//! ([`MwFactory`]): every operation drives the borrowed slot through the
//! [`MwHandle`] capability trait, so the same code path serves the paper
//! algorithm, the substrate ablations, and the baselines.

use mwllsc::sync::Ordering;
use std::sync::Arc;

use mwllsc::{MwFactory, MwHandle, PaperBackend};

use crate::store::{Shard, Store, StoreError};

/// A capability to operate on a [`Store`]'s logical variables.
///
/// Like the core [`Handle`](mwllsc::Handle), a `StoreHandle` is `Send`
/// but deliberately not `Clone`: the `&mut self` methods statically
/// enforce one outstanding operation per handle, and each concurrent
/// actor should hold its own (or use [`Store::with`] for thread-cached
/// acquisition).
///
/// # Examples
///
/// ```
/// use mwllsc_store::{Store, StoreConfig};
///
/// let store = Store::new(StoreConfig::new(4, 2, 1, 1 << 20));
/// let mut h = store.attach();
/// for _ in 0..3 {
///     h.update(42, |v| v[0] += 1).unwrap();
/// }
/// assert_eq!(h.read_vec(42).unwrap(), vec![3]);
/// assert_eq!(h.read_vec(43).unwrap(), vec![0], "untouched keys read the initial value");
/// ```
pub struct StoreHandle<B: MwFactory = PaperBackend> {
    store: Arc<Store<B>>,
    /// Per-shard leased slot id; `None` until the shard is first touched.
    slots: Box<[Option<u32>]>,
}

impl<B: MwFactory> std::fmt::Debug for StoreHandle<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle")
            .field("backend", &B::NAME)
            .field("shards", &self.slots.len())
            .field("leased", &self.slots.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

/// One batch entry after the pre-pass: the key's shard, this handle's
/// process id in that shard, the entry's position in the caller's batch,
/// and the key.
#[derive(Clone, Copy)]
struct Entry {
    si: usize,
    p: usize,
    i: usize,
    key: u64,
}

impl<B: MwFactory> StoreHandle<B> {
    pub(crate) fn new(store: Arc<Store<B>>) -> Self {
        let shards = store.shards();
        Self { store, slots: vec![None; shards].into_boxed_slice() }
    }

    /// The store this handle operates on.
    #[must_use]
    pub fn store(&self) -> &Arc<Store<B>> {
        &self.store
    }

    /// Number of shards this handle currently holds a slot lease in.
    #[must_use]
    pub fn leased_shards(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Leases this handle's slot in shard `si` eagerly (leases are
    /// normally taken lazily on first touch). Ownership layers that pin
    /// shards to workers (e.g. `mwllsc-mesh`) call this at startup so a
    /// [`StoreError::ShardExhausted`] surfaces as a typed construction
    /// error instead of a mid-traffic op failure. Idempotent.
    /// A nonexistent shard index reports as exhausted with `capacity: 0`
    /// (a shard that does not exist has no slots to lease).
    pub fn lease_shard(&mut self, si: usize) -> Result<(), StoreError> {
        if si >= self.store.shards() {
            return Err(StoreError::ShardExhausted { shard: si, capacity: 0 });
        }
        self.slot_for(si).map(|_| ())
    }

    /// This handle's process id within shard `si`, leasing one on first
    /// touch.
    fn slot_for(&mut self, si: usize) -> Result<usize, StoreError> {
        // si < shard count: validated by the caller's key check
        if let Some(p) = self.slots[si] {
            return Ok(p as usize);
        }
        match self.store.shard(si).registry.lease_any() {
            Some((p, _payload)) => {
                self.slots[si] = Some(p as u32); // bounds as above
                Ok(p)
            }
            None => {
                Err(StoreError::ShardExhausted { shard: si, capacity: self.store.shard_capacity() })
            }
        }
    }

    /// Routes `key` and returns `(shard, this handle's process id in
    /// it)`, leasing the shard slot on first touch.
    fn route_slot(&mut self, key: u64) -> Result<(usize, usize), StoreError> {
        let si = self.store.route(key)?;
        Ok((si, self.slot_for(si)?))
    }

    /// Reads the current value of `key` into `out`.
    ///
    /// One `O(W)` read on the key's object (wait-free for the paper
    /// backends; the backend's own read guarantee otherwise).
    pub fn read(&mut self, key: u64, out: &mut [u64]) -> Result<(), StoreError> {
        if out.len() != self.store.width() {
            return Err(StoreError::WrongValueLen { expected: self.store.width(), got: out.len() });
        }
        let (si, p) = self.route_slot(key)?;
        B::borrow_slot(self.store.object(key), p).read(out);
        self.store.shard(si).reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the current value of `key` into a fresh `Vec`.
    pub fn read_vec(&mut self, key: u64) -> Result<Vec<u64>, StoreError> {
        let mut out = vec![0u64; self.store.width()];
        self.read(key, &mut out)?;
        Ok(out)
    }

    /// Atomically read-modify-writes `key`: runs `f` on the current value
    /// in `out` and installs the result, retrying the LL/SC round until
    /// the SC lands. On return `out` holds the installed value.
    ///
    /// This is the allocation-free update path: `out` is the working
    /// buffer for every LL/SC round (callers on hot loops reuse one).
    /// `f` may run multiple times (once per round) and must be a pure
    /// function of its input slice. For the paper backends every LL and
    /// SC inside the loop is wait-free `O(W)`; the loop itself is
    /// lock-free under per-key contention, like any LL/SC retry loop.
    // lint: no-alloc
    pub fn update_with(
        &mut self,
        key: u64,
        out: &mut [u64],
        mut f: impl FnMut(&mut [u64]),
    ) -> Result<(), StoreError> {
        if out.len() != self.store.width() {
            return Err(StoreError::WrongValueLen { expected: self.store.width(), got: out.len() });
        }
        let (si, p) = self.route_slot(key)?;
        let store = &*self.store;
        let mut h = B::borrow_slot(store.object(key), p);
        loop {
            h.ll(out);
            f(out);
            if h.sc(out) {
                store.shard(si).updates.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            store.shard(si).update_retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`update_with`](Self::update_with) into a fresh `Vec`, returning
    /// the installed value.
    pub fn update(&mut self, key: u64, f: impl FnMut(&mut [u64])) -> Result<Vec<u64>, StoreError> {
        let mut out = vec![0u64; self.store.width()];
        self.update_with(key, &mut out, f)?;
        Ok(out)
    }

    /// Reads many keys, returning values in the order of `keys`: a
    /// wrapper over [`read_many_into`](Self::read_many_into), with its
    /// batching and all-or-nothing validation, that splits the flat
    /// result into one `Vec` per key.
    pub fn read_many(&mut self, keys: &[u64]) -> Result<Vec<Vec<u64>>, StoreError> {
        let w = self.store.width();
        let mut flat = vec![0u64; keys.len() * w];
        self.read_many_into(keys, &mut flat)?;
        Ok(flat.chunks_exact(w).map(<[u64]>::to_vec).collect())
    }

    /// Reads many keys into one flat `keys.len() × W` buffer (value `i`
    /// lands at `out[i*W..(i+1)*W]`). This is the allocation-free batched
    /// read: hot callers (the network frontend's coalescer) reuse one
    /// buffer across ticks.
    ///
    /// The batch is processed in `(shard, key)` order: the shard-slot
    /// lookup is paid once per key up front, consecutive duplicate keys
    /// share one borrowed object slot, the per-shard operation counter is
    /// bumped once per run instead of once per key, and each shard's keys
    /// are visited in key order.
    ///
    /// All-or-nothing for the *reads*: routing is validated and every
    /// needed shard slot is leased *before* the first read, so an error —
    /// bad key or an exhausted shard — is returned without reading or
    /// materializing anything. Shard slots leased by the pre-pass stay
    /// with the handle whether or not the batch succeeds (leases are
    /// handle-lifetime state, as with every other operation), so a failed
    /// batch can still raise [`leased_shards`](Self::leased_shards).
    // lint: no-alloc
    pub fn read_many_into(&mut self, keys: &[u64], out: &mut [u64]) -> Result<(), StoreError> {
        let w = self.store.width();
        if out.len() != keys.len() * w {
            return Err(StoreError::WrongValueLen { expected: keys.len() * w, got: out.len() });
        }
        let order = self.batch_prepass(keys)?;

        let store = &*self.store;
        let mut counters = CounterRun::new();
        for run in order.chunk_by(|a, b| a.key == b.key) {
            let e = run[0]; // chunk_by never yields an empty run
            let mut h = B::borrow_slot(store.object(e.key), e.p);
            for d in run {
                h.read(&mut out[d.i * w..(d.i + 1) * w]); // d.i < keys.len(): out is keys × w
            }
            counters.count(store, e.si, run.len() as u64, 0, bump_reads);
        }
        counters.flush(store, bump_reads);
        Ok(())
    }

    /// Atomically read-modify-writes a batch through **one borrowed
    /// closure**: commits `apply(i, buf)` for each position `i` of
    /// `keys`, with the batching, ordering, equal-key SC folding, and
    /// all-or-nothing validation of [`update_many`](Self::update_many).
    ///
    /// Where `update_many` wants one owned closure per entry, this
    /// variant indexes a single closure by entry position — the shape a
    /// frame decoder produces (a parallel array of decoded operations)
    /// without boxing an op per request. As always, `apply` may run once
    /// per LL/SC round and must be a pure function of `(i, buf)`.
    // lint: no-alloc
    pub fn update_many_with(
        &mut self,
        keys: &[u64],
        mut apply: impl FnMut(usize, &mut [u64]),
    ) -> Result<(), StoreError> {
        self.batch_update(keys, &mut apply)
    }

    /// Atomically read-modify-writes a batch: for each `(key, f)` entry,
    /// runs `f` on the key's current value and installs the result
    /// (per-key atomicity, *not* a cross-key transaction).
    ///
    /// This is the batched write path: entries are processed in
    /// `(shard, key)` order with the original order preserved between
    /// duplicates of the same key, so router validation, shard-slot
    /// leasing, the scratch buffer, and the per-shard counters are all
    /// amortized across the batch — the same economics as
    /// [`read_many_into`](Self::read_many_into), now for updates. Entries
    /// for the same key go further: the whole run is folded into **one
    /// LL/SC commit** (several logical updates per SC), applied in batch
    /// order inside a single atomic step — a concurrent reader sees
    /// either none or all of a batch's entries for one key, never an
    /// intermediate prefix. As with [`update_with`](Self::update_with),
    /// closures may run once per LL/SC round and must be pure functions
    /// of the value slice.
    ///
    /// All-or-nothing *before the first write*: routing is validated and
    /// every needed shard slot is leased up front, so a bad key or an
    /// exhausted shard returns an error with nothing written or
    /// materialized. Once writing starts every entry commits (an LL/SC
    /// loop cannot fail, only retry). As with `read_many`, shard slots
    /// leased by the pre-pass stay with the handle either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwllsc_store::{Store, StoreConfig};
    ///
    /// let store = Store::new(StoreConfig::new(4, 2, 1, 1 << 20));
    /// let mut h = store.attach();
    /// let mut batch: Vec<(u64, _)> = (0..100u64).map(|k| (k, move |v: &mut [u64]| v[0] += k)).collect();
    /// h.update_many(&mut batch).unwrap();
    /// assert_eq!(h.read_vec(99).unwrap(), vec![99]);
    /// ```
    pub fn update_many<F: FnMut(&mut [u64])>(
        &mut self,
        batch: &mut [(u64, F)],
    ) -> Result<(), StoreError> {
        let keys: Vec<u64> = batch.iter().map(|(k, _)| *k).collect();
        self.batch_update(&keys, &mut |i, buf| (batch[i].1)(buf)) // i < keys.len() == batch.len()
    }

    /// Blind-writes a batch of `(key, value)` pairs: each key is
    /// atomically set to its value (last entry wins for duplicate keys —
    /// entries for one key are applied in batch order).
    ///
    /// Same batching, ordering, and all-or-nothing validation as
    /// [`update_many`](Self::update_many); additionally every value slice
    /// is length-checked against `W` *before* anything is leased,
    /// materialized, or written.
    pub fn write_many(&mut self, batch: &[(u64, &[u64])]) -> Result<(), StoreError> {
        let w = self.store.width();
        for (_, v) in batch {
            if v.len() != w {
                return Err(StoreError::WrongValueLen { expected: w, got: v.len() });
            }
        }
        let keys: Vec<u64> = batch.iter().map(|(k, _)| *k).collect();
        self.batch_update(&keys, &mut |i, buf| buf.copy_from_slice(batch[i].1)) // i < keys.len() == batch.len()
    }

    /// Shared batch machinery: validates and sorts `keys` by
    /// `(shard, key, index)`, leases every needed shard slot, then commits
    /// `apply(i, buf)` for each run of equal keys with one LL/SC loop on
    /// one borrowed object slot, flushing the per-shard counters once per
    /// shard run.
    pub(crate) fn batch_update(
        &mut self,
        keys: &[u64],
        apply: &mut dyn FnMut(usize, &mut [u64]),
    ) -> Result<(), StoreError> {
        let order = self.batch_prepass(keys)?;

        let store = &*self.store;
        let mut buf = vec![0u64; store.width()];
        let mut counters = CounterRun::new();
        for run in order.chunk_by(|a, b| a.key == b.key) {
            let e = run[0]; // chunk_by never yields an empty run
            let mut h = B::borrow_slot(store.object(e.key), e.p);
            let mut retries = 0;
            // The whole run of entries for this key is applied inside ONE
            // LL/SC commit — several logical updates per SC.
            loop {
                h.ll(&mut buf);
                for d in run {
                    apply(d.i, &mut buf);
                }
                if h.sc(&buf) {
                    break;
                }
                retries += 1;
            }
            counters.count(store, e.si, run.len() as u64, retries, bump_updates);
        }
        counters.flush(store, bump_updates);
        Ok(())
    }

    /// The batch pre-pass shared by `read_many_into` and `batch_update`:
    /// validates every route, sorts by `(shard, key, index)` (ties on the
    /// same key keep batch order, and equal keys end up adjacent), and
    /// leases every needed shard slot so capacity failures surface before
    /// any key is touched.
    fn batch_prepass(&mut self, keys: &[u64]) -> Result<Vec<Entry>, StoreError> {
        let mut order = Vec::with_capacity(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            order.push(Entry { si: self.store.route(key)?, p: 0, i, key });
        }
        order.sort_unstable_by_key(|e| (e.si, e.key, e.i));
        for e in &mut order {
            e.p = self.slot_for(e.si)?;
        }
        Ok(order)
    }
}

/// Counter attribution for the batched read path: a run's ops are
/// reads, and the read path never produces retries.
fn bump_reads(shard: &Shard, ops: u64, retries: u64) {
    debug_assert_eq!(retries, 0, "the read path takes no LL/SC retries");
    shard.reads.fetch_add(ops, Ordering::Relaxed);
}

/// Counter attribution for the batched write path: logical updates plus
/// the SC rounds lost to races.
fn bump_updates(shard: &Shard, ops: u64, retries: u64) {
    shard.updates.fetch_add(ops, Ordering::Relaxed);
    if retries > 0 {
        shard.update_retries.fetch_add(retries, Ordering::Relaxed);
    }
}

/// Accumulates per-shard `(ops, retries)` counter deltas across a sorted
/// batch and applies them once per shard run, instead of once per key.
/// Which shard counters the totals land in is entirely the caller's
/// `apply` closure — the accumulator cannot misattribute a read-path
/// delta to a write-path counter.
struct CounterRun {
    shard: Option<usize>,
    ops: u64,
    retries: u64,
}

impl CounterRun {
    fn new() -> Self {
        Self { shard: None, ops: 0, retries: 0 }
    }

    /// Adds a delta for shard `si`, first applying the previous run's
    /// totals when the shard changes.
    fn count<B: MwFactory>(
        &mut self,
        store: &Store<B>,
        si: usize,
        ops: u64,
        retries: u64,
        apply: impl Fn(&Shard, u64, u64),
    ) {
        if self.shard != Some(si) {
            self.flush(store, apply);
            self.shard = Some(si);
        }
        self.ops += ops;
        self.retries += retries;
    }

    /// Applies the current run's `(ops, retries)` totals and resets.
    fn flush<B: MwFactory>(&mut self, store: &Store<B>, apply: impl Fn(&Shard, u64, u64)) {
        if let Some(si) = self.shard.take() {
            if self.ops > 0 || self.retries > 0 {
                apply(store.shard(si), self.ops, self.retries);
            }
        }
        self.ops = 0;
        self.retries = 0;
    }
}

impl<B: MwFactory> Drop for StoreHandle<B> {
    /// Releases every leased shard slot (the payload is the slot's own id,
    /// mirroring [`SlotRegistry::new`](mwllsc::SlotRegistry::new)'s
    /// convention).
    fn drop(&mut self) {
        for (si, slot) in self.slots.iter().enumerate() {
            if let Some(p) = slot {
                self.store.shard(si).registry.release(*p as usize, *p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn leases_accumulate_per_shard_and_release_on_drop() {
        let store = Store::new(StoreConfig::new(8, 2, 1, 1 << 16));
        let mut h = store.attach();
        assert_eq!(h.leased_shards(), 0);
        // Touch enough distinct keys to hit several shards.
        for key in 0..64 {
            h.update(key, |v| v[0] += 1).unwrap();
        }
        assert!(h.leased_shards() > 1, "64 keys should spread over >1 of 8 shards");
        assert_eq!(store.live_slot_leases(), h.leased_shards());
        drop(h);
        assert_eq!(store.live_slot_leases(), 0, "drop released every shard slot");
    }

    #[test]
    fn update_is_atomic_across_two_handles() {
        let store = Store::new(StoreConfig::new(2, 2, 2, 100));
        let mut a = store.attach();
        let mut b = store.attach();
        for _ in 0..50 {
            a.update(7, |v| v[0] += 1).unwrap();
            b.update(7, |v| v[1] += 1).unwrap();
        }
        assert_eq!(a.read_vec(7).unwrap(), vec![50, 50]);
    }

    #[test]
    fn shard_exhaustion_is_typed() {
        let store = Store::new(StoreConfig::new(1, 1, 1, 10));
        let mut a = store.attach();
        a.update(0, |v| v[0] = 5).unwrap();
        let mut b = store.attach();
        assert_eq!(
            b.read_vec(0).unwrap_err(),
            StoreError::ShardExhausted { shard: 0, capacity: 1 }
        );
        drop(a);
        assert_eq!(b.read_vec(0).unwrap(), vec![5], "freed slot is leasable");
    }

    #[test]
    fn wrong_width_and_range_are_typed() {
        let store = Store::new(StoreConfig::new(2, 1, 2, 10));
        let mut h = store.attach();
        let mut small = [0u64; 1];
        assert_eq!(
            h.read(3, &mut small).unwrap_err(),
            StoreError::WrongValueLen { expected: 2, got: 1 }
        );
        assert_eq!(
            h.update(10, |_| ()).unwrap_err(),
            StoreError::KeyOutOfRange { key: 10, capacity: 10 }
        );
    }

    #[test]
    fn read_many_preserves_order_and_matches_reads() {
        let store = Store::new(StoreConfig::new(8, 2, 1, 1 << 16));
        let mut h = store.attach();
        let keys: Vec<u64> = (0..200).map(|i| (i * 37) % 150).collect();
        for &k in &keys {
            h.update(k, |v| v[0] = k + 1).unwrap();
        }
        let batch = h.read_many(&keys).unwrap();
        assert_eq!(batch.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i], vec![k + 1], "key {k} at position {i}");
            assert_eq!(batch[i], h.read_vec(k).unwrap());
        }
    }

    #[test]
    fn read_many_is_all_or_nothing_on_shard_exhaustion() {
        let store = Store::new(StoreConfig::new(4, 1, 1, 1 << 16));
        let router = store.router();
        let key_a = 0u64;
        let key_b = (1..1 << 16).find(|&k| router.shard_of(k) != router.shard_of(key_a)).unwrap();

        // Handle `a` exhausts key_a's single-slot shard.
        let mut a = store.attach();
        a.update(key_a, |v| v[0] = 1).unwrap();
        let touched_before = store.touched_keys();

        // `b`'s batch leads with a key in a *free* shard; the exhausted
        // shard must still fail the batch before any read or
        // materialization happens.
        let mut b = store.attach();
        let err = b.read_many(&[key_b, key_a]).unwrap_err();
        assert!(matches!(err, StoreError::ShardExhausted { .. }), "{err:?}");
        assert_eq!(store.touched_keys(), touched_before, "failed batch materialized nothing");
        assert_eq!(store.stats().reads, 0, "failed batch read nothing");

        drop(a);
        assert_eq!(b.read_many(&[key_b, key_a]).unwrap(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn read_many_rejects_any_bad_key_up_front() {
        let store = Store::new(StoreConfig::new(2, 1, 1, 10));
        let mut h = store.attach();
        assert_eq!(
            h.read_many(&[1, 2, 99]).unwrap_err(),
            StoreError::KeyOutOfRange { key: 99, capacity: 10 }
        );
        assert_eq!(store.touched_keys(), 0, "failed batch materialized nothing");
    }

    #[test]
    fn update_many_matches_per_key_updates() {
        let store = Store::new(StoreConfig::new(8, 2, 2, 1 << 16));
        let mut h = store.attach();
        // Batch with repeats: key k gains k once per occurrence.
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 13) % 100).collect();
        let mut batch: Vec<(u64, _)> = keys
            .iter()
            .map(|&k| {
                (k, move |v: &mut [u64]| {
                    v[0] += k + 1;
                    v[1] = v[0] ^ k;
                })
            })
            .collect();
        h.update_many(&mut batch).unwrap();

        let mut expected = std::collections::HashMap::<u64, u64>::new();
        for &k in &keys {
            *expected.entry(k).or_default() += k + 1;
        }
        for (&k, &sum) in &expected {
            assert_eq!(h.read_vec(k).unwrap(), vec![sum, sum ^ k], "key {k}");
        }
        let stats = store.stats();
        assert_eq!(stats.updates, keys.len() as u64, "every entry counted as one update");
    }

    #[test]
    fn read_many_into_matches_read_many_without_allocating_per_key() {
        let store = Store::new(StoreConfig::new(8, 2, 2, 1 << 16));
        let mut h = store.attach();
        let keys: Vec<u64> = (0..100).map(|i| (i * 31) % 60).collect();
        for &k in &keys {
            h.update(k, |v| v[0] = k * 2).unwrap();
        }
        let mut flat = vec![0u64; keys.len() * 2];
        h.read_many_into(&keys, &mut flat).unwrap();
        let nested = h.read_many(&keys).unwrap();
        for (i, v) in nested.iter().enumerate() {
            assert_eq!(&flat[i * 2..(i + 1) * 2], v.as_slice(), "key {} at {i}", keys[i]);
        }
        // The flat buffer length is validated up front.
        assert_eq!(
            h.read_many_into(&keys, &mut flat[1..]).unwrap_err(),
            StoreError::WrongValueLen { expected: keys.len() * 2, got: keys.len() * 2 - 1 }
        );
    }

    #[test]
    fn update_many_with_folds_equal_keys_like_update_many() {
        let store = Store::new(StoreConfig::new(4, 1, 1, 100));
        let mut h = store.attach();
        // Three non-commutative entries on one key, addressed by index:
        // ((0 + 5) * 10) + 7 = 57.
        let keys = [7u64, 7, 7];
        h.update_many_with(&keys, |i, v| match i {
            0 => v[0] += 5,
            1 => v[0] *= 10,
            _ => v[0] += 7,
        })
        .unwrap();
        assert_eq!(h.read_vec(7).unwrap(), vec![57]);
        let stats = store.stats();
        assert_eq!(stats.updates, 3, "three logical updates");
        assert_eq!(stats.sc_successes, 1, "folded into one SC commit");
    }

    type BoxedOp = Box<dyn FnMut(&mut [u64])>;

    #[test]
    fn update_many_applies_duplicate_keys_in_batch_order() {
        let store = Store::new(StoreConfig::new(4, 1, 1, 100));
        let mut h = store.attach();
        // Non-commutative entries on one key: ((0 + 5) * 10) + 7 = 57.
        let mut ops: Vec<(u64, BoxedOp)> = vec![
            (7, Box::new(|v: &mut [u64]| v[0] += 5)),
            (7, Box::new(|v: &mut [u64]| v[0] *= 10)),
            (7, Box::new(|v: &mut [u64]| v[0] += 7)),
        ];
        h.update_many(&mut ops).unwrap();
        assert_eq!(h.read_vec(7).unwrap(), vec![57], "batch order preserved for equal keys");
        let stats = store.stats();
        assert_eq!(stats.updates, 3, "three logical updates");
        assert_eq!(stats.sc_successes, 1, "folded into one SC commit");
    }

    #[test]
    fn update_many_is_all_or_nothing_before_the_first_write() {
        let store = Store::new(StoreConfig::new(4, 1, 1, 1 << 16));
        let router = store.router();
        let key_a = 0u64;
        let key_b = (1..1 << 16).find(|&k| router.shard_of(k) != router.shard_of(key_a)).unwrap();

        let mut a = store.attach();
        a.update(key_a, |v| v[0] = 1).unwrap();
        let touched_before = store.touched_keys();

        let mut b = store.attach();
        let mut batch: Vec<(u64, _)> =
            [key_b, key_a].map(|k| (k, |v: &mut [u64]| v[0] = 99)).into_iter().collect();
        let err = b.update_many(&mut batch).unwrap_err();
        assert!(matches!(err, StoreError::ShardExhausted { .. }), "{err:?}");
        assert_eq!(store.touched_keys(), touched_before, "failed batch materialized nothing");
        assert_eq!(store.stats().updates, 1, "failed batch wrote nothing");

        // Bad key: rejected before leases or writes.
        assert_eq!(
            b.update_many(&mut [(1u64 << 40, |v: &mut [u64]| v[0] = 1)]).unwrap_err(),
            StoreError::KeyOutOfRange { key: 1 << 40, capacity: 1 << 16 }
        );

        drop(a);
        b.update_many(&mut batch).unwrap();
        assert_eq!(b.read_vec(key_a).unwrap(), vec![99]);
        assert_eq!(b.read_vec(key_b).unwrap(), vec![99]);
    }

    #[test]
    fn write_many_sets_values_and_validates_lengths_up_front() {
        let store = Store::new(StoreConfig::new(4, 1, 2, 100));
        let mut h = store.attach();
        let err = h.write_many(&[(1, [1, 2].as_slice()), (2, [3].as_slice())]).unwrap_err();
        assert_eq!(err, StoreError::WrongValueLen { expected: 2, got: 1 });
        assert_eq!(store.touched_keys(), 0, "length failure writes nothing");

        h.write_many(&[
            (1, [1, 2].as_slice()),
            (2, [3, 4].as_slice()),
            // Duplicate key: last entry wins.
            (1, [5, 6].as_slice()),
        ])
        .unwrap();
        assert_eq!(h.read_vec(1).unwrap(), vec![5, 6]);
        assert_eq!(h.read_vec(2).unwrap(), vec![3, 4]);
    }
}
