//! The key table: one once-initialized slot per key of `0..keys`, stored
//! in fixed-size chunks that are allocated on first touch.
//!
//! A lookup of a materialized key is two `Acquire` loads — the chunk's
//! `OnceLock`, then the key's — with no lock, no hash probe and no
//! reference count. Only first touches wait, and only for each other:
//! concurrent first touches of one chunk, or of one key, block until the
//! winner's initialization finishes (the `OnceLock` contract).
//!
//! The directory (one 16-byte `OnceLock` per [`CHUNK_KEYS`] keys) is the
//! only eager allocation: 1 MiB at 2^24 keys. A sparse first touch
//! allocates one chunk of `CHUNK_KEYS` slots (4 KiB) plus the object.

use std::sync::{Arc, OnceLock};

/// Keys per chunk: a chunk of 16-byte slots fills 4 KiB.
pub(crate) const CHUNK_KEYS: usize = 256;

/// The largest key space a table addresses. It bounds the eager directory
/// at 256 MiB; the store rejects larger key spaces with a typed error
/// instead of allocating for them.
pub(crate) const MAX_KEYS: u64 = 1 << 32;

type Chunk<T> = [OnceLock<Arc<T>>; CHUNK_KEYS];

/// Key-indexed, lazily materialized objects of type `T`.
pub(crate) struct KeyTable<T> {
    chunks: Box<[OnceLock<Box<Chunk<T>>>]>,
}

impl<T> KeyTable<T> {
    /// A table for keys `0..keys`, with nothing materialized. The caller
    /// has checked `keys <= MAX_KEYS`.
    pub(crate) fn new(keys: u64) -> Self {
        let chunks = keys.div_ceil(CHUNK_KEYS as u64) as usize;
        Self { chunks: (0..chunks).map(|_| OnceLock::new()).collect() }
    }

    /// The object for `key`, running `init` to build it on first touch.
    /// The caller has checked that `key` is inside the key space.
    #[inline]
    pub(crate) fn get_or_init(&self, key: u64, init: impl FnOnce() -> Arc<T>) -> &Arc<T> {
        // key < keys, so the directory has its chunk; the remainder is
        // below CHUNK_KEYS, the chunk's length.
        let chunk = self.chunks[(key / CHUNK_KEYS as u64) as usize]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        // remainder < CHUNK_KEYS (see above)
        chunk[(key % CHUNK_KEYS as u64) as usize].get_or_init(init)
    }

    /// Every materialized object, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter().filter_map(OnceLock::get))
            .map(|obj| &**obj)
    }

    /// Bytes allocated up front: the directory.
    #[cfg(test)]
    fn eager_bytes(&self) -> usize {
        std::mem::size_of_val::<[_]>(&self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_materialize_once_per_key() {
        let t = KeyTable::<u64>::new(1000);
        let a = t.get_or_init(999, || Arc::new(7));
        let b = t.get_or_init(999, || Arc::new(8));
        assert!(Arc::ptr_eq(a, b), "the second touch finds the first object");
        assert_eq!(**b, 7);
        t.get_or_init(0, || Arc::new(1));
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![1, 7], "key order");
    }

    #[test]
    fn the_eager_part_stays_small() {
        assert!(std::mem::size_of::<Chunk<u64>>() <= 4096, "one chunk fits 4 KiB");
        let t = KeyTable::<u64>::new(1 << 24);
        assert!(t.eager_bytes() <= 1 << 20, "2^24 keys: {} directory bytes", t.eager_bytes());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn concurrent_first_touches_build_one_object() {
        let t = Arc::new(KeyTable::<usize>::new(CHUNK_KEYS as u64 * 2));
        let joins: Vec<_> = (0..4)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    (0..CHUNK_KEYS as u64 * 2)
                        .map(|k| Arc::as_ptr(t.get_or_init(k, || Arc::new(i))) as usize)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let seen: Vec<Vec<usize>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "every thread saw the same objects");
        assert_eq!(t.iter().count(), CHUNK_KEYS * 2);
    }
}
