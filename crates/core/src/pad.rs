//! Cache-line padding for contended cells.
//!
//! Two words written by different cores on one cache line cost coherence
//! traffic for writes neither observes logically (*false sharing*).
//! [`CachePadded`] gives a cell its own aligned block. The alignment is
//! 128 bytes, not 64: modern x86 prefetches cache lines in adjacent pairs
//! (and Apple/ARM server parts use 128-byte lines outright), so 64-byte
//! padding still ping-pongs under the adjacent-line prefetcher — the same
//! reasoning behind `crossbeam_utils::CachePadded`.
//!
//! Padding is a measured layout choice, because it is paid per copy of
//! the padded cell. It is used where one copy serves a whole process or
//! pool: an object's `X` word (hit by every LL and SC of every process),
//! the store's shards, and the mesh ring indices. It is *not* used on the
//! `Help` mailboxes or the slot-registry words: a store keeps one object
//! per key, and padding those per-process arrays would make each of them
//! 16× larger on every key. The price is that processes operating on
//! one hot object share a line. Measured with the repository benchmark
//! on a 2-vCPU host (8 alternating 30 s pairs against a padded build):
//! on `kv-w16-hot`, two threads updating 16 hot keys, read p99 is 17%
//! higher and throughput no better, while heap per user byte falls from
//! 46.1 to 31.6; on `kv-w1-zipf` heap per user byte falls from 378 to 146
//! with latency unchanged or better. Many cores are unmeasured.
//!
//! Padding is a *layout* choice, not algorithm state: the space accounting
//! in [`SpaceReport`](crate::SpaceReport) and
//! [`SpaceEstimate`](crate::SpaceEstimate) counts logical 64-bit words
//! (the paper's registers), and alignment slack is excluded by design.

use core::ops::{Deref, DerefMut};

/// Pads and aligns `T` to 128 bytes so it occupies its own cache-line
/// pair, eliminating false sharing with neighbouring values.
///
/// `CachePadded<T>` derefs to `T`, so wrapped cells are used exactly as
/// unwrapped ones:
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use mwllsc::CachePadded;
///
/// let cells: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|i| CachePadded::new(AtomicU64::new(i))).collect();
/// cells[2].fetch_add(10, Ordering::Relaxed);
/// assert_eq!(cells[2].load(Ordering::Relaxed), 12);
/// assert!(core::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own padded cache-line pair.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_size() {
        assert_eq!(core::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(core::mem::size_of::<CachePadded<u64>>(), 128);
        // An array of padded cells puts each element on its own block.
        let a: [CachePadded<u64>; 2] = [CachePadded::new(1), CachePadded::new(2)];
        let p0 = core::ptr::from_ref(&*a[0]) as usize;
        let p1 = core::ptr::from_ref(&*a[1]) as usize;
        assert!(p1 - p0 >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
        let c: CachePadded<u64> = 7.into();
        assert_eq!(*c, 7);
    }
}
