//! `W`-word *safe* buffers.
//!
//! The paper stores object values in `3N` buffers of `W` words each and
//! requires only *safe-register* semantics from them: a read that overlaps
//! a write may return an arbitrary (torn) value, but reads that do not
//! overlap any write return the most recently written value. The
//! algorithm's buffer-management discipline guarantees that whenever a
//! returned value matters, no overlapping write occurred.
//!
//! In Rust, a plain `&mut`/`&` data race is undefined behaviour regardless
//! of whether the value is used, so each word is an `AtomicU64` accessed
//! with `Relaxed` ordering: per-word atomicity with no ordering — torn
//! *multi-word* values arise from interleaving exactly as the safe-register
//! model allows, with no UB. Cross-thread publication of buffer contents is
//! ordered by the `SeqCst` LL/SC operations on `X`/`Help` that precede and
//! follow buffer accesses (see the crate docs).
//!
//! The pool is laid out as the space formula counts it: one flat
//! allocation of `3N · W` words, buffer `i` being words `i·W .. (i+1)·W`.

use crate::sync::{AtomicU64, Labeled, Ordering};

/// One `W`-word safe buffer: a window onto the pool's words.
#[derive(Clone, Copy)]
pub(crate) struct Buffer<'a> {
    words: &'a [AtomicU64],
}

impl Buffer<'_> {
    /// Reads the buffer into `dst` word by word (`Relaxed`).
    ///
    /// This is the paper's `copy BUF[i] into *retval` (lines 3, 6, 7): `W`
    /// individually-atomic loads, which may observe a torn multi-word value
    /// if a write overlaps.
    #[inline]
    pub(crate) fn copy_to(self, dst: &mut [u64]) {
        debug_assert_eq!(dst.len(), self.words.len());
        for (d, s) in dst.iter_mut().zip(self.words) {
            *d = s.load(Ordering::Relaxed); // lint: cell=BUF
        }
    }

    /// Writes `src` into the buffer word by word (`Relaxed`).
    ///
    /// This is the paper's `copy *v into BUF[i]` (lines 11, 17).
    #[inline]
    pub(crate) fn copy_from(self, src: &[u64]) {
        debug_assert_eq!(src.len(), self.words.len());
        for (s, d) in src.iter().zip(self.words) {
            d.store(*s, Ordering::Relaxed); // lint: cell=BUF
        }
    }
}

/// The array `BUF[0..3N-1]`, as one flat run of words.
pub(crate) struct BufferPool {
    words: Box<[AtomicU64]>,
    w: usize,
}

impl BufferPool {
    /// Allocates `count` buffers of `w` words each, all zeroed.
    pub(crate) fn new(count: usize, w: usize) -> Self {
        Self { words: (0..count * w).map(|_| AtomicU64::new(0)).collect(), w }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Buffer<'_> {
        Buffer { words: &self.words[i * self.w..(i + 1) * self.w] }
    }

    /// Number of buffers (`3N`).
    pub(crate) fn count(&self) -> usize {
        self.words.len() / self.w
    }

    /// Total number of 64-bit words held in buffers (`3N · W`): the
    /// dominant term of the paper's `O(NW)` space bound.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Labels word `j` of buffer `b` as `("BUF", b, j)` for model-checked
    /// builds (no-op otherwise).
    pub(crate) fn model_label(&self) {
        for (i, word) in self.words.iter().enumerate() {
            Labeled::set_label(word, "BUF", (i / self.w) as u32, (i % self.w) as u32);
        }
    }
}

impl core::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BufferPool[{} x {} words]", self.count(), self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_roundtrip() {
        let p = BufferPool::new(1, 4);
        p.get(0).copy_from(&[1, 2, 3, 4]);
        let mut out = [0u64; 4];
        p.get(0).copy_to(&mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn zero_initialized() {
        let p = BufferPool::new(2, 3);
        let mut out = [9u64; 3];
        p.get(1).copy_to(&mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn pool_word_accounting() {
        let p = BufferPool::new(6, 8);
        assert_eq!(p.count(), 6);
        assert_eq!(p.words(), 48);
        assert_eq!(p.get(5).words.len(), 8);
    }

    #[test]
    fn buffers_are_independent() {
        let p = BufferPool::new(3, 2);
        p.get(0).copy_from(&[1, 1]);
        p.get(1).copy_from(&[2, 2]);
        let mut out = [0u64; 2];
        p.get(0).copy_to(&mut out);
        assert_eq!(out, [1, 1]);
        p.get(2).copy_to(&mut out);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn single_word_buffer() {
        let p = BufferPool::new(3, 1);
        p.get(2).copy_from(&[u64::MAX]);
        let mut out = [0u64];
        p.get(2).copy_to(&mut out);
        assert_eq!(out[0], u64::MAX);
        p.get(1).copy_to(&mut out);
        assert_eq!(out[0], 0, "neighbouring one-word buffers do not overlap");
    }
}
