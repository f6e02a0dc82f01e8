//! Pointer-indirection realization of single-word LL/SC with epoch-based
//! node reclamation.
//!
//! The upstream design for this substrate is epoch-based reclamation in
//! the style of `crossbeam_epoch`; this build environment has no access
//! to external crates, so the object is built on [`DeferredSwapCell`]
//! over the hand-rolled EBR subsystem in [`crate::smr`]: every node
//! retired by a successful SC/`write` goes into an epoch-stamped limbo
//! bag and is freed as soon as no pinned reader can still observe it.
//! Memory under sustained SC traffic is therefore bounded by
//! `O(threads × bag size)`, independent of the total SC count — the
//! property the reclamation stress suite asserts as a hard bound.

use core::fmt;

use crate::deferred::DeferredSwapCell;
use crate::{Link, LlScCell};

/// A single-word LL/SC/VL object holding full 64-bit values.
///
/// Each successful SC (and each `write`) allocates a fresh node carrying
/// `(value, seq+1)` and swings an atomic pointer; retired nodes are
/// reclaimed through [`crate::smr`] once every concurrent reader is done
/// with them (see the module docs). Because the link compares the node's
/// 64-bit `seq` (not the pointer), address reuse cannot cause an ABA
/// false-success, and the wrap-around bound is a full `2^64`.
///
/// Compared to [`TaggedLlSc`](crate::TaggedLlSc) this trades an
/// allocation per successful SC for full-width values and an unbounded
/// tag. The multiword algorithm only needs narrow values, so `TaggedLlSc`
/// is its default substrate; `EpochLlSc` exists (a) to cross-check the
/// tagged realization against an independently derived one and (b) as the
/// substrate ablation measured in the benches.
///
/// # Examples
///
/// ```
/// use llsc_word::{EpochLlSc, LlScCell};
///
/// let x = EpochLlSc::new(u64::MAX - 1);
/// let (v, link) = x.ll();
/// assert_eq!(v, u64::MAX - 1);
/// assert!(x.sc(link, 42));
/// assert!(!x.sc(link, 43));
/// assert_eq!(x.read(), 42);
/// ```
pub struct EpochLlSc {
    cell: DeferredSwapCell<u64>,
}

impl fmt::Debug for EpochLlSc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochLlSc").field("value", &self.read()).finish()
    }
}

impl EpochLlSc {
    /// Creates an object with initial value `init`.
    #[must_use]
    pub fn new(init: u64) -> Self {
        Self { cell: DeferredSwapCell::new(init) }
    }

    /// Heap nodes currently allocated by this object: the live one plus
    /// retired ones the epoch subsystem has not yet reclaimed. Bounded by
    /// `O(threads × bag size)` under any workload in which readers drop
    /// their guards (the reclamation stress suite asserts this).
    #[must_use]
    pub fn tracked_nodes(&self) -> usize {
        self.cell.tracked_nodes()
    }

    /// 64-bit words of the one *live* heap node a quiescent cell holds
    /// beyond its counted pointer word (payload + seq + tracker header).
    /// Space accounting that compares this substrate against in-place
    /// designs must add this per cell — hiding the indirection would
    /// make the epoch realization look as cheap as the tagged one.
    #[must_use]
    pub fn live_node_words() -> usize {
        DeferredSwapCell::<u64>::node_words()
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        self as *const Self as usize
    }

    fn make_link(&self, seq: u64) -> Link {
        Link {
            snapshot: seq,
            #[cfg(debug_assertions)]
            owner: self.id(),
        }
    }

    #[cfg(debug_assertions)]
    fn check_link(&self, link: &Link) {
        debug_assert_eq!(
            link.owner,
            self.id(),
            "Link used with an object other than the one that issued it"
        );
    }

    #[cfg(not(debug_assertions))]
    fn check_link(&self, _link: &Link) {}
}

impl LlScCell for EpochLlSc {
    fn ll(&self) -> (u64, Link) {
        // The guard-scoped view lives only for the copy-out: values are
        // word-sized, so nothing is borrowed past the pin.
        let p = self.cell.load();
        (*p, self.make_link(p.seq()))
    }

    fn sc(&self, link: Link, v: u64) -> bool {
        self.check_link(&link);
        self.cell.compare_swap(link.snapshot, v)
    }

    fn vl(&self, link: Link) -> bool {
        self.check_link(&link);
        self.cell.load().seq() == link.snapshot
    }

    fn read(&self) -> u64 {
        *self.cell.load()
    }

    fn write(&self, v: u64) {
        // Retry loop: lock-free. Same usage argument as TaggedLlSc::write —
        // within the multiword algorithm every `write` is effectively
        // uncontended, so the loop exits after O(1) attempts.
        loop {
            let seq = self.cell.load().seq();
            if self.cell.compare_swap(seq, v) {
                return;
            }
        }
    }

    fn max_value(&self) -> u64 {
        u64::MAX
    }

    fn retired_words(&self) -> usize {
        // Everything beyond the one live node is limbo backlog; each node
        // is a fixed-size heap allocation (payload is an inline u64).
        self.cell.tracked_nodes().saturating_sub(1) * DeferredSwapCell::<u64>::node_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_width_values() {
        let x = EpochLlSc::new(u64::MAX);
        assert_eq!(x.read(), u64::MAX);
        let (v, link) = x.ll();
        assert_eq!(v, u64::MAX);
        assert!(x.sc(link, 0));
        assert_eq!(x.read(), 0);
    }

    #[test]
    fn sc_semantics_match_spec() {
        let x = EpochLlSc::new(1);
        let (_, l1) = x.ll();
        let (_, l2) = x.ll();
        assert!(x.sc(l2, 2));
        assert!(!x.sc(l1, 3));
        assert!(!x.vl(l1));
        assert_eq!(x.read(), 2);
    }

    #[test]
    fn write_invalidates() {
        let x = EpochLlSc::new(5);
        let (_, link) = x.ll();
        x.write(5);
        assert!(!x.vl(link));
        assert!(!x.sc(link, 6));
    }

    #[test]
    fn aba_immune_across_value_cycles() {
        let x = EpochLlSc::new(7);
        let (_, stale) = x.ll();
        for _ in 0..100 {
            let (_, l) = x.ll();
            assert!(x.sc(l, 9));
            let (_, l) = x.ll();
            assert!(x.sc(l, 7));
        }
        assert!(!x.sc(stale, 8));
        assert_eq!(x.read(), 7);
    }

    #[test]
    fn concurrent_fetch_increment_is_exact() {
        let _gate = crate::testgate();
        const THREADS: usize = 8;
        const PER: u64 = 5_000;
        let x = Arc::new(EpochLlSc::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let x = Arc::clone(&x);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < PER {
                    let (v, link) = x.ll();
                    if x.sc(link, v + 1) {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.read(), THREADS as u64 * PER);
    }

    #[test]
    fn drop_reclaims_without_leak_or_crash() {
        for _ in 0..1000 {
            let x = EpochLlSc::new(3);
            let (_, l) = x.ll();
            assert!(x.sc(l, 4));
        }
    }

    #[test]
    fn sustained_scs_keep_memory_bounded() {
        // Many successful SCs: the limbo backlog must stay bounded the
        // whole time — the seed behavior (backlog == total SCs) is gone.
        let _gate = crate::testgate();
        let x = EpochLlSc::new(0);
        let mut high_water = 0;
        for i in 0..10_000u64 {
            let (_, l) = x.ll();
            assert!(x.sc(l, i));
            high_water = high_water.max(x.tracked_nodes());
        }
        assert!(high_water < 10_000, "backlog tracked total SCs: {high_water}");
        drop(x);
    }
}
