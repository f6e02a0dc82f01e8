//! The slot-leasing registry behind [`MwLlSc::claim`](crate::MwLlSc::claim)
//! and [`MwLlSc::attach`](crate::MwLlSc::attach) — public since the store
//! layer (`mwllsc-store`) leases shard-level slots through the same
//! machinery.
//!
//! The paper's model fixes `N` static processes; real deployments churn
//! worker threads. The registry maps the fixed process ids `0..N` onto
//! *leases*: a [`Handle`](crate::Handle) leases a slot for its lifetime and
//! releases it on drop, so the id space survives thread churn.
//!
//! The load-bearing detail is what travels with the slot: each slot carries
//! a `u32` *payload* that a lease hands to the new holder and a release
//! hands back. For `MwLlSc` the payload is the slot's owned buffer index
//! (`mybuf_p`): the algorithm's space bound rests on the invariant that the
//! `3N` buffers are partitioned at every instant among the current value
//! (`X.buf`), the `2N` history entries (`Bank`), and one spare per process,
//! and helping *exchanges* buffer ownership, so the payload must survive
//! the lease boundary. A freed slot is a process that is simply taking no
//! steps; re-leasing it resumes that process with its buffer intact, so the
//! `3NW + 3N + 1` shared-word footprint never grows no matter how many
//! handles come and go. Other consumers (the sharded store) use the payload
//! as an opaque token.
//!
//! Slot words are packed, one `u64` per slot, not cache-padded. Inside an
//! `MwLlSc` the payloads *are* the per-process `mybuf` array, which a
//! store keeps for every key: padding would multiply that array by 16,
//! while the words are written only when a slot changes hands (a lease, a
//! release, or the park at the end of a borrowed-slot operation — see
//! [`MwFactory::borrow_slot`](crate::MwFactory::borrow_slot)). Processes
//! operating on one object at once therefore share a line; the measured
//! price is noted in `pad.rs`.

use crate::sync::{AtomicU64, AtomicUsize, Labeled, Ordering};

/// Bit marking a slot as currently leased; the low 32 bits hold the
/// resting payload of a free slot (stale while leased).
const LEASED: u64 = 1 << 63;

/// Errors from [`MwLlSc::attach`](crate::MwLlSc::attach).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttachError {
    /// All `N` slots are leased by live handles.
    Exhausted {
        /// The configured process count (= total slots).
        n: usize,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhausted { n } => {
                write!(f, "all {n} process slots are leased by live handles")
            }
        }
    }
}

impl std::error::Error for AttachError {}

/// Lease state for a fixed set of `n` slots.
///
/// Lock-free: a lease is one `fetch_or` on the slot word, a release is one
/// store. [`lease_any`](Self::lease_any) scans from a rotating start so
/// attachers spread across the id space instead of contending on slot 0.
///
/// # Examples
///
/// ```
/// use mwllsc::SlotRegistry;
///
/// let r = SlotRegistry::new(2);
/// let (p, payload) = r.lease_any().unwrap();
/// assert_eq!(payload, p as u32, "fresh slots carry their own id");
/// let q = r.lease_any().unwrap().0;
/// assert_ne!(p, q);
/// assert!(r.lease_any().is_none(), "both slots held");
/// r.release(p, 7);
/// assert_eq!(r.lease_exact(p), Some(7), "the payload travels with the slot");
/// ```
pub struct SlotRegistry {
    /// Per-slot word: [`LEASED`] bit plus the resting payload.
    slots: Box<[AtomicU64]>,
    /// Rotating scan start for [`lease_any`](Self::lease_any).
    cursor: AtomicUsize,
}

impl SlotRegistry {
    /// Creates a registry of `n` slots, slot `p` initially carrying the
    /// payload `p` (an opaque token for consumers that do not use it).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX` (payloads are 32-bit).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_payloads(n, |p| p as u32)
    }

    /// Creates the registry for one [`MwLlSc`](crate::MwLlSc): the paper's
    /// initial buffer assignment `mybuf_p = 2N + p` (`num_seqs` = `2N`).
    pub(crate) fn for_object(n: usize, num_seqs: usize) -> Self {
        Self::with_payloads(n, |p| (num_seqs + p) as u32)
    }

    fn with_payloads(n: usize, payload: impl Fn(usize) -> u32) -> Self {
        assert!(n > 0, "a registry needs at least one slot");
        assert!(u32::try_from(n).is_ok(), "slot count exceeds u32");
        let this = Self {
            slots: (0..n).map(|p| AtomicU64::new(u64::from(payload(p)))).collect(),
            cursor: AtomicUsize::new(0),
        };
        for (p, slot) in this.slots.iter().enumerate() {
            Labeled::set_label(slot, "SLOT", p as u32, 0);
        }
        Labeled::set_label(&this.cursor, "CURS", 0, 0);
        this
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Leases slot `p` if free, returning the payload it carries.
    #[must_use]
    pub fn lease_exact(&self, p: usize) -> Option<u32> {
        // fetch_or is idempotent on an already-leased slot, so losing the
        // race costs nothing and the winner is decided by one RMW.
        let prev = self.slots[p].fetch_or(LEASED, Ordering::AcqRel); // lint: cell=SLOT
        (prev & LEASED == 0).then_some(prev as u32)
    }

    /// Leases any free slot, returning `(p, payload)`.
    #[must_use]
    pub fn lease_any(&self) -> Option<(usize, u32)> {
        let n = self.slots.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n; // lint: cell=CURS
        for i in 0..n {
            let p = (start + i) % n;
            // Cheap read first; only RMW slots that look free.
            // lint: cell=SLOT
            if self.slots[p].load(Ordering::Relaxed) & LEASED == 0 {
                if let Some(payload) = self.lease_exact(p) {
                    return Some((p, payload));
                }
            }
        }
        None
    }

    /// Takes slot `p` for one operation of a caller that already holds
    /// `p` exclusively by other means, returning its resting payload.
    ///
    /// Release builds read the payload with one `Acquire` load — no
    /// read-modify-write — which pairs with the `Release` store of the
    /// previous holder's [`release`](Self::release). The caller hands the
    /// slot back with `release` as usual.
    ///
    /// # Panics
    ///
    /// Panics if `p` is leased ([`lease_exact`](Self::lease_exact) or
    /// [`lease_any`](Self::lease_any)): the check reads the word already
    /// loaded, so it costs no memory operation. Debug builds also take a
    /// real lease for the borrow, so while it lasts a second borrow of `p`
    /// panics too and a lease of `p` fails.
    pub(crate) fn borrow(&self, p: usize) -> u32 {
        let word = self.slots[p].load(Ordering::Acquire); // lint: cell=SLOT
        assert!(word & LEASED == 0, "slot {p} borrowed while another holder has it");
        if cfg!(debug_assertions) {
            match self.lease_exact(p) {
                Some(payload) => payload,
                None => panic!("slot {p} borrowed while another holder has it"),
            }
        } else {
            word as u32
        }
    }

    /// Returns slot `p` to the free pool, carrying `payload` back with it.
    ///
    /// The `Release` store pairs with the `AcqRel` in
    /// [`lease_exact`](Self::lease_exact): the next leaseholder observes
    /// every write the previous one made (for `MwLlSc`, its final `Help[p]`
    /// state and the contents of the carried buffer).
    pub fn release(&self, p: usize, payload: u32) {
        debug_assert!(self.slots[p].load(Ordering::Relaxed) & LEASED != 0, "double release of {p}"); // lint: cell=SLOT
        self.slots[p].store(u64::from(payload), Ordering::Release); // lint: cell=SLOT
    }

    /// Number of currently leased slots.
    #[must_use]
    pub fn live(&self) -> usize {
        // lint: cell=SLOT
        self.slots.iter().filter(|s| s.load(Ordering::Acquire) & LEASED != 0).count()
    }

    /// Slot `p`'s resting payload (meaningful only while `p` is free).
    #[cfg(test)]
    pub(crate) fn payload(&self, p: usize) -> u32 {
        self.slots[p].load(Ordering::Acquire) as u32
    }
}

impl std::fmt::Debug for SlotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotRegistry")
            .field("slots", &self.slots.len())
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_release_roundtrip_carries_payload() {
        let r = SlotRegistry::for_object(3, 6);
        assert_eq!(r.lease_exact(1), Some(7), "initial mybuf_1 = 2N + 1");
        assert_eq!(r.lease_exact(1), None, "slot is held");
        r.release(1, 42);
        assert_eq!(r.lease_exact(1), Some(42), "release carried the new payload back");
        assert_eq!(r.live(), 1);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn plain_registry_payload_is_the_slot_id() {
        let r = SlotRegistry::new(4);
        for p in 0..4 {
            assert_eq!(r.lease_exact(p), Some(p as u32));
        }
    }

    #[test]
    fn lease_any_exhausts_and_recovers() {
        let r = SlotRegistry::for_object(2, 4);
        let a = r.lease_any().unwrap();
        let b = r.lease_any().unwrap();
        assert_ne!(a.0, b.0);
        assert_eq!(r.lease_any(), None, "both slots held");
        r.release(a.0, a.1);
        assert_eq!(r.lease_any(), Some(a), "freed slot is reusable with its payload");
    }

    #[test]
    fn concurrent_lease_any_grants_distinct_slots() {
        use std::sync::{Arc, Barrier};
        let n = 8;
        let r = Arc::new(SlotRegistry::new(n));
        let barrier = Arc::new(Barrier::new(n));
        let joins: Vec<_> = (0..n)
            .map(|_| {
                let r = Arc::clone(&r);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    r.lease_any().expect("one slot per thread")
                })
            })
            .collect();
        let mut got: Vec<usize> = joins.into_iter().map(|j| j.join().unwrap().0).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "every slot granted exactly once");
    }

    #[test]
    fn borrow_reads_the_payload_and_release_parks_it() {
        let r = SlotRegistry::for_object(2, 4);
        assert_eq!(r.borrow(1), 5, "initial mybuf_1 = 2N + 1");
        r.release(1, 9);
        assert_eq!(r.borrow(1), 9, "the parked payload is the next borrower's");
        r.release(1, 9);
        assert_eq!(r.live(), 0);
    }

    // The release-build check: it runs before the debug-only lease, so
    // this panics the same way in every build.
    #[test]
    #[should_panic(expected = "borrowed while another holder has it")]
    fn borrowing_a_leased_slot_panics() {
        let r = SlotRegistry::for_object(2, 4);
        let _ = r.lease_exact(0);
        let _ = r.borrow(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "borrowed while another holder has it")]
    fn debug_builds_reject_a_second_borrow() {
        let r = SlotRegistry::for_object(2, 4);
        let _ = r.borrow(0);
        let _ = r.borrow(0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = SlotRegistry::new(0);
    }
}
