//! An Anderson–Moir-style wait-free multiword LL/SC with `Θ(N²W)` space.
//!
//! The Jayanti–Petrovic paper compares against Anderson & Moir's 1995
//! construction, whose defining property is `O(W)`-time wait-free LL/SC at
//! `O(N²W)` space. This module reconstructs an algorithm *in that class*
//! (we label it "AM-style" throughout: it preserves the comparison's
//! substance — the space class and its cause — without claiming to be the
//! literal 1995 pseudocode, which is not reproduced in the paper).
//!
//! # Why `Θ(N²W)` is the natural cost without ownership exchange
//!
//! Two design choices, each costing a factor of `N`:
//!
//! 1. **Per-process value pools.** Every writer owns `2N + 1` private
//!    buffers and publishes values round-robin from its own pool
//!    (`N · (2N+1) · W` words). Because a slot is only reused after its
//!    owner completes `2N + 1` further successful SCs — each of which is
//!    also a *global* successful SC — the paper's key stability property
//!    ("a published buffer survives 2N more successful SCs") holds without
//!    any shared `Bank` bookkeeping.
//! 2. **Helping by copying.** A helper cannot *donate* its buffer (pools
//!    are private), so each ordered pair (helper `q`, helpee `r`) gets a
//!    dedicated `W`-word help slot that `q` fills by copying before
//!    installing it in `Help[r]` (`N² · W` words).
//!
//! Jayanti–Petrovic's insight is precisely that exchanging buffer
//! ownership removes both factors at once, with a shared pool of `3N`
//! buffers plus the `Bank` recycling discipline.
//!
//! # Correctness sketch (mirrors the paper's §2.4 obligations)
//!
//! An LL announces in `Help[p]`, reads `X = (owner, slot, seq)`, copies
//! `POOL[owner][slot]`, and checks `Help[p]`:
//!
//! * Not helped ⇒ fewer than `2N` successful SCs overlapped the copy (the
//!   helpee for each sequence step is `seq mod N`, so `p` is examined twice
//!   per `2N` SCs — the paper's Lemma 4 argument verbatim), and pool slots
//!   survive `2N` successful SCs (point 1 above), so the copy is `O`'s
//!   value at the `LL(X)`: obligations O1 and O2 hold.
//! * Helped ⇒ re-read `X`, re-copy, `VL(X)`: if valid, the re-copy is
//!   current; if not, fall back to the helper's slot — the helper `VL`ed
//!   `X` *after* `p` announced, so its retained LL value was `O`'s current
//!   value at a point inside `p`'s LL (the paper's Lemma 8 argument), and
//!   `p`'s subsequent SC will fail anyway: O1 and O2 again.
//!
//! A helper's slot `HELPBUF[q][p]` cannot be read and rewritten
//! concurrently: `q` rewrites it only when helping a *later* LL of `p`,
//! which requires `p` to have withdrawn (changing `Help[p]`, failing any
//! in-flight donation SC) and re-announced.

use mwllsc::sync::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mwllsc::{ClaimError, ConfigError, MwFactory};

use llsc_word::{bits_for, Link, LlScCell, TaggedLlSc};

use crate::buffers::WordBuffer;
use crate::traits::{MwHandle, Progress, SpaceEstimate};

/// Packing of `X = (owner, slot, seq)` and `Help[p] = (helpme, helper)`.
#[derive(Clone, Copy, Debug)]
struct AmLayout {
    n: u32,
    owner_bits: u32,
    slot_bits: u32,
    seq_bits: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AmX {
    owner: u32,
    slot: u32,
    seq: u32,
}

impl AmLayout {
    fn new(n: usize) -> Self {
        let n = u32::try_from(n).expect("process count exceeds u32");
        let l = Self {
            n,
            owner_bits: bits_for(u64::from(n - 1)),
            slot_bits: bits_for(2 * u64::from(n)), // slots 0..=2N
            seq_bits: bits_for(2 * u64::from(n) - 1),
        };
        assert!(l.owner_bits + l.slot_bits + l.seq_bits <= 48, "N={n} leaves too few tag bits");
        l
    }

    fn pool_size(&self) -> usize {
        2 * self.n as usize + 1
    }

    fn x_max(&self) -> u64 {
        (1u64 << (self.owner_bits + self.slot_bits + self.seq_bits)) - 1
    }

    fn pack_x(&self, x: AmX) -> u64 {
        debug_assert!(x.owner < self.n && x.slot < self.pool_size() as u32 && x.seq < 2 * self.n);
        (u64::from(x.seq) << (self.owner_bits + self.slot_bits))
            | (u64::from(x.slot) << self.owner_bits)
            | u64::from(x.owner)
    }

    fn unpack_x(&self, v: u64) -> AmX {
        let owner = (v & ((1 << self.owner_bits) - 1)) as u32;
        let slot = ((v >> self.owner_bits) & ((1 << self.slot_bits) - 1)) as u32;
        let seq = (v >> (self.owner_bits + self.slot_bits)) as u32;
        AmX { owner, slot, seq }
    }

    fn help_max(&self) -> u64 {
        (1u64 << (self.owner_bits + 1)) - 1
    }

    fn pack_help(&self, helpme: bool, helper: u32) -> u64 {
        (u64::from(helpme) << self.owner_bits) | u64::from(helper)
    }

    fn unpack_help(&self, v: u64) -> (bool, u32) {
        ((v >> self.owner_bits) & 1 == 1, (v & ((1 << self.owner_bits) - 1)) as u32)
    }
}

/// The AM-style object: `Θ(N²W)` space, wait-free, `O(W)` time.
pub struct AmStyleLlSc {
    layout: AmLayout,
    w: usize,
    x: TaggedLlSc,
    /// `Help[0..N-1]`: `(helpme, helper-id)`.
    help: Box<[TaggedLlSc]>,
    /// `POOL[p][k]`: process `p`'s private value buffers, `k ∈ 0..2N+1`.
    pools: Box<[WordBuffer]>,
    /// `HELPBUF[q][r]`: `q`'s dedicated donation slot for helpee `r`.
    helpbufs: Box<[WordBuffer]>,
    claimed: Box<[AtomicBool]>,
    /// Each process's round-robin pool cursor, persisted across lease
    /// generations: the slot-stability argument counts successful SCs by
    /// *process id*, so a re-claimed id must resume where the previous
    /// holder stopped — resetting to 0 could write into the currently
    /// published slot.
    cursors: Box<[AtomicU32]>,
    /// Each process's `retval` scratch buffer, recycled across lease
    /// generations so claim-per-operation consumers (the sharded store)
    /// do not pay a heap allocation per operation. Uncontended by
    /// construction — slot `p` is exclusively leased — so the mutex is
    /// one uncontended RMW.
    scratch: Box<[Mutex<Vec<u64>>]>,
}

impl std::fmt::Debug for AmStyleLlSc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmStyleLlSc")
            .field("n", &self.layout.n)
            .field("w", &self.w)
            .finish_non_exhaustive()
    }
}

impl AmStyleLlSc {
    /// Creates the object for `n` processes, `w`-word values.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `w == 0`, or `initial.len() != w`.
    #[must_use]
    pub fn new(n: usize, w: usize, initial: &[u64]) -> Arc<Self> {
        assert!(n > 0, "need at least one process");
        assert!(w > 0, "need at least one word");
        assert_eq!(initial.len(), w, "initial value must have W words");
        let layout = AmLayout::new(n);
        let k = layout.pool_size();
        let pools: Box<[WordBuffer]> = (0..n * k).map(|_| WordBuffer::new(w)).collect();
        // Initial value lives in POOL[0][0]; X names it with seq 0.
        pools[0].copy_from(initial);
        let helpbufs = (0..n * n).map(|_| WordBuffer::new(w)).collect();
        let x = TaggedLlSc::new(
            layout.owner_bits + layout.slot_bits + layout.seq_bits,
            layout.pack_x(AmX { owner: 0, slot: 0, seq: 0 }),
        );
        let _ = layout.x_max(); // (sizing sanity; packing asserts cover the rest)
        let help = (0..n)
            .map(|_| TaggedLlSc::with_max(layout.help_max(), layout.pack_help(false, 0)))
            .collect();
        Arc::new(Self {
            layout,
            w,
            x,
            help,
            pools,
            helpbufs,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            // Process 0's slot 0 holds the initial value; its cursor
            // starts past it so the published slot is never overwritten.
            cursors: (0..n).map(|p| AtomicU32::new(u32::from(p == 0))).collect(),
            scratch: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    fn pool(&self, owner: u32, slot: u32) -> &WordBuffer {
        &self.pools[owner as usize * self.layout.pool_size() + slot as usize]
    }

    fn helpbuf(&self, helper: u32, helpee: u32) -> &WordBuffer {
        &self.helpbufs[helper as usize * self.layout.n as usize + helpee as usize]
    }

    /// Leases the handle for process `p`. Fails while another live handle
    /// holds the id; dropping the handle frees it (the same lease
    /// semantics as [`MwLlSc::claim`](mwllsc::MwLlSc::claim)). The pool
    /// cursor carries over between lease generations, preserving the
    /// slot-stability argument across any amount of claim/drop churn.
    pub fn try_claim(self: &Arc<Self>, p: usize) -> Result<AmHandle, ClaimError> {
        let n = self.layout.n as usize;
        if p >= n {
            return Err(ClaimError::OutOfRange { p, n });
        }
        if self.claimed[p].swap(true, Ordering::AcqRel) {
            return Err(ClaimError::AlreadyClaimed { p });
        }
        // Recycle the slot's scratch buffer (first claim allocates it).
        let mut retval =
            std::mem::take(&mut *self.scratch[p].lock().unwrap_or_else(PoisonError::into_inner));
        retval.resize(self.w, 0);
        Ok(AmHandle {
            obj: Arc::clone(self),
            p: p as u32,
            cursor: self.cursors[p].load(Ordering::Relaxed),
            x: AmX { owner: 0, slot: 0, seq: 0 },
            x_link: None,
            retval,
        })
    }

    /// [`try_claim`](Self::try_claim), panicking on errors.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or currently-leased id.
    #[must_use]
    pub fn claim(self: &Arc<Self>, p: usize) -> AmHandle {
        self.try_claim(p).unwrap_or_else(|e| panic!("claim: {e}"))
    }

    /// All `N` handles, in process order.
    #[must_use]
    pub fn handles(self: &Arc<Self>) -> Vec<AmHandle> {
        (0..self.layout.n as usize).map(|p| self.claim(p)).collect()
    }

    /// Progress guarantee: wait-free.
    #[must_use]
    pub fn progress() -> Progress {
        Progress::WaitFree
    }

    /// Exact shared-space accounting — the `Θ(N²W)` the paper cites.
    #[must_use]
    pub fn space(&self) -> SpaceEstimate {
        let n = self.layout.n as usize;
        SpaceEstimate {
            shared_words: n * self.layout.pool_size() * self.w  // pools
                + n * n * self.w                                 // help slots
                + 1                                              // X
                + n, // Help
            retired_words: 0, // statically bounded buffers, no garbage
            asymptotic: "O(N^2 W)",
        }
    }

    /// Words per value.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }
}

/// Per-process handle to an [`AmStyleLlSc`].
pub struct AmHandle {
    obj: Arc<AmStyleLlSc>,
    p: u32,
    /// Round-robin cursor into this process's pool; advances only on
    /// successful SC, so the published slot is never the write target.
    cursor: u32,
    x: AmX,
    x_link: Option<Link>,
    /// The value returned by this process's latest LL, retained locally so
    /// a later SC can donate it by copying (the `Θ(N²)` helping cost).
    retval: Vec<u64>,
}

impl std::fmt::Debug for AmHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmHandle")
            .field("p", &self.p)
            .field("cursor", &self.cursor)
            .field("linked", &self.x_link.is_some())
            .finish()
    }
}

impl AmHandle {
    /// The process id.
    #[must_use]
    pub fn process_id(&self) -> usize {
        self.p as usize
    }
}

impl Drop for AmHandle {
    fn drop(&mut self) {
        // Persist the cursor and return the scratch buffer *before*
        // freeing the id: the next claimant's `swap(true, AcqRel)` on the
        // flag orders its loads after these stores.
        let p = self.p as usize;
        *self.obj.scratch[p].lock().unwrap_or_else(PoisonError::into_inner) =
            std::mem::take(&mut self.retval);
        self.obj.cursors[p].store(self.cursor, Ordering::Relaxed);
        self.obj.claimed[p].store(false, Ordering::Release);
    }
}

/// [`MwFactory`] marker: AM-style `Θ(N²W)` objects as a store backend —
/// exists so the space-class comparison runs at store scale too.
#[derive(Clone, Copy, Debug, Default)]
pub struct AmStyleBackend;

impl MwFactory for AmStyleBackend {
    type Object = AmStyleLlSc;
    type Slot<'a> = AmHandle;

    const NAME: &'static str = "am-style";

    fn progress() -> Progress {
        Progress::WaitFree
    }

    fn max_processes() -> usize {
        // The packed X record (owner, slot, seq) must fit 48 bits
        // (`AmLayout::new`): at N = 2^15 it uses 15 + 17 + 16 = 48.
        1 << 15
    }

    fn try_build(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self::Object>, ConfigError> {
        ConfigError::validate(n, w, initial, Self::max_processes())?;
        Ok(AmStyleLlSc::new(n, w, initial))
    }

    /// Leases the ordinary handle; a held `p` breaks the caller's
    /// exclusivity precondition and panics.
    fn borrow_slot(obj: &Arc<Self::Object>, p: usize) -> Self::Slot<'_> {
        obj.claim(p)
    }

    fn object_shared_words(n: usize, w: usize) -> usize {
        // pools + help slots + X + Help, matching `space()`.
        n * (2 * n + 1) * w + n * n * w + 1 + n
    }

    fn measured_shared_words(obj: &Self::Object) -> usize {
        obj.space().shared_words
    }
}

impl MwHandle for AmHandle {
    fn ll(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "ll: output slice length must equal W");
        let o = &*self.obj;
        let lay = o.layout;
        let p = self.p as usize;

        // Announce.
        o.help[p].write(lay.pack_help(true, 0));
        // Read X and copy the published pool slot.
        let (xv, mut x_link) = o.x.ll();
        let mut xr = lay.unpack_x(xv);
        o.pool(xr.owner, xr.slot).copy_to(out);
        // Were we helped?
        let (hv, _) = o.help[p].ll();
        let (helpme, helper) = lay.unpack_help(hv);
        if !helpme {
            // Re-read, re-copy, validate (paper lines 5–7 analogue).
            let (xv2, x_link2) = o.x.ll();
            xr = lay.unpack_x(xv2);
            x_link = x_link2;
            o.pool(xr.owner, xr.slot).copy_to(out);
            if !o.x.vl(x_link) {
                o.helpbuf(helper, self.p).copy_to(out);
            }
        }
        // Withdraw (lines 8–9 analogue).
        let (hv8, h_link8) = o.help[p].ll();
        let (helpme8, helper8) = lay.unpack_help(hv8);
        if helpme8 {
            let _ = o.help[p].sc(h_link8, lay.pack_help(false, helper8));
        }
        // Retain the value locally for future donations (replaces the
        // paper's line 11 shared-buffer store).
        self.retval.copy_from_slice(out);
        self.x = xr;
        self.x_link = Some(x_link);
    }

    fn sc(&mut self, v: &[u64]) -> bool {
        assert_eq!(v.len(), self.obj.w, "sc: value slice length must equal W");
        let x_link = self.x_link.expect("sc: no preceding ll on this handle");
        let o = &*self.obj;
        let lay = o.layout;

        // Helping (lines 14–15 analogue): donate by copying.
        let q = (self.x.seq % lay.n) as usize;
        let (hv, h_link) = o.help[q].ll();
        let (helpme, _) = lay.unpack_help(hv);
        if helpme && o.x.vl(x_link) {
            o.helpbuf(self.p, q as u32).copy_from(&self.retval);
            let _ = o.help[q].sc(h_link, lay.pack_help(false, self.p));
        }

        // Publish from our private pool.
        o.pool(self.p, self.cursor).copy_from(v);
        let next_seq = (self.x.seq + 1) % (2 * lay.n);
        if o.x.sc(x_link, lay.pack_x(AmX { owner: self.p, slot: self.cursor, seq: next_seq })) {
            self.cursor = (self.cursor + 1) % lay.pool_size() as u32;
            true
        } else {
            false
        }
    }

    fn vl(&mut self) -> bool {
        let x_link = self.x_link.expect("vl: no preceding ll on this handle");
        self.obj.x.vl(x_link)
    }

    fn read(&mut self, out: &mut [u64]) {
        // Run the wait-free LL procedure, then restore the previous link
        // state: the substrate's links are explicit value tokens, so
        // putting the old token back leaves the pending `sc`/`vl` exactly
        // as it was. (`retval` legitimately advances — it must only ever
        // hold *some* valid recent value for donations.)
        let (x, x_link) = (self.x, self.x_link);
        self.ll(out);
        self.x = x;
        self.x_link = x_link;
    }

    fn width(&self) -> usize {
        self.obj.w
    }

    fn progress(&self) -> Progress {
        AmStyleLlSc::progress()
    }

    fn space(&self) -> SpaceEstimate {
        self.obj.space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_semantics() {
        let obj = AmStyleLlSc::new(3, 2, &[1, 2]);
        let mut hs = obj.handles();
        let mut v = [0u64; 2];
        hs[0].ll(&mut v);
        assert_eq!(v, [1, 2]);
        assert!(hs[0].sc(&[3, 4]));
        hs[1].ll(&mut v);
        assert_eq!(v, [3, 4]);
        hs[2].ll(&mut v);
        assert!(hs[1].sc(&[5, 6]));
        assert!(!hs[2].sc(&[7, 7]), "hs[1] interfered");
        hs[2].ll(&mut v);
        assert_eq!(v, [5, 6]);
    }

    #[test]
    fn vl_semantics() {
        let obj = AmStyleLlSc::new(2, 1, &[0]);
        let mut hs = obj.handles();
        let mut v = [0u64; 1];
        hs[0].ll(&mut v);
        assert!(hs[0].vl());
        hs[1].ll(&mut v);
        assert!(hs[1].sc(&[1]));
        assert!(!hs[0].vl());
    }

    #[test]
    fn pool_rotation_many_rounds() {
        // One process performs >> pool-size successful SCs: slots must
        // rotate without ever corrupting the current value.
        let obj = AmStyleLlSc::new(2, 2, &[0, 0]);
        let mut hs = obj.handles();
        let mut v = [0u64; 2];
        for i in 0..500u64 {
            hs[0].ll(&mut v);
            assert_eq!(v, [i, i * 2], "round {i}");
            assert!(hs[0].sc(&[i + 1, (i + 1) * 2]));
        }
    }

    #[test]
    fn space_is_quadratic() {
        let w = 8;
        let s4 = AmStyleLlSc::new(4, w, &vec![0; w]).space().shared_words;
        let s8 = AmStyleLlSc::new(8, w, &vec![0; w]).space().shared_words;
        // Doubling N should roughly quadruple space (pools+helpbufs dominate).
        let ratio = s8 as f64 / s4 as f64;
        assert!(ratio > 3.0 && ratio < 4.5, "ratio {ratio}");
        // And the exact formula:
        assert_eq!(s4, 4 * 9 * w + 16 * w + 1 + 4);
    }

    #[test]
    fn concurrent_fetch_increment_exact() {
        const THREADS: usize = 4;
        const PER: u64 = 5_000;
        let obj = AmStyleLlSc::new(THREADS, 2, &[0, 0]);
        let mut handles = obj.handles();
        let mut h0 = handles.remove(0);
        let mut joins = Vec::new();
        for mut h in handles {
            joins.push(std::thread::spawn(move || {
                let mut v = [0u64; 2];
                let mut wins = 0;
                while wins < PER {
                    h.ll(&mut v);
                    assert_eq!(v[0].wrapping_mul(7), v[1], "torn value escaped: {v:?}");
                    let next = [v[0] + 1, (v[0] + 1).wrapping_mul(7)];
                    if h.sc(&next) {
                        wins += 1;
                    }
                }
            }));
        }
        let mut v = [0u64; 2];
        let mut wins = 0;
        while wins < PER {
            h0.ll(&mut v);
            assert_eq!(v[0].wrapping_mul(7), v[1], "torn value escaped: {v:?}");
            let next = [v[0] + 1, (v[0] + 1).wrapping_mul(7)];
            if h0.sc(&next) {
                wins += 1;
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        h0.ll(&mut v);
        assert_eq!(v[0], THREADS as u64 * PER, "every successful SC counted once");
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let obj = AmStyleLlSc::new(1, 1, &[0]);
        let _a = obj.claim(0);
        let _b = obj.claim(0);
    }
}
