//! Per-process handles: the LL, SC, VL (and Read) procedures.
//!
//! Each method is a line-for-line transliteration of Figure 2 of the
//! paper; comments cite the paper's line numbers. The handle owns the
//! process's persistent local variables (`mybuf_p`, `x_p`) and the link
//! token for the process's latest LL on `X`.
//!
//! One body serves both ways of holding the object: an `Arc` for the
//! leases of [`claim`](MwLlSc::claim), [`attach`](MwLlSc::attach) and
//! [`with`](MwLlSc::with), and a plain borrow for
//! [`MwFactory::borrow_slot`](crate::MwFactory::borrow_slot).

use std::ops::Deref;
use std::sync::Arc;

use llsc_word::{Link, NewCell, TaggedLlSc};

use crate::layout::{HelpRecord, XRecord};
use crate::stats::Counters;
use crate::variable::{LlStrategy, MwLlSc};

/// Process `p`'s capability to operate on a [`MwLlSc`] object.
///
/// A handle is `Send` (a process may migrate between threads) but not
/// `Clone` and not `Sync`: the algorithm requires that each process has at
/// most one operation outstanding, which `&mut self` methods enforce
/// statically.
///
/// A handle is a *lease* on its process slot: dropping it releases the
/// slot — carrying the owned buffer `mybuf_p` back with it, so the paper's
/// buffer-partition invariant survives reuse — and a later
/// [`claim`](MwLlSc::claim) or [`attach`](MwLlSc::attach) can take the
/// slot over.
///
/// `O` is how the handle holds its object: `Arc<MwLlSc<C>>` (the default)
/// for leases, or `&MwLlSc<C>` for a slot borrowed with
/// [`MwFactory::borrow_slot`](crate::MwFactory::borrow_slot), which pays
/// no reference count.
///
/// # Operation protocol
///
/// [`sc`](Self::sc) and [`vl`](Self::vl) are defined relative to this
/// process's latest [`ll`](Self::ll); calling them before the first `ll`
/// panics. After a successful `sc`, the link is consumed: a further `sc`
/// without a fresh `ll` fails (the paper's semantics — the process's own
/// successful SC counts as "a successful SC since p's latest LL").
pub struct Handle<C: NewCell = TaggedLlSc, O: Deref<Target = MwLlSc<C>> = Arc<MwLlSc<C>>> {
    obj: O,
    p: usize,
    /// `mybuf_p`: index of the buffer this process currently owns.
    mybuf: u32,
    /// `x_p`: the `(buf, seq)` record read by the latest LL from `X`.
    x_rec: XRecord,
    /// Link token for the latest LL on `X` (realizes the hardware link).
    x_link: Option<Link>,
}

impl<C: NewCell, O: Deref<Target = MwLlSc<C>>> std::fmt::Debug for Handle<C, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("p", &self.p)
            .field("mybuf", &self.mybuf)
            .field("linked", &self.x_link.is_some())
            .finish()
    }
}

impl<C: NewCell, O: Deref<Target = MwLlSc<C>>> Handle<C, O> {
    /// `mybuf` is whatever the slot registry carried for `p` — initially
    /// the paper's `2N + p`, later whatever buffer the previous lease of
    /// this slot owned when it was dropped.
    pub(crate) fn new(obj: O, p: usize, mybuf: u32) -> Self {
        Self { obj, p, mybuf, x_rec: XRecord { buf: 0, seq: 0 }, x_link: None }
    }

    /// The process id `p` in `0..N`.
    #[must_use]
    pub fn process_id(&self) -> usize {
        self.p
    }

    /// The shared object this handle operates on, as the handle holds it.
    #[must_use]
    pub fn object(&self) -> &O {
        &self.obj
    }

    /// Load-linked: reads the current `W`-word value of `O` into `out` and
    /// links this process to it for a subsequent [`sc`](Self::sc) /
    /// [`vl`](Self::vl).
    ///
    /// Wait-free: completes in `O(W)` of this process's steps regardless of
    /// interference (under [`LlStrategy::WaitFree`]; the
    /// [`LlStrategy::RetryLoop`] ablation is only lock-free).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != W`.
    pub fn ll(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "ll: output slice length must equal W");
        Counters::bump(&self.obj.counters.ll_ops);
        match self.obj.strategy {
            LlStrategy::WaitFree => {
                let (rec, link) = self.ll_waitfree(self.p, out, true);
                self.x_rec = rec;
                self.x_link = Some(link);
            }
            LlStrategy::RetryLoop => {
                let (rec, link) = self.ll_retry_loop(out);
                self.x_rec = rec;
                self.x_link = Some(link);
            }
        }
    }

    /// Store-conditional: atomically installs `v` iff no successful SC on
    /// `O` occurred since this process's latest [`ll`](Self::ll). Returns
    /// whether it succeeded. Wait-free, `O(W)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != W` or if no `ll` was ever performed.
    pub fn sc(&mut self, v: &[u64]) -> bool {
        assert_eq!(v.len(), self.obj.w, "sc: value slice length must equal W");
        let x_link = self.x_link.expect("sc: no preceding ll on this handle");
        Counters::bump(&self.obj.counters.sc_attempts);

        let o = &*self.obj;
        let lay = o.layout;
        let xr = self.x_rec;

        // Line 12: if (LL(Bank[x_p.seq]) != x_p.buf) ∧ VL(X)
        let bank_s = &o.bank[xr.seq as usize];
        let (bv, b_link) = bank_s.ll();
        if bv != u64::from(xr.buf) && o.x.vl(x_link) {
            // Line 13: SC(Bank[x_p.seq], x_p.buf)
            if bank_s.sc(b_link, u64::from(xr.buf)) {
                Counters::bump(&o.counters.bank_fixups);
            }
        }

        // Line 14: if (LL(Help[x_p.seq mod N]) ≡ (1, d)) ∧ VL(X)
        let q = lay.helpee(xr.seq);
        let help_q = &o.help[q];
        let (hv, h_link) = help_q.ll();
        let h = lay.unpack_help(hv);
        if h.helpme && o.x.vl(x_link) {
            // Line 15: if SC(Help[q], (0, mybuf_p))
            if help_q.sc(h_link, lay.pack_help(HelpRecord { helpme: false, buf: self.mybuf })) {
                Counters::bump(&o.counters.helps_given);
                // Line 16: mybuf_p = d  (ownership exchange with the helpee)
                self.mybuf = h.buf;
            }
        }

        // Line 17: copy *v into BUF[mybuf_p]
        o.bufs.get(self.mybuf as usize).copy_from(v);

        // Line 18: e = Bank[(x_p.seq + 1) mod 2N]
        let next = lay.next_seq(xr.seq);
        let e = o.bank[next as usize].read();

        // Line 19: if SC(X, (mybuf_p, (x_p.seq + 1) mod 2N))
        if o.x.sc(x_link, lay.pack_x(XRecord { buf: self.mybuf, seq: next })) {
            Counters::bump(&o.counters.sc_successes);
            // Line 20: mybuf_p = e — take over the buffer whose value just
            // aged out of the 2N-deep history; it is now safe to reuse.
            self.mybuf = e as u32;
            // Line 21: return true.
            true
        } else {
            // Line 22: return false.
            false
        }
    }

    /// Validate: returns `true` iff no successful SC on `O` occurred since
    /// this process's latest [`ll`](Self::ll). Wait-free, `O(1)` steps
    /// (paper line 23).
    ///
    /// # Panics
    ///
    /// Panics if no `ll` was ever performed on this handle.
    pub fn vl(&mut self) -> bool {
        let x_link = self.x_link.expect("vl: no preceding ll on this handle");
        Counters::bump(&self.obj.counters.vl_ops);
        // Line 23: return VL(X).
        self.obj.x.vl(x_link)
    }

    /// Reads the current value into `out` **without** linking: the outcome
    /// of a pending `sc`/`vl` for this process is unaffected.
    ///
    /// This runs the same wait-free LL procedure (so it is `O(W)` and
    /// returns a value that was current at some instant during the call)
    /// but discards the link instead of installing it.
    ///
    /// Note a substrate subtlety: this operation is sound *because* the
    /// [`llsc_word`] substrate realizes links as explicit value tokens —
    /// the inner `LL(X)` just produces a token we drop. On hardware LL/SC
    /// with an implicit per-process reservation register, the inner `LL`
    /// would clobber the caller's outstanding reservation and `read` could
    /// not be offered with these semantics. (The paper's object interface
    /// has no `read` on `O`; this is an extension the CAS realization
    /// makes free.)
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != W`.
    pub fn read(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.obj.w, "read: output slice length must equal W");
        match self.obj.strategy {
            LlStrategy::WaitFree => {
                let _ = self.ll_waitfree(self.p, out, false);
            }
            LlStrategy::RetryLoop => {
                let _ = self.ll_retry_loop(out);
            }
        }
    }

    /// Convenience: [`ll`](Self::ll) into a freshly allocated `Vec`.
    #[must_use]
    pub fn ll_vec(&mut self) -> Vec<u64> {
        let mut out = vec![0u64; self.obj.w];
        self.ll(&mut out);
        out
    }

    /// The paper's LL procedure, lines 1–11.
    ///
    /// Returns the `(buf, seq)` record and the `X` link that obligations
    /// O1/O2 (paper §2.4) are defined against. When `announce` is false the
    /// procedure is being used as a pure read on behalf of `read()`; the
    /// code path is identical (announcing is still required for
    /// wait-freedom — a reader that did not announce could be starved by
    /// torn reads forever).
    fn ll_waitfree(&mut self, p: usize, out: &mut [u64], _announce: bool) -> (XRecord, Link) {
        let o = &*self.obj;
        let lay = o.layout;

        // Line 1: Help[p] = (1, mybuf_p) — announce, offering our buffer.
        o.help[p].write(lay.pack_help(HelpRecord { helpme: true, buf: self.mybuf }));

        // Line 2: x_p = LL(X).
        let (xv, mut x_link) = o.x.ll();
        let mut xr = lay.unpack_x(xv);

        // Line 3: copy BUF[x_p.buf] into *retval.
        o.bufs.get(xr.buf as usize).copy_to(out);

        // Line 4: if LL(Help[p]) ≡ (0, b) — someone helped us already.
        let (hv4, _link4) = o.help[p].ll();
        let h4 = lay.unpack_help(hv4);
        if !h4.helpme {
            Counters::bump(&o.counters.lls_helped);
            let b = h4.buf;

            // Line 5: x_p = LL(X) — re-read; the helper's value may be
            // stale, and returning a stale value with a live link would
            // violate obligation O2.
            let (xv5, x_link5) = o.x.ll();
            xr = lay.unpack_x(xv5);
            x_link = x_link5;

            // Line 6: copy BUF[x_p.buf] into *retval.
            o.bufs.get(xr.buf as usize).copy_to(out);

            // Line 7: if ¬VL(X), fall back to the helper's donated value:
            // the line-6 read may be torn, but the donated value is valid,
            // and since X changed, our subsequent SC will fail either way
            // (O2 satisfied with the older-but-valid value).
            if !o.x.vl(x_link) {
                Counters::bump(&o.counters.lls_rescued);
                o.bufs.get(b as usize).copy_to(out);
            }
        }

        // Line 8: if LL(Help[p]) ≡ (1, c) — not helped yet: withdraw.
        let (hv8, h_link8) = o.help[p].ll();
        let h8 = lay.unpack_help(hv8);
        if h8.helpme {
            // Line 9: SC(Help[p], (0, c)). Failure means a helper slipped
            // in between lines 8 and 9; line 10 picks up its donation.
            if !o.help[p].sc(h_link8, lay.pack_help(HelpRecord { helpme: false, buf: h8.buf })) {
                Counters::bump(&o.counters.withdraw_races);
            }
        }

        // Line 10: mybuf_p = Help[p].buf — our own buffer if the withdrawal
        // won, the helper's donated buffer if we were helped (ownership
        // exchange completes here).
        self.mybuf = lay.unpack_help(o.help[p].read()).buf;

        // Line 11: copy *retval into BUF[mybuf_p] — stash the value we are
        // about to return in our own buffer so that our subsequent SC can
        // donate a valid value to another process's LL (line 15).
        o.bufs.get(self.mybuf as usize).copy_from(out);

        (xr, x_link)
    }

    /// Ablation LL: read–validate retry loop (no announce, no helping).
    ///
    /// Lock-free only: under a continuous writer storm a reader may retry
    /// unboundedly. Used to quantify the value of the helping machinery.
    fn ll_retry_loop(&mut self, out: &mut [u64]) -> (XRecord, Link) {
        let o = &*self.obj;
        let lay = o.layout;
        loop {
            let (xv, x_link) = o.x.ll();
            let xr = lay.unpack_x(xv);
            o.bufs.get(xr.buf as usize).copy_to(out);
            // If X is unchanged, fewer than 2N successful SCs occurred
            // during the copy (in fact zero), so the buffer was stable and
            // `out` is the value current at the LL of X.
            if o.x.vl(x_link) {
                return (xr, x_link);
            }
        }
    }
}

impl<C: NewCell, O: Deref<Target = MwLlSc<C>>> Drop for Handle<C, O> {
    /// Releases the lease (or ends the borrow): slot `p` returns to the
    /// free pool carrying this handle's current `mybuf`, so the next
    /// holder of `p` owns exactly the buffer this one did — the
    /// `3N`-buffer partition never gains or loses a member across any
    /// sequence of attaches, borrows and drops.
    fn drop(&mut self) {
        self.obj.release_slot(self.p, self.mybuf);
    }
}

// Handle is Send (process migration between threads is fine) but must not
// be shared: all mutating methods take &mut self, and Clone is not derived.
#[allow(dead_code)]
fn _assert_handle_send<C: NewCell>(h: Handle<C>, b: Handle<C, &MwLlSc<C>>) -> impl Send + '_ {
    (h, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::MwLlSc;

    fn obj2() -> (Handle, Handle) {
        let obj = MwLlSc::new(2, 2, &[10, 20]);
        let mut hs = obj.handles();
        let h1 = hs.pop().unwrap();
        let h0 = hs.pop().unwrap();
        (h0, h1)
    }

    #[test]
    fn ll_returns_initial_value() {
        let (mut h0, _h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert_eq!(v, [10, 20]);
    }

    #[test]
    fn sc_after_ll_succeeds_and_updates() {
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert!(h0.sc(&[1, 2]));
        h1.ll(&mut v);
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn sc_fails_after_interfering_sc() {
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        h1.ll(&mut v);
        assert!(h1.sc(&[7, 8]));
        assert!(!h0.sc(&[9, 9]), "h0's link was broken by h1's successful SC");
        h0.ll(&mut v);
        assert_eq!(v, [7, 8], "failed SC must not change the value");
    }

    #[test]
    fn vl_tracks_interference() {
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert!(h0.vl());
        h1.ll(&mut v);
        assert!(h1.sc(&[0, 0]));
        assert!(!h0.vl());
    }

    #[test]
    fn own_successful_sc_consumes_link() {
        let (mut h0, _h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert!(h0.sc(&[1, 1]));
        assert!(!h0.sc(&[2, 2]), "second SC without fresh LL must fail");
        assert!(!h0.vl());
    }

    #[test]
    fn failed_sc_keeps_failing_until_fresh_ll() {
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        h1.ll(&mut v);
        assert!(h1.sc(&[3, 3]));
        assert!(!h0.sc(&[4, 4]));
        assert!(!h0.sc(&[5, 5]));
        h0.ll(&mut v);
        assert_eq!(v, [3, 3]);
        assert!(h0.sc(&[6, 6]));
    }

    #[test]
    #[should_panic(expected = "no preceding ll")]
    fn sc_before_ll_panics() {
        let (mut h0, _h1) = obj2();
        let _ = h0.sc(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "no preceding ll")]
    fn vl_before_ll_panics() {
        let (mut h0, _h1) = obj2();
        let _ = h0.vl();
    }

    #[test]
    #[should_panic(expected = "length must equal W")]
    fn ll_wrong_width_panics() {
        let (mut h0, _h1) = obj2();
        let mut v = [0u64; 3];
        h0.ll(&mut v);
    }

    #[test]
    fn read_does_not_disturb_link() {
        let (mut h0, _h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        let mut r = [0u64; 2];
        h0.read(&mut r);
        assert_eq!(r, [10, 20]);
        // The link from the LL must still be intact: SC succeeds.
        assert!(h0.sc(&[1, 1]));
    }

    #[test]
    fn read_sees_latest_committed_value() {
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        h1.ll(&mut v);
        assert!(h1.sc(&[42, 43]));
        let mut r = [0u64; 2];
        h0.read(&mut r);
        assert_eq!(r, [42, 43]);
    }

    #[test]
    fn long_alternating_history_single_object() {
        // Two processes alternate successful SCs for many rounds, cycling
        // sequence numbers through the mod-2N space repeatedly.
        let (mut h0, mut h1) = obj2();
        let mut v = [0u64; 2];
        for round in 0..1000u64 {
            let (a, b) = if round % 2 == 0 { (&mut h0, round) } else { (&mut h1, round) };
            a.ll(&mut v);
            assert_eq!(v, if round == 0 { [10, 20] } else { [round - 1, round - 1] });
            assert!(a.sc(&[b, b]), "round {round}");
        }
    }

    #[test]
    fn n1_single_process_works() {
        // Degenerate N=1: helpee(s) = 0 is always the process itself.
        let obj = MwLlSc::new(1, 3, &[1, 2, 3]);
        let mut h = obj.claim(0).unwrap();
        let mut v = [0u64; 3];
        for i in 0..500u64 {
            h.ll(&mut v);
            v[0] += 1;
            v[2] = i;
            assert!(h.sc(&v));
            assert!(!h.vl(), "own SC invalidates the link");
        }
        h.ll(&mut v);
        assert_eq!(v, [501, 2, 499]);
    }

    #[test]
    fn retry_loop_strategy_matches_semantics() {
        let obj = MwLlSc::try_with_strategy(2, 2, &[10, 20], LlStrategy::RetryLoop).unwrap();
        let mut hs = obj.handles();
        let mut h1 = hs.pop().unwrap();
        let mut h0 = hs.pop().unwrap();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        assert_eq!(v, [10, 20]);
        h1.ll(&mut v);
        assert!(h1.sc(&[5, 6]));
        assert!(!h0.sc(&[7, 7]));
        h0.ll(&mut v);
        assert_eq!(v, [5, 6]);
    }

    #[test]
    fn stats_count_basic_ops() {
        let (mut h0, _h1) = obj2();
        let mut v = [0u64; 2];
        h0.ll(&mut v);
        h0.vl();
        h0.sc(&[0, 0]);
        let s = h0.object().stats();
        assert_eq!(s.ll_ops, 1);
        assert_eq!(s.vl_ops, 1);
        assert_eq!(s.sc_attempts, 1);
        assert_eq!(s.sc_successes, 1);
    }

    #[test]
    fn wide_values_roundtrip() {
        let w = 128;
        let init: Vec<u64> = (0..w as u64).collect();
        let obj = MwLlSc::new(2, w, &init);
        let mut h = obj.claim(0).unwrap();
        let mut v = vec![0u64; w];
        h.ll(&mut v);
        assert_eq!(v, init);
        let next: Vec<u64> = (0..w as u64).map(|x| x * 3 + 1).collect();
        assert!(h.sc(&next));
        h.ll(&mut v);
        assert_eq!(v, next);
    }
}
