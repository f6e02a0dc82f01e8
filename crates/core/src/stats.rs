//! Instrumentation counters.
//!
//! The counters quantify how often each path of the algorithm runs — in
//! particular the helping machinery of §2.2–§2.3, which only activates
//! under heavy interference. They feed experiment E7 (helping mechanism
//! frequency).
//!
//! Each [`Handle`](crate::Handle) keeps its own [`Stats`] as plain
//! fields that only its holder bumps, so counting adds no shared access
//! to the paper's steps (and none the model scheduler sees). An object's
//! total is its handles' snapshots summed with `+=`.

use std::ops::AddAssign;

/// A snapshot of one [`Handle`](crate::Handle)'s instrumentation counters.
///
/// Obtained from [`Handle::stats`](crate::Handle::stats): the operations
/// issued through that handle since it was created (a later handle on the
/// same slot starts from zero). Counters never decrease over the handle's
/// lifetime; total several handles with `+=`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Stats {
    /// Completed LL operations.
    pub ll_ops: u64,
    /// SC operations invoked (successful or not).
    pub sc_attempts: u64,
    /// SC operations that succeeded (line 19 succeeded).
    pub sc_successes: u64,
    /// Completed VL operations.
    pub vl_ops: u64,
    /// LL operations that were helped (line 4 saw `(0, b)`).
    pub lls_helped: u64,
    /// Helped LLs that returned the helper's donated value (line 7 VL
    /// failed). Always ≤ `lls_helped`.
    pub lls_rescued: u64,
    /// Help-withdrawal SCs (line 9) that failed because help arrived
    /// concurrently.
    pub withdraw_races: u64,
    /// Buffers handed to helpees via successful line-15 SCs.
    pub helps_given: u64,
    /// Lazy `Bank` fix-ups performed (successful line-13 SCs).
    pub bank_fixups: u64,
}

impl AddAssign for Stats {
    /// Adds `other` field by field: the total of two handles' counters.
    fn add_assign(&mut self, other: Stats) {
        self.ll_ops += other.ll_ops;
        self.sc_attempts += other.sc_attempts;
        self.sc_successes += other.sc_successes;
        self.vl_ops += other.vl_ops;
        self.lls_helped += other.lls_helped;
        self.lls_rescued += other.lls_rescued;
        self.withdraw_races += other.withdraw_races;
        self.helps_given += other.helps_given;
        self.bank_fixups += other.bank_fixups;
    }
}

impl Stats {
    /// Fraction of SC attempts that succeeded, in `[0, 1]`; `None` if no
    /// SCs were attempted.
    #[must_use]
    pub fn sc_success_rate(&self) -> Option<f64> {
        (self.sc_attempts > 0).then(|| self.sc_successes as f64 / self.sc_attempts as f64)
    }

    /// Fraction of LLs that needed help, in `[0, 1]`; `None` if no LLs ran.
    #[must_use]
    pub fn help_rate(&self) -> Option<f64> {
        (self.ll_ops > 0).then(|| self.lls_helped as f64 / self.ll_ops as f64)
    }

    /// Per-field difference `self - earlier`; counters are monotone so this
    /// is the activity between two snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has any counter greater than `self` (i.e. the
    /// snapshots are swapped or from different handles).
    #[must_use]
    pub fn since(&self, earlier: &Stats) -> Stats {
        let sub =
            |a: u64, b: u64| a.checked_sub(b).expect("`earlier` snapshot is newer than `self`");
        Stats {
            ll_ops: sub(self.ll_ops, earlier.ll_ops),
            sc_attempts: sub(self.sc_attempts, earlier.sc_attempts),
            sc_successes: sub(self.sc_successes, earlier.sc_successes),
            vl_ops: sub(self.vl_ops, earlier.vl_ops),
            lls_helped: sub(self.lls_helped, earlier.lls_helped),
            lls_rescued: sub(self.lls_rescued, earlier.lls_rescued),
            withdraw_races: sub(self.withdraw_races, earlier.withdraw_races),
            helps_given: sub(self.helps_given, earlier.helps_given),
            bank_fixups: sub(self.bank_fixups, earlier.bank_fixups),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        // A snapshot is a copy: later bumps show only in the next one.
        let obj = crate::MwLlSc::new(1, 1, &[0]);
        let mut h = obj.claim(0).unwrap();
        h.ll(&mut [0]);
        let before = h.stats();
        assert!(h.sc(&[1]));
        let after = h.stats();
        assert_eq!((before.ll_ops, before.sc_attempts), (1, 0));
        assert_eq!((after.ll_ops, after.sc_attempts, after.sc_successes), (1, 1, 1));
    }

    #[test]
    fn rates() {
        let s = Stats {
            sc_attempts: 10,
            sc_successes: 4,
            ll_ops: 8,
            lls_helped: 2,
            ..Stats::default()
        };
        assert_eq!(s.sc_success_rate(), Some(0.4));
        assert_eq!(s.help_rate(), Some(0.25));
        assert_eq!(Stats::default().sc_success_rate(), None);
        assert_eq!(Stats::default().help_rate(), None);
    }

    #[test]
    fn since_subtracts() {
        let a = Stats { ll_ops: 5, sc_attempts: 3, ..Stats::default() };
        let b = Stats { ll_ops: 9, sc_attempts: 7, sc_successes: 2, ..Stats::default() };
        let d = b.since(&a);
        assert_eq!(d.ll_ops, 4);
        assert_eq!(d.sc_attempts, 4);
        assert_eq!(d.sc_successes, 2);
        let mut total = a;
        total += d;
        assert_eq!(total, b, "`+=` undoes `since`");
    }

    #[test]
    #[should_panic(expected = "newer")]
    fn since_rejects_swapped_order() {
        let a = Stats { ll_ops: 5, ..Stats::default() };
        let b = Stats { ll_ops: 9, ..Stats::default() };
        let _ = a.since(&b);
    }
}
