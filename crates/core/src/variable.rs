//! The shared `W`-word LL/SC/VL object (Figure 2 of the paper): shared
//! state, construction, and space accounting.

use std::sync::Arc;

use llsc_word::{NewCell, TaggedLlSc};

use crate::buffer::BufferPool;
use crate::handle::Handle;
use crate::layout::{HelpRecord, Layout, XRecord};
use crate::pad::CachePadded;
use crate::registry::{AttachError, SlotRegistry};

/// How [`Handle::ll`](crate::Handle::ll) obtains a consistent value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LlStrategy {
    /// The paper's wait-free LL (lines 1–11): announce, read, consume help
    /// if overtaken. Every LL completes in `O(W)` of its own steps.
    #[default]
    WaitFree,
    /// Ablation: a plain read–validate retry loop with no announcement and
    /// no helping. Lock-free but **not** wait-free — a reader can starve
    /// under a writer storm. Exists to measure what the helping machinery
    /// costs and what it buys (experiments E7/E8 and the ablation benches).
    RetryLoop,
}

/// Errors from [`MwLlSc::try_new`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `n` was zero.
    ZeroProcesses,
    /// `w` was zero.
    ZeroWords,
    /// The initial value slice length differs from `w`.
    WrongInitLen {
        /// Configured word count `W`.
        expected: usize,
        /// Length of the supplied initial value.
        got: usize,
    },
    /// `n` is so large the packed `xtype` would leave fewer than 16 tag
    /// bits in the 64-bit substrate word (`n > ~2^22`).
    TooManyProcesses,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroProcesses => write!(f, "process count must be at least 1"),
            Self::ZeroWords => write!(f, "word count W must be at least 1"),
            Self::WrongInitLen { expected, got } => {
                write!(f, "initial value has {got} words, expected W = {expected}")
            }
            Self::TooManyProcesses => {
                write!(f, "process count too large for a 64-bit tagged substrate word")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Checks the construction rules every implementation shares — `n` and
    /// `w` nonzero, `initial` of length `w`, `n` within `max_processes` —
    /// so the paper's constructors and `llsc_baselines::try_build` validate
    /// identically instead of each re-deriving the matrix.
    pub fn validate(n: usize, w: usize, initial: &[u64], max_processes: usize) -> Result<(), Self> {
        if n == 0 {
            return Err(Self::ZeroProcesses);
        }
        if w == 0 {
            return Err(Self::ZeroWords);
        }
        if initial.len() != w {
            return Err(Self::WrongInitLen { expected: w, got: initial.len() });
        }
        if n > max_processes {
            return Err(Self::TooManyProcesses);
        }
        Ok(())
    }
}

/// Errors from [`MwLlSc::claim`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClaimError {
    /// The requested process id is `>= N`.
    OutOfRange {
        /// The invalid id.
        p: usize,
        /// The configured process count.
        n: usize,
    },
    /// The process id is currently leased by a live [`Handle`]. Dropping
    /// that handle frees the slot for a later `claim` or `attach`.
    AlreadyClaimed {
        /// The contested id.
        p: usize,
    },
}

impl std::fmt::Display for ClaimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange { p, n } => write!(f, "process id {p} out of range 0..{n}"),
            Self::AlreadyClaimed { p } => write!(f, "process id {p} already claimed"),
        }
    }
}

impl std::error::Error for ClaimError {}

/// Exact space usage of one [`MwLlSc`] instance, in 64-bit words.
///
/// This is what experiment E1 tabulates: the paper's headline is that the
/// total is `Θ(NW)` (buffers dominate) versus Anderson–Moir's `Θ(N²W)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct SpaceReport {
    /// Process count `N`.
    pub n: usize,
    /// Words per value, `W`.
    pub w: usize,
    /// Words held in value buffers: `3N · W`.
    pub buffer_words: usize,
    /// Word-sized LL/SC cells: `X` + `Bank[2N]` + `Help[N]` = `3N + 1`.
    pub llsc_cells: usize,
    /// Per-process persistent local words (`mybuf`, the saved `xtype`
    /// link): `O(1)` each, counted for completeness.
    pub per_process_words: usize,
}

impl SpaceReport {
    /// Total shared words: buffers + one word per LL/SC cell.
    #[must_use]
    pub fn shared_words(&self) -> usize {
        self.buffer_words + self.llsc_cells
    }

    /// Grand total including per-process local state.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.shared_words() + self.n * self.per_process_words
    }
}

/// A wait-free `N`-process, `W`-word LL/SC/VL shared variable.
///
/// This is the algorithm of Jayanti & Petrovic (Figure 2 of TR2004-523 /
/// ICDCS 2005), implemented line-for-line on top of single-word LL/SC
/// objects ([`llsc_word`]). `LL` and `SC` complete in `O(W)` steps, `VL`
/// in `O(1)`, regardless of what other processes do (wait-freedom); space
/// is `O(NW)` words (see [`SpaceReport`]).
///
/// The type parameter `C` selects the single-word substrate; the default
/// [`TaggedLlSc`] packs value + tag into one `AtomicU64`.
///
/// # Handles are leases
///
/// Each of the `N` processes interacts through its own [`Handle`]; a
/// handle is `Send` but deliberately not `Clone` — the algorithm (like the
/// paper's model) requires one outstanding operation per process. The `N`
/// process slots are *leased*, not claimed forever: dropping a handle
/// returns its slot (together with the buffer the slot owns — the paper's
/// space invariant) for a later [`claim`](Self::claim) or
/// [`attach`](Self::attach), so thread pools can churn workers without
/// exhausting the id space. Pick the acquisition style that fits:
///
/// * [`claim(p)`](Self::claim) — lease a *specific* pinned id;
/// * [`handles()`](Self::handles) — lease all `N` at once, in order;
/// * [`attach()`](Self::attach) — lease *any* free slot (lock-free scan);
/// * [`with(f)`](Self::with) — run a closure on a thread-cached
///   attachment, so pool code never tracks ids at all.
///
/// # Examples
///
/// ```
/// use mwllsc::MwLlSc;
///
/// // A 4-word object shared by 3 processes, initially [1, 2, 3, 4].
/// let obj = MwLlSc::new(3, 4, &[1, 2, 3, 4]);
/// let mut handles = obj.handles();
/// let mut h0 = handles.remove(0);
///
/// let mut val = [0u64; 4];
/// h0.ll(&mut val);
/// assert_eq!(val, [1, 2, 3, 4]);
/// val[0] += 10;
/// assert!(h0.sc(&val)); // no interference: the SC succeeds
/// ```
pub struct MwLlSc<C: NewCell = TaggedLlSc> {
    pub(crate) layout: Layout,
    pub(crate) w: usize,
    /// `X`: the tag of `O`'s current value — `(buf, seq)` packed. Hit by
    /// every LL, SC and VL of every process, so it gets its own padded
    /// cache-line pair.
    pub(crate) x: CachePadded<C>,
    /// `Bank[0..2N-1]`: buffer index per sequence number. Deliberately
    /// *not* padded: entries are touched once per successful SC (plus rare
    /// lazy fix-ups), and padding them would multiply the `O(N)` cell
    /// footprint by 16 for no contended-path win.
    pub(crate) bank: Box<[C]>,
    /// `Help[0..N-1]`: helping mailboxes — `(helpme, buf)` packed. Not
    /// padded, like `Bank`: process `p` writes `Help[p]` on every LL (the
    /// line-1 announcement), so two processes announcing on one object at
    /// once share a line; padding would make the array 16× larger on
    /// every object of a many-key store. The measured price is noted in
    /// `pad.rs`.
    pub(crate) help: Box<[C]>,
    /// `BUF[0..3N-1]`: the value buffers, one flat `3N·W`-word allocation.
    pub(crate) bufs: BufferPool,
    pub(crate) strategy: LlStrategy,
    /// Slot leases. A free or parked slot's payload is its `mybuf_p`, so
    /// this is also the per-process `mybuf` array.
    registry: SlotRegistry,
}

impl<C: NewCell> std::fmt::Debug for MwLlSc<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MwLlSc")
            .field("n", &self.layout.n())
            .field("w", &self.w)
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

impl MwLlSc<TaggedLlSc> {
    /// Creates an object for `n` processes and `w`-word values with the
    /// default tagged-CAS substrate and the paper's wait-free LL.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`try_new`](Self::try_new) reports as
    /// errors.
    #[must_use]
    pub fn new(n: usize, w: usize, initial: &[u64]) -> Arc<Self> {
        Self::try_new(n, w, initial).unwrap_or_else(|e| panic!("MwLlSc::new: {e}"))
    }

    /// Creates an object with the default substrate, reporting
    /// configuration problems as errors.
    pub fn try_new(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self>, ConfigError> {
        Self::try_new_in(n, w, initial)
    }

    /// Creates an object with the default substrate and an explicit
    /// [`LlStrategy`] (ablation knob).
    pub fn try_with_strategy(
        n: usize,
        w: usize,
        initial: &[u64],
        strategy: LlStrategy,
    ) -> Result<Arc<Self>, ConfigError> {
        Self::try_with_strategy_in(n, w, initial, strategy)
    }
}

impl<C: NewCell> MwLlSc<C> {
    /// Creates an object over the substrate `C`, reporting configuration
    /// problems as errors.
    pub fn try_new_in(n: usize, w: usize, initial: &[u64]) -> Result<Arc<Self>, ConfigError> {
        Self::try_with_strategy_in(n, w, initial, LlStrategy::WaitFree)
    }

    /// Creates an object over the substrate `C` with an explicit
    /// [`LlStrategy`].
    pub fn try_with_strategy_in(
        n: usize,
        w: usize,
        initial: &[u64],
        strategy: LlStrategy,
    ) -> Result<Arc<Self>, ConfigError> {
        ConfigError::validate(n, w, initial, Layout::MAX_PROCESSES)?;
        let layout = Layout::new(n);

        // Initialization block of Figure 2:
        //   X = (0, 0); BUF[0] = initial value of O;
        //   Bank[k] = k for k in 0..2N; mybuf_p = 2N + p; Help[p] = (0, _).
        let x = CachePadded::new(C::new_cell(
            layout.x_max(),
            layout.pack_x(XRecord { buf: 0, seq: 0 }),
        ));
        let bank: Box<[C]> =
            (0..layout.num_seqs()).map(|k| C::new_cell(layout.buf_max(), k as u64)).collect();
        let help: Box<[C]> = (0..n)
            .map(|_| {
                C::new_cell(
                    layout.help_max(),
                    layout.pack_help(HelpRecord { helpme: false, buf: 0 }),
                )
            })
            .collect();
        let bufs = BufferPool::new(layout.num_buffers(), w);
        bufs.get(0).copy_from(initial);

        // Label every shared cell with its algorithmic role so the access
        // logs of model-checked builds read like the paper (no-ops in
        // normal builds).
        {
            x.model_label("X", 0, 0);
            for (k, cell) in bank.iter().enumerate() {
                cell.model_label("Bank", k as u32, 0);
            }
            for (p, cell) in help.iter().enumerate() {
                cell.model_label("Help", p as u32, 0);
            }
            bufs.model_label();
        }

        Ok(Arc::new(Self {
            layout,
            w,
            x,
            bank,
            help,
            bufs,
            strategy,
            registry: SlotRegistry::for_object(n, layout.num_seqs()),
        }))
    }

    /// Number of processes `N`.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.layout.n()
    }

    /// Words per value, `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// The configured LL strategy.
    #[must_use]
    pub fn strategy(&self) -> LlStrategy {
        self.strategy
    }

    /// Leases the [`Handle`] for the *specific* process id `p`.
    ///
    /// Fails while another live handle holds the slot; dropping that
    /// handle frees it for re-claiming. Use this when the caller pins
    /// process ids itself (the paper's static model); pool code that does
    /// not care which id it gets should use [`attach`](Self::attach) or
    /// [`with`](Self::with) instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwllsc::MwLlSc;
    ///
    /// let obj = MwLlSc::new(2, 1, &[0]);
    /// let h = obj.claim(0).unwrap();
    /// assert!(obj.claim(0).is_err(), "slot 0 is leased");
    /// drop(h);
    /// assert!(obj.claim(0).is_ok(), "dropping the handle freed the slot");
    /// ```
    pub fn claim(self: &Arc<Self>, p: usize) -> Result<Handle<C>, ClaimError> {
        let n = self.layout.n();
        if p >= n {
            return Err(ClaimError::OutOfRange { p, n });
        }
        match self.registry.lease_exact(p) {
            Some(mybuf) => Ok(Handle::new(Arc::clone(self), p, mybuf)),
            None => Err(ClaimError::AlreadyClaimed { p }),
        }
    }

    /// Leases a handle for *any* free process slot (lock-free scan over
    /// the slot registry).
    ///
    /// This is the churn-friendly acquisition path: worker threads attach
    /// on demand and release by dropping the handle, and the slot carries
    /// its owned buffer (`mybuf`) across lease generations, so the space
    /// bound of the paper (`3NW + 3N + 1` shared words) is unaffected by
    /// any amount of attach/drop traffic.
    ///
    /// # Errors
    ///
    /// [`AttachError::Exhausted`] when all `N` slots are leased by live
    /// handles — the caller can retry after another handle drops, or size
    /// `n` to the worst-case number of *concurrent* operations.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwllsc::MwLlSc;
    ///
    /// let obj = MwLlSc::new(2, 1, &[7]);
    /// let mut a = obj.attach().unwrap();
    /// let b = obj.attach().unwrap();
    /// assert!(obj.attach().is_err(), "both slots leased");
    /// drop(b);
    /// let mut c = obj.attach().unwrap(); // b's slot, recycled
    /// let mut v = [0u64];
    /// a.ll(&mut v);
    /// assert!(a.sc(&[v[0] + 1]));
    /// c.ll(&mut v);
    /// assert_eq!(v, [8]);
    /// ```
    pub fn attach(self: &Arc<Self>) -> Result<Handle<C>, AttachError> {
        match self.registry.lease_any() {
            Some((p, mybuf)) => Ok(Handle::new(Arc::clone(self), p, mybuf)),
            None => Err(AttachError::Exhausted { n: self.layout.n() }),
        }
    }

    /// Leases all `N` handles at once, in process-id order.
    ///
    /// # Panics
    ///
    /// Panics if any slot is already leased.
    #[must_use]
    pub fn handles(self: &Arc<Self>) -> Vec<Handle<C>> {
        (0..self.layout.n())
            .map(|p| self.claim(p).unwrap_or_else(|e| panic!("handles(): {e}")))
            .collect()
    }

    /// Borrows process `p`'s slot for a handle that lives as long as the
    /// borrow of `self` — the per-operation path of a pool (the sharded
    /// store) that already guarantees `p` is exclusive.
    ///
    /// No lease read-modify-write and no reference count: the handle reads
    /// `mybuf_p` from the slot word and parks its final `mybuf_p` there
    /// when dropped, so the buffer partition survives exactly as it does
    /// across [`claim`](Self::claim) leases.
    ///
    /// # Exclusivity precondition
    ///
    /// While the returned handle lives, no other handle — borrowed,
    /// claimed, or attached — may hold process `p` on this object: two
    /// holders of one `p` would share `mybuf_p` and `Help[p]`, which breaks
    /// the algorithm. A pool upholds this by giving `p` to one actor at a
    /// time (the store's shard-level slot lease) and letting that actor
    /// borrow `p` on one object at a time. Every build panics if a lease
    /// holds `p`; debug builds also take a real lease for the borrow, so
    /// any second holder panics.
    ///
    /// # Panics
    ///
    /// Panics if `p >= N` or a lease holds `p`, and in debug builds if
    /// any other holder has `p`.
    #[must_use]
    pub fn borrow_slot(&self, p: usize) -> Handle<C, &Self> {
        Handle::new(self, p, self.registry.borrow(p))
    }

    /// Number of process slots currently leased by live handles.
    #[must_use]
    pub fn live_leases(&self) -> usize {
        self.registry.live()
    }

    /// Returns slot `p` with its current `mybuf`; called by `Handle::drop`
    /// for leased and borrowed handles alike.
    pub(crate) fn release_slot(&self, p: usize, mybuf: u32) {
        self.registry.release(p, mybuf);
    }

    /// Asserts the paper's buffer partition at quiescence (no handle
    /// holds a slot): `{X.buf}`, `{Bank[k] : k ≠ X.seq}` and the parked
    /// `{mybuf_p : p < N}` cover the buffer indices `0..3N` exactly once.
    /// `Bank[X.seq]` is left out because line 13 repairs it lazily.
    #[cfg(test)]
    pub(crate) fn assert_buffer_partition(&self) {
        let n = self.layout.n();
        let x = self.layout.unpack_x(self.x.read());
        let mut owners = vec![0u32; self.bufs.count()];
        owners[x.buf as usize] += 1;
        for (k, cell) in self.bank.iter().enumerate() {
            if k != x.seq as usize {
                owners[cell.read() as usize] += 1;
            }
        }
        for p in 0..n {
            owners[self.registry.payload(p) as usize] += 1;
        }
        assert!(
            owners.iter().all(|&c| c == 1),
            "buffers 0..3N must be owned exactly once, got {owners:?}"
        );
    }

    /// 64-bit words currently held in the substrate cells' reclamation
    /// backlog (retired but not yet freed), summed over `X`, `Bank`, and
    /// `Help`. Zero for the default tagged substrate; bounded (and
    /// typically tiny — these cells see one retire per successful SC at
    /// most) for the epoch-pointer substrate. Reported through
    /// [`MwHandle::space`](crate::MwHandle::space) so the estimate never
    /// under-counts what the process is holding.
    #[must_use]
    pub fn substrate_retired_words(&self) -> usize {
        use llsc_word::LlScCell;
        self.x.retired_words()
            + self.bank.iter().map(LlScCell::retired_words).sum::<usize>()
            + self.help.iter().map(LlScCell::retired_words).sum::<usize>()
    }

    /// Exact space usage in 64-bit words.
    #[must_use]
    pub fn space(&self) -> SpaceReport {
        SpaceReport {
            n: self.layout.n(),
            w: self.w,
            buffer_words: self.bufs.words(),
            llsc_cells: 1 + self.bank.len() + self.help.len(),
            // mybuf + packed xtype snapshot + link + flag, rounded up.
            per_process_words: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(MwLlSc::try_new(0, 1, &[0]).unwrap_err(), ConfigError::ZeroProcesses);
        assert_eq!(MwLlSc::try_new(1, 0, &[]).unwrap_err(), ConfigError::ZeroWords);
        assert_eq!(
            MwLlSc::try_new(1, 2, &[0]).unwrap_err(),
            ConfigError::WrongInitLen { expected: 2, got: 1 }
        );
        assert!(MwLlSc::try_new(2, 2, &[5, 6]).is_ok());
    }

    #[test]
    fn claim_is_exclusive_while_leased() {
        let obj = MwLlSc::new(2, 1, &[0]);
        let h0 = obj.claim(0).unwrap();
        assert_eq!(obj.claim(0).unwrap_err(), ClaimError::AlreadyClaimed { p: 0 });
        let _h1 = obj.claim(1).unwrap();
        assert_eq!(obj.claim(2).unwrap_err(), ClaimError::OutOfRange { p: 2, n: 2 });
        drop(h0);
        assert!(obj.claim(0).is_ok(), "dropping the lease frees the id");
    }

    #[test]
    fn concurrent_claims_grant_each_id_exactly_once() {
        // Many threads race to claim the same small id space; every id
        // must be granted to exactly one winner. Handles are held until
        // the end so no slot is released mid-race.
        let n = 4;
        let obj = MwLlSc::new(n, 1, &[0]);
        let mut joins = Vec::new();
        for _ in 0..16 {
            let obj = Arc::clone(&obj);
            joins.push(std::thread::spawn(move || {
                let mut won = Vec::new();
                for p in 0..n {
                    if let Ok(h) = obj.claim(p) {
                        won.push(h);
                    }
                }
                won
            }));
        }
        // Keep every won handle alive until all threads have finished, so
        // no slot is released (and re-won) mid-tally.
        let held: Vec<Vec<Handle>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let mut winners: Vec<usize> = held.iter().flatten().map(Handle::process_id).collect();
        winners.sort_unstable();
        assert_eq!(winners, (0..n).collect::<Vec<_>>(), "each id claimed exactly once");
    }

    #[test]
    fn attach_leases_any_free_slot() {
        let obj = MwLlSc::new(3, 1, &[0]);
        let a = obj.attach().unwrap();
        let b = obj.attach().unwrap();
        let c = obj.attach().unwrap();
        let mut ids = [a.process_id(), b.process_id(), c.process_id()];
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(obj.attach().unwrap_err(), AttachError::Exhausted { n: 3 });
        assert_eq!(obj.live_leases(), 3);
        drop(b);
        assert_eq!(obj.live_leases(), 2);
        let d = obj.attach().expect("freed slot is attachable");
        let _ = d.process_id();
    }

    #[test]
    fn lease_reuse_preserves_buffer_ownership_and_space() {
        // Churn a single slot through many lease generations, each doing
        // real SCs (which *exchange* buffer ownership via line 20). The
        // space report — and with it the paper's 3NW + 3N + 1 invariant —
        // must be byte-identical after any amount of churn.
        let obj = MwLlSc::new(2, 2, &[0, 0]);
        let before = obj.space();
        for gen in 0..100u64 {
            let mut h = obj.attach().unwrap();
            let mut v = [0u64; 2];
            h.ll(&mut v);
            assert_eq!(v, [gen, gen]);
            assert!(h.sc(&[gen + 1, gen + 1]));
            drop(h);
            obj.assert_buffer_partition();
        }
        assert_eq!(obj.space(), before);
        assert_eq!(obj.space().shared_words(), 3 * 2 * 2 + 3 * 2 + 1);
        assert_eq!(obj.live_leases(), 0);
    }

    #[test]
    fn borrowed_slots_keep_the_buffer_partition_under_threaded_churn() {
        // Each thread owns one process id and borrows it per operation, so
        // every LL/SC starts from the mybuf the previous borrow parked —
        // including the buffers exchanged by helping (lines 15–16) and by
        // successful SCs (line 20). A lost park would hand a thread a
        // buffer that X or Bank still holds, and the check below would
        // see it counted twice.
        let n = 4;
        let obj = MwLlSc::new(n, 3, &[0, 0, 0]);
        let joins: Vec<_> = (0..n)
            .map(|p| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    let mut v = [0u64; 3];
                    for i in 0..2_000u64 {
                        let mut h = obj.borrow_slot(p);
                        if i % 3 == 0 {
                            h.read(&mut v);
                            assert!(v[0] == v[1] && v[1] == v[2], "torn read {v:?}");
                        } else {
                            loop {
                                h.ll(&mut v);
                                if h.sc(&[v[0] + 1; 3]) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        obj.assert_buffer_partition();
        let mut h = obj.claim(0).unwrap();
        let updates_per_thread = (0..2_000u64).filter(|i| i % 3 != 0).count() as u64;
        assert_eq!(h.ll_vec(), vec![n as u64 * updates_per_thread; 3]);
        assert_eq!(obj.live_leases(), 1);
    }

    #[test]
    fn a_borrowed_slot_carries_its_buffer_into_a_later_claim() {
        let obj = MwLlSc::new(2, 1, &[0]);
        for i in 0..10u64 {
            let mut h = obj.borrow_slot(0);
            let mut v = [0u64];
            h.ll(&mut v);
            assert!(h.sc(&[i + 1]));
        }
        obj.assert_buffer_partition();
        let mut h = obj.claim(0).expect("a parked borrow leaves the slot free");
        assert_eq!(h.ll_vec(), vec![10]);
    }

    #[test]
    #[should_panic(expected = "borrowed while another holder has it")]
    fn borrowing_a_claimed_slot_panics() {
        // Without the check the borrow's drop would free slot 0 under the
        // live claim, and a second claim would then share mybuf_0.
        let obj = MwLlSc::new(2, 1, &[0]);
        let _a = obj.claim(0).unwrap();
        drop(obj.borrow_slot(0));
    }

    #[test]
    fn handles_returns_all_in_order() {
        let obj = MwLlSc::new(3, 1, &[0]);
        let hs = obj.handles();
        assert_eq!(hs.len(), 3);
        for (i, h) in hs.iter().enumerate() {
            assert_eq!(h.process_id(), i);
        }
    }

    #[test]
    fn space_formula_matches_paper() {
        // Shared space must be exactly 3NW (buffers) + 3N + 1 (cells).
        for (n, w) in [(1usize, 1usize), (2, 4), (8, 16), (32, 64)] {
            let obj = MwLlSc::new(n, w, &vec![0; w]);
            let s = obj.space();
            assert_eq!(s.buffer_words, 3 * n * w);
            assert_eq!(s.llsc_cells, 3 * n + 1);
            assert_eq!(s.shared_words(), 3 * n * w + 3 * n + 1);
        }
    }

    #[test]
    fn space_is_linear_in_n() {
        // Doubling N must (at most) double shared space + O(1): the O(NW)
        // claim, checked mechanically.
        let w = 16;
        let s1 = MwLlSc::new(8, w, &vec![0; w]).space().shared_words();
        let s2 = MwLlSc::new(16, w, &vec![0; w]).space().shared_words();
        assert!(s2 <= 2 * s1 + 2, "s1={s1} s2={s2}");
    }

    #[test]
    fn error_messages_render() {
        let e = ConfigError::WrongInitLen { expected: 4, got: 2 };
        assert!(e.to_string().contains("expected W = 4"));
        let e = ClaimError::OutOfRange { p: 7, n: 3 };
        assert!(e.to_string().contains("0..3"));
    }
}
