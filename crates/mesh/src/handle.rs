//! [`MeshHandle`]: the caller's typed-error surface over the mesh —
//! the same get/set/update/read_many shape as
//! [`StoreHandle`](mwllsc_store::StoreHandle), with one deliberate
//! difference: updates are *declarative* ([`UpdateKind`] + operand)
//! because closures cannot cross the rings.
//!
//! Every op is synchronous: the handle scatters entries to the owning
//! workers' request rings (packing up to `BATCH_SPAN` consecutive
//! same-owner entries into one slot), keeps at most `ring_capacity`
//! entries in flight per link (the sliding window that makes both rings
//! overflow-free), and gathers replies — parking briefly on the shared
//! waiter when there is nothing to push or pop. A handle is therefore
//! single-threaded by construction (`&mut self` everywhere), exactly
//! like `StoreHandle`.

use std::sync::Arc;
use std::time::Duration;

use mwllsc::sync::Ordering;

use crate::link::{CallerLink, Waiter};
use crate::mesh::Mesh;
use crate::msg::{InlineVal, MeshError, Op, UpdateKind, BATCH_SPAN};

/// Bound on one park while waiting for replies. Wakeups normally arrive
/// via unpark; the timeout only bounds the cost of a lost race.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// A caller's connection to a [`Mesh`]: one ring pair per worker plus
/// the scratch to scatter/gather batches. See the module docs.
pub struct MeshHandle {
    mesh: Arc<Mesh>,
    links: Box<[CallerLink]>,
    waiter: Arc<Waiter>,
    /// Per-entry owner worker, filled by validation.
    owners: Vec<u32>,
    /// Per-entry `(kind, operand)` for the current write batch.
    ops: Vec<(UpdateKind, InlineVal)>,
    /// Per-worker "pushed this round, wake it" flags.
    woke: Vec<bool>,
}

impl MeshHandle {
    pub(crate) fn new(mesh: Arc<Mesh>, links: Box<[CallerLink]>, waiter: Arc<Waiter>) -> Self {
        let workers = links.len();
        Self {
            mesh,
            links,
            waiter,
            owners: Vec::new(),
            ops: Vec::new(),
            woke: vec![false; workers],
        }
    }

    /// Words per logical variable, `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.mesh.width()
    }

    /// Size of the logical key space.
    #[must_use]
    pub fn key_capacity(&self) -> u64 {
        self.mesh.key_capacity()
    }

    /// The mesh this handle talks to.
    #[must_use]
    pub fn mesh(&self) -> &Arc<Mesh> {
        &self.mesh
    }

    /// Reads the current value of `key` into `out`.
    pub fn read(&mut self, key: u64, out: &mut [u64]) -> Result<(), MeshError> {
        self.read_many_into(&[key], out)
    }

    /// Reads `key` into a fresh `Vec`.
    pub fn read_vec(&mut self, key: u64) -> Result<Vec<u64>, MeshError> {
        let mut out = vec![0u64; self.width()];
        self.read(key, &mut out)?;
        Ok(out)
    }

    /// Reads many keys, returning values in the order of `keys`.
    pub fn read_many(&mut self, keys: &[u64]) -> Result<Vec<Vec<u64>>, MeshError> {
        let w = self.width();
        let mut flat = vec![0u64; keys.len() * w];
        self.read_many_into(keys, &mut flat)?;
        Ok(flat.chunks(w.max(1)).map(<[u64]>::to_vec).collect())
    }

    /// Reads many keys into one flat `keys.len() × W` buffer.
    pub fn read_many_into(&mut self, keys: &[u64], out: &mut [u64]) -> Result<(), MeshError> {
        let w = self.width();
        if out.len() != keys.len() * w {
            return Err(MeshError::WrongValueLen { expected: keys.len() * w, got: out.len() });
        }
        self.route_batch(keys)?;
        self.pump(keys, false, Some(out))
    }

    /// Overwrites `key` with `value`.
    pub fn set(&mut self, key: u64, value: &[u64]) -> Result<(), MeshError> {
        self.update(key, UpdateKind::Set, value).map(|_| ())
    }

    /// Applies one declarative update to `key`, returning the installed
    /// value (the closure-based `StoreHandle::update_with` has no mesh
    /// equivalent: closures cannot cross the rings).
    pub fn update(
        &mut self,
        key: u64,
        kind: UpdateKind,
        operand: &[u64],
    ) -> Result<Vec<u64>, MeshError> {
        let mut out = vec![0u64; self.width()];
        self.update_into(key, kind, operand, &mut out)?;
        Ok(out)
    }

    /// [`MeshHandle::update`] into a caller buffer.
    pub fn update_into(
        &mut self,
        key: u64,
        kind: UpdateKind,
        operand: &[u64],
        out: &mut [u64],
    ) -> Result<(), MeshError> {
        let w = self.width();
        if out.len() != w {
            return Err(MeshError::WrongValueLen { expected: w, got: out.len() });
        }
        let val = Self::inline(operand, w)?;
        self.ops.clear();
        self.ops.push((kind, val));
        self.route_batch(&[key])?;
        self.pump(&[key], true, Some(out))
    }

    /// Applies one declarative update per key — `op(i)` supplies entry
    /// `i`'s kind and operand — and, when `snaps` is given, writes each
    /// entry's installed value into its `W`-word window.
    ///
    /// Validation (key range, operand and `snaps` width) is all-or-
    /// nothing *before* anything is sent. After that, entries are applied
    /// per-wave by their owning workers; on failure the first error is
    /// returned and other entries may still have been applied (exactly
    /// which is knowable from `snaps` only on `Ok`).
    pub fn update_batch(
        &mut self,
        keys: &[u64],
        op: &mut dyn FnMut(usize) -> (UpdateKind, InlineVal),
        snaps: Option<&mut [u64]>,
    ) -> Result<(), MeshError> {
        let w = self.width();
        if let Some(s) = snaps.as_deref() {
            if s.len() != keys.len() * w {
                return Err(MeshError::WrongValueLen { expected: keys.len() * w, got: s.len() });
            }
        }
        self.ops.clear();
        for i in 0..keys.len() {
            let (kind, operand) = op(i);
            if operand.len() != w {
                return Err(MeshError::WrongValueLen { expected: w, got: operand.len() });
            }
            self.ops.push((kind, operand));
        }
        self.route_batch(keys)?;
        self.pump(keys, true, snaps)
    }

    /// Wraps `operand` inline, enforcing width `w`.
    fn inline(operand: &[u64], w: usize) -> Result<InlineVal, MeshError> {
        if operand.len() != w {
            return Err(MeshError::WrongValueLen { expected: w, got: operand.len() });
        }
        InlineVal::from_slice(operand)
            .ok_or(MeshError::WrongValueLen { expected: w, got: operand.len() })
    }

    /// Validates every key and caches its owning worker. All-or-nothing:
    /// nothing is sent if any key is out of range.
    fn route_batch(&mut self, keys: &[u64]) -> Result<(), MeshError> {
        self.owners.clear();
        self.owners.reserve(keys.len());
        for &key in keys {
            let owner = self.mesh.owner_of(key)?;
            self.owners.push(owner as u32);
        }
        Ok(())
    }

    /// The scatter/gather engine: pushes entry `i` of `keys` (a read, or
    /// write `self.ops[i]`) to its owner, packing consecutive same-owner
    /// entries, and gathers one reply per entry. `out` (when given)
    /// receives each entry's value at its `W`-word window, indexed by
    /// reply token. Returns the first error; every entry completes (or
    /// is accounted `Disconnected`) before returning.
    fn pump(
        &mut self,
        keys: &[u64],
        write: bool,
        mut out: Option<&mut [u64]>,
    ) -> Result<(), MeshError> {
        let total = keys.len();
        let w = self.width();
        let window = self.links.first().map_or(0, |l| l.op_tx.capacity()) as u32;
        let mut next = 0usize;
        let mut received = 0usize;
        let mut first_err: Option<MeshError> = None;

        while received < total || next < total {
            let mut progress = false;

            // Push phase: scatter as much as windows and rings allow.
            while next < total {
                let Some(&owner) = self.owners.get(next) else { break };
                let owner = owner as usize;
                let Some(link) = self.links.get_mut(owner) else { break };
                if link.shared.closed.load(Ordering::Acquire) {
                    // Refused before sending: definitively not applied.
                    first_err.get_or_insert(MeshError::Disconnected);
                    next += 1;
                    received += 1;
                    continue;
                }
                let room = (window.saturating_sub(link.inflight)) as usize;
                if room == 0 {
                    break;
                }
                // Pack consecutive entries owned by the same worker.
                let mut n = 1usize;
                while n < BATCH_SPAN
                    && n < room
                    && next + n < total
                    && self.owners.get(next + n) == Some(&(owner as u32))
                {
                    n += 1;
                }
                let msg = build_op(write, keys, &self.ops, next, n);
                let link = match self.links.get_mut(owner) {
                    Some(l) => l,
                    None => break,
                };
                match link.op_tx.try_push(msg) {
                    Ok(()) => {
                        link.inflight += n as u32;
                        next += n;
                        progress = true;
                        if let Some(f) = self.woke.get_mut(owner) {
                            *f = true;
                        }
                    }
                    // Ring full despite window room (worker mid-pop):
                    // drain replies below and retry.
                    Err(_) => break,
                }
            }

            // Wake phase: one unpark per worker we pushed to.
            for (wi, flag) in self.woke.iter_mut().enumerate() {
                if *flag {
                    *flag = false;
                    if let Some(ws) = self.mesh.workers.get(wi) {
                        ws.parker.wake();
                    }
                }
            }

            // Gather phase.
            progress |= drain_links(&mut self.links, w, &mut out, &mut received, &mut first_err);
            if received >= total && next >= total {
                break;
            }

            // Disconnect sweep: a drained link delivers no further
            // replies (its Release pairs with our Acquire, so the final
            // pop below sees everything it did push).
            let retired = self.mesh.retired.load(Ordering::Acquire);
            for link in self.links.iter_mut() {
                if link.inflight > 0 && (retired || link.shared.drained.load(Ordering::Acquire)) {
                    drain_one(link, w, &mut out, &mut received, &mut first_err);
                    received += link.inflight as usize;
                    link.inflight = 0;
                    first_err.get_or_insert(MeshError::Disconnected);
                    progress = true;
                }
            }

            if !progress {
                self.waiter.prepare();
                // Re-check after announcing intent: a reply landing
                // before `prepare` would otherwise be missed.
                let again =
                    drain_links(&mut self.links, w, &mut out, &mut received, &mut first_err);
                if again {
                    self.waiter.cancel();
                } else {
                    self.waiter.wait(PARK_TIMEOUT);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for MeshHandle {
    fn drop(&mut self) {
        for link in self.links.iter() {
            link.shared.dropped.store(true, Ordering::Release);
        }
        // Wake the workers so they retire the links promptly.
        for ws in self.mesh.workers.iter() {
            ws.parker.wake();
        }
    }
}

/// Builds the ring message for entries `at .. at + n` (all same-owner;
/// `n ≤ BATCH_SPAN`). Tokens are entry indices, so replies can land
/// directly in the caller's output windows.
fn build_op(write: bool, keys: &[u64], ops: &[(UpdateKind, InlineVal)], at: usize, n: usize) -> Op {
    let token = at as u32;
    if write {
        if n == 1 {
            // at < keys.len() == ops.len(): pump iterates entry indices
            let (kind, operand) = ops[at];
            match kind {
                // same bound as above
                UpdateKind::Set => Op::Set { key: keys[at], val: operand, token },
                // same bound as above
                _ => Op::Update { key: keys[at], kind, operand, token },
            }
        } else {
            let mut ks = [0u64; BATCH_SPAN];
            let mut kinds = [UpdateKind::Set; BATCH_SPAN];
            let mut operands = [InlineVal::default(); BATCH_SPAN];
            for i in 0..n.min(BATCH_SPAN) {
                // i < BATCH_SPAN (min above); at + i < keys.len() == ops.len()
                ks[i] = keys[at + i];
                // same bounds as above
                let (kind, operand) = ops[at + i];
                kinds[i] = kind; // i < BATCH_SPAN as above
                operands[i] = operand; // i < BATCH_SPAN as above
            }
            Op::UpdateBatch { n: n as u8, keys: ks, kinds, operands, token }
        }
    } else if n == 1 {
        // at < keys.len(): pump iterates entry indices
        Op::Get { key: keys[at], token }
    } else {
        let mut ks = [0u64; BATCH_SPAN];
        let m = n.min(BATCH_SPAN);
        // m <= BATCH_SPAN and at + m <= keys.len(): the span was sized by the caller
        ks[..m].copy_from_slice(&keys[at..at + m]);
        Op::ReadBatch { n: n as u8, keys: ks, token }
    }
}

/// Pops every available reply on every link. Returns whether anything
/// arrived.
fn drain_links(
    links: &mut [CallerLink],
    w: usize,
    out: &mut Option<&mut [u64]>,
    received: &mut usize,
    first_err: &mut Option<MeshError>,
) -> bool {
    let mut any = false;
    for link in links.iter_mut() {
        let before = *received;
        drain_one(link, w, out, received, first_err);
        any |= *received != before;
    }
    any
}

/// Pops every available reply on one link, landing values in `out` by
/// token and recording the first error.
fn drain_one(
    link: &mut CallerLink,
    w: usize,
    out: &mut Option<&mut [u64]>,
    received: &mut usize,
    first_err: &mut Option<MeshError>,
) {
    while let Some(rep) = link.rep_rx.try_pop() {
        link.inflight = link.inflight.saturating_sub(1);
        *received += 1;
        match rep.result {
            Ok(val) => {
                if let Some(dst) = out.as_deref_mut() {
                    let at = rep.token as usize * w;
                    match dst.get_mut(at..at + val.len()) {
                        Some(window) if val.len() == w => {
                            window.copy_from_slice(val.as_slice());
                        }
                        // A token or width the caller did not issue —
                        // impossible from our own worker, but never
                        // worth a panic on the reply path.
                        _ => {
                            first_err.get_or_insert(MeshError::Internal);
                        }
                    }
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
}
