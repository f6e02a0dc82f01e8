//! Request coalescing: turning socket-level concurrency into the store's
//! batched single-SC-commit-per-key-run economics.
//!
//! Each worker tick builds [`Wave`]s: every connection with pipelined
//! requests contributes its **leading maximal run of same-class
//! requests** (reads: `GET`/`MGET`; writes: `SET`/`UPDATE`/`MSET`), and
//! the wave merges all contributions into at most one write batch
//! (`update_many` — equal-key runs fold into one SC commit) and one read
//! batch (`read_many_into`). Responses scatter back per connection in
//! request order.
//!
//! Limiting a connection to one class per wave is what keeps pipelined
//! FIFO semantics: a connection's wave responses all come from a single
//! dispatch, so `SET k; GET k` on one connection can never see the `GET`
//! overtake the `SET` (the `GET` rides the *next* wave, and writes
//! dispatch before reads within every wave anyway). Across connections
//! no ordering is promised — they race exactly as concurrent
//! [`StoreHandle`](mwllsc_store::StoreHandle)s do.
//!
//! Requests are validated *here*, before batching: a bad key or wrong
//! width becomes an in-order error reply and never enters a batch, so
//! the store's all-or-nothing batch validation cannot be tripped by one
//! malformed request and genuine batch failures (`ShardExhausted` from
//! external lease pressure) are the only batch-wide errors.

use mwllsc::sync::Ordering;
use mwllsc_mesh::{InlineVal, MeshHandle, UpdateKind};
use mwllsc_store::StoreHandle;

use crate::conn::{Conn, Pending};
use crate::proto::{
    encode_response, encode_value_response, encode_values_response, FrameError, Request, Response,
    UpdateOp, WireError,
};
use crate::route::{wire_of_mesh, Route};
use crate::stats::AtomicStats;

/// How a wave reaches the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Merge every connection's contribution into one write batch and
    /// one read batch per wave (the design point).
    Coalesced,
    /// One store call per request (the ablation baseline
    /// `examples/server_loadgen.rs` compares against).
    PerRequest,
}

/// Pre-batch request validation against the store's shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Validator {
    pub key_capacity: u64,
    pub width: usize,
}

impl Validator {
    fn key(&self, key: u64) -> Result<(), WireError> {
        if key >= self.key_capacity {
            return Err(WireError::KeyOutOfRange { key, capacity: self.key_capacity });
        }
        Ok(())
    }

    fn value(&self, len: usize) -> Result<(), WireError> {
        if len != self.width {
            return Err(WireError::WrongValueLen { expected: self.width as u64, got: len as u64 });
        }
        Ok(())
    }

    fn check(&self, req: &Request) -> Result<(), WireError> {
        match req {
            Request::Get { key } => self.key(*key),
            Request::Set { key, value } => self.key(*key).and_then(|()| self.value(value.len())),
            Request::Update { key, op } => {
                self.key(*key).and_then(|()| self.value(op.operand().len()))
            }
            Request::MGet { keys } => keys.iter().try_for_each(|&k| self.key(k)),
            Request::MSet { pairs } => {
                pairs.iter().try_for_each(|(k, v)| self.key(*k).and_then(|()| self.value(v.len())))
            }
        }
    }
}

/// A request's dispatch class.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
}

fn class(req: &Request) -> Class {
    match req {
        Request::Get { .. } | Request::MGet { .. } => Class::Read,
        Request::Set { .. } | Request::Update { .. } | Request::MSet { .. } => Class::Write,
    }
}

/// One write-batch entry's operation.
#[derive(Debug)]
enum WriteOp {
    /// Blind set to this value.
    Set(Vec<u64>),
    /// Read-modify-write with this op.
    Update(UpdateOp),
}

/// One response slot: what to encode for one request once the wave's
/// batches have run. Slots are stored `(conn index, slot)` in request
/// order per connection.
#[derive(Debug)]
enum Slot {
    /// `count` write entries starting at `first`; reply the installed
    /// value of entry `first` if `reply_value` (UPDATE), else `Ok`.
    Write { first: usize, count: usize, reply_value: bool },
    /// One read key at `first` (GET) → `Value`.
    ReadValue { first: usize },
    /// `count` read keys from `first` (MGET) → `Values`.
    ReadValues { first: usize, count: usize },
    /// Failed validation (or, after dispatch, a batch error).
    Err(WireError),
    /// The stream desynced; reply `BadFrame` and poison the connection.
    Bad(FrameError),
}

/// One dispatch wave: the merged batches plus per-request response slots.
#[derive(Debug, Default)]
pub(crate) struct Wave {
    write_keys: Vec<u64>,
    write_ops: Vec<WriteOp>,
    /// Installed value per write entry, flat `entries × W` (filled at
    /// dispatch; the last LL/SC round's application is the committed
    /// one, so recording inside the closure observes installed state).
    write_snaps: Vec<u64>,
    read_keys: Vec<u64>,
    /// Read results, flat `keys × W` (filled at dispatch).
    read_vals: Vec<u64>,
    /// `(conn index, slot)` in per-connection request order.
    slots: Vec<(usize, Slot)>,
    /// Per-slot dispatch failure (batch-wide in coalesced mode).
    slot_errs: Vec<Option<WireError>>,
}

impl Wave {
    /// Builds the next wave from every connection's leading run.
    /// Returns `None` when no connection has dispatchable requests.
    ///
    /// Two admission bounds keep waves incremental: a connection whose
    /// queued output exceeds `out_cap` contributes nothing (computing
    /// more responses for a peer that isn't reading would defeat the
    /// backpressure the read path applies), and a contribution is capped
    /// at `max_run` requests, so one deeply pipelined connection cannot
    /// inflate a single wave's latency — its remaining requests stay
    /// queued, in order, for the following waves.
    pub(crate) fn build(
        conns: &mut [Conn],
        v: &Validator,
        max_run: usize,
        out_cap: usize,
    ) -> Option<Wave> {
        let mut wave = Wave::default();
        for (ci, conn) in conns.iter_mut().enumerate() {
            if conn.out_queued() > out_cap {
                continue;
            }
            let mut run_class = None;
            let mut taken = 0usize;
            while taken < max_run {
                let Some(front) = conn.pending.pop_front() else { break };
                taken += 1;
                let slot = match front {
                    Pending::Bad(e) => {
                        wave.slots.push((ci, Slot::Bad(e)));
                        break; // a poisoned stream has nothing after this
                    }
                    Pending::Req(req) => {
                        let c = class(&req);
                        if *run_class.get_or_insert(c) != c {
                            // Next class rides the next wave: put the
                            // request back at the front, still in order.
                            conn.pending.push_front(Pending::Req(req));
                            break;
                        }
                        wave.admit(req, v)
                    }
                };
                wave.slots.push((ci, slot));
            }
        }
        if wave.slots.is_empty() {
            None
        } else {
            wave.slot_errs = (0..wave.slots.len()).map(|_| None).collect();
            Some(wave)
        }
    }

    /// Validates one request and stages it into the wave's batches.
    fn admit(&mut self, req: Request, v: &Validator) -> Slot {
        if let Err(e) = v.check(&req) {
            return Slot::Err(e);
        }
        match req {
            Request::Get { key } => {
                self.read_keys.push(key);
                Slot::ReadValue { first: self.read_keys.len() - 1 }
            }
            Request::MGet { keys } => {
                let first = self.read_keys.len();
                let count = keys.len();
                self.read_keys.extend_from_slice(&keys);
                Slot::ReadValues { first, count }
            }
            Request::Set { key, value } => {
                self.write_keys.push(key);
                self.write_ops.push(WriteOp::Set(value));
                Slot::Write { first: self.write_keys.len() - 1, count: 1, reply_value: false }
            }
            Request::Update { key, op } => {
                self.write_keys.push(key);
                self.write_ops.push(WriteOp::Update(op));
                Slot::Write { first: self.write_keys.len() - 1, count: 1, reply_value: true }
            }
            Request::MSet { pairs } => {
                let first = self.write_keys.len();
                let count = pairs.len();
                for (k, val) in pairs {
                    self.write_keys.push(k);
                    self.write_ops.push(WriteOp::Set(val));
                }
                Slot::Write { first, count, reply_value: false }
            }
        }
    }

    /// Runs the wave's batches over the worker's route. Writes dispatch
    /// before reads, so a wave's reads observe its writes. The store side
    /// commits through the handle's closure-based batch primitives, the
    /// mesh side through the ring-crossing declarative ones.
    ///
    /// Mesh batch errors fan to every slot of the failing class, like
    /// store batch errors do. The validator already screened keys and
    /// widths, so what remains is mesh shutdown — where over-reporting
    /// `Internal` on a dying connection set is the honest answer.
    pub(crate) fn dispatch(&mut self, route: &mut Route, mode: Dispatch, stats: &AtomicStats) {
        stats.waves.fetch_add(1, Ordering::Relaxed);
        match (route, mode) {
            (Route::Store(h), Dispatch::Coalesced) => self.dispatch_coalesced(h, stats),
            (Route::Store(h), Dispatch::PerRequest) => self.dispatch_per_request(h, stats),
            (Route::Mesh(m), Dispatch::Coalesced) => self.dispatch_mesh_coalesced(m, stats),
            (Route::Mesh(m), Dispatch::PerRequest) => self.dispatch_mesh_per_request(m, stats),
        }
    }

    // lint: no-alloc
    fn dispatch_mesh_coalesced(&mut self, m: &mut MeshHandle, stats: &AtomicStats) {
        let w = m.width();
        if !self.write_keys.is_empty() {
            // Sizing the flat result buffers is the wave's only growth
            // (the mesh writes post-update snapshots straight into it).
            self.write_snaps.resize(self.write_keys.len() * w, 0);
            let ops = &self.write_ops;
            let r = m.update_batch(
                &self.write_keys,
                &mut |i| mesh_op(&ops[i]), // `i` enumerates write_keys; ops is parallel to it
                Some(&mut self.write_snaps),
            );
            stats.record_write_batch(self.write_keys.len());
            if let Err(e) = r {
                let err = wire_of_mesh(&e);
                for (errs, (_, slot)) in self.slot_errs.iter_mut().zip(&self.slots) {
                    if matches!(slot, Slot::Write { .. }) {
                        *errs = Some(err);
                    }
                }
            }
        }
        if !self.read_keys.is_empty() {
            self.read_vals.resize(self.read_keys.len() * w, 0);
            let r = m.read_many_into(&self.read_keys, &mut self.read_vals);
            stats.record_read_batch(self.read_keys.len());
            if let Err(e) = r {
                let err = wire_of_mesh(&e);
                for (errs, (_, slot)) in self.slot_errs.iter_mut().zip(&self.slots) {
                    if matches!(slot, Slot::ReadValue { .. } | Slot::ReadValues { .. }) {
                        *errs = Some(err);
                    }
                }
            }
        }
    }

    // lint: no-alloc
    fn dispatch_mesh_per_request(&mut self, m: &mut MeshHandle, stats: &AtomicStats) {
        let w = m.width();
        self.write_snaps.resize(self.write_keys.len() * w, 0);
        self.read_vals.resize(self.read_keys.len() * w, 0);
        for (si, (_, slot)) in self.slots.iter().enumerate() {
            // Every slot's `first`/`count` range was staged by `admit`,
            // which pushed exactly that many keys — in-bounds throughout.
            let r = match *slot {
                Slot::Write { first, count, .. } => {
                    let keys = &self.write_keys[first..first + count]; // staged by admit
                    let ops = &self.write_ops;
                    let r = m.update_batch(
                        keys,
                        &mut |i| mesh_op(&ops[first + i]), // `i` enumerates keys; ops is parallel
                        Some(&mut self.write_snaps[first * w..(first + count) * w]), // sized above
                    );
                    stats.record_write_batch(count);
                    r
                }
                Slot::ReadValue { first } => {
                    stats.record_read_batch(1);
                    m.read_many_into(
                        &self.read_keys[first..first + 1],               // staged by admit
                        &mut self.read_vals[first * w..(first + 1) * w], // sized keys × w above
                    )
                }
                Slot::ReadValues { first, count } => {
                    let keys = &self.read_keys[first..first + count]; // staged by admit
                    stats.record_read_batch(count);
                    // Result buffer was sized `read_keys.len() * w` above.
                    m.read_many_into(keys, &mut self.read_vals[first * w..(first + count) * w])
                }
                Slot::Err(_) | Slot::Bad(_) => continue,
            };
            if let Err(e) = r {
                // `slot_errs` is sized to `slots` in `build`.
                self.slot_errs[si] = Some(wire_of_mesh(&e));
            }
        }
    }

    // lint: no-alloc
    fn dispatch_coalesced(&mut self, handle: &mut StoreHandle, stats: &AtomicStats) {
        let w = handle.store().width();
        if !self.write_keys.is_empty() {
            // Sizing the flat result buffers is the wave's only growth;
            // the store closures below must stay allocation-free.
            self.write_snaps.resize(self.write_keys.len() * w, 0);
            let (ops, snaps) = (&self.write_ops, &mut self.write_snaps);
            let r = handle.update_many_with(&self.write_keys, |i, buf| {
                apply_op(&ops[i], buf); // `i` enumerates write_keys; ops is parallel to it
                snaps[i * w..(i + 1) * w].copy_from_slice(buf); // snaps sized keys × w above
            });
            stats.record_write_batch(self.write_keys.len());
            if let Err(e) = r {
                let err = WireError::from_store(&e);
                for (errs, (_, slot)) in self.slot_errs.iter_mut().zip(&self.slots) {
                    if matches!(slot, Slot::Write { .. }) {
                        *errs = Some(err);
                    }
                }
            }
        }
        if !self.read_keys.is_empty() {
            self.read_vals.resize(self.read_keys.len() * w, 0);
            let r = handle.read_many_into(&self.read_keys, &mut self.read_vals);
            stats.record_read_batch(self.read_keys.len());
            if let Err(e) = r {
                let err = WireError::from_store(&e);
                for (errs, (_, slot)) in self.slot_errs.iter_mut().zip(&self.slots) {
                    if matches!(slot, Slot::ReadValue { .. } | Slot::ReadValues { .. }) {
                        *errs = Some(err);
                    }
                }
            }
        }
    }

    // lint: no-alloc
    fn dispatch_per_request(&mut self, handle: &mut StoreHandle, stats: &AtomicStats) {
        let w = handle.store().width();
        self.write_snaps.resize(self.write_keys.len() * w, 0);
        self.read_vals.resize(self.read_keys.len() * w, 0);
        for (si, (_, slot)) in self.slots.iter().enumerate() {
            // Every slot's `first`/`count` range was staged by `admit`,
            // which pushed exactly that many keys — in-bounds throughout.
            let r = match *slot {
                Slot::Write { first, count, .. } => {
                    let keys = &self.write_keys[first..first + count]; // staged by admit
                    let (ops, snaps) = (&self.write_ops, &mut self.write_snaps);
                    let r = handle.update_many_with(keys, |i, buf| {
                        apply_op(&ops[first + i], buf); // `i` enumerates keys; ops is parallel
                        snaps[(first + i) * w..(first + i + 1) * w].copy_from_slice(buf);
                        // sized above
                    });
                    stats.record_write_batch(count);
                    r
                }
                Slot::ReadValue { first } => {
                    stats.record_read_batch(1);
                    handle.read(
                        self.read_keys[first],                           // staged by admit
                        &mut self.read_vals[first * w..(first + 1) * w], // sized keys × w above
                    )
                }
                Slot::ReadValues { first, count } => {
                    let keys = &self.read_keys[first..first + count]; // staged by admit
                    stats.record_read_batch(count);
                    // Result buffer was sized `read_keys.len() * w` above.
                    handle.read_many_into(keys, &mut self.read_vals[first * w..(first + count) * w])
                }
                Slot::Err(_) | Slot::Bad(_) => continue,
            };
            if let Err(e) = r {
                // `slot_errs` is sized to `slots` in `build`.
                self.slot_errs[si] = Some(WireError::from_store(&e));
            }
        }
    }

    /// Encodes every slot's response into its connection's output
    /// buffer, in per-connection request order. Value-bearing replies
    /// encode straight out of the wave's flat result buffers — no
    /// per-reply `Vec<u64>` materialization.
    // lint: no-alloc
    pub(crate) fn scatter(self, conns: &mut [Conn], stats: &AtomicStats) {
        let w = if self.slots.is_empty() { 0 } else { self.width_hint() };
        // One reusable frame buffer per wave, cleared between slots.
        let mut buf = Vec::new(); // lint: alloc-ok(single per-wave scratch, reused across slots)
        for ((ci, slot), err) in self.slots.iter().zip(&self.slot_errs) {
            buf.clear();
            let err = if let Some(e) = err {
                Some(*e)
            } else {
                match *slot {
                    Slot::Write { first, reply_value, .. } => {
                        if reply_value {
                            encode_value_response(
                                // snaps were filled `entries × w` at dispatch
                                &self.write_snaps[first * w..(first + 1) * w],
                                &mut buf,
                            );
                        } else {
                            encode_response(&Response::Ok, &mut buf);
                        }
                        None
                    }
                    Slot::ReadValue { first } => {
                        encode_value_response(
                            // read_vals were filled `keys × w` at dispatch
                            &self.read_vals[first * w..(first + 1) * w],
                            &mut buf,
                        );
                        None
                    }
                    Slot::ReadValues { first, count } => {
                        encode_values_response(
                            // read_vals were filled `keys × w` at dispatch
                            &self.read_vals[first * w..(first + count) * w],
                            w,
                            &mut buf,
                        );
                        None
                    }
                    Slot::Err(e) => Some(e),
                    Slot::Bad(e) => {
                        conns[*ci].poison(); // `ci` indexes the conns slice build() walked
                        stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        Some(WireError::BadFrame(e))
                    }
                }
            };
            if let Some(e) = err {
                encode_response(&Response::Error(e), &mut buf);
                stats.error_replies.fetch_add(1, Ordering::Relaxed);
            }
            stats.requests.fetch_add(1, Ordering::Relaxed);
            conns[*ci].queue_out(&buf); // `ci` indexes the conns slice build() walked
        }
    }

    /// Recovers `W` from the filled flat buffers (avoids threading the
    /// store handle into `scatter`).
    fn width_hint(&self) -> usize {
        if !self.write_keys.is_empty() {
            self.write_snaps.len() / self.write_keys.len()
        } else if !self.read_keys.is_empty() {
            self.read_vals.len() / self.read_keys.len()
        } else {
            0
        }
    }
}

fn apply_op(op: &WriteOp, buf: &mut [u64]) {
    match op {
        WriteOp::Set(v) => buf.copy_from_slice(v),
        WriteOp::Update(u) => u.apply(buf),
    }
}

/// Translates a wire write op into the mesh's declarative form. Width
/// was validated against the mesh (≤ `MAX_INLINE_WIDTH` by
/// construction) before admission, so `from_slice` cannot fail here;
/// the empty fallback would surface as a typed `WrongValueLen` reply.
// lint: no-alloc
fn mesh_op(op: &WriteOp) -> (UpdateKind, InlineVal) {
    match op {
        WriteOp::Set(v) => (UpdateKind::Set, InlineVal::from_slice(v).unwrap_or_default()),
        WriteOp::Update(UpdateOp::Add(v)) => {
            (UpdateKind::Add, InlineVal::from_slice(v).unwrap_or_default())
        }
        WriteOp::Update(UpdateOp::Max(v)) => {
            (UpdateKind::Max, InlineVal::from_slice(v).unwrap_or_default())
        }
    }
}
