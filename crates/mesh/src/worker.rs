//! The worker loop: adopt links, drain waves, dispatch through the
//! store's batch primitives, reply, park when idle.
//!
//! A wave drains up to `max_wave_run` messages from every adopted link,
//! expands them into flat key/op arrays (validating key range and
//! operand width as it goes — invalid entries turn into immediate error
//! replies and never reach the store), then commits all writes with one
//! `update_many_with` call and all reads with one `read_many_into` call.
//! The store sorts each batch by `(shard, key)` and folds equal-key runs
//! into single LL/SC commits, so cross-caller coalescing needs no code
//! here.
//!
//! Shutdown is a handshake, not an interrupt (see `link.rs`): the worker
//! closes every link, drains *everything* already in the request rings
//! (ignoring the wave budget), replies, and only then marks links
//! drained — making `Disconnected` on the caller side a definitive
//! "never applied".

use std::sync::{Arc, PoisonError};
use std::time::Duration;

use mwllsc::sync::Ordering;
use mwllsc_store::StoreHandle;

use crate::link::WorkerLink;
use crate::mesh::{occ_bucket, WorkerShared};
use crate::msg::{InlineVal, MeshError, Op, Reply, UpdateKind, BATCH_SPAN};

/// Per-worker constants, fixed at mesh construction.
pub(crate) struct Knobs {
    /// Words per logical variable, `W`.
    pub width: usize,
    /// Size of the logical key space (for defensive validation).
    pub key_capacity: u64,
    /// Per-link per-wave message budget.
    pub max_wave_run: usize,
}

/// How long an idle worker parks before re-scanning its rings: a wakeup
/// bound, not a poll interval, since callers unpark it on every push.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// Reusable wave buffers: allocated once per worker, cleared per wave.
#[derive(Default)]
struct Scratch {
    write_keys: Vec<u64>,
    write_kinds: Vec<UpdateKind>,
    write_operands: Vec<InlineVal>,
    /// `(link index, token)` per write entry.
    write_meta: Vec<(u32, u32)>,
    /// Flat `write_keys.len() × W` buffer of installed values.
    write_snaps: Vec<u64>,
    read_keys: Vec<u64>,
    /// `(link index, token)` per read entry.
    read_meta: Vec<(u32, u32)>,
    /// Flat `read_keys.len() × W` buffer of read values.
    read_vals: Vec<u64>,
    /// Completions to deliver, including validation errors.
    replies: Vec<(u32, Reply)>,
    /// Per link: had at least one reply this wave (wake its waiter).
    touched: Vec<bool>,
}

impl Scratch {
    fn clear(&mut self, links: usize) {
        self.write_keys.clear();
        self.write_kinds.clear();
        self.write_operands.clear();
        self.write_meta.clear();
        self.read_keys.clear();
        self.read_meta.clear();
        self.replies.clear();
        self.touched.clear();
        self.touched.resize(links, false);
    }
}

/// The worker body (thread `mwllsc-mesh-{i}`). Owns the only
/// `StoreHandle` that ever touches this worker's shards through the
/// mesh; dropping it on exit releases the pre-leased slots.
pub(crate) fn run(
    mut handle: StoreHandle,
    shared: Arc<WorkerShared>,
    stop: Arc<mwllsc::sync::AtomicBool>,
    knobs: Knobs,
) {
    let mut links: Vec<WorkerLink> = Vec::new();
    let mut sc = Scratch::default();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        if shared.inbox_dirty.swap(false, Ordering::AcqRel) || stopping {
            links.append(&mut shared.inbox.lock().unwrap_or_else(PoisonError::into_inner));
        }
        if stopping {
            for l in &links {
                l.shared.closed.store(true, Ordering::Release);
            }
        }

        // Drain phase: pull messages off every link into the wave.
        let mut progress = false;
        sc.clear(links.len());
        for (li, l) in links.iter_mut().enumerate() {
            let occ = l.op_rx.occupancy();
            if occ > 0 {
                let b = occ_bucket(occ);
                shared.stats.occ_hist[b].fetch_add(1, Ordering::Relaxed); // b < OCC_BUCKETS by occ_bucket
            }
            let budget = if stopping { usize::MAX } else { knobs.max_wave_run };
            let mut taken = 0usize;
            while taken < budget {
                let Some(op) = l.op_rx.try_pop() else { break };
                taken += 1;
                expand(li as u32, op, &mut sc, &knobs);
            }
            if taken > 0 {
                progress = true;
                shared.stats.msgs.fetch_add(taken as u64, Ordering::Relaxed);
            }
        }

        // Dispatch phase: one batched store call per class.
        let entries = sc.write_keys.len() + sc.read_keys.len();
        if entries > 0 {
            dispatch(&mut handle, &mut sc, knobs.width);
            shared.stats.waves.fetch_add(1, Ordering::Relaxed);
            shared.stats.entries.fetch_add(entries as u64, Ordering::Relaxed);
        }

        // Reply phase.
        deliver(&mut links, &mut sc);

        // Retire links whose handle is gone and whose ring is empty.
        let mut li = 0;
        while li < links.len() {
            // li < links.len() checked by the loop condition
            let gone = links[li].shared.dropped.load(Ordering::Acquire)
                && links[li].op_rx.occupancy() == 0; // same bound as above
            if gone {
                links.swap_remove(li);
            } else {
                li += 1;
            }
        }

        if stopping {
            // Everything accepted so far is dispatched and replied; the
            // drained flag's Release publishes those replies.
            for l in &links {
                l.shared.drained.store(true, Ordering::Release);
                l.shared.waiter.wake();
            }
            // Links registered after the adoption above never ran: close
            // them too so their callers fail fast instead of timing out.
            let late =
                std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(PoisonError::into_inner));
            for l in late {
                l.shared.closed.store(true, Ordering::Release);
                l.shared.drained.store(true, Ordering::Release);
                l.shared.waiter.wake();
            }
            break;
        }

        if !progress {
            shared.parker.prepare();
            let pending = shared.inbox_dirty.load(Ordering::Acquire)
                || stop.load(Ordering::Acquire)
                || links.iter().any(|l| l.op_rx.occupancy() > 0);
            if pending {
                shared.parker.cancel();
            } else {
                shared.parker.wait(IDLE_PARK);
            }
        }
    }
}

/// Expands one ring message into wave entries, validating key range and
/// operand width. Invalid entries become immediate error replies.
fn expand(li: u32, op: Op, sc: &mut Scratch, knobs: &Knobs) {
    match op {
        Op::Get { key, token } => push_read(li, key, token, sc, knobs),
        Op::Set { key, val, token } => push_write(li, key, UpdateKind::Set, val, token, sc, knobs),
        Op::Update { key, kind, operand, token } => {
            push_write(li, key, kind, operand, token, sc, knobs)
        }
        Op::ReadBatch { n, keys, token } => {
            for (i, &key) in keys.iter().enumerate().take((n as usize).min(BATCH_SPAN)) {
                push_read(li, key, token.wrapping_add(i as u32), sc, knobs);
            }
        }
        Op::UpdateBatch { n, keys, kinds, operands, token } => {
            for i in 0..(n as usize).min(BATCH_SPAN) {
                // i < BATCH_SPAN == each array's length by the min above
                let (key, kind, operand) = (keys[i], kinds[i], operands[i]);
                push_write(li, key, kind, operand, token.wrapping_add(i as u32), sc, knobs);
            }
        }
    }
}

fn push_read(li: u32, key: u64, token: u32, sc: &mut Scratch, knobs: &Knobs) {
    if key >= knobs.key_capacity {
        let err = MeshError::KeyOutOfRange { key, capacity: knobs.key_capacity };
        sc.replies.push((li, Reply { token, result: Err(err) }));
        return;
    }
    sc.read_keys.push(key);
    sc.read_meta.push((li, token));
}

fn push_write(
    li: u32,
    key: u64,
    kind: UpdateKind,
    operand: InlineVal,
    token: u32,
    sc: &mut Scratch,
    knobs: &Knobs,
) {
    if key >= knobs.key_capacity {
        let err = MeshError::KeyOutOfRange { key, capacity: knobs.key_capacity };
        sc.replies.push((li, Reply { token, result: Err(err) }));
        return;
    }
    if operand.len() != knobs.width {
        let err = MeshError::WrongValueLen { expected: knobs.width, got: operand.len() };
        sc.replies.push((li, Reply { token, result: Err(err) }));
        return;
    }
    sc.write_keys.push(key);
    sc.write_kinds.push(kind);
    sc.write_operands.push(operand);
    sc.write_meta.push((li, token));
}

/// Commits the wave through the store: writes first (each entry's reply
/// carries the *installed* value), then reads. A store error fails every
/// entry of its class — the store's batch paths are all-or-nothing.
fn dispatch(handle: &mut StoreHandle, sc: &mut Scratch, w: usize) {
    let Scratch {
        write_keys,
        write_kinds,
        write_operands,
        write_meta,
        write_snaps,
        read_keys,
        read_meta,
        read_vals,
        replies,
        ..
    } = sc;

    if !write_keys.is_empty() {
        write_snaps.clear();
        write_snaps.resize(write_keys.len() * w, 0);
        let res = handle.update_many_with(write_keys, |i, buf| {
            // i < write_keys.len() (batch contract), so the parallel
            // arrays and the i-th W-word snap window are in bounds.
            write_kinds[i].apply(&write_operands[i], buf);
            write_snaps[i * w..(i + 1) * w].copy_from_slice(buf); // same batch-contract bound
        });
        match res {
            Ok(()) => {
                for (i, (li, token)) in write_meta.iter().enumerate() {
                    // i-th W-word window: write_snaps has one per entry
                    let val =
                        InlineVal::from_slice(&write_snaps[i * w..(i + 1) * w]).unwrap_or_default(); // w <= MAX_INLINE_WIDTH: checked at mesh construction
                    replies.push((*li, Reply { token: *token, result: Ok(val) }));
                }
            }
            Err(e) => {
                let err = MeshError::from_store(&e);
                for (li, token) in write_meta.iter() {
                    replies.push((*li, Reply { token: *token, result: Err(err) }));
                }
            }
        }
    }

    if !read_keys.is_empty() {
        read_vals.clear();
        read_vals.resize(read_keys.len() * w, 0);
        match handle.read_many_into(read_keys, read_vals) {
            Ok(()) => {
                for (i, (li, token)) in read_meta.iter().enumerate() {
                    // i-th W-word window: read_vals has one per entry
                    let val =
                        InlineVal::from_slice(&read_vals[i * w..(i + 1) * w]).unwrap_or_default(); // w <= MAX_INLINE_WIDTH as above
                    replies.push((*li, Reply { token: *token, result: Ok(val) }));
                }
            }
            Err(e) => {
                let err = MeshError::from_store(&e);
                for (li, token) in read_meta.iter() {
                    replies.push((*li, Reply { token: *token, result: Err(err) }));
                }
            }
        }
    }
}

/// Pushes the wave's replies and wakes each caller that got one.
fn deliver(links: &mut [WorkerLink], sc: &mut Scratch) {
    for (li, rep) in sc.replies.drain(..) {
        let Some(l) = links.get_mut(li as usize) else { continue };
        let mut rep = rep;
        while let Err(back) = l.rep_tx.try_push(rep) {
            // Unreachable under the sliding-window invariant (callers
            // keep in-flight ≤ ring capacity, and each entry gets exactly
            // one reply); spin defensively rather than drop a completion.
            rep = back;
            std::hint::spin_loop();
        }
        if let Some(t) = sc.touched.get_mut(li as usize) {
            *t = true;
        }
    }
    for (li, t) in sc.touched.iter().enumerate() {
        if *t {
            if let Some(l) = links.get(li) {
                l.shared.waiter.wake();
            }
        }
    }
}
