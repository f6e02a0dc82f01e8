//! The [`Mesh`]: worker ownership, lifecycle, and stats.
//!
//! A mesh pins every shard of a [`Store`] to exactly one worker thread
//! (shard `s` belongs to worker `s % workers`, reusing the store's FNV
//! router for the key→shard step). Each worker owns a single
//! [`StoreHandle`](mwllsc_store::StoreHandle), pre-leased on all of its
//! shards at construction, and serves remote operations drained from its
//! inbound rings in waves — so the store's batched
//! `update_many_with`/`read_many_into` coalescing falls out for free, and
//! no two threads ever RMW the same shard's cells through the mesh.

use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use mwllsc::sync::{AtomicBool, AtomicU64, Ordering};
use mwllsc_store::{Store, StoreHandle};

use crate::link::{CallerLink, LinkShared, Waiter, WorkerLink};
use crate::msg::{MeshError, MAX_INLINE_WIDTH};
use crate::ring::spsc;
use crate::worker::{self, Knobs};
use crate::MeshHandle;

/// Number of log₂ buckets in the ring-occupancy histogram.
pub const OCC_BUCKETS: usize = 16;

/// Construction knobs for a [`Mesh`].
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Worker threads. Clamped to the store's shard count (a worker with
    /// no shards would idle forever). Zero is a typed error.
    pub workers: usize,
    /// Per-link ring capacity in slots, rounded up to the next power of
    /// two (minimum 2). Also the caller's per-link in-flight window.
    pub ring_capacity: usize,
    /// Most *messages* a worker drains from one link per wave, bounding
    /// wave latency under a firehose caller.
    pub max_wave_run: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self { workers: 1, ring_capacity: 256, max_wave_run: 512 }
    }
}

impl MeshConfig {
    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-link ring capacity (rounded up to a power of two).
    #[must_use]
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the per-link per-wave drain budget.
    #[must_use]
    pub fn with_max_wave_run(mut self, run: usize) -> Self {
        self.max_wave_run = run;
        self
    }
}

/// Per-worker counters (written by the worker, read by [`Mesh::stats`];
/// plain monotonic counters, so `Relaxed` is enough).
pub(crate) struct WorkerStats {
    /// Entries dispatched through the store (batch ops count `n`).
    pub entries: AtomicU64,
    /// Ring messages drained (batch ops count 1).
    pub msgs: AtomicU64,
    /// Waves that dispatched at least one entry.
    pub waves: AtomicU64,
    /// Histogram of request-ring occupancy sampled at drain time, log₂
    /// buckets (`bucket 0` = empty rings are not sampled; bucket `b` ≥ 1
    /// covers occupancies `2^(b-1) .. 2^b`).
    pub occ_hist: [AtomicU64; OCC_BUCKETS],
}

impl WorkerStats {
    fn new() -> Self {
        Self {
            entries: AtomicU64::new(0),
            msgs: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            occ_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log₂ histogram bucket for a sampled occupancy (`occ ≥ 1`).
pub(crate) fn occ_bucket(occ: usize) -> usize {
    let b = usize::BITS - occ.leading_zeros(); // 1 → 1, 2..3 → 2, 4..7 → 3, …
    (b as usize).min(OCC_BUCKETS - 1)
}

/// A snapshot of mesh-wide counters, summed across workers.
#[derive(Clone, Debug, Default)]
pub struct MeshStats {
    /// Entries dispatched through the store.
    pub entries: u64,
    /// Ring messages drained.
    pub msgs: u64,
    /// Waves that dispatched at least one entry.
    pub waves: u64,
    /// Request-ring occupancy histogram (log₂ buckets, drain-time
    /// samples of nonempty rings).
    pub occ_hist: [u64; OCC_BUCKETS],
}

/// State shared between a worker thread and the rest of the mesh.
pub(crate) struct WorkerShared {
    /// Links registered by [`Mesh::attach`], awaiting adoption.
    pub inbox: Mutex<Vec<WorkerLink>>,
    /// Whether `inbox` has unadopted links.
    pub inbox_dirty: AtomicBool,
    /// The worker's idle parker; callers wake it after pushing.
    pub parker: Waiter,
    /// The worker's counters.
    pub stats: WorkerStats,
}

impl WorkerShared {
    fn new() -> Self {
        Self {
            inbox: Mutex::new(Vec::new()),
            inbox_dirty: AtomicBool::new(false),
            parker: Waiter::new(),
            stats: WorkerStats::new(),
        }
    }
}

/// Thread-per-core shared-nothing ownership over a [`Store`]: shards are
/// pinned to workers, remote ops travel over SPSC rings, and callers talk
/// through [`MeshHandle`]s (see the crate docs for the full picture).
pub struct Mesh {
    pub(crate) store: Arc<Store>,
    pub(crate) workers: Box<[Arc<WorkerShared>]>,
    pub(crate) ring_capacity: usize,
    pub(crate) stop: Arc<AtomicBool>,
    /// Set after every worker has been joined: no reply will ever arrive
    /// again, so parked callers can give up with `Disconnected`.
    pub(crate) retired: AtomicBool,
    joins: Mutex<Vec<JoinHandle<()>>>,
}

impl Mesh {
    /// Builds a mesh over `store` and starts its workers.
    ///
    /// Fails with a typed error if the store's width exceeds
    /// [`MAX_INLINE_WIDTH`], if `cfg.workers` is zero, or if a worker
    /// cannot pre-lease a slot on one of its shards
    /// ([`MeshError::ShardExhausted`] now, instead of mid-traffic).
    pub fn try_new(store: Arc<Store>, cfg: MeshConfig) -> Result<Arc<Self>, MeshError> {
        let width = store.width();
        if width > MAX_INLINE_WIDTH {
            return Err(MeshError::WidthTooWide { width, max: MAX_INLINE_WIDTH });
        }
        if cfg.workers == 0 {
            return Err(MeshError::ZeroWorkers);
        }
        let n = cfg.workers.min(store.shards());
        let ring_capacity = cfg.ring_capacity.max(2).next_power_of_two();

        // Pre-lease each worker's shards before any thread starts, so
        // exhaustion is a construction error and startup is all-or-nothing.
        let mut handles: Vec<StoreHandle> = Vec::with_capacity(n);
        for i in 0..n {
            let mut h = store.attach();
            let mut s = i;
            while s < store.shards() {
                h.lease_shard(s).map_err(|e| MeshError::from_store(&e))?;
                s += n;
            }
            handles.push(h);
        }

        let workers: Box<[Arc<WorkerShared>]> =
            (0..n).map(|_| Arc::new(WorkerShared::new())).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::with_capacity(n);
        for (i, h) in handles.into_iter().enumerate() {
            let shared = Arc::clone(&workers[i]); // i < n == workers.len()
            let worker_stop = Arc::clone(&stop);
            let knobs = Knobs {
                width,
                key_capacity: store.key_capacity(),
                max_wave_run: cfg.max_wave_run.max(1),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("mwllsc-mesh-{i}"))
                .spawn(move || worker::run(h, shared, worker_stop, knobs));
            match spawned {
                Ok(j) => joins.push(j),
                Err(_) => {
                    // Roll the partial fleet back before reporting.
                    stop.store(true, Ordering::Release);
                    for w in workers.iter() {
                        w.parker.wake();
                    }
                    for j in joins {
                        let _ = j.join();
                    }
                    return Err(MeshError::Internal);
                }
            }
        }

        Ok(Arc::new(Self {
            store,
            workers,
            ring_capacity,
            stop,
            retired: AtomicBool::new(false),
            joins: Mutex::new(joins),
        }))
    }

    /// Builds a mesh with [`MeshConfig::default`] except for the worker
    /// count.
    pub fn with_workers(store: Arc<Store>, workers: usize) -> Result<Arc<Self>, MeshError> {
        Self::try_new(store, MeshConfig::default().with_workers(workers))
    }

    /// Creates a caller handle: one request/reply ring pair per worker,
    /// registered for adoption on the workers' next wave.
    ///
    /// A handle created after [`Mesh::shutdown`] is valid but
    /// disconnected: every op returns [`MeshError::Disconnected`].
    pub fn attach(self: &Arc<Self>) -> MeshHandle {
        let waiter = Arc::new(Waiter::new());
        let stopped = self.stop.load(Ordering::Acquire);
        let mut links = Vec::with_capacity(self.workers.len());
        for (wi, w) in self.workers.iter().enumerate() {
            let (op_tx, op_rx) = spsc(self.ring_capacity, wi as u32);
            let (rep_tx, rep_rx) = spsc(self.ring_capacity, wi as u32);
            let shared = Arc::new(LinkShared::new(Arc::clone(&waiter)));
            if stopped {
                // Never registered: mark it dead so ops fail fast.
                shared.closed.store(true, Ordering::Release);
                shared.drained.store(true, Ordering::Release);
            } else {
                w.inbox.lock().unwrap_or_else(PoisonError::into_inner).push(WorkerLink {
                    op_rx,
                    rep_tx,
                    shared: Arc::clone(&shared),
                });
                w.inbox_dirty.store(true, Ordering::Release);
                w.parker.wake();
            }
            links.push(CallerLink { op_tx, rep_rx, shared, inflight: 0 });
        }
        MeshHandle::new(Arc::clone(self), links.into_boxed_slice(), waiter)
    }

    /// Stops and joins all workers. Each worker closes its links, drains
    /// every in-flight op it has already accepted (dispatching and
    /// replying as usual), and only then reports its links drained — so
    /// a caller blocked in an op observes either its completion or a
    /// definitive [`MeshError::Disconnected`] (op not applied).
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for w in self.workers.iter() {
            w.parker.wake();
        }
        let joins = std::mem::take(&mut *self.joins.lock().unwrap_or_else(PoisonError::into_inner));
        for j in joins {
            let _ = j.join();
        }
        self.retired.store(true, Ordering::Release);
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Worker-thread count (after shard clamping).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Effective per-link ring capacity (power of two).
    #[must_use]
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Words per logical variable, `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.store.width()
    }

    /// Size of the logical key space.
    #[must_use]
    pub fn key_capacity(&self) -> u64 {
        self.store.key_capacity()
    }

    /// The worker owning `key`'s shard (`shard % workers`), or a typed
    /// error for an out-of-range key.
    pub fn owner_of(&self, key: u64) -> Result<usize, MeshError> {
        let si = self.store.try_route(key).map_err(|e| MeshError::from_store(&e))?;
        Ok(si % self.workers.len())
    }

    /// Aggregated worker counters.
    #[must_use]
    pub fn stats(&self) -> MeshStats {
        let mut out = MeshStats::default();
        for w in self.workers.iter() {
            out.entries += w.stats.entries.load(Ordering::Relaxed);
            out.msgs += w.stats.msgs.load(Ordering::Relaxed);
            out.waves += w.stats.waves.load(Ordering::Relaxed);
            for (dst, src) in out.occ_hist.iter_mut().zip(w.stats.occ_hist.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
        }
        out
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}
