//! `mwllsc-server`: a pipelined binary-protocol network frontend with
//! request coalescing over the sharded LL/SC store.
//!
//! The paper's LL/SC object makes a per-key update a handful of shared
//! RMWs; the store's batched paths ([`update_many`], [`read_many`]) fold
//! whole runs of same-key operations into *one* SC commit. This crate
//! closes the remaining gap to "serving traffic": it puts sockets in
//! front of a [`Store`] and converts socket-level
//! concurrency into exactly those batches.
//!
//! # Architecture
//!
//! - **Reactor** (`reactor`, `sys`): one acceptor thread deals
//!   connections round-robin to worker threads (thread-per-core model —
//!   workers never share a connection, so connection state needs no
//!   locks). Every thread blocks in `poll(2)` on its sockets plus a
//!   waker, so an idle server costs no CPU and a ready socket is served
//!   at once; the acceptor wakes a worker when it hands it a connection,
//!   and shutdown wakes them all.
//! - **Protocol** ([`proto`]): length-prefixed binary frames, versioned
//!   header, `GET`/`SET`/`UPDATE`/`MGET`/`MSET`, typed error replies
//!   mirroring [`StoreError`](mwllsc_store::StoreError). Decoding is
//!   panic-free and allocation-bounded.
//! - **Connections** (`conn`): non-blocking buffered I/O with
//!   per-connection pipelining — clients may stream any number of
//!   request frames ahead of reading replies.
//! - **Coalescing** (`coalesce`): every tick, each worker drains all
//!   of its ready connections' pipelines into dispatch *waves*: one
//!   merged `update_many` write batch and one `read_many` read batch per
//!   wave. The store sorts each batch by `(shard, key)` and folds
//!   equal-key runs into single SC commits, so a hot key hammered by
//!   many connections costs one LL/SC commit per wave, not one per
//!   request.
//! - **Workers** (`worker`): each owns one
//!   [`StoreHandle`](mwllsc_store::StoreHandle) (one shard-slot
//!   lease per touched shard), ticking wait → read the ready
//!   connections → coalesce → dispatch → one flush per connection, with
//!   slow-reader backpressure and a graceful drain on shutdown.
//!
//! # Ordering guarantees
//!
//! Within one connection, responses arrive in request order and the
//! effects are applied in request order (a connection contributes only
//! its leading same-class run to each wave, and a wave's writes dispatch
//! before its reads). Across connections, requests race exactly as
//! concurrent store handles do — each individual request is atomic,
//! with the paper object's wait-free LL and SC inside it.
//!
//! Start the server over a [`Store`] with [`Server::start`], or over a
//! shared-nothing [`Mesh`] with [`Server::start_mesh`] (workers forward
//! decoded frames to owning shards over SPSC rings instead of committing
//! on their own threads).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mwllsc_server::{Client, Server, ServerConfig, UpdateOp};
//! use mwllsc_store::{Store, StoreConfig};
//!
//! let store = Store::new(StoreConfig::new(4, 2, 1, 1 << 16));
//! let server = Server::start(&store, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.set(7, vec![40]).unwrap().unwrap();
//! assert_eq!(client.update(7, UpdateOp::Add(vec![2])).unwrap().unwrap(), vec![42]);
//! assert_eq!(client.get(7).unwrap().unwrap(), vec![42]);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.requests, 3);
//! assert_eq!(store.live_slot_leases(), 0, "shutdown released every lease");
//! ```
//!
//! [`update_many`]: mwllsc_store::StoreHandle::update_many
//! [`read_many`]: mwllsc_store::StoreHandle::read_many

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
mod coalesce;
mod conn;
pub mod proto;
mod reactor;
mod route;
mod stats;
// The crate's only unsafe code: the `poll(2)` binding.
#[allow(unsafe_code)]
mod sys;
mod worker;

use mwllsc::sync::{AtomicBool, Ordering};
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use mwllsc_mesh::Mesh;
use mwllsc_store::Store;

pub use client::Client;
pub use coalesce::Dispatch;
pub use proto::{Request, Response, UpdateOp, WireError};
pub use stats::{ServerStats, HIST_BUCKETS};

use coalesce::Validator;
use stats::AtomicStats;
use sys::Waker;
use worker::WorkerCfg;

/// Server construction knobs. `Default` binds an ephemeral loopback
/// port with one worker and coalesced dispatch.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port; read the
    /// result off [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads. Each holds one store handle (one shard-slot
    /// lease per touched shard), so [`Server::start`] clamps this to
    /// the store's `shard_capacity` — extra workers could never lease a
    /// slot. For a thread-per-core deployment set it to
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Batch dispatch mode (`examples/server_loadgen.rs` compares both).
    pub dispatch: Dispatch,
    /// Per-connection queued-output cap: past it the connection's socket
    /// is not read until the peer drains replies (slow-reader
    /// backpressure).
    pub max_conn_out_bytes: usize,
    /// Per-connection request cap per coalescing wave: a pipeline deeper
    /// than this spreads across successive waves, bounding wave latency
    /// and letting backpressure engage between slices.
    pub max_wave_run: usize,
    /// How long [`Server::shutdown`] keeps flushing already-computed
    /// responses before dropping undrained connections.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            dispatch: Dispatch::Coalesced,
            max_conn_out_bytes: 256 * 1024,
            max_wave_run: 512,
            drain_timeout: Duration::from_millis(500),
        }
    }
}

impl ServerConfig {
    /// `Default`, with `workers` workers.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }

    /// Sets the dispatch mode.
    #[must_use]
    pub fn dispatch(mut self, dispatch: Dispatch) -> Self {
        self.dispatch = dispatch;
        self
    }
}

/// A running server: the acceptor thread, its workers, and their shared
/// counters. Dropping it (or calling [`shutdown`](Server::shutdown))
/// stops accepting, drains every in-flight request, flushes responses,
/// and releases all store leases.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The acceptor's and every worker's waker: setting `stop` must be
    /// followed by waking each, or a thread blocked in `poll` never sees
    /// it.
    wakers: Vec<Arc<Waker>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<AtomicStats>,
}

impl Server {
    /// Starts a server over a store: each worker commits through its own
    /// [`StoreHandle`](mwllsc_store::StoreHandle).
    pub fn start(store: &Arc<Store>, config: ServerConfig) -> std::io::Result<Self> {
        let n_workers = config.workers.clamp(1, store.shard_capacity());
        let validator = Validator { key_capacity: store.key_capacity(), width: store.width() };
        let routes = (0..n_workers).map(|_| route::Route::Store(store.attach())).collect();
        Self::start_routes(routes, validator, config)
    }

    /// Starts a server over a shared-nothing [`Mesh`]: each server
    /// worker forwards its decoded waves over SPSC rings to the mesh
    /// workers that own the touched shards, instead of leasing shard
    /// slots and committing on its own thread.
    ///
    /// Unlike [`start`](Self::start), `config.workers` is *not*
    /// clamped by the store's `shard_capacity` — mesh caller links
    /// consume no shard-slot leases (those live in the mesh's worker
    /// threads), so any number of frontend workers can serve one mesh.
    pub fn start_mesh(mesh: &Arc<Mesh>, config: ServerConfig) -> std::io::Result<Self> {
        let n_workers = config.workers.max(1);
        let validator = Validator { key_capacity: mesh.key_capacity(), width: mesh.width() };
        let routes = (0..n_workers).map(|_| route::Route::Mesh(mesh.attach())).collect();
        Self::start_routes(routes, validator, config)
    }

    /// Shared starter: binds, then spawns one worker thread per route
    /// plus the acceptor.
    fn start_routes(
        routes: Vec<route::Route>,
        validator: Validator,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(AtomicStats::default());
        let worker_cfg = WorkerCfg {
            dispatch: config.dispatch,
            max_conn_out_bytes: config.max_conn_out_bytes,
            max_wave_run: config.max_wave_run.max(1),
            drain_timeout: config.drain_timeout,
        };

        // Built up in place, so a failed spawn drops a `Server` whose
        // `halt` stops and joins whatever already started.
        let acceptor_waker = Arc::new(Waker::new()?);
        let mut server = Self {
            local_addr,
            stop,
            wakers: vec![Arc::clone(&acceptor_waker)],
            acceptor: None,
            workers: Vec::with_capacity(routes.len()),
            stats,
        };
        let mut handoffs = Vec::with_capacity(routes.len());
        for (i, route) in routes.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let waker = Arc::new(Waker::new()?);
            handoffs.push((tx, Arc::clone(&waker)));
            server.wakers.push(Arc::clone(&waker));
            let (stats, stop) = (Arc::clone(&server.stats), Arc::clone(&server.stop));
            server.workers.push(
                std::thread::Builder::new().name(format!("mwllsc-worker-{i}")).spawn(
                    move || worker::run(&rx, &waker, route, validator, worker_cfg, &stats, &stop),
                )?,
            );
        }
        let stop = Arc::clone(&server.stop);
        server.acceptor =
            Some(std::thread::Builder::new().name("mwllsc-acceptor".to_owned()).spawn(
                move || reactor::run_acceptor(&listener, &acceptor_waker, &handoffs, &stop),
            )?);
        Ok(server)
    }

    /// The bound listen address (the ephemeral port, for `…:0` configs).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Graceful shutdown: stops accepting, dispatches every
    /// already-received request, flushes responses (bounded by the
    /// config's `drain_timeout`), drops every connection, and releases
    /// every shard-slot lease the workers held. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.halt();
        self.stats.snapshot()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    /// Same drain as [`shutdown`](Server::shutdown), minus the returned
    /// snapshot.
    fn drop(&mut self) {
        self.halt();
    }
}
