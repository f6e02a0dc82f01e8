//! The worker loop: one thread owning a set of connections and one
//! [`Route`], ticking read → coalesce → dispatch → flush.
//!
//! A store route holds exactly one
//! [`DynStoreHandle`](mwllsc_store::DynStoreHandle), so a server with
//! `N` workers consumes at most one slot lease per shard per worker —
//! the store's `shard_capacity` bounds how many workers (plus external
//! handles) can serve a store, and the lease is what lets every per-key
//! operation inside a batch borrow its object slot without a lease of its
//! own (see the store docs). A mesh
//! route leases nothing: the shard leases live in the mesh's own worker
//! threads, and this loop only forwards over rings.

use mwllsc::sync::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::coalesce::{Dispatch, Validator, Wave};
use crate::conn::Conn;
use crate::route::Route;
use crate::stats::AtomicStats;

/// Per-worker knobs, copied out of the server config.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerCfg {
    pub dispatch: Dispatch,
    /// Queued-output cap per connection: beyond it the socket is neither
    /// read nor dispatched for this tick (slow-reader backpressure —
    /// memory stays bounded by what the peer actually drains).
    pub max_conn_out_bytes: usize,
    /// Per-connection request cap per wave: a deeper pipeline spreads
    /// across successive waves, so one firehose connection cannot turn a
    /// wave into a latency cliff and the backpressure check runs between
    /// its slices.
    pub max_wave_run: usize,
    /// Sleep when a tick moved nothing (the poll loop's idle cost).
    pub idle_sleep: Duration,
    /// How long shutdown keeps flushing responses before dropping
    /// still-undrained connections.
    pub drain_timeout: Duration,
}

/// Runs one worker until `stop` is set and its pipeline is drained.
/// Consumes the route; dropping it on exit releases everything it held
/// (store mode: the shard slot leases; mesh mode: the caller links).
pub(crate) fn run(
    rx: &Receiver<std::net::TcpStream>,
    mut route: Route,
    validator: Validator,
    cfg: WorkerCfg,
    stats: &Arc<AtomicStats>,
    stop: &Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        // Adopt newly accepted connections.
        while let Ok(stream) = rx.try_recv() {
            if let Ok(conn) = Conn::new(stream) {
                conns.push(conn);
                stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut progressed = false;
        if !stopping {
            // Read phase: pull bytes and decode pipelines, skipping
            // connections whose peers aren't draining responses or whose
            // decoded pipeline is already deep enough for several waves.
            for conn in &mut conns {
                if conn.out_queued() > cfg.max_conn_out_bytes
                    || conn.pending.len() >= 2 * cfg.max_wave_run
                {
                    if conn.wants_read() {
                        stats.backpressure_skips.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                progressed |= conn.poll_read();
            }
        }

        // Dispatch phase: waves until every dispatchable pipeline is
        // empty (backpressured connections keep theirs queued). On
        // shutdown this is the in-flight drain — everything already
        // decoded still commits and gets a response, so the out-bytes
        // gate lifts (reads stopped; the backlog is already bounded).
        // Flushing inside the loop keeps output moving between wave
        // slices of a deep pipeline, so the gate measures what the peer
        // has actually left undrained.
        let out_cap = if stopping { usize::MAX } else { cfg.max_conn_out_bytes };
        while let Some(mut wave) = Wave::build(&mut conns, &validator, cfg.max_wave_run, out_cap) {
            wave.dispatch_route(&mut route, cfg.dispatch, stats);
            wave.scatter(&mut conns, stats);
            for conn in &mut conns {
                conn.flush();
            }
            progressed = true;
        }

        // Write phase.
        for conn in &mut conns {
            progressed |= conn.flush();
        }
        let before = conns.len();
        conns.retain(|c| !c.done());
        stats.conns_closed.fetch_add((before - conns.len()) as u64, Ordering::Relaxed);

        if stopping {
            drain_and_close(&mut conns, cfg.drain_timeout, stats);
            break;
        }
        if !progressed {
            std::thread::sleep(cfg.idle_sleep);
        }
    }
    // `route` drops here: a store route returns every leased shard slot
    // to the registry, a mesh route retires its rings — a stopped server
    // leaks nothing from the store either way.
    drop(route);
}

/// Final flush on shutdown: keep writing until every response drains or
/// the deadline passes, then drop whatever remains.
fn drain_and_close(conns: &mut Vec<Conn>, timeout: Duration, stats: &AtomicStats) {
    let deadline = Instant::now() + timeout;
    while conns.iter().any(|c| c.out_queued() > 0) && Instant::now() < deadline {
        for conn in conns.iter_mut() {
            conn.flush();
        }
        let before = conns.len();
        conns.retain(|c| !c.done());
        stats.conns_closed.fetch_add((before - conns.len()) as u64, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(100));
    }
    stats.conns_closed.fetch_add(conns.len() as u64, Ordering::Relaxed);
    conns.clear();
}
