//! The worker loop: one thread owning a set of connections and one
//! [`Route`], ticking wait → read → coalesce → dispatch → flush.
//!
//! Each tick makes one [`wait`](crate::sys::wait) over the worker's
//! [`Waker`] and every connection's interest, reads only the connections
//! reported readable, runs waves until no pipeline can contribute, and
//! writes each connection with queued output once. The wait blocks only
//! when the previous tick moved nothing, so an idle worker sleeps in the
//! kernel until a socket or the waker (a new connection, shutdown) is
//! ready, and a busy one never sleeps at all.
//!
//! A store route holds exactly one
//! [`StoreHandle`](mwllsc_store::StoreHandle), so a server with
//! `N` workers consumes at most one slot lease per shard per worker —
//! the store's `shard_capacity` bounds how many workers (plus external
//! handles) can serve a store, and the lease is what lets every per-key
//! operation inside a batch borrow its object slot without a lease of its
//! own (see the store docs). A mesh
//! route leases nothing: the shard leases live in the mesh's own worker
//! threads, and this loop only forwards over rings.

use mwllsc::sync::{AtomicBool, Ordering};
use std::os::fd::AsRawFd;
use std::os::raw::c_short;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use crate::coalesce::{Dispatch, Validator, Wave};
use crate::conn::{Conn, READ_CHUNK};
use crate::route::Route;
use crate::stats::AtomicStats;
use crate::sys::{self, PollFd, Waker, POLLIN, POLLOUT};

/// Per-worker knobs, copied out of the server config.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerCfg {
    pub dispatch: Dispatch,
    /// Queued-output cap per connection: beyond it the socket is neither
    /// read nor dispatched (slow-reader backpressure — memory stays
    /// bounded by what the peer actually drains).
    pub max_conn_out_bytes: usize,
    /// Per-connection request cap per wave: a deeper pipeline spreads
    /// across successive waves, so one firehose connection cannot turn a
    /// wave into a latency cliff and the backpressure check runs between
    /// its slices.
    pub max_wave_run: usize,
    /// How long shutdown keeps flushing responses before dropping
    /// still-undrained connections.
    pub drain_timeout: Duration,
}

/// Runs one worker until `stop` is set and its pipeline is drained.
/// Consumes the route; dropping it on exit releases everything it held
/// (store mode: the shard slot leases; mesh mode: the caller links).
///
/// Whoever sends on `rx` or sets `stop` must then wake `waker`.
pub(crate) fn run(
    rx: &Receiver<std::net::TcpStream>,
    waker: &Waker,
    mut route: Route,
    validator: Validator,
    cfg: WorkerCfg,
    stats: &AtomicStats,
    stop: &AtomicBool,
) {
    let mut conns: Vec<Conn> = Vec::new();
    // `fds[0]` is the waker, `fds[i + 1]` is `conns[i]`'s interest.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut progressed = false;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        // Adopt newly accepted connections.
        while let Ok(stream) = rx.try_recv() {
            if let Ok(conn) = Conn::new(stream) {
                conns.push(conn);
                stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
            }
        }

        let busy = progressed;
        progressed = false;
        if !stopping {
            fds.clear();
            fds.push(waker.poll_fd());
            fds.extend(conns.iter().map(|c| PollFd::new(c.as_raw_fd(), interest(c, &cfg, stats))));
            // After progress, only check: a connection may hold decoded
            // requests that a flush just unblocked. `poll` fails only on
            // resource exhaustion; then treat every socket as ready, which
            // non-blocking I/O keeps correct.
            let timeout = if busy { Some(Duration::ZERO) } else { None };
            let all_ready = sys::wait(&mut fds, timeout).is_err();
            if let Some((wake, ready)) = fds.split_first() {
                if wake.readable() {
                    waker.drain();
                }
                // Read phase: only what the poll reported readable.
                for (conn, fd) in conns.iter_mut().zip(ready) {
                    if all_ready || fd.readable() {
                        progressed |= conn.poll_read(&mut chunk);
                    }
                }
            }
        }

        // Dispatch phase: waves until no pipeline can contribute
        // (backpressured connections keep theirs queued). On shutdown
        // this is the in-flight drain — everything already decoded still
        // commits and gets a response, so the out-bytes gate lifts (reads
        // stopped; the backlog is already bounded). A connection whose
        // output would trip the gate is flushed between waves, so the
        // gate judges what the peer has left undrained rather than what
        // this tick produced.
        let out_cap = if stopping { usize::MAX } else { cfg.max_conn_out_bytes };
        while let Some(mut wave) = Wave::build(&mut conns, &validator, cfg.max_wave_run, out_cap) {
            wave.dispatch(&mut route, cfg.dispatch, stats);
            wave.scatter(&mut conns, stats);
            for conn in conns.iter_mut().filter(|c| c.out_queued() > out_cap) {
                conn.flush();
            }
            progressed = true;
        }

        // Write phase: one flush per connection with queued output.
        for conn in conns.iter_mut().filter(|c| c.out_queued() > 0) {
            progressed |= conn.flush();
        }
        let before = conns.len();
        conns.retain(|c| !c.done());
        stats.conns_closed.fetch_add((before - conns.len()) as u64, Ordering::Relaxed);

        if stopping {
            drain_and_close(&mut conns, cfg.drain_timeout, stats);
            break;
        }
    }
    // `route` drops here: a store route returns every leased shard slot
    // to the registry, a mesh route retires its rings — a stopped server
    // leaks nothing from the store either way.
    drop(route);
}

/// The poll events a connection waits for: `POLLIN` unless it is at end
/// of stream or backpressured (its peer is not draining replies, or its
/// decoded pipeline is already deep enough for several waves; each such
/// skipped read counts in `backpressure_skips`), and `POLLOUT` while it
/// has output queued.
fn interest(conn: &Conn, cfg: &WorkerCfg, stats: &AtomicStats) -> c_short {
    let mut events = 0;
    if conn.wants_read() {
        if conn.out_queued() > cfg.max_conn_out_bytes || conn.pending.len() >= 2 * cfg.max_wave_run
        {
            stats.backpressure_skips.fetch_add(1, Ordering::Relaxed);
        } else {
            events |= POLLIN;
        }
    }
    if conn.out_queued() > 0 {
        events |= POLLOUT;
    }
    events
}

/// Final flush on shutdown: keep writing as sockets turn writable until
/// every response drains or the deadline passes, then drop every
/// connection.
fn drain_and_close(conns: &mut Vec<Conn>, timeout: Duration, stats: &AtomicStats) {
    let deadline = Instant::now() + timeout;
    stats.conns_closed.fetch_add(conns.len() as u64, Ordering::Relaxed);
    let mut fds = Vec::with_capacity(conns.len());
    loop {
        conns.retain(|c| !c.done() && c.out_queued() > 0);
        let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
        if conns.is_empty() {
            break;
        }
        fds.clear();
        fds.extend(conns.iter().map(|c| PollFd::new(c.as_raw_fd(), POLLOUT)));
        if sys::wait(&mut fds, Some(left)).is_err() {
            break;
        }
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.writable() {
                conn.flush();
            }
        }
    }
    conns.clear();
}
