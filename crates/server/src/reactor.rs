//! The accept loop: a non-blocking listener feeding workers round-robin.
//!
//! The acceptor blocks in [`wait`](crate::sys::wait) on the listener and
//! its own [`Waker`] (posted by shutdown), accepts every pending
//! connection, hands each to the next worker over that worker's channel,
//! and wakes the worker so it adopts the stream at once. Nothing runs on
//! a schedule: the only sleep is the back-off after a failed `accept`
//! (e.g. `EMFILE`), where waiting on a still-readable listener would
//! spin.

use mwllsc::sync::{AtomicBool, Ordering};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use crate::sys::{self, PollFd, Waker, POLLIN};

/// How long the acceptor backs off after a failed `accept` or `poll`.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Accepts until `stop` is set (the setter then wakes `waker`), dealing
/// streams to `workers` round-robin and waking each receiver.
pub(crate) fn run_acceptor(
    listener: &TcpListener,
    waker: &Waker,
    workers: &[(Sender<TcpStream>, Arc<Waker>)],
    stop: &AtomicBool,
) {
    let mut next = 0usize;
    let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN), waker.poll_fd()];
    while !stop.load(Ordering::Acquire) {
        let failed = match listener.accept() {
            Ok((stream, _peer)) => {
                // `next % len` < len, and a server has at least one worker.
                if let Some((tx, worker)) = workers.get(next % workers.len()) {
                    // A send can only fail if the worker already exited,
                    // which only happens on shutdown; dropping the stream
                    // then is the right outcome.
                    if tx.send(stream).is_ok() {
                        worker.wake();
                    }
                }
                next = next.wrapping_add(1);
                false
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nothing pending: sleep in the kernel until a connection
                // arrives or shutdown posts the waker.
                let waited = sys::wait(&mut fds, None);
                let [_, wake] = &fds;
                if wake.readable() {
                    waker.drain();
                }
                waited.is_err()
            }
            Err(_) => true,
        };
        if failed {
            // Transient failure (e.g. EMFILE from accept): back off
            // rather than spin or die.
            std::thread::sleep(ERROR_BACKOFF);
        }
    }
}
