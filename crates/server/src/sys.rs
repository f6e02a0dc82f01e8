//! The server's only FFI: `poll(2)` over a worker's sockets, and a
//! [`Waker`] another thread can use to end a blocked [`wait`].
//!
//! `poll` is one stateless call: no descriptor registration to keep in
//! step with the connection set. Its per-call scan is O(descriptors),
//! which is far cheaper than one `read` syscall per connection per tick.

use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readable (or, for a listener, a connection is pending).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition (always reported, never requested).
const POLLERR: c_short = 0x008;
/// Peer hung up (always reported, never requested).
const POLLHUP: c_short = 0x010;

/// One `struct pollfd`: a descriptor, the events asked for, and the
/// events the kernel reported.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        Self { fd, events, revents: 0 }
    }

    /// A read would not block: data, end of stream, or an error to
    /// collect.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// A write would not block, or would fail at once.
    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR) != 0
    }
}

// SAFETY: this is the Linux libc `poll` (`nfds_t` is `unsigned long`
// there), and `PollFd` is `#[repr(C)]` with `struct pollfd`'s field
// order and types.
unsafe extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` reports one of its events, or
/// `timeout` passes (`None` waits forever; `Some(ZERO)` only checks).
/// Sets each entry's reported events and returns how many entries have
/// any. Retries on `EINTR`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        None => -1,
        // Round up: a sub-millisecond timeout must not turn into a spin.
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `len()`
        // `pollfd`-layout entries; the kernel reads them and writes only
        // their `revents` fields before returning.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        if let Ok(n) = usize::try_from(n) {
            return Ok(n);
        }
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A wakeup another thread can post to a [`wait`]ing thread: a
/// non-blocking socket pair whose read end sits in the waiter's poll
/// set. A posted wakeup stays readable until [`drain`](Waker::drain)ed,
/// so one posted before the waiter blocks is never lost.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self { tx, rx })
    }

    /// Makes the read end readable. A full buffer already holds a
    /// pending wakeup, so `WouldBlock` (like any write error) is ignored.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every posted wakeup.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => break,
            }
        }
    }

    /// The read end, as a poll entry asking for `POLLIN`.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_pair_reports_pollin_only_after_a_write() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].readable());

        a.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].readable());
        assert!(!fds[0].writable(), "POLLOUT was not asked for");
    }

    #[test]
    fn a_woken_waker_is_readable_until_drained() {
        let waker = Waker::new().unwrap();
        let mut fds = [waker.poll_fd()];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0, "fresh waker is quiet");

        waker.wake();
        waker.wake();
        assert_eq!(wait(&mut fds, None).unwrap(), 1, "a posted wakeup ends an untimed wait");
        assert!(fds[0].readable());

        waker.drain();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0, "drain clears every wakeup");
        assert!(!fds[0].readable());
    }

    #[test]
    fn timeouts_round_up_and_expire() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let t0 = std::time::Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_micros(10))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(1), "10 µs rounds up to 1 ms");
    }
}
