//! Per-connection state: buffered non-blocking I/O, frame decoding, and
//! the pipelined request queue.
//!
//! A [`Conn`] owns one non-blocking `TcpStream` plus three buffers: raw
//! inbound bytes awaiting a complete frame, decoded requests awaiting
//! dispatch (the *pipeline*), and encoded response bytes awaiting the
//! socket. On each worker tick a connection the poll reported readable
//! goes through [`poll_read`](Conn::poll_read), every connection with
//! decoded requests joins wave dispatch (see
//! [`coalesce`](crate::coalesce)), and every connection with queued
//! output gets one [`flush`](Conn::flush).
//!
//! Framing errors poison the connection: once bytes fail to parse there
//! is no resynchronization point in a length-prefixed stream, so the
//! connection queues one [`WireError::BadFrame`] reply (answered in
//! pipeline order, after every request decoded before the damage) and
//! closes after its output drains.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};

use crate::proto::{decode_request, Decoded, FrameError, Request};

/// Bytes read from a socket per readiness event (the size of each
/// worker's one read buffer): large enough to swallow a deep pipeline in
/// one syscall, small enough that one firehose connection cannot starve
/// its siblings on a tick.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// One pipelined item awaiting dispatch.
#[derive(Debug)]
pub(crate) enum Pending {
    /// A well-formed request.
    Req(Request),
    /// The stream desynced at this point; reply `BadFrame` and close.
    Bad(FrameError),
}

/// One client connection owned by a worker thread.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    /// Raw inbound bytes not yet forming a complete frame.
    inbuf: Vec<u8>,
    /// Decoded requests awaiting dispatch, in arrival order.
    pub(crate) pending: VecDeque<Pending>,
    /// Encoded responses awaiting the socket; `out_at` is the flush
    /// offset into it (compacted when fully drained).
    outbuf: Vec<u8>,
    out_at: usize,
    /// Peer closed its write half (or read errored): no more requests
    /// will arrive, but decoded ones still dispatch and replies still
    /// flush.
    eof: bool,
    /// A framing error poisoned the stream: stop reading and decoding;
    /// close once `outbuf` drains.
    poisoned: bool,
    /// The socket is unusable (write error): drop without further I/O.
    dead: bool,
}

impl Conn {
    /// Wraps an accepted stream, switching it to non-blocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            outbuf: Vec::new(),
            out_at: 0,
            eof: false,
            poisoned: false,
            dead: false,
        })
    }

    /// Undrained response bytes (the backpressure measure).
    pub(crate) fn out_queued(&self) -> usize {
        self.outbuf.len() - self.out_at
    }

    /// Whether this connection still wants read polling.
    pub(crate) fn wants_read(&self) -> bool {
        !self.eof && !self.poisoned && !self.dead
    }

    /// Whether the worker should drop this connection.
    pub(crate) fn done(&self) -> bool {
        self.dead
            || ((self.eof || self.poisoned) && self.pending.is_empty() && self.out_queued() == 0)
    }

    /// Appends encoded response bytes for later [`flush`](Conn::flush).
    pub(crate) fn queue_out(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.outbuf.extend_from_slice(bytes);
        }
    }

    /// Marks the stream poisoned (called by the scatter pass when the
    /// queued [`Pending::Bad`] reply is written).
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Makes one read of at most `chunk.len()` bytes (the worker passes
    /// its [`READ_CHUNK`] buffer) and decodes every complete frame into the
    /// pipeline. Whatever the socket still holds stays readable, and the
    /// level-triggered poll reports it again on the next tick. Returns
    /// `true` if any byte, frame, or end of stream was consumed.
    pub(crate) fn poll_read(&mut self, chunk: &mut [u8]) -> bool {
        if !self.wants_read() {
            return false;
        }
        let read = loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    break true;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]); // read() returned n <= chunk.len()
                    break true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Treat hard read errors like EOF: serve what was
                    // decoded, then close.
                    self.eof = true;
                    break true;
                }
            }
        };
        // Frames already in `inbuf` were decoded when they arrived; only
        // new bytes can complete another.
        if read {
            self.decode_pipeline();
        }
        read
    }

    /// Decodes complete frames off the front of `inbuf` until it holds
    /// only a prefix (or the stream poisons).
    fn decode_pipeline(&mut self) {
        let mut at = 0;
        while !self.poisoned {
            // at <= inbuf.len(): advanced by consumed frame lengths
            match decode_request(&self.inbuf[at..]) {
                Ok(Decoded::Frame(req, consumed)) => {
                    self.pending.push_back(Pending::Req(req));
                    at += consumed;
                }
                Ok(Decoded::NeedMore) => break,
                Err(e) => {
                    // Past this byte the stream has no frame boundary:
                    // queue the one diagnostic reply (answered in
                    // pipeline order) and stop reading for good; the
                    // scatter pass poisons the connection when the reply
                    // is written, and it closes once output drains.
                    self.pending.push_back(Pending::Bad(e));
                    self.inbuf.clear();
                    at = 0;
                    self.eof = true;
                    break;
                }
            }
        }
        if at > 0 {
            self.inbuf.drain(..at);
        }
    }

    /// Writes as much queued output as the socket accepts. Returns
    /// `true` if any byte moved.
    pub(crate) fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut progressed = false;
        while self.out_at < self.outbuf.len() {
            // loop guard: out_at < outbuf.len()
            match self.stream.write(&self.outbuf[self.out_at..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_at += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // The peer is gone (abrupt disconnect mid-pipeline):
                    // responses for its remaining requests are dropped,
                    // but the *store effects* of dispatched writes stand.
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_at == self.outbuf.len() && self.out_at > 0 {
            self.outbuf.clear();
            self.out_at = 0;
        }
        progressed
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_request;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A firehose peer cannot make one readiness event consume more than
    /// one chunk, and the chunks it does take decode every frame in order.
    #[test]
    fn poll_read_takes_one_chunk_per_call_and_decodes_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0).unwrap();

        let mut frame = Vec::new();
        encode_request(&Request::Get { key: 0 }, &mut frame);
        let n_frames = 3 * READ_CHUNK / frame.len() + 64;
        let mut wire = Vec::new();
        for key in 0..n_frames as u64 {
            encode_request(&Request::Get { key }, &mut wire);
        }
        assert!(wire.len() > 3 * READ_CHUNK);
        let producer = std::thread::spawn(move || peer.write_all(&wire).map(|()| peer));

        // Wait until the socket holds more than one chunk, so an
        // unbudgeted read loop would show.
        let mut probe = vec![0u8; 2 * READ_CHUNK];
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.stream.peek(&mut probe).unwrap_or(0) <= READ_CHUNK && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut chunk = vec![0u8; READ_CHUNK];
        assert!(conn.poll_read(&mut chunk));
        let consumed = conn.pending.len() * frame.len() + conn.inbuf.len();
        assert!(consumed <= READ_CHUNK, "one call consumed {consumed} bytes");

        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.pending.len() < n_frames {
            assert!(Instant::now() < deadline, "decoded {} of {n_frames}", conn.pending.len());
            if !conn.poll_read(&mut chunk) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let _peer = producer.join().unwrap().unwrap();
        for (i, p) in conn.pending.iter().enumerate() {
            assert!(
                matches!(p, Pending::Req(Request::Get { key }) if *key == i as u64),
                "frame {i}: {p:?}"
            );
        }
        assert!(conn.inbuf.is_empty() && !conn.eof);
    }
}
