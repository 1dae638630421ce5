//! Nonblocking stream buffers: partial reads accumulate, partial writes
//! resume, and both report exactly one of *progress / would-block / EOF*
//! so connection state machines stay explicit.

use std::io::{self, Read, Write};

/// Outcome of one nonblocking I/O attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Io {
    /// Moved `n > 0` bytes (or, for flush, drained everything pending).
    Progress(usize),
    /// The socket is not ready; wait for the next readiness event.
    WouldBlock,
    /// Orderly EOF from the peer (reads only).
    Eof,
}

/// Read granularity per syscall.
const CHUNK: usize = 16 * 1024;

/// `data[at..at + len]`, growing `data` (zeroed) first where it is
/// shorter. `data` only grows: the bytes past a buffer's filled end stay
/// initialised from earlier reads and pushes, so a `read` or a copy into
/// them costs no memset.
fn window(data: &mut Vec<u8>, at: usize, len: usize) -> &mut [u8] {
    if data.len() < at + len {
        data.resize(at + len, 0);
    }
    data.get_mut(at..at + len).unwrap_or(&mut [])
}

/// Accumulates bytes read from a nonblocking stream until a parser can
/// consume them. `consume` trims from the front lazily (an offset), so
/// pipelined protocol parsing is O(bytes), not O(bytes²); a read that
/// finds too little room behind the unconsumed bytes first moves them to
/// the front. The buffer thus stays one chunk long while traffic fits in
/// one, and a warm read costs no allocation and no memset.
#[derive(Debug)]
pub struct RecvBuf {
    /// `data[start..end]` is unconsumed; what follows `end` is scratch
    /// the next read lands in.
    data: Vec<u8>,
    start: usize,
    end: usize,
    cap: usize,
}

impl RecvBuf {
    /// A buffer that never grows past `cap` unconsumed bytes.
    pub fn with_capacity_limit(cap: usize) -> RecvBuf {
        RecvBuf { data: Vec::new(), start: 0, end: 0, cap }
    }

    /// The unconsumed bytes.
    pub fn data(&self) -> &[u8] {
        self.data.get(self.start..self.end).unwrap_or(&[])
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the capacity limit is reached (stop reading until the
    /// parser consumes, or fail the connection if it never can).
    pub fn is_full(&self) -> bool {
        self.len() >= self.cap
    }

    /// Marks `n` leading bytes as parsed.
    pub fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.end);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// The size of the next read, at most `want`: the unconsumed bytes
    /// move to the front when the room behind them is short of `want`,
    /// and the buffer grows (by `want`) only when no room is left.
    fn room_for(&mut self, want: usize) -> usize {
        if self.data.len() - self.end < want && self.start > 0 {
            self.data.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        match self.data.len() - self.end {
            0 => want,
            room => room.min(want),
        }
    }

    /// Reads what the socket holds now: chunk after chunk until a read
    /// comes back short, the socket would block, or the capacity limit is
    /// reached. A short read means the kernel's queue is empty, so the
    /// `read` that would only return `EAGAIN` is not made; level-triggered
    /// epoll reports whatever arrives later, an EOF behind the data
    /// included. Returns [`Io::Progress`] with the bytes appended when
    /// there were any, else [`Io::WouldBlock`] or [`Io::Eof`].
    pub fn drain_from(&mut self, stream: &mut impl Read) -> io::Result<Io> {
        let mut total = 0;
        loop {
            let want = self.cap.saturating_sub(self.len()).min(CHUNK);
            if want == 0 {
                break;
            }
            let want = self.room_for(want);
            match stream.read(window(&mut self.data, self.end, want)) {
                Ok(0) if total == 0 => return Ok(Io::Eof),
                Ok(n) => {
                    self.end += n;
                    total += n;
                    if n < want {
                        break;
                    }
                }
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => break,
                    _ => return Err(e),
                },
            }
        }
        Ok(if total > 0 { Io::Progress(total) } else { Io::WouldBlock })
    }
}

/// Pending bytes queued toward a nonblocking stream, surviving partial
/// writes. Doubles as the relay buffer: [`SendBuf::read_from`] pulls bytes
/// from a *source* stream directly into the queue for the destination.
#[derive(Debug, Default)]
pub struct SendBuf {
    /// `data[written..end]` is unsent; what follows `end` is scratch that
    /// pushes and reads overwrite.
    data: Vec<u8>,
    written: usize,
    end: usize,
}

impl SendBuf {
    /// An empty queue.
    pub fn new() -> SendBuf {
        SendBuf::default()
    }

    /// Queues bytes for transmission.
    pub fn push(&mut self, bytes: &[u8]) {
        window(&mut self.data, self.end, bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Makes room for `additional` more bytes in one growth.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve((self.end + additional).saturating_sub(self.data.len()));
    }

    /// Bytes still unsent.
    pub fn len(&self) -> usize {
        self.end - self.written
    }

    /// True when everything queued has been flushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes as much pending data as the stream accepts. Returns
    /// [`Io::Progress`] when the queue fully drained, [`Io::WouldBlock`]
    /// when bytes remain.
    pub fn flush_into(&mut self, stream: &mut impl Write) -> io::Result<Io> {
        while self.written < self.end {
            let pending = self.data.get(self.written..self.end).unwrap_or(&[]);
            match stream.write(pending) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock => return Ok(Io::WouldBlock),
                    io::ErrorKind::Interrupted => {}
                    _ => return Err(e),
                },
            }
        }
        let n = self.written;
        self.written = 0;
        self.end = 0;
        Ok(Io::Progress(n))
    }

    /// Reads once from `src`, appending to the queue, but never beyond
    /// `limit` pending bytes (relay backpressure: past the high-watermark
    /// the caller must drop read interest on `src` until a flush).
    pub fn read_from(&mut self, src: &mut impl Read, limit: usize) -> io::Result<Io> {
        let room = limit.saturating_sub(self.len());
        if room == 0 {
            return Ok(Io::WouldBlock);
        }
        match src.read(window(&mut self.data, self.end, room.min(CHUNK))) {
            Ok(0) => Ok(Io::Eof),
            Ok(n) => {
                self.end += n;
                Ok(Io::Progress(n))
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(Io::WouldBlock),
                _ => Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// Counts the `read` calls `drain_from` makes on a loopback socket.
    struct Counted {
        stream: TcpStream,
        reads: usize,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.stream.read(buf)
        }
    }

    /// A connected pair whose reading end already holds `sent` (and, with
    /// `fin`, the writer's close behind it).
    fn pair_holding(sent: &[u8], fin: bool) -> (Option<TcpStream>, Counted) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(sent).unwrap();
        let tx = if fin { None } else { Some(tx) };
        let mut seen = vec![0u8; sent.len() + 1];
        let deadline = Instant::now() + Duration::from_secs(5);
        while rx.peek(&mut seen).unwrap() < sent.len() {
            assert!(Instant::now() < deadline, "loopback never delivered");
            std::thread::yield_now();
        }
        rx.set_nonblocking(true).unwrap();
        (tx, Counted { stream: rx, reads: 0 })
    }

    #[test]
    fn short_read_ends_the_drain_without_a_second_read() {
        let (_tx, mut rx) = pair_holding(&[7u8; 100], false);
        let mut recv = RecvBuf::with_capacity_limit(64 * 1024);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Progress(100));
        assert_eq!(rx.reads, 1, "a short read must not be followed by an EAGAIN read");
        assert_eq!(recv.data(), &[7u8; 100][..]);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::WouldBlock);
    }

    #[test]
    fn full_chunk_keeps_reading() {
        let sent: Vec<u8> = (0..CHUNK + 10).map(|i| (i % 251) as u8).collect();
        let (_tx, mut rx) = pair_holding(&sent, false);
        let mut recv = RecvBuf::with_capacity_limit(64 * 1024);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Progress(CHUNK + 10));
        assert_eq!(rx.reads, 2, "one full chunk, one short read");
        assert_eq!(recv.data(), &sent[..]);
    }

    #[test]
    fn eof_behind_data_surfaces_on_the_next_drain() {
        let (_closed, mut rx) = pair_holding(b"last words", true);
        let mut recv = RecvBuf::with_capacity_limit(64 * 1024);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Progress(10));
        assert_eq!(rx.reads, 1);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Eof);
        assert_eq!(recv.data(), b"last words");
    }

    /// The queue moves bytes between any reader and writer: a slice in, a
    /// vector out, as the protocol scripts drive it.
    #[test]
    fn send_buf_relays_between_slices_and_vectors() {
        let mut src: &[u8] = b"hello, relay";
        let mut q = SendBuf::new();
        assert_eq!(q.read_from(&mut src, 5).unwrap(), Io::Progress(5));
        assert_eq!(q.read_from(&mut src, 5).unwrap(), Io::WouldBlock, "at the limit");
        let mut out = Vec::new();
        assert_eq!(q.flush_into(&mut out).unwrap(), Io::Progress(5));
        assert_eq!(q.read_from(&mut src, 64).unwrap(), Io::Progress(7));
        assert_eq!(q.read_from(&mut src, 64).unwrap(), Io::Eof);
        q.flush_into(&mut out).unwrap();
        assert_eq!(out, b"hello, relay");
    }

    #[test]
    fn capacity_limit_holds() {
        let (_tx, mut rx) = pair_holding(&[1u8; 5000], false);
        let mut recv = RecvBuf::with_capacity_limit(1000);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Progress(1000));
        assert!(recv.is_full());
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::WouldBlock);
        assert_eq!(rx.reads, 1, "a full buffer must not read");
        recv.consume(400);
        assert_eq!(recv.drain_from(&mut rx).unwrap(), Io::Progress(400));
        assert_eq!(recv.len(), 1000);
    }
}
