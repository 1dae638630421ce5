//! The L7 protocol with no fd, no epoll, no thread and no clock: bytes in,
//! answers out, over any stream — the shard's sockets or a script's
//! in-memory peers — with times as `f64` seconds.

use covenant_agreements::PrincipalId;
use covenant_coord::ShardCore;
use covenant_enforce::ShardStats;
use covenant_http::scan_request_head;
use covenant_reactor::{Interest, Io, RecvBuf, SendBuf, Slab};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;

/// Per-connection receive cap: a request head must fit or the connection
/// is answered `400` and closed.
pub const RECV_LIMIT: usize = 64 * 1024;
/// Send backlog high-watermark: past it a connection is neither read nor
/// answered until a flush drains it (pipelining backpressure).
pub const HIGH_WATER: usize = 256 * 1024;
/// Per-shard connection cap; accepts beyond it are handed back to be shed.
pub const MAX_CONNS: usize = 4096;
/// A connection that answers nothing this long after its accept or last
/// answer is closed at the next roll, so half-sent heads cannot hold slots.
const HEAD_TIMEOUT: f64 = 10.0;

/// Canned non-redirect responses (keep-alive unless the request asked to
/// close; `400` always closes because framing is no longer trustworthy).
const RESP_404: &[u8] = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
const RESP_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
const RESP_400: &[u8] = b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
/// What follows the echoed request target in a `302`.
const REDIRECT_TAIL: &[u8] = b"\r\ncontent-length: 0\r\n\r\n";

/// Static configuration of one L7 redirector instance.
#[derive(Debug, Clone)]
pub struct L7Config {
    /// Principal names by id — requests for `/org/<name>/…` are charged to
    /// the principal with that name.
    pub principal_names: Vec<String>,
    /// Backend server address per server index (principal id of the
    /// owner). Servers without capacity need no entry.
    pub backends: HashMap<usize, SocketAddr>,
}

/// Principal ids by name as sorted bytes — `/org/<name>/…` resolves by
/// binary search off the receive buffer — and the `302` prefixes, through
/// `location: http://<addr>`, by server index and to this instance.
struct Routes {
    names: Vec<(Box<[u8]>, usize)>,
    backends: Vec<Option<Box<[u8]>>>,
    this: Box<[u8]>,
}

impl Routes {
    /// Rejects names no request can carry as exactly one path segment
    /// (empty, or containing `/`) and names that occur twice.
    fn new(cfg: &L7Config, this: SocketAddr) -> io::Result<Routes> {
        let names = cfg.principal_names.iter().enumerate();
        let mut names: Vec<(Box<[u8]>, _)> = names.map(|(id, n)| (n.as_bytes().into(), id)).collect();
        names.sort();
        let bad = names.iter().any(|(name, _)| name.is_empty() || name.contains(&b'/'))
            || names.windows(2).any(|pair| matches!(pair, [a, b] if a.0 == b.0));
        if bad {
            let msg = "principal names must be distinct, non-empty and free of '/'";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let redirect =
            |to: &SocketAddr| format!("HTTP/1.1 302 Found\r\nlocation: http://{to}").into_bytes();
        let mut backends = vec![None; names.len()];
        for (&server, to) in &cfg.backends {
            if let Some(slot) = backends.get_mut(server) {
                *slot = Some(redirect(to).into());
            }
        }
        Ok(Routes { names, backends, this: redirect(&this).into() })
    }

    /// The principal an `/org/<name>/…` path is charged to.
    fn principal_of(&self, path: &[u8]) -> Option<usize> {
        let name = path.strip_prefix(b"/org/")?.split(|&b| b == b'/').next()?;
        let at = self.names.binary_search_by(|(known, _)| (**known).cmp(name)).ok()?;
        self.names.get(at).map(|&(_, id)| id)
    }
}

/// One accepted connection.
struct Conn<S> {
    stream: S,
    recv: RecvBuf,
    send: SendBuf,
    /// Resume cursor for the incremental `\r\n\r\n` scan.
    scan: usize,
    /// Interest the driver has registered.
    interest: Interest,
    /// Stop parsing; close once the send queue drains.
    close_after_flush: bool,
    /// Peer half-closed; flush what is pending, then close.
    read_closed: bool,
    /// Its accept or its last answer, seconds.
    since: f64,
}

/// What a connection does after a flush.
enum Next {
    /// The flush took it back under the watermark: answer what is buffered.
    Resume,
    Wait(Interest),
    Close,
}

impl<S> Conn<S> {
    /// Answers every complete request buffered — the per-wake verdict batch
    /// — into the send queue, up to the watermark; returns the verdicts.
    fn answer(&mut self, core: &mut ShardCore, routes: &Routes, now: f64) -> u64 {
        let mut verdicts = 0;
        // A `302` echoes its request's target, so a batch's responses are
        // about as long as its requests: grow once, not once per doubling.
        self.send.reserve(self.recv.len());
        while !self.close_after_flush && self.send.len() < HIGH_WATER {
            let data = self.recv.data();
            let (head, end) = match scan_request_head(data, self.scan) {
                Ok(Some((head, end))) if !head.has_body() => (head, end),
                Ok(None) if !self.recv.is_full() => {
                    self.scan = data.len();
                    break;
                }
                // A head that fills the buffer unterminated, a body (outside
                // the redirector's protocol), a parse failure: framing is
                // no longer trustworthy.
                _ => {
                    self.send.push(RESP_400);
                    self.close_after_flush = true;
                    break;
                }
            };
            let path = head.path.as_bytes();
            let prefix = match routes.principal_of(path) {
                None => Err(RESP_404),
                Some(p) => {
                    verdicts += 1;
                    match core.try_admit_at(PrincipalId(p), None, now) {
                        Some(s) => routes.backends.get(s).and_then(Option::as_deref).ok_or(RESP_503),
                        None => Ok(&*routes.this),
                    }
                }
            };
            match prefix {
                Ok(prefix) => {
                    self.send.push(prefix);
                    self.send.push(path);
                    self.send.push(REDIRECT_TAIL);
                }
                Err(canned) => self.send.push(canned),
            }
            self.close_after_flush = head.close;
            self.recv.consume(end);
            self.scan = 0;
            self.since = now;
        }
        verdicts
    }

    /// The policy half of a flush; `was_paused`: the send queue was at the
    /// watermark before it.
    fn next(&self, was_paused: bool) -> Next {
        let paused = self.send.len() >= HIGH_WATER;
        let closing = self.close_after_flush || self.read_closed;
        if was_paused && !paused {
            Next::Resume
        } else if closing && self.send.is_empty() {
            Next::Close
        } else {
            Next::Wait(Interest::of(!(closing || paused), !self.send.is_empty()))
        }
    }
}

/// One L7 shard's protocol state: its core, its routes and its connections,
/// by the id [`L7Machine::accept`] hands out.
pub struct L7Machine<S> {
    core: ShardCore,
    routes: Routes,
    conns: Slab<Conn<S>>,
    /// Verdicts since the last [`L7Machine::end_wake`].
    verdicts: u64,
}

impl<S> L7Machine<S> {
    /// Answers for `cfg` through `core`, self-redirecting to `this`;
    /// `InvalidInput` when a name is empty, has a `/` or occurs twice.
    pub fn new(core: ShardCore, cfg: &L7Config, this: SocketAddr) -> io::Result<L7Machine<S>> {
        let routes = Routes::new(cfg, this)?;
        Ok(L7Machine { core, routes, conns: Slab::new(), verdicts: 0 })
    }

    /// Takes a connection accepted at `now`, registered for reading, and
    /// returns its id; hands the stream back at [`MAX_CONNS`], to be shed.
    pub fn accept(&mut self, stream: S, now: f64) -> Result<usize, S> {
        if self.conns.len() >= MAX_CONNS {
            return Err(stream);
        }
        Ok(self.conns.insert(Conn {
            stream, recv: RecvBuf::with_capacity_limit(RECV_LIMIT), send: SendBuf::new(), scan: 0,
            interest: Interest::READ, close_after_flush: false, read_closed: false, since: now,
        }))
    }

    /// Registers open connection `id`'s stream with the driver's poller
    /// through `op`, and closes the connection if that fails.
    pub fn register(&mut self, id: usize, op: impl FnOnce(&S) -> io::Result<()>) {
        if self.conns.get(id).is_none_or(|c| op(&c.stream).is_err()) {
            self.conns.remove(id);
        }
    }

    /// Bytes open connection `id` holds: received unanswered, answered unsent.
    pub fn buffered(&self, id: usize) -> Option<(usize, usize)> {
        self.conns.get(id).map(|c| (c.recv.len(), c.send.len()))
    }

    /// Closes connection `id`, dropping its stream.
    pub fn close(&mut self, id: usize) {
        self.conns.remove(id);
    }

    /// Rolls the window at `boundary`, then closes every connection that
    /// has answered nothing for `HEAD_TIMEOUT`.
    pub fn roll(&mut self, boundary: f64) {
        self.core.roll_window_at(None, boundary);
        self.conns.retain(|c| boundary - c.since < HEAD_TIMEOUT);
    }

    /// Records the wake's verdicts and the core's counters in `stats`.
    pub fn end_wake(&mut self, stats: &ShardStats) {
        stats.record_wake(std::mem::take(&mut self.verdicts));
        stats.store_counters(&self.core.counters());
    }

    /// Readiness on `id` at `now`: reads if `readable`, answers, flushes —
    /// and answers again when the flush takes a connection paused at the
    /// watermark back under it, as no event will come for requests already
    /// buffered. Returns the interest to register if it changed; closes a
    /// connection that failed or finished.
    pub fn ready(&mut self, id: usize, readable: bool, now: f64) -> Option<Interest>
    where
        S: Read + Write,
    {
        let conn = self.conns.get_mut(id)?;
        let mut done = false;
        if readable && !(conn.close_after_flush || conn.read_closed) {
            match conn.recv.drain_from(&mut conn.stream) {
                Ok(Io::Eof) => conn.read_closed = true,
                Ok(_) => {}
                Err(_) => done = true,
            }
        }
        while !done {
            self.verdicts += conn.answer(&mut self.core, &self.routes, now);
            let was_paused = conn.send.len() >= HIGH_WATER;
            done = !conn.send.is_empty() && conn.send.flush_into(&mut conn.stream).is_err();
            match conn.next(was_paused) {
                Next::Resume if !done => {}
                Next::Wait(want) if !done => {
                    return (std::mem::replace(&mut conn.interest, want) != want).then_some(want);
                }
                _ => done = true,
            }
        }
        self.conns.remove(id);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve_org_paths() {
        let cfg = L7Config {
            principal_names: ["S", "B", "A", "AB"].map(String::from).into(),
            backends: HashMap::new(),
        };
        let routes = Routes::new(&cfg, "127.0.0.1:80".parse().unwrap()).unwrap();
        assert_eq!(routes.principal_of(b"/org/A/page.html"), Some(2));
        assert_eq!(routes.principal_of(b"/org/B/x/y"), Some(1));
        assert_eq!(routes.principal_of(b"/org/AB/"), Some(3));
        assert_eq!(routes.principal_of(b"/org/A"), Some(2));
        assert_eq!(routes.principal_of(b"/org/C/x"), None);
        assert_eq!(routes.principal_of(b"/org//x"), None);
        assert_eq!(routes.principal_of(b"/org/\xff/x"), None);
        assert_eq!(routes.principal_of(b"/other"), None);
    }
}
