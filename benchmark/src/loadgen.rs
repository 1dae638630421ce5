//! The HTTP load generator for the live workloads: one spinning thread
//! driving pipelined keep-alive connections, open loop (seeded Poisson
//! streams, latency timed from the *intended* send time) or closed loop
//! (a fixed number outstanding per connection).
//!
//! Every response is matched to its request in connection order, checked
//! to be a well-formed `302` pointing at a configured backend or back at
//! the redirector, and — when retries are on — a self-redirected request
//! is re-sent after a pause until its deadline, which is how a client of
//! the paper's implicit-queuing L7 redirector behaves.

use crate::gen::Rng;
use crate::procfs;
use crate::stats::Histogram;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one response said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `302` to a backend: admitted.
    Admit,
    /// `302` back to the redirector: deferred, try again.
    SelfRedirect,
    /// Any other status.
    OtherStatus,
    /// Not a well-formed response of the redirector's protocol.
    Malformed,
}

/// Splits a byte stream of body-less pipelined responses into heads,
/// across reads that end mid-response and reads that carry several.
pub struct ResponseScanner {
    buf: Vec<u8>,
    /// Start of the first unconsumed response.
    start: usize,
    /// Bytes of the unconsumed part already searched for a terminator.
    searched: usize,
    /// Landing area for one `read`.
    chunk: Box<[u8]>,
}

impl Default for ResponseScanner {
    fn default() -> Self {
        ResponseScanner::with_reserve(0)
    }
}

impl ResponseScanner {
    /// A scanner whose buffer already holds (and has touched) `reserve`
    /// bytes: the generator sizes it for the backlog a stall leaves, so
    /// that the harness's own resident memory does not depend on how the
    /// run went.
    pub fn with_reserve(reserve: usize) -> Self {
        let mut buf = vec![0; reserve];
        buf.clear();
        ResponseScanner {
            buf,
            start: 0,
            searched: 0,
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        }
    }

    #[cfg(test)]
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `stream` into the buffer; `Ok(0)` is end of stream.
    pub fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        let n = stream.read(&mut self.chunk)?;
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n)
    }

    /// Consumes the next response if it is exactly `parts` joined — the
    /// cheap path for the response a request is expected to get.
    pub fn take_exact(&mut self, parts: [&[u8]; 3]) -> bool {
        let mut at = self.start;
        for part in parts {
            if !self.buf[at..].starts_with(part) {
                return false;
            }
            at += part.len();
        }
        self.start = at;
        self.searched = 0;
        true
    }

    /// The next complete response head (through its blank line), if any.
    pub fn next_head(&mut self) -> Option<&[u8]> {
        let pending = &self.buf[self.start..];
        let from = self.searched.saturating_sub(3);
        match pending[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            Some(pos) => {
                let end = self.start + from + pos + 4;
                let head = self.start..end;
                self.start = end;
                self.searched = 0;
                Some(&self.buf[head])
            }
            None => {
                self.searched = pending.len();
                // Everything before `start` is consumed; drop it so the
                // buffer stays as small as the unanswered tail.
                self.buf.drain(..self.start);
                self.start = 0;
                None
            }
        }
    }
}

/// Classifies one response head. `backends` and `own` are `http://addr`
/// prefixes; `path` is the request target the response must echo.
pub fn classify(head: &[u8], backends: &[String], own: &str, path: &[u8]) -> Verdict {
    let Ok(text) = std::str::from_utf8(head) else {
        return Verdict::Malformed;
    };
    let mut lines = text.split("\r\n");
    let mut status = lines.next().unwrap_or("").splitn(3, ' ');
    if status.next() != Some("HTTP/1.1") {
        return Verdict::Malformed;
    }
    let Some(Ok(code)) = status.next().map(str::parse::<u16>) else {
        return Verdict::Malformed;
    };
    let mut location = None;
    let mut empty_body = false;
    for line in lines.take_while(|l| !l.is_empty()) {
        match line.split_once(':') {
            Some((k, v)) if k.eq_ignore_ascii_case("location") => location = Some(v.trim()),
            Some((k, v)) if k.eq_ignore_ascii_case("content-length") => {
                empty_body = v.trim() == "0";
            }
            Some(_) => {}
            None => return Verdict::Malformed,
        }
    }
    if !empty_body {
        return Verdict::Malformed;
    }
    if code != 302 {
        return Verdict::OtherStatus;
    }
    let Some(loc) = location else {
        return Verdict::Malformed;
    };
    let points_at = |prefix: &str| {
        loc.strip_prefix(prefix)
            .is_some_and(|rest| rest.as_bytes() == path)
    };
    if backends.iter().any(|b| points_at(b)) {
        Verdict::Admit
    } else if points_at(own) {
        Verdict::SelfRedirect
    } else {
        Verdict::Malformed
    }
}

/// The request target of a request head built by `gen::request_pool`.
pub fn request_path(req: &[u8]) -> &[u8] {
    let rest = &req[4..]; // after "GET "
    let end = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
    &rest[..end]
}

/// One seeded Poisson stream of a principal's requests on a connection.
#[derive(Clone)]
pub struct Stream {
    pub principal: usize,
    pub conn: usize,
    /// Requests per second.
    pub rate: f64,
}

pub enum Mode {
    /// Send on schedule whatever the server does.
    Open(Vec<Stream>),
    /// Keep `depth` requests of `principal` outstanding per connection.
    Closed { depth: usize, principal: usize },
}

#[derive(Clone, Copy)]
pub struct Retry {
    pub pause: Duration,
    pub deadline: Duration,
}

pub struct GenCfg {
    pub conns: Vec<SocketAddr>,
    /// `http://addr` prefixes of the configured backends.
    pub backends: Vec<String>,
    /// Request heads per principal index.
    pub pools: Vec<Vec<Vec<u8>>>,
    pub mode: Mode,
    pub retry: Option<Retry>,
    pub warmup: Duration,
    pub measure: Duration,
    pub seed: u64,
}

/// The arrival schedule of an open-loop run: the merge of its streams,
/// each `(due ns, stream index)`. Public so a test can pin "same seed,
/// same schedule" and so the traced replay feeds the very same arrivals.
pub struct Schedule {
    rngs: Vec<Rng>,
    rates: Vec<f64>,
    next_due: Vec<f64>,
}

impl Schedule {
    pub fn new(seed: u64, rates: &[f64]) -> Self {
        let base = Rng::new(seed);
        let mut rngs: Vec<Rng> = (0..rates.len()).map(|i| base.fork(i as u64 + 1)).collect();
        let next_due = rngs
            .iter_mut()
            .zip(rates)
            .map(|(r, &rate)| r.exp(rate) * 1e9)
            .collect();
        Schedule {
            rngs,
            rates: rates.to_vec(),
            next_due,
        }
    }

    /// The earliest pending arrival, if it is due by `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, usize)> {
        let (i, &due) = self
            .next_due
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))?;
        if due > now_ns as f64 {
            return None;
        }
        self.next_due[i] = due + self.rngs[i].exp(self.rates[i]) * 1e9;
        Some((due as u64, i))
    }
}

#[derive(Default, Clone)]
pub struct PrincipalTally {
    /// Original requests whose intended time fell in the measured part.
    pub offered: u64,
    /// Of those, admitted (at any try).
    pub delivered: u64,
    /// Of those, admitted at the first try.
    pub first_try: u64,
    /// Of those, given up at the deadline (deferred by design, not failed).
    pub dropped: u64,
}

#[derive(Default)]
pub struct GenReport {
    /// Verdict latency of measured sends, from the intended send time.
    pub latency: Histogram,
    /// How late measured sends left, against their intended time.
    pub lateness: Histogram,
    pub late_over_1ms: u64,
    /// Requests written in the measured part (first tries and retries).
    pub sent: u64,
    /// Responses read over the whole run, warm-up included.
    pub responses_total: u64,
    pub admit_302: u64,
    pub self_302: u64,
    pub other_status: u64,
    pub malformed: u64,
    /// Requests still unanswered when the run gave up waiting.
    pub unanswered: u64,
    pub per_principal: Vec<PrincipalTally>,
    pub max_outstanding: usize,
    /// Measured wall time and the generator thread's CPU time over it.
    pub wall_ns: u64,
    pub gen_cpu_ns: u64,
}

impl GenReport {
    /// Requests offered in the measured part, per principal.
    pub fn offered(&self) -> Vec<u64> {
        self.per_principal.iter().map(|t| t.offered).collect()
    }

    /// Of those, the requests admitted at any try, per principal.
    pub fn delivered(&self) -> Vec<u64> {
        self.per_principal.iter().map(|t| t.delivered).collect()
    }

    /// Responses that were not a well-formed `302`, or never came.
    pub fn failed(&self) -> u64 {
        self.other_status + self.malformed + self.unanswered
    }
}

struct Pending {
    intended_ns: u64,
    /// Intended time of the original request this is a (re)try of.
    orig_ns: u64,
    principal: u16,
    variant: u16,
    first_try: bool,
}

/// How every redirect of the redirector begins and ends.
const REDIRECT_HEAD: &str = "HTTP/1.1 302 Found\r\nlocation: ";
const REDIRECT_TAIL: &[u8] = b"\r\ncontent-length: 0\r\n\r\n";

struct Conn {
    stream: TcpStream,
    own: String,
    /// `REDIRECT_HEAD` + `own`, and + each backend: what a deferral and an
    /// admit start with, byte for byte.
    own_start: Vec<u8>,
    admit_starts: Vec<Vec<u8>>,
    out: Vec<u8>,
    out_pos: usize,
    scanner: ResponseScanner,
    fifo: VecDeque<Pending>,
}

impl Conn {
    fn connect(addr: SocketAddr, backends: &[String]) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let own = format!("http://{addr}");
        let mut out = vec![0; 1 << 18];
        out.clear();
        Ok(Conn {
            stream,
            own_start: format!("{REDIRECT_HEAD}{own}").into_bytes(),
            admit_starts: backends
                .iter()
                .map(|b| format!("{REDIRECT_HEAD}{b}").into_bytes())
                .collect(),
            own,
            out,
            out_pos: 0,
            scanner: ResponseScanner::with_reserve(1 << 20),
            fifo: VecDeque::with_capacity(1 << 14),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }
}

struct Run<'a> {
    cfg: &'a GenCfg,
    t0: Instant,
    conns: Vec<Conn>,
    retries: VecDeque<(u64, usize, Pending)>,
    next_variant: Vec<usize>,
    report: GenReport,
    warm_end: u64,
    end: u64,
}

impl Run<'_> {
    fn measured(&self, t: u64) -> bool {
        t >= self.warm_end && t < self.end
    }

    fn send(&mut self, conn: usize, p: Pending, now: u64) {
        let req = &self.cfg.pools[p.principal as usize][p.variant as usize];
        self.conns[conn].out.extend_from_slice(req);
        if self.measured(p.intended_ns) {
            self.report.sent += 1;
            let late = now.saturating_sub(p.intended_ns);
            self.report.lateness.record(late);
            self.report.late_over_1ms += (late > 1_000_000) as u64;
        }
        let fifo = &mut self.conns[conn].fifo;
        fifo.push_back(p);
        self.report.max_outstanding = self.report.max_outstanding.max(fifo.len());
    }

    fn fresh(&mut self, conn: usize, principal: usize, due: u64, now: u64) {
        let pool = self.cfg.pools[principal].len();
        let variant = self.next_variant[principal] % pool;
        self.next_variant[principal] += 1;
        if self.measured(due) {
            self.report.per_principal[principal].offered += 1;
        }
        let p = Pending {
            intended_ns: due,
            orig_ns: due,
            principal: principal as u16,
            variant: variant as u16,
            first_try: true,
        };
        self.send(conn, p, now);
    }

    /// Reads what `conn` has and settles every complete response.
    fn receive(&mut self, conn: usize) -> io::Result<()> {
        let c = &mut self.conns[conn];
        match c.scanner.read_from(&mut c.stream) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        }
        // Responses are timed when they are read, not when the loop began.
        let now = self.t0.elapsed().as_nanos() as u64;
        loop {
            let c = &mut self.conns[conn];
            let Some(p) = c.fifo.front() else {
                match c.scanner.next_head() {
                    Some(_) => self.report.malformed += 1, // a response nobody asked for
                    None => break,
                }
                continue;
            };
            let path = request_path(&self.cfg.pools[p.principal as usize][p.variant as usize]);
            // Nearly every response is byte for byte the expected admit or
            // deferral; comparing is much cheaper than parsing, and at
            // saturation the generator must be cheaper than the server.
            let verdict = if c
                .admit_starts
                .iter()
                .any(|s| c.scanner.take_exact([s, path, REDIRECT_TAIL]))
            {
                Verdict::Admit
            } else if c.scanner.take_exact([&c.own_start, path, REDIRECT_TAIL]) {
                Verdict::SelfRedirect
            } else {
                match c.scanner.next_head() {
                    Some(head) => classify(head, &self.cfg.backends, &c.own, path),
                    None => break,
                }
            };
            let p = c.fifo.pop_front().expect("front was just read");
            self.report.responses_total += 1;
            let counted = p.orig_ns >= self.warm_end && p.orig_ns < self.end;
            if self.measured(p.intended_ns) {
                self.report
                    .latency
                    .record(now.saturating_sub(p.intended_ns));
                match verdict {
                    Verdict::Admit => self.report.admit_302 += 1,
                    Verdict::SelfRedirect => self.report.self_302 += 1,
                    Verdict::OtherStatus => self.report.other_status += 1,
                    Verdict::Malformed => self.report.malformed += 1,
                }
            }
            let tally = &mut self.report.per_principal[p.principal as usize];
            match verdict {
                Verdict::Admit if counted => {
                    tally.delivered += 1;
                    tally.first_try += p.first_try as u64;
                }
                Verdict::SelfRedirect => match self.cfg.retry {
                    Some(r)
                        if now + r.pause.as_nanos() as u64
                            <= p.orig_ns + r.deadline.as_nanos() as u64 =>
                    {
                        let due = now + r.pause.as_nanos() as u64;
                        let again = Pending {
                            intended_ns: due,
                            first_try: false,
                            ..p
                        };
                        self.retries.push_back((due, conn, again));
                    }
                    _ if counted => tally.dropped += 1,
                    _ => {}
                },
                _ => {}
            }
            if let Mode::Closed { principal, .. } = self.cfg.mode {
                if now < self.end {
                    self.fresh(conn, principal, now, now);
                }
            }
        }
        Ok(())
    }
}

/// Drives the configured load; `at_warm_end` runs once on the generator
/// thread when the measured part begins (take counter baselines there —
/// it must be quick, the schedule keeps running).
pub fn run(cfg: &GenCfg, mut at_warm_end: impl FnMut()) -> io::Result<GenReport> {
    let conns = cfg
        .conns
        .iter()
        .map(|&a| Conn::connect(a, &cfg.backends))
        .collect::<io::Result<Vec<_>>>()?;
    let warm_end = cfg.warmup.as_nanos() as u64;
    let end = warm_end + cfg.measure.as_nanos() as u64;
    let t0 = Instant::now();
    let mut run = Run {
        cfg,
        t0,
        conns,
        retries: VecDeque::new(),
        next_variant: vec![0; cfg.pools.len()],
        report: GenReport {
            per_principal: vec![PrincipalTally::default(); cfg.pools.len()],
            ..GenReport::default()
        },
        warm_end,
        end,
    };
    let mut schedule = match &cfg.mode {
        Mode::Open(streams) => Some(Schedule::new(
            cfg.seed,
            &streams.iter().map(|s| s.rate).collect::<Vec<_>>(),
        )),
        Mode::Closed { .. } => None,
    };
    if let Mode::Closed { depth, principal } = cfg.mode {
        for conn in 0..run.conns.len() {
            for _ in 0..depth {
                run.fresh(conn, principal, 0, 0);
            }
        }
    }
    // The generator thread's CPU time and the clock when the measured part
    // began, and its CPU time when that part ended.
    let mut warm_mark = None;
    let mut end_cpu = None;
    // After the last scheduled send, wait this long for stragglers.
    let give_up = end + 2_000_000_000;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if warm_mark.is_none() && now >= warm_end {
            at_warm_end();
            warm_mark = Some((procfs::thread_cpu_ns(), t0.elapsed().as_nanos() as u64));
        }
        if now >= end {
            end_cpu.get_or_insert_with(procfs::thread_cpu_ns);
            let idle = run.retries.is_empty() && run.conns.iter().all(|c| c.fifo.is_empty());
            if idle || now >= give_up {
                break;
            }
        }
        if let (Some(s), Mode::Open(streams)) = (schedule.as_mut(), &cfg.mode) {
            while let Some((due, i)) = s.pop_due(now.min(end)) {
                if due < end {
                    run.fresh(streams[i].conn, streams[i].principal, due, now);
                }
            }
        }
        while run.retries.front().is_some_and(|r| r.0 <= now) {
            let (_, conn, p) = run.retries.pop_front().expect("front checked");
            run.send(conn, p, now);
        }
        for conn in 0..run.conns.len() {
            run.conns[conn].flush()?;
            run.receive(conn)?;
        }
    }
    let (cpu0, wall0) = warm_mark.unwrap_or((0, warm_end));
    run.report.gen_cpu_ns = end_cpu.unwrap_or(cpu0).saturating_sub(cpu0);
    run.report.wall_ns = end.saturating_sub(wall0);
    run.report.unanswered = run.conns.iter().map(|c| c.fifo.len() as u64).sum();
    Ok(run.report)
}

/// Round-trip time with exactly one request outstanding: the latency floor
/// of the path with no batching and no queueing. Returns nanoseconds.
pub fn ping_pong(addr: SocketAddr, pool: &[Vec<u8>], n: usize) -> io::Result<Histogram> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut scanner = ResponseScanner::default();
    let mut hist = Histogram::new();
    for i in 0..n {
        let t = Instant::now();
        stream.write_all(&pool[i % pool.len()])?;
        while scanner.next_head().is_none() {
            if scanner.read_from(&mut stream)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        hist.record(t.elapsed().as_nanos() as u64);
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADMIT: &[u8] =
        b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:9/org/A/x\r\ncontent-length: 0\r\n\r\n";
    const DEFER: &[u8] =
        b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:80/org/A/x\r\ncontent-length: 0\r\n\r\n";

    fn verdict(head: &[u8]) -> Verdict {
        classify(
            head,
            &["http://127.0.0.1:9".to_string()],
            "http://127.0.0.1:80",
            b"/org/A/x",
        )
    }

    #[test]
    fn scanner_matches_across_split_reads_and_coalesced_responses() {
        let mut wire = Vec::new();
        for i in 0..50 {
            wire.extend_from_slice(if i % 3 == 0 { DEFER } else { ADMIT });
        }
        // Feed in awkward chunk sizes: 1 byte (splits every terminator),
        // 7 bytes, and one chunk carrying many responses.
        for chunk in [1usize, 7, 4096] {
            let mut s = ResponseScanner::default();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                s.feed(piece);
                while let Some(head) = s.next_head() {
                    got.push(verdict(head));
                }
            }
            assert_eq!(got.len(), 50, "chunk {chunk}");
            for (i, v) in got.iter().enumerate() {
                let want = if i % 3 == 0 {
                    Verdict::SelfRedirect
                } else {
                    Verdict::Admit
                };
                assert_eq!(*v, want, "chunk {chunk} response {i}");
            }
            assert!(s.next_head().is_none());
        }
    }

    #[test]
    fn exact_match_and_parser_agree_and_interleave() {
        let mut s = ResponseScanner::default();
        s.feed(ADMIT);
        s.feed(DEFER);
        s.feed(&ADMIT[..40]); // a response still arriving
        let admit = [
            &b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:9"[..],
            b"/org/A/x",
            REDIRECT_TAIL,
        ];
        assert!(s.take_exact(admit));
        assert!(!s.take_exact(admit), "the second response is a deferral");
        assert_eq!(s.next_head().map(verdict), Some(Verdict::SelfRedirect));
        assert!(
            !s.take_exact(admit) && s.next_head().is_none(),
            "incomplete"
        );
        s.feed(&ADMIT[40..]);
        assert!(s.take_exact(admit));
        assert!(s.next_head().is_none());
    }

    #[test]
    fn classify_rejects_what_the_redirector_never_sends() {
        assert_eq!(verdict(ADMIT), Verdict::Admit);
        assert_eq!(verdict(DEFER), Verdict::SelfRedirect);
        assert_eq!(
            verdict(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n"),
            Verdict::OtherStatus
        );
        // Unknown backend, wrong path echoed, a body, no location, garbage.
        for bad in [
            &b"HTTP/1.1 302 Found\r\nlocation: http://10.0.0.1:1/org/A/x\r\ncontent-length: 0\r\n\r\n"[..],
            b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:9/org/A/y\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 302 Found\r\nlocation: http://127.0.0.1:9/org/A/x\r\ncontent-length: 5\r\n\r\n",
            b"HTTP/1.1 302 Found\r\ncontent-length: 0\r\n\r\n",
            b"garbage\r\n\r\n",
        ] {
            assert_eq!(verdict(bad), Verdict::Malformed, "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn same_seed_gives_the_same_arrival_schedule() {
        let take = |seed| {
            let mut s = Schedule::new(seed, &[600.0, 1500.0, 1500.0]);
            let mut out = Vec::new();
            while out.len() < 2000 {
                out.extend(s.pop_due(u64::MAX));
            }
            out
        };
        let a = take(17);
        assert_eq!(a, take(17));
        assert_ne!(a, take(18));
        assert!(
            a.windows(2).all(|w| w[0].0 <= w[1].0),
            "merged schedule is time-ordered"
        );
        // 2000 arrivals at 3600/s take about 0.56 s, split 1:2.5:2.5.
        let span = a.last().unwrap().0 as f64 / 1e9;
        assert!((0.45..0.68).contains(&span), "span {span}");
        let first = a.iter().filter(|x| x.1 == 0).count();
        assert!((250..420).contains(&first), "stream 0 got {first}");
    }

    #[test]
    fn request_path_is_the_target() {
        assert_eq!(
            request_path(b"GET /org/A/abc HTTP/1.1\r\nhost: x\r\n\r\n"),
            b"/org/A/abc"
        );
    }
}
