//! The byte-level request-head scanner against the `str` parser it
//! replaced, kept here as the oracle: same head or error class, same
//! consumed length — on well-formed heads, on mutated ones, and at every
//! split point of a pipelined stream fed through a `RecvBuf` and the resume
//! cursor the way an L7 shard does it.
//!
//! The domain is ASCII heads plus undecodable bytes in the request target.
//! Outside it the two differ by design: the oracle decodes the whole head
//! (so it fails a head for a non-UTF-8 byte in a header nobody reads, and
//! splits the request line on Unicode whitespace); the scanner decodes the
//! target only.

use covenant_http::{
    header_block_end, parse_request_head, scan_request_head, HttpError, Method, RequestHead,
};
use covenant_reactor::{Io, RecvBuf};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 2 * 1024 * 1024;

// ---- the oracle: the retained `str` parser ---------------------------------

fn oracle_block_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.saturating_sub(3);
    buf.get(start..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| start + pos + 4)
}

fn oracle_method(s: &str) -> Result<Method, HttpError> {
    match s {
        "GET" => Ok(Method::Get),
        "HEAD" => Ok(Method::Head),
        "POST" => Ok(Method::Post),
        _ => Err(HttpError::Malformed("unsupported method")),
    }
}

/// The parser as it stood, plus the two framing rules this scanner also
/// has: `Transfer-Encoding` is reported, and two `Content-Length`s that
/// disagree are an error.
fn oracle_parse(head: &[u8]) -> Result<RequestHead<'_>, HttpError> {
    if head.len() > MAX_HEADER_BYTES {
        return Err(HttpError::TooLarge);
    }
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF8 head"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = start.split_whitespace();
    let method = oracle_method(parts.next().ok_or(HttpError::Malformed("empty request line"))?)?;
    let path = parts.next().ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let mut close = version == "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut transfer_encoding = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if content_length.replace(n).is_some_and(|earlier| earlier != n) {
                return Err(HttpError::Malformed("conflicting content-length"));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding = true;
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(RequestHead { method, path, close, content_length, transfer_encoding })
}

// ---- what a shard sees when it looks at its receive buffer -----------------

#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Wait,
    Head { method: Method, path: String, close: bool, body: (usize, bool), consumed: usize },
    Malformed,
    TooLarge,
}

fn seen(result: Result<Option<(RequestHead<'_>, usize)>, HttpError>) -> Seen {
    match result {
        Ok(None) => Seen::Wait,
        Ok(Some((head, consumed))) => Seen::Head {
            method: head.method,
            path: head.path.to_string(),
            close: head.close,
            body: (head.content_length, head.transfer_encoding),
            consumed,
        },
        Err(HttpError::TooLarge) => Seen::TooLarge,
        Err(HttpError::Malformed(_)) => Seen::Malformed,
        Err(other) => panic!("a head parse cannot fail with {other:?}"),
    }
}

fn scanner(buf: &[u8], from: usize) -> Seen {
    seen(scan_request_head(buf, from))
}

fn oracle(buf: &[u8], from: usize) -> Seen {
    seen(match oracle_block_end(buf, from) {
        None => Ok(None),
        Some(end) => oracle_parse(&buf[..end]).map(|head| Some((head, end))),
    })
}

/// Scanner, oracle and the two public views agree on `buf` as it stands.
fn check_buffer(buf: &[u8]) -> Result<(), TestCaseError> {
    let want = oracle(buf, 0);
    prop_assert_eq!(scanner(buf, 0), want.clone(), "head {:?}", String::from_utf8_lossy(buf));
    // Every cursor of a head of ordinary size; a sample, and the last few,
    // of an over-long one.
    let stride = if buf.len() <= 1024 { 1 } else { buf.len() / 64 };
    let last_few = buf.len().saturating_sub(8)..=buf.len();
    let cursors = (0..=buf.len() + 1).step_by(stride).chain(last_few);
    for from in cursors {
        prop_assert_eq!(header_block_end(buf, from), oracle_block_end(buf, from), "from {}", from);
    }
    if let Some(end) = oracle_block_end(buf, 0) {
        let view = seen(parse_request_head(&buf[..end]).map(|head| Some((head, end))));
        prop_assert_eq!(view, want);
    }
    Ok(())
}

// ---- generated heads -------------------------------------------------------

const METHODS: &[&str] = &["GET", "GET", "GET", "HEAD", "POST", "PUT", "get", ""];
const VERSIONS: &[&str] =
    &["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/1.", "HTTP/1.1x", "HTTP/2.0", ""];
const GAPS: &[&str] = &[" ", " ", " ", "  ", "\t", " \t "];
const HEADERS: &[(&str, &[&str])] = &[
    ("host", &["bench.local", "x", ""]),
    ("connection", &["close", "Close", "keep-alive", "KEEP-ALIVE", "close, te"]),
    ("content-length", &["0", "5", "0005", "+5", "-1", "five", "", "4294967296000000000000"]),
    ("content-length", &["0", "5", "99999999"]),
    ("transfer-encoding", &["chunked", "gzip, chunked", ""]),
    ("x-trace", &["a:b:c", "\t tabbed \t", "1"]),
];

/// One header's spelling: which header, which value, name case, optional
/// whitespace before and after the value.
type HeaderPick = (usize, usize, usize, usize, usize);

fn spell(name: &str, case: usize) -> String {
    match case % 3 {
        0 => name.to_string(),
        1 => name.to_ascii_uppercase(),
        // Title-Case, as browsers send them.
        _ => name
            .split('-')
            .map(|word| {
                let (first, rest) = word.split_at(1.min(word.len()));
                first.to_ascii_uppercase() + rest
            })
            .collect::<Vec<_>>()
            .join("-"),
    }
}

fn build_head(
    (method, version, gap): (usize, usize, usize),
    (principal, rest): (&str, &str),
    headers: &[HeaderPick],
) -> Vec<u8> {
    let gap = GAPS[gap % GAPS.len()];
    let mut head = format!(
        "{}{gap}/org/{principal}/{rest}{gap}{}\r\n",
        METHODS[method % METHODS.len()],
        VERSIONS[version % VERSIONS.len()],
    );
    for &(which, value, case, before, after) in headers {
        let (name, values) = HEADERS[which % HEADERS.len()];
        let ows = ["", " ", "  ", "\t"];
        head += &format!(
            "{}:{}{}{}\r\n",
            spell(name, case),
            ows[before % ows.len()],
            values[value % values.len()],
            ows[after % ows.len()],
        );
    }
    head += "\r\n";
    head.into_bytes()
}

fn head_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        (0usize..64, 0usize..64, 0usize..64),
        ("[A-C]{0,2}", "[a-z0-9_/-]{0,31}"),
        proptest::collection::vec((0usize..64, 0usize..64, 0usize..3, 0usize..4, 0usize..4), 0..5),
    )
        .prop_map(|(line, (principal, rest), headers)| {
            build_head(line, (&principal, &rest), &headers)
        })
}

/// The shape the benchmark sends and every live test uses.
fn plain_head_strategy() -> impl Strategy<Value = Vec<u8>> {
    ("[A-C]", "[a-z0-9_-]{4,31}", 0usize..4).prop_map(|(principal, rest, close)| {
        let connection = ["", "", "connection: keep-alive\r\n", "connection: close\r\n"][close];
        format!("GET /org/{principal}/{rest} HTTP/1.1\r\nhost: bench.local\r\n{connection}\r\n")
            .into_bytes()
    })
}

/// Byte-level damage, all of it inside ASCII except `BadTarget`.
fn mutate(head: &mut Vec<u8>, kind: usize, at: usize, fill: usize) {
    if head.is_empty() {
        return;
    }
    let at = at % head.len();
    match kind % 7 {
        0 => {
            head.remove(at);
        }
        1 => {
            let b = head[at];
            head.insert(at, b);
        }
        2 => {
            const ODD: &[u8] = b"\t\x0b\x0c\r\n :\0+";
            head[at] = ODD[fill % ODD.len()];
        }
        // A bare `\n` where a `\r\n` stood.
        3 => {
            let crlfs: Vec<usize> =
                head.windows(2).enumerate().filter(|(_, w)| w == b"\r\n").map(|(i, _)| i).collect();
            if !crlfs.is_empty() {
                head.remove(crlfs[at % crlfs.len()]);
            }
        }
        // A header line that lost its colon.
        4 => {
            let colons: Vec<usize> =
                head.iter().enumerate().filter(|(_, &b)| b == b':').map(|(i, _)| i).collect();
            if !colons.is_empty() {
                head.remove(colons[at % colons.len()]);
            }
        }
        // Bytes no UTF-8 string contains, inside the target.
        5 => {
            const NEVER_UTF8: &[u8] = &[0xff, 0xfe, 0xc0, 0xf8];
            if let Some(slash) = head.iter().position(|&b| b == b'/') {
                head.insert(slash + 1, NEVER_UTF8[fill % NEVER_UTF8.len()]);
            }
        }
        // Over-long: one header pushes the block past the 16 KiB limit.
        _ => {
            if let Some(line_end) = head.windows(2).position(|w| w == b"\r\n") {
                let pad = format!("\r\nx-pad: {}", "p".repeat(MAX_HEADER_BYTES + fill % 64));
                head.splice(line_end..line_end, pad.into_bytes());
            }
        }
    }
}

// ---- a loopback pair feeding a RecvBuf -------------------------------------

struct Feed {
    tx: TcpStream,
    rx: TcpStream,
    recv: RecvBuf,
}

impl Feed {
    fn new() -> Feed {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.set_nodelay(true).unwrap();
        rx.set_nonblocking(true).unwrap();
        Feed { tx, rx, recv: RecvBuf::with_capacity_limit(64 * 1024) }
    }

    /// Sends `bytes` and reads until all of them sit in the buffer.
    fn deliver(&mut self, bytes: &[u8]) {
        self.tx.write_all(bytes).unwrap();
        let want = self.recv.len() + bytes.len();
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.recv.len() < want {
            assert!(Instant::now() < deadline, "loopback lost bytes");
            match self.recv.drain_from(&mut self.rx).unwrap() {
                Io::Eof => panic!("loopback closed"),
                Io::Progress(_) | Io::WouldBlock => {}
            }
        }
    }

    /// Feeds `stream` in the given pieces, running the shard's parse loop
    /// after each: scanner and oracle must see the same thing at every
    /// step. Returns how many heads were consumed.
    fn replay(&mut self, stream: &[u8], cuts: &[usize]) -> Result<usize, TestCaseError> {
        let n = self.recv.len();
        self.recv.consume(n);
        let mut heads = 0;
        let mut cursor = 0;
        let mut sent = 0;
        for &cut in cuts.iter().chain([stream.len()].iter()) {
            self.deliver(&stream[sent..cut]);
            sent = cut;
            loop {
                let data = self.recv.data();
                let got = scanner(data, cursor);
                let want = oracle(data, cursor);
                prop_assert_eq!(got.clone(), want, "cuts {:?} cursor {}", cuts, cursor);
                match got {
                    Seen::Wait => {
                        cursor = data.len();
                        break;
                    }
                    Seen::Head { consumed, .. } => {
                        self.recv.consume(consumed);
                        cursor = 0;
                        heads += 1;
                    }
                    // A shard answers 400 and stops reading.
                    Seen::Malformed | Seen::TooLarge => {
                        self.deliver(&stream[sent..]);
                        return Ok(heads);
                    }
                }
            }
        }
        Ok(heads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scanner_matches_oracle_on_generated_heads(head in head_strategy()) {
        check_buffer(&head)?;
    }

    #[test]
    fn scanner_matches_oracle_on_mutated_heads(
        head in head_strategy(),
        hits in proptest::collection::vec((0usize..7, any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut head = head;
        for (kind, at, fill) in hits {
            mutate(&mut head, kind, at, fill);
        }
        check_buffer(&head)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pipelined stream of plain heads, cut in two at every byte: each
    /// head is seen exactly once, with the same length, whatever the cut.
    #[test]
    fn every_split_point_of_a_pipelined_stream(
        heads in proptest::collection::vec(plain_head_strategy(), 1..6),
    ) {
        let stream: Vec<u8> = heads.concat();
        let mut feed = Feed::new();
        for cut in 0..=stream.len() {
            prop_assert_eq!(feed.replay(&stream, &[cut])?, heads.len());
        }
    }

    /// Generated and damaged heads in one stream, cut in two at every byte
    /// and in three at a sample of byte pairs.
    #[test]
    fn every_split_point_of_a_damaged_stream(
        heads in proptest::collection::vec(head_strategy(), 1..4),
        hits in proptest::collection::vec((0usize..6, any::<usize>(), any::<usize>()), 0..3),
        second_cuts in proptest::collection::vec(any::<usize>(), 8usize),
    ) {
        let mut stream: Vec<u8> = heads.concat();
        for (kind, at, fill) in hits {
            mutate(&mut stream, kind, at, fill);
        }
        let mut feed = Feed::new();
        for cut in 0..=stream.len() {
            feed.replay(&stream, &[cut])?;
        }
        for pair in second_cuts.chunks(2) {
            let mut cuts = [pair[0] % (stream.len() + 1), pair[1] % (stream.len() + 1)];
            cuts.sort_unstable();
            feed.replay(&stream, &cuts)?;
        }
    }

    /// An over-long head (past the parser's 16 KiB, inside the buffer's
    /// 64 KiB) dribbling in: nothing is decided until its terminator comes.
    #[test]
    fn over_long_head_in_pieces(head in head_strategy(), cut in 1usize..MAX_HEADER_BYTES) {
        let mut stream = head;
        mutate(&mut stream, 6, 0, cut);
        stream.extend_from_slice(b"GET /org/A/next HTTP/1.1\r\n\r\n");
        let mut feed = Feed::new();
        let cuts = [cut.min(stream.len()), (cut + MAX_HEADER_BYTES).min(stream.len())];
        feed.replay(&stream, &cuts)?;
    }
}

#[test]
fn the_framing_rules_the_oracle_gained() {
    let chunked = b"POST /org/A/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    let head = parse_request_head(chunked).unwrap();
    assert!(head.transfer_encoding && head.has_body());
    assert_eq!(head.content_length, 0);

    let same = b"GET /x HTTP/1.1\r\ncontent-length: 0\r\nContent-Length: 0\r\n\r\n";
    assert!(!parse_request_head(same).unwrap().has_body());
    let differ = b"GET /x HTTP/1.1\r\ncontent-length: 0\r\nContent-Length: 7\r\n\r\n";
    assert!(matches!(parse_request_head(differ), Err(HttpError::Malformed(_))));
    assert!(matches!(oracle_parse(differ), Err(HttpError::Malformed(_))));
}
