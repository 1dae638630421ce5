//! HTTP/1.1 message types, parsing, and serialization.

use crate::HttpError;
use std::io::{BufRead, Write};

/// Maximum accepted header block size (DoS guard).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body size (the paper's largest reply is 500 KB).
const MAX_BODY_BYTES: usize = 2 * 1024 * 1024;

/// Request methods the substrate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET — the only method WebBench-style load uses.
    Get,
    /// HEAD.
    Head,
    /// POST.
    Post,
}

impl Method {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        }
    }

    fn parse(s: &[u8]) -> Result<Self, HttpError> {
        match s {
            b"GET" => Ok(Method::Get),
            b"HEAD" => Ok(Method::Head),
            b"POST" => Ok(Method::Post),
            _ => Err(HttpError::Malformed("unsupported method")),
        }
    }
}

/// Status codes the redirectors and servers emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 302 Found — the L7 redirection vehicle.
    pub const FOUND: StatusCode = StatusCode(302);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            302 => "Found",
            400 => "Bad Request",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// True for 3xx.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Method.
    pub method: Method,
    /// Request target (origin-form path, e.g. `/org/A/page1.html`).
    pub path: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A bare GET.
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest { method: Method::Get, path: path.into(), headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// First value of header `name` (case-insensitive).
    pub fn header_value(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reads one request from a buffered stream.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Self, HttpError> {
        let start = read_line(r)?;
        let mut parts = start.split_whitespace();
        let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?;
        let method = Method::parse(method.as_bytes())?;
        let path = parts
            .next()
            .ok_or(HttpError::Malformed("missing request target"))?
            .to_string();
        let version = parts.next().ok_or(HttpError::Malformed("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let headers = read_headers(r)?;
        let body = read_body(r, &headers)?;
        Ok(HttpRequest { method, path, headers, body })
    }

    /// Serializes onto a stream (always `Connection: close`).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), HttpError> {
        write!(w, "{} {} HTTP/1.1\r\n", self.method.as_str(), self.path)?;
        let mut wrote_conn = false;
        for (n, v) in &self.headers {
            write!(w, "{n}: {v}\r\n")?;
            if n == "connection" {
                wrote_conn = true;
            }
        }
        if !self.body.is_empty() {
            write!(w, "content-length: {}\r\n", self.body.len())?;
        }
        if !wrote_conn {
            write!(w, "connection: close\r\n")?;
        }
        write!(w, "\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: StatusCode,
    /// Header name/value pairs (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// 200 with a body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse { status: StatusCode::OK, headers: Vec::new(), body: body.into() }
    }

    /// 302 with a `Location` header — the L7 redirection reply.
    pub fn redirect(location: impl Into<String>) -> Self {
        HttpResponse {
            status: StatusCode::FOUND,
            headers: vec![("location".into(), location.into())],
            body: Vec::new(),
        }
    }

    /// An empty response with the given status.
    pub fn status(status: StatusCode) -> Self {
        HttpResponse { status, headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// First value of header `name` (case-insensitive).
    pub fn header_value(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reads one response from a buffered stream.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Self, HttpError> {
        let start = read_line(r)?;
        let mut parts = start.split_whitespace();
        let version = parts.next().ok_or(HttpError::Malformed("empty status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let headers = read_headers(r)?;
        let body = read_body(r, &headers)?;
        Ok(HttpResponse { status: StatusCode(code), headers, body })
    }

    /// Serializes onto a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), HttpError> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason())?;
        for (n, v) in &self.headers {
            write!(w, "{n}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n", self.body.len())?;
        write!(w, "connection: close\r\n\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// A zero-copy view of one request's header block, for readiness-driven
/// servers that parse straight out of a receive buffer (the blocking
/// [`HttpRequest::read_from`] path allocates per header; a reactor shard
/// parsing hundreds of pipelined requests per wake cannot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a> {
    /// Method.
    pub method: Method,
    /// Request target, borrowed from the buffer.
    pub path: &'a str,
    /// `Connection: close` was requested (HTTP/1.1 defaults to keep-alive).
    pub close: bool,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// A `Transfer-Encoding` header is present: a body follows whose extent
    /// `content_length` does not give.
    pub transfer_encoding: bool,
}

impl RequestHead<'_> {
    /// The bytes after the head belong to this request, not to the next.
    pub fn has_body(&self) -> bool {
        self.content_length != 0 || self.transfer_encoding
    }
}

const LOW: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The positions, from `from` on and in order, of the bytes of `buf` that
/// are `wanted`, eight bytes at a time: `flag` sets the high bit of the
/// lane of every byte that may be.
#[inline]
fn positions<'a>(
    buf: &'a [u8],
    from: usize,
    flag: impl Fn(u64) -> u64 + 'a,
    wanted: impl Fn(u8) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    // `at` is where the next word starts; `marks` are those of the word
    // before it that have not been looked at yet.
    let (mut at, mut marks) = (from, 0u64);
    std::iter::from_fn(move || loop {
        while marks != 0 {
            let i = at - 8 + (marks.trailing_zeros() / 8) as usize;
            marks &= marks - 1;
            if buf.get(i).is_some_and(|&b| wanted(b)) {
                return Some(i);
            }
        }
        let rest = buf.get(at..).filter(|rest| !rest.is_empty())?;
        marks = flag(match rest.first_chunk::<8>() {
            Some(word) => u64::from_le_bytes(*word),
            // The last few bytes, under lanes of a byte nobody looks for.
            None => rest.iter().rev().fold(!0, |word, &b| word << 8 | b as u64),
        });
        at += 8;
    })
}

/// Positions of `\r`.
#[inline]
fn carriage_returns(buf: &[u8], from: usize) -> impl Iterator<Item = usize> + '_ {
    // Zero-byte test on `word ^ "\r\r…"`.
    let flag = |word: u64| {
        let x = word ^ (LOW * b'\r' as u64);
        x.wrapping_sub(LOW) & !x & HIGH
    };
    positions(buf, from, flag, |b| b == b'\r')
}

/// What `str::split_whitespace` splits on, within ASCII.
fn is_space(b: u8) -> bool {
    b == b' ' || (9..=13).contains(&b)
}

/// Positions of whitespace.
#[inline]
fn spaces(buf: &[u8], from: usize) -> impl Iterator<Item = usize> + '_ {
    // Bytes up to the space: whitespace and the other control bytes.
    positions(buf, from, |word| word.wrapping_sub(LOW * 0x21) & !word & HIGH, is_space)
}

/// Finds the end of the first complete header block (one past the
/// `\r\n\r\n`), scanning from `from` — the caller's resume cursor over an
/// incrementally-filled buffer, so repeated calls stay O(bytes) overall.
/// Rescans up to 3 bytes before `from` to catch a terminator split across
/// fills.
pub fn header_block_end(buf: &[u8], from: usize) -> Option<usize> {
    carriage_returns(buf, from.saturating_sub(3))
        .find(|&at| buf.get(at..).is_some_and(|rest| rest.starts_with(b"\r\n\r\n")))
        .map(|at| at + 4)
}

/// A request line's first three whitespace-delimited tokens; an absent one
/// is empty.
fn parse_request_line<'a>(
    [method, target, version]: [&'a [u8]; 3],
) -> Result<RequestHead<'a>, HttpError> {
    if method.is_empty() {
        return Err(HttpError::Malformed("empty request line"));
    }
    let method = Method::parse(method)?;
    if target.is_empty() {
        return Err(HttpError::Malformed("missing request target"));
    }
    if version.first_chunk() != Some(b"HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let path = std::str::from_utf8(target).map_err(|_| HttpError::Malformed("non-UTF8 target"))?;
    Ok(RequestHead {
        method,
        path,
        close: version == b"HTTP/1.0",
        content_length: 0,
        transfer_encoding: false,
    })
}

/// Folds one header line into `head`; `declared` is the `Content-Length`
/// seen so far.
fn parse_header(
    line: &[u8],
    head: &mut RequestHead<'_>,
    declared: &mut Option<usize>,
) -> Result<(), HttpError> {
    let colon = line.iter().position(|&b| b == b':');
    let Some((name, value)) = colon.and_then(|at| Some((line.get(..at)?, line.get(at + 1..)?)))
    else {
        return Err(HttpError::Malformed("header without colon"));
    };
    let value = || std::str::from_utf8(value).unwrap_or("").trim();
    if name.eq_ignore_ascii_case(b"connection") {
        head.close = value().eq_ignore_ascii_case("close");
    } else if name.eq_ignore_ascii_case(b"content-length") {
        let n = value().parse().map_err(|_| HttpError::Malformed("bad content-length"))?;
        // Two lengths that disagree are two framings of one stream.
        if declared.replace(n).is_some_and(|earlier| earlier != n) {
            return Err(HttpError::Malformed("conflicting content-length"));
        }
        head.content_length = n;
    } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
        head.transfer_encoding = true;
    }
    Ok(())
}

/// One pass over the front of `buf`: request line, then header lines
/// through the blank one. The head and its length, or `Ok(None)` when the
/// buffer ends first.
fn parse_lines(buf: &[u8]) -> Result<Option<(RequestHead<'_>, usize)>, HttpError> {
    // The request line's tokens lie between its whitespace, up to the first
    // `\r\n` (a bare `\r` is whitespace like any other).
    let mut tokens = [&[][..]; 3];
    let (mut found, mut start, mut pos) = (0, 0, None);
    for at in spaces(buf, 0) {
        if at > start {
            if let Some(slot) = tokens.get_mut(found) {
                *slot = buf.get(start..at).unwrap_or(&[]);
            }
            found += 1;
        }
        start = at + 1;
        if buf.get(at..).is_some_and(|rest| rest.starts_with(b"\r\n")) {
            pos = Some(at + 2);
            break;
        }
    }
    let Some(mut pos) = pos else { return Ok(None) };
    let mut head = parse_request_line(tokens)?;
    let mut declared = None;
    // Header lines end at a `\r\n`; a bare `\r` stays inside its line.
    let mut ends = carriage_returns(buf, pos).filter(|&at| buf.get(at + 1) == Some(&b'\n'));
    loop {
        let Some(end) = ends.next() else { return Ok(None) };
        let line = buf.get(pos..end).unwrap_or(&[]);
        pos = end + 2;
        if line.is_empty() {
            break;
        }
        parse_header(line, &mut head, &mut declared)?;
    }
    if head.content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(Some((head, pos)))
}

/// Scans the front of a receive buffer for one request head in a single
/// pass: method, target, `HTTP/1.x`, the three headers a redirector acts
/// on (`connection`, `content-length`, `transfer-encoding`) and the blank
/// line. Returns the head and its length through the `\r\n\r\n`, or
/// `Ok(None)` while the head is incomplete; `from` is the caller's resume
/// cursor, as for [`header_block_end`]. Only the target is decoded, so
/// other bytes need not be UTF-8. Malformed heads are errors — a reactor
/// shard answers 400 and closes rather than guessing — but only once
/// complete, so the answer does not depend on how reads split the bytes.
pub fn scan_request_head(
    buf: &[u8],
    from: usize,
) -> Result<Option<(RequestHead<'_>, usize)>, HttpError> {
    // New bytes without a terminator cannot complete the head: one that
    // dribbles in is walked once, not once per fill.
    if from > 0 && header_block_end(buf, from).is_none() {
        return Ok(None);
    }
    let parsed = parse_lines(buf);
    let end = match parsed {
        Ok(Some((_, end))) => end,
        Ok(None) => return Ok(None),
        Err(_) => match header_block_end(buf, 0) {
            Some(end) => end,
            None => return Ok(None),
        },
    };
    if end > MAX_HEADER_BYTES {
        return Err(HttpError::TooLarge);
    }
    parsed
}

/// Parses one complete header block (through its `\r\n\r\n`) without
/// copying: [`scan_request_head`] for a caller that already knows where
/// the block ends.
pub fn parse_request_head(head: &[u8]) -> Result<RequestHead<'_>, HttpError> {
    match scan_request_head(head, 0)? {
        Some((head, _)) => Ok(head),
        None => Err(HttpError::Malformed("unterminated head")),
    }
}

fn read_line<R: BufRead>(r: &mut R) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::UnexpectedEof);
    }
    if line.len() > MAX_HEADER_BYTES {
        return Err(HttpError::TooLarge);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn read_headers<R: BufRead>(r: &mut R) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_body<R: BufRead>(
    r: &mut R,
    headers: &[(String, String)],
) -> Result<Vec<u8>, HttpError> {
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        let n = r.read(&mut body[read..])?;
        if n == 0 {
            return Err(HttpError::UnexpectedEof);
        }
        read += n;
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &HttpRequest) -> HttpRequest {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        HttpRequest::read_from(&mut BufReader::new(&buf[..])).unwrap()
    }

    fn roundtrip_response(resp: &HttpResponse) -> HttpResponse {
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        HttpResponse::read_from(&mut BufReader::new(&buf[..])).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::get("/org/A/page1.html").header("Host", "redirector:8080");
        let back = roundtrip_request(&req);
        assert_eq!(back.method, Method::Get);
        assert_eq!(back.path, "/org/A/page1.html");
        assert_eq!(back.header_value("host"), Some("redirector:8080"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn request_with_body_roundtrips() {
        let mut req = HttpRequest::get("/submit");
        req.method = Method::Post;
        req.body = b"key=value".to_vec();
        let back = roundtrip_request(&req);
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.body, b"key=value");
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok(vec![7u8; 6144]).header("X-Server", "s1");
        let back = roundtrip_response(&resp);
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(back.body.len(), 6144);
        assert_eq!(back.header_value("x-server"), Some("s1"));
    }

    #[test]
    fn redirect_response_carries_location() {
        let resp = HttpResponse::redirect("http://10.0.0.2:8080/org/A/x");
        let back = roundtrip_response(&resp);
        assert_eq!(back.status, StatusCode::FOUND);
        assert!(back.status.is_redirect());
        assert_eq!(back.header_value("location"), Some("http://10.0.0.2:8080/org/A/x"));
    }

    #[test]
    fn parses_case_insensitive_headers_and_whitespace() {
        let raw = b"GET /x HTTP/1.1\r\nHoSt:   example  \r\nContent-Length: 2\r\n\r\nhi";
        let req = HttpRequest::read_from(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(req.header_value("HOST"), Some("example"));
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn rejects_garbage() {
        for raw in [
            &b"NOTAMETHOD /x HTTP/1.1\r\n\r\n"[..],
            &b"GET /x SPDY/9\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
        ] {
            assert!(HttpRequest::read_from(&mut BufReader::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn eof_mid_body_is_detected() {
        let raw = b"GET /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        let err = HttpRequest::read_from(&mut BufReader::new(&raw[..])).unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof));
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = b"GET /x HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
        let err = HttpRequest::read_from(&mut BufReader::new(&raw[..])).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge));
    }

    #[test]
    fn header_block_end_resumes_across_split_terminators() {
        let raw = b"GET /x HTTP/1.1\r\nhost: h\r\n\r\nGET /y";
        assert_eq!(header_block_end(raw, 0), Some(28));
        // Terminator split across two fills: the resume cursor sits inside
        // the \r\n\r\n and the rescan window must still find it.
        for cursor in 24..=27 {
            assert_eq!(header_block_end(raw, cursor), Some(28), "cursor {cursor}");
        }
        assert_eq!(header_block_end(b"GET /x HTTP/1.1\r\nhost:", 0), None);
        assert_eq!(header_block_end(&[], 0), None);
    }

    #[test]
    fn parse_request_head_zero_copy() {
        let head = parse_request_head(b"GET /org/A/p HTTP/1.1\r\nhost: h\r\n\r\n").unwrap();
        assert_eq!(head.method, Method::Get);
        assert_eq!(head.path, "/org/A/p");
        assert!(!head.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(head.content_length, 0);

        let head =
            parse_request_head(b"POST /s HTTP/1.1\r\nConnection: close\r\ncontent-length: 7\r\n\r\n")
                .unwrap();
        assert!(head.close);
        assert_eq!(head.content_length, 7);

        let head = parse_request_head(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(head.close, "HTTP/1.0 defaults to close");

        assert!(parse_request_head(b"BAD\r\n\r\n").is_err());
        assert!(parse_request_head(b"GET /x HTTP/1.1\r\nbroken\r\n\r\n").is_err());
        assert!(parse_request_head(b"GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn status_reasons() {
        assert_eq!(StatusCode::OK.reason(), "OK");
        assert_eq!(StatusCode::FOUND.reason(), "Found");
        assert_eq!(StatusCode(999).reason(), "Unknown");
        assert!(!StatusCode::OK.is_redirect());
    }
}
