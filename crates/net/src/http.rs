//! A minimal HTTP/1.1 implementation: request/response framing with
//! `Content-Length` bodies and keep-alive connections, over any
//! `Read + Write` transport — real `TcpStream`s against
//! [`crate::server`], in-memory buffers in the emulation path.
//!
//! Scope is what DASH streaming plus the `abr-serve` decision service need
//! (the paper's client issues plain `GET`s against a node.js static server;
//! the FastMPC deployment of Section 6 POSTs player state to the server):
//! `GET`/`POST` requests with `Content-Length` bodies, `200/400/404`
//! responses, byte-exact bodies. The parser is strict about framing —
//! malformed input yields an error, never a panic — and hardened for
//! server use: a malformed request line, oversized headers, or a `POST`
//! without `Content-Length` are [`HttpError::Malformed`], which the socket
//! server answers with a `400` instead of dying; a body over the (per-server
//! configurable) cap is [`HttpError::BodyTooLarge`], answered with `413`.
//!
//! Every entry point — the one-shot [`Request::read_from`] and
//! [`Response::read_from`], and the incremental [`RequestParser`] — runs
//! the same head parser, one pass over the head's lines as they arrive: it
//! finds the blank line that ends the head, lowercases header names in
//! place, and records where the method, path, header block and declared
//! body length lie, and whether the client asked to close. A parsed
//! [`Request`] is the message as received (header names lowercased) plus
//! those offsets: borrowed from the parser's buffer when it comes from
//! [`RequestParser`], so framing a request there copies and allocates
//! nothing, and owned when it comes from [`Request::read_from`].

use crate::mpd;
use abr_video::{LevelIdx, Video};
use std::borrow::Cow;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::OnceLock;

/// Errors from HTTP parsing or I/O.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// Malformed request/status line or header.
    Malformed(String),
    /// Body shorter than its declared `Content-Length`.
    TruncatedBody {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// Declared `Content-Length` exceeds the request-body cap. Unlike
    /// [`Malformed`](Self::Malformed) this is well-formed framing with an
    /// oversized payload, so servers answer `413`, not `400`.
    BodyTooLarge {
        /// Bytes the header declared.
        len: usize,
        /// The cap in force.
        cap: usize,
    },
    /// The peer closed the connection before a complete message arrived.
    ConnectionClosed,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed http: {what}"),
            HttpError::TruncatedBody { expected, got } => {
                write!(f, "truncated body: expected {expected} bytes, got {got}")
            }
            HttpError::BodyTooLarge { len, cap } => {
                write!(f, "request body of {len} bytes exceeds the {cap}-byte cap")
            }
            HttpError::ConnectionClosed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Longest accepted request/status/header line, bytes (terminator
/// included). Anything longer is malformed input, not a legitimate message
/// from this workspace.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Cap on the total size of a header block, bytes (each header line
/// counted without its terminator, plus two).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on a *request* body (`POST` payloads are small manifests and
/// key-value state reports). Response bodies — video chunks — are not
/// subject to this limit.
pub const MAX_REQUEST_BODY_BYTES: usize = 1024 * 1024;

// ---------------------------------------------------------------------------
// The head parser — one pass, shared by every entry point
// ---------------------------------------------------------------------------

/// A byte range of the message buffer a head was parsed from.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// Where `part`, a subslice of `line`, lies, given that `line` starts
    /// at byte `at` of the buffer.
    fn within(line: &str, part: &str, at: usize) -> Self {
        let start = at + (part.as_ptr() as usize - line.as_ptr() as usize);
        Self {
            start,
            end: start + part.len(),
        }
    }

    /// The text under the span. Spans only ever cover head bytes the
    /// parser has already validated as UTF-8, cut on `char` boundaries.
    fn text(self, buf: &[u8]) -> &str {
        std::str::from_utf8(&buf[self.start..self.end]).unwrap_or_default()
    }
}

/// Where a request line's method and path lie.
#[derive(Debug, Clone, Copy)]
struct RequestLine {
    method: Span,
    path: Span,
}

/// A parsed head: what its start line says, and where its parts lie.
#[derive(Debug, Clone, Copy)]
struct Head<S> {
    /// A [`RequestLine`], or a response's status code.
    start: S,
    /// The header lines, from the end of the start line to the blank line.
    headers: Span,
    /// The value of the first `content-length` header, if any.
    content_length: Option<Span>,
    /// Whether the first `connection` header says `close`.
    close: bool,
    /// Bytes through the blank line.
    len: usize,
}

/// Parses a start line, given its bytes (trailing `\r`/`\n` stripped,
/// valid UTF-8), whether they are all ASCII, and their offset in the
/// buffer.
type StartLine<S> = fn(&[u8], bool, usize) -> Result<S, HttpError>;

/// A size cap a head broke before its blank line arrived.
#[derive(Debug, Clone, Copy)]
enum Cap {
    /// A line whose content (terminator excluded) passes
    /// [`MAX_LINE_BYTES`].
    Line,
    /// More than [`HEAD_SCAN_LIMIT`] head bytes.
    Head,
}

impl Cap {
    fn error(self) -> HttpError {
        HttpError::Malformed(match self {
            Cap::Line => format!("line exceeds {MAX_LINE_BYTES} bytes"),
            Cap::Head => format!("headers exceed {MAX_HEADER_BYTES} bytes"),
        })
    }
}

/// Where framing stopped on a head that broke a cap: the bytes scanned,
/// through the first one past the cap, and whether the line holding that
/// byte was all `\r` so far. A resync to the refused head's blank line
/// starts from there.
#[derive(Debug, Clone, Copy)]
struct Overflow {
    cap: Cap,
    scanned: usize,
    all_cr: bool,
}

/// Hard ceiling on head bytes before framing gives up: the head parser
/// would reject the block by this point anyway (`MAX_HEADER_BYTES` of
/// accounted headers plus one `MAX_LINE_BYTES` line in flight), so the
/// guard never fires on a head the parser would accept.
const HEAD_SCAN_LIMIT: usize = MAX_HEADER_BYTES + MAX_LINE_BYTES + 4;

/// Whether every byte is `\r`: a line whose content is all `\r` is
/// blank, since the parser strips trailing `\r` and `\n`.
fn only_cr(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == b'\r')
}

/// Where the first `\n` is, and whether every byte before it is ASCII,
/// searched a word at a time.
fn scan_line(bytes: &[u8]) -> (Option<usize>, bool) {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let (mut at, mut seen) = (0, 0);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        // The lowest byte flagged is the first `\n` (a zero byte after
        // the xor); a borrow can only flag bytes above it.
        let x = word ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            let bit = zeros.trailing_zeros();
            let before = word & ((1 << (bit - 7)) - 1);
            return (Some(at + bit as usize / 8), (seen | before) & HIGHS == 0);
        }
        seen |= word;
        at += 8;
    }
    let tail = words.remainder();
    let nl = tail.iter().position(|&b| b == b'\n');
    let ascii = seen & HIGHS == 0 && tail[..nl.unwrap_or(tail.len())].is_ascii();
    (nl.map(|i| at + i), ascii)
}

/// Whether `b` is whitespace as `char::is_whitespace` has it, for an
/// ASCII byte.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// `bytes[span].trim()` as a span: whitespace off both ends, Unicode
/// whitespace unless the text is known to be ASCII. The span is valid
/// UTF-8.
fn trim(bytes: &[u8], span: Span, ascii: bool) -> Span {
    let text = &bytes[span.start..span.end];
    if !ascii {
        let text = span.text(bytes);
        return Span::within(text, text.trim(), span.start);
    }
    let start = text
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(text.len());
    let end = text
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |i| i + 1);
    Span {
        start: span.start + start,
        end: span.start + end,
    }
}

/// The first size cap the line starting at `at` breaks, in the order a
/// byte-by-byte scan meets them (the line's cap first on a shared byte);
/// `nl` is the line's `\n`, if it is in. A blank line that ends the head
/// breaks nothing.
#[inline]
fn overflow(bytes: &[u8], at: usize, nl: Option<usize>) -> Option<Overflow> {
    debug_assert!(at <= HEAD_SCAN_LIMIT);
    let content_end = nl.unwrap_or(bytes.len());
    if content_end <= at + MAX_LINE_BYTES && content_end < HEAD_SCAN_LIMIT {
        return None;
    }
    overflow_at(bytes, at, nl, content_end)
}

/// [`overflow`] once a cap is in reach.
#[cold]
fn overflow_at(bytes: &[u8], at: usize, nl: Option<usize>, content_end: usize) -> Option<Overflow> {
    let line_byte = at + MAX_LINE_BYTES;
    if line_byte < content_end && line_byte <= HEAD_SCAN_LIMIT {
        return Some(Overflow {
            cap: Cap::Line,
            scanned: line_byte + 1,
            all_cr: only_cr(&bytes[at..=line_byte]),
        });
    }
    let head_byte = HEAD_SCAN_LIMIT;
    let all_cr = if head_byte < content_end {
        only_cr(&bytes[at..=head_byte])
    } else if nl == Some(head_byte) && !only_cr(&bytes[at..head_byte]) {
        true
    } else {
        return None;
    };
    Some(Overflow {
        cap: Cap::Head,
        scanned: head_byte + 1,
        all_cr,
    })
}

/// What framing has made of a head so far.
enum Framed<S> {
    /// The head is in, through its blank line, and parsed.
    Head(Head<S>),
    /// More bytes are needed.
    Wait,
    /// The head broke a size cap before its blank line.
    Overflow(Overflow),
    /// The head is in, and a line of it is malformed.
    Invalid(HttpError),
}

/// The head parser: one pass over a head's lines, resumable across feeds.
///
/// Each line is parsed once, as its `\n` arrives: the start line, then
/// header lines, counted against [`MAX_HEADER_BYTES`], their names
/// lowercased where they lie, the first `content-length` and `connection`
/// noted. Size caps are judged as bytes arrive, a malformed line only once
/// the head's blank line is in, so a refused head reports exactly what a
/// scan for its blank line and then a parse of the whole head would.
#[derive(Debug)]
struct HeadFramer<S> {
    /// Where the first line not yet parsed starts (from the message start).
    line: usize,
    /// How far the search for that line's `\n` has looked.
    seen: usize,
    /// Whether that line's bytes looked at so far are all ASCII.
    ascii: bool,
    /// The start line, once parsed, and where the header lines begin.
    start: Option<(S, usize)>,
    /// Header bytes counted against [`MAX_HEADER_BYTES`] so far (each line
    /// without its terminator, plus two).
    accounted: usize,
    content_length: Option<Span>,
    /// What the first `connection` header says: `Some(true)` for `close`.
    connection: Option<bool>,
    /// The first line refused; reported when the head's blank line comes.
    error: Option<HttpError>,
}

impl<S: Copy> HeadFramer<S> {
    fn new() -> Self {
        Self {
            line: 0,
            seen: 0,
            ascii: true,
            start: None,
            accounted: 0,
            content_length: None,
            connection: None,
            error: None,
        }
    }

    /// Frames the head at the front of `bytes`, the message's bytes so
    /// far, going on from where the last call stopped.
    fn advance(&mut self, bytes: &mut [u8], start_line: StartLine<S>) -> Framed<S> {
        loop {
            let at = self.line;
            let from = self.seen.max(at);
            let (nl, ascii) = scan_line(&bytes[from..]);
            let nl = nl.map(|i| from + i);
            self.seen = nl.unwrap_or(bytes.len());
            self.ascii &= ascii;
            if let Some(overflow) = overflow(bytes, at, nl) {
                return Framed::Overflow(overflow);
            }
            let Some(nl) = nl else {
                return Framed::Wait;
            };
            self.line = nl + 1;
            let ascii = std::mem::replace(&mut self.ascii, true);
            if let Some(framed) = self.take_line(bytes, at, nl + 1, ascii, start_line) {
                return framed;
            }
        }
    }

    /// At the end of the input, after [`advance`](Self::advance) waited
    /// for more: a final line without `\n` still counts as a line, and a
    /// head without its blank line is [`HttpError::ConnectionClosed`],
    /// unless a line of it was refused first.
    fn finish(&mut self, bytes: &mut [u8], start_line: StartLine<S>) -> Result<Head<S>, HttpError> {
        let at = self.line;
        if at < bytes.len() {
            self.line = bytes.len();
            let ascii = bytes[at..].is_ascii();
            match self.take_line(bytes, at, bytes.len(), ascii, start_line) {
                Some(Framed::Head(head)) => return Ok(head),
                Some(Framed::Invalid(error)) => return Err(error),
                _ => {}
            }
        }
        Err(self.error.take().unwrap_or(HttpError::ConnectionClosed))
    }

    /// Takes the line `bytes[at..end]` (its `\n` included, when in; all
    /// ASCII when `ascii`): parses it unless an earlier line was refused,
    /// and ends the head if it is blank.
    fn take_line(
        &mut self,
        bytes: &mut [u8],
        at: usize,
        end: usize,
        ascii: bool,
        start_line: StartLine<S>,
    ) -> Option<Framed<S>> {
        // The line without its trailing `\r`s and `\n`: empty when blank.
        let kept = bytes[at..end]
            .iter()
            .rposition(|&b| b != b'\r' && b != b'\n');
        let line = Span {
            start: at,
            end: kept.map_or(at, |i| at + i + 1),
        };
        if self.error.is_none() {
            if let Err(error) = self.parse_line(bytes, line, end, ascii, start_line) {
                self.error = Some(error);
            }
        }
        if kept.is_some() {
            return None;
        }
        if let Some(error) = self.error.take() {
            return Some(Framed::Invalid(error));
        }
        let (start, headers_at) = self
            .start
            .expect("a blank start line never parses, so the head has one");
        Some(Framed::Head(Head {
            start,
            headers: Span {
                start: headers_at,
                end: at,
            },
            content_length: self.content_length,
            close: self.connection == Some(true),
            len: end,
        }))
    }

    /// Parses one line, checked in the order a line reader reports: UTF-8
    /// first, then length. The first line is the start line; a later
    /// non-blank one is a header line. Header lines are taken apart as
    /// bytes: `:`, `\r` and `\n` are ASCII, so they never fall inside a
    /// multi-byte character.
    fn parse_line(
        &mut self,
        bytes: &mut [u8],
        line: Span,
        end: usize,
        ascii: bool,
        start_line: StartLine<S>,
    ) -> Result<(), HttpError> {
        let at = line.start;
        let raw = &bytes[at..end];
        if !ascii && std::str::from_utf8(raw).is_err() {
            // Worded as `BufRead::read_line` words it.
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )));
        }
        if raw.len() > MAX_LINE_BYTES {
            return Err(HttpError::Malformed(format!(
                "line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        if self.start.is_none() {
            let text = &bytes[line.start..line.end];
            self.start = Some((start_line(text, ascii, at)?, end));
            return Ok(());
        }
        if line.start == line.end {
            return Ok(());
        }
        self.accounted += line.end - line.start + 2;
        if self.accounted > MAX_HEADER_BYTES {
            return Err(HttpError::Malformed(format!(
                "headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        let Some(colon) = bytes[at..line.end].iter().position(|&b| b == b':') else {
            let line = line.text(bytes);
            return Err(HttpError::Malformed(format!("header line '{line}'")));
        };
        let name = Span {
            start: at,
            end: at + colon,
        };
        bytes[name.start..name.end].make_ascii_lowercase();
        let key = trim(bytes, name, ascii);
        let value = Span {
            start: name.end + 1,
            end: line.end,
        };
        match &bytes[key.start..key.end] {
            b"content-length" if self.content_length.is_none() => {
                self.content_length = Some(trim(bytes, value, ascii));
            }
            b"connection" if self.connection.is_none() => {
                let value = trim(bytes, value, ascii);
                let value = &bytes[value.start..value.end];
                self.connection = Some(value.eq_ignore_ascii_case(b"close"));
            }
            _ => {}
        }
        Ok(())
    }
}

fn request_line(line: &[u8], ascii: bool, at: usize) -> Result<RequestLine, HttpError> {
    let text = || std::str::from_utf8(line).unwrap_or_default();
    // The first three of `split_whitespace`'s words, split as bytes when
    // the line is ASCII.
    let mut words = [Span { start: 0, end: 0 }; 3];
    let found = if ascii {
        let (mut found, mut i) = (0, 0);
        while found < words.len() {
            while i < line.len() && is_space(line[i]) {
                i += 1;
            }
            if i == line.len() {
                break;
            }
            let start = i;
            while i < line.len() && !is_space(line[i]) {
                i += 1;
            }
            words[found] = Span {
                start: at + start,
                end: at + i,
            };
            found += 1;
        }
        found
    } else {
        let text = text();
        let tokens = text.split_whitespace().map(|t| Span::within(text, t, at));
        words.iter_mut().zip(tokens).map(|(slot, t)| *slot = t).count()
    };
    if found < 3 {
        return Err(HttpError::Malformed(format!("request line '{}'", text())));
    }
    let [method, path, version] = words;
    let version = &line[version.start - at..version.end - at];
    if !version.starts_with(b"HTTP/1.") {
        let version = std::str::from_utf8(version).unwrap_or_default();
        return Err(HttpError::Malformed(format!("version '{version}'")));
    }
    Ok(RequestLine { method, path })
}

fn status_line(line: &[u8], _ascii: bool, _at: usize) -> Result<u16, HttpError> {
    let line = std::str::from_utf8(line).unwrap_or_default();
    let mut parts = line.splitn(3, ' ');
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(HttpError::Malformed(format!("status line '{line}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("version '{version}'")));
    }
    status
        .parse()
        .map_err(|_| HttpError::Malformed(format!("status '{status}'")))
}

/// The body length a request head declares. `POST` and `PUT` must declare
/// one (an unframed body would poison keep-alive); it must parse, and stay
/// within `cap`.
fn request_body_len(
    bytes: &[u8],
    head: &Head<RequestLine>,
    cap: usize,
) -> Result<usize, HttpError> {
    match head.content_length {
        Some(value) => {
            let value = value.text(bytes);
            let len: usize = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("content-length '{value}'")))?;
            if len > cap {
                return Err(HttpError::BodyTooLarge { len, cap });
            }
            Ok(len)
        }
        None => match head.start.method.text(bytes) {
            method @ ("POST" | "PUT") => Err(HttpError::Malformed(format!(
                "{method} without content-length"
            ))),
            _ => Ok(0),
        },
    }
}

/// The body length a response head declares (none means empty).
fn response_body_len(bytes: &[u8], head: &Head<u16>) -> Result<usize, HttpError> {
    head.content_length
        .map_or("0", |value| value.text(bytes))
        .parse()
        .map_err(|_| HttpError::Malformed("content-length".into()))
}

/// `(name, value)` pairs of a parsed header block (every line ends in
/// `\n` and holds a `:`), names trimmed, values as sent.
fn header_lines(mut block: &str) -> impl Iterator<Item = (&str, &str)> {
    std::iter::from_fn(move || {
        let (line, rest) = block.split_once('\n')?;
        block = rest;
        let (name, value) = line.split_once(':')?;
        Some((name.trim(), value))
    })
}

/// Reads one head, through its blank line, from a blocking reader onto
/// `buf` and parses it, consuming exactly its bytes: a line at a time, so
/// nothing past the head is copied out. `Ok(None)` on EOF before the first
/// byte.
fn read_head<S: Copy>(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    start_line: StartLine<S>,
) -> Result<Option<Head<S>>, HttpError> {
    let mut framer = HeadFramer::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return framer.finish(buf, start_line).map(Some);
        }
        // Framing waits only while the head is within its cap, so there is
        // room for at least one more byte.
        let line = scan_line(chunk).0.map_or(chunk.len(), |i| i + 1);
        let take = line.min(HEAD_SCAN_LIMIT + 1 - buf.len());
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        match framer.advance(buf, start_line) {
            Framed::Head(head) => return Ok(Some(head)),
            Framed::Wait => {}
            Framed::Overflow(overflow) => return Err(overflow.cap.error()),
            Framed::Invalid(error) => return Err(error),
        }
    }
}

/// Reads exactly `len` body bytes onto the end of `buf`.
fn read_body(r: &mut impl Read, buf: &mut Vec<u8>, len: usize) -> Result<(), HttpError> {
    let start = buf.len();
    buf.resize(start + len, 0);
    let mut got = 0;
    while got < len {
        let n = r.read(&mut buf[start + got..])?;
        if n == 0 {
            return Err(HttpError::TruncatedBody { expected: len, got });
        }
        got += n;
    }
    Ok(())
}

/// An HTTP request: `GET`s for chunks and manifests, `POST`s with
/// `Content-Length` bodies for the decision service.
///
/// The request is its wire form — one buffer holding the head (header
/// names lowercased) and the body — plus the offsets of its parts. A
/// request from [`RequestParser`] borrows that buffer from the parser, so
/// framing it copies and allocates nothing; one built here or read by
/// [`Request::read_from`] owns it.
#[derive(Clone)]
pub struct Request<'a> {
    buf: Cow<'a, [u8]>,
    method: Span,
    path: Span,
    headers: Span,
    /// Start of the body; it runs to the end of `buf`.
    body: usize,
    /// Whether the first `connection` header says `close`.
    close: bool,
}

impl Request<'static> {
    /// A `GET` request for `path`.
    pub fn get(path: &str) -> Self {
        Self::build("GET", path, None)
    }

    /// A `POST` of `body` to `path` (keep-alive, `Content-Length` framed).
    pub fn post(path: &str, body: &[u8], content_type: &str) -> Self {
        Self::build("POST", path, Some((content_type, body)))
    }

    /// Lays out a keep-alive request, with a framed body when given one.
    fn build(method: &str, path: &str, content: Option<(&str, &[u8])>) -> Self {
        let mut buf = Vec::with_capacity(
            96 + path.len() + content.map_or(0, |(ct, body)| ct.len() + body.len()),
        );
        buf.extend_from_slice(method.as_bytes());
        let method = Span {
            start: 0,
            end: buf.len(),
        };
        buf.push(b' ');
        let path_at = buf.len();
        buf.extend_from_slice(path.as_bytes());
        let path = Span {
            start: path_at,
            end: buf.len(),
        };
        buf.extend_from_slice(b" HTTP/1.1\r\n");
        let headers_at = buf.len();
        buf.extend_from_slice(b"connection: keep-alive\r\n");
        if let Some((content_type, body)) = content {
            write!(
                buf,
                "content-type: {content_type}\r\ncontent-length: {}\r\n",
                body.len()
            )
            .expect("writing to a Vec cannot fail");
        }
        let headers = Span {
            start: headers_at,
            end: buf.len(),
        };
        buf.extend_from_slice(b"\r\n");
        let body = buf.len();
        if let Some((_, bytes)) = content {
            buf.extend_from_slice(bytes);
        }
        Self {
            buf: Cow::Owned(buf),
            method,
            path,
            headers,
            body,
            close: false,
        }
    }

    /// Parses a request from a transport. `Ok(None)` on clean EOF before
    /// the first byte (keep-alive peer went away).
    ///
    /// Server hardening: a garbled request line, a header block over
    /// [`MAX_HEADER_BYTES`] and a `POST`/`PUT` without `Content-Length`
    /// (the body would be unframed, poisoning keep-alive) all yield
    /// [`HttpError::Malformed`], which a serving loop maps to `400`
    /// without tearing the worker down. A body over
    /// [`MAX_REQUEST_BODY_BYTES`] is [`HttpError::BodyTooLarge`] — the
    /// framing is fine, the payload is not — which maps to `413`.
    pub fn read_from(r: &mut impl BufRead) -> Result<Option<Self>, HttpError> {
        Self::read_from_with_cap(r, MAX_REQUEST_BODY_BYTES)
    }

    /// [`read_from`](Self::read_from) with an explicit request-body cap,
    /// for servers whose expected payloads are far from the default —
    /// the bulk decision endpoint raises it, a chunk origin could lower
    /// it. A declared `Content-Length` of exactly `cap` bytes is
    /// accepted; `cap + 1` is [`HttpError::BodyTooLarge`].
    pub fn read_from_with_cap(r: &mut impl BufRead, cap: usize) -> Result<Option<Self>, HttpError> {
        let mut buf = Vec::new();
        let Some(head) = read_head(r, &mut buf, request_line)? else {
            return Ok(None);
        };
        let body_len = request_body_len(&buf, &head, cap)?;
        read_body(r, &mut buf, body_len)?;
        Ok(Some(Request::parsed(Cow::Owned(buf), head)))
    }
}

impl<'a> Request<'a> {
    /// Takes over a message buffer whose head `head` describes.
    fn parsed(buf: Cow<'a, [u8]>, head: Head<RequestLine>) -> Self {
        Self {
            method: head.start.method,
            path: head.start.path,
            headers: head.headers,
            body: head.len,
            close: head.close,
            buf,
        }
    }

    /// Request method, e.g. `GET`.
    pub fn method(&self) -> &str {
        self.method.text(&self.buf)
    }

    /// Request path, e.g. `/video/2/17.m4s`.
    pub fn path(&self) -> &str {
        self.path.text(&self.buf)
    }

    /// Headers as lowercase-name/value pairs, in arrival order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        header_lines(self.headers.text(&self.buf)).map(|(name, value)| (name, value.trim()))
    }

    /// Value of the first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lines(self.headers.text(&self.buf))
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    }

    /// Whether the client asked to close the connection after this
    /// request: its first `connection` header is `close`
    /// (case-insensitive). Noted while the head was parsed.
    pub fn wants_close(&self) -> bool {
        self.close
    }

    /// The body (empty for bodyless requests).
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body..]
    }

    /// The request with a buffer of its own, free of the parser it may
    /// borrow from.
    pub fn into_owned(self) -> Request<'static> {
        Request {
            buf: Cow::Owned(self.buf.into_owned()),
            method: self.method,
            path: self.path,
            headers: self.headers,
            body: self.body,
            close: self.close,
        }
    }

    /// Serializes onto a transport.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), HttpError> {
        w.write_all(&self.buf)?;
        w.flush()?;
        Ok(())
    }
}

/// Requests are equal when their method, path, headers and body are.
impl PartialEq for Request<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.method() == other.method()
            && self.path() == other.path()
            && self.headers().eq(other.headers())
            && self.body() == other.body()
    }
}

impl Eq for Request<'_> {}

impl std::fmt::Debug for Request<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("method", &self.method())
            .field("path", &self.path())
            .field("headers", &self.headers().collect::<Vec<_>>())
            .field("body", &self.body().escape_ascii().to_string())
            .finish()
    }
}

/// The reason phrase written for `status`.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// `n` in decimal ASCII, written into the tail of `buf` (20 digits hold
/// any `u64`).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// An HTTP response with a `Content-Length` body.
///
/// Only the status, content type and body are kept: the reason phrase is
/// derived from the status and `content-length` from the body when the
/// response is written, so a response built here carries no header
/// strings at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `content-type`: a static string for responses built here, the
    /// received value (empty when absent) for parsed ones.
    pub content_type: Cow<'static, str>,
    /// The body: borrowed when static, the received or rendered bytes
    /// otherwise.
    pub body: Cow<'static, [u8]>,
}

impl Response {
    /// A response with the given status, body and content type.
    pub fn new(
        status: u16,
        body: impl Into<Cow<'static, [u8]>>,
        content_type: &'static str,
    ) -> Self {
        Self {
            status,
            content_type: Cow::Borrowed(content_type),
            body: body.into(),
        }
    }

    /// A `200 OK` with the given body and content type.
    pub fn ok(body: impl Into<Cow<'static, [u8]>>, content_type: &'static str) -> Self {
        Self::new(200, body, content_type)
    }

    /// A `404 Not Found`.
    pub fn not_found() -> Self {
        Self::new(404, b"not found", "text/plain")
    }

    /// A `503 Service Unavailable` (the overloaded-origin fault).
    pub fn service_unavailable() -> Self {
        Self::new(503, b"service unavailable", "text/plain")
    }

    /// A `400 Bad Request` describing what was wrong with the input — the
    /// answer a hardened server gives to malformed framing instead of
    /// killing its worker.
    pub fn bad_request(what: &str) -> Self {
        Self::new(400, format!("bad request: {what}").into_bytes(), "text/plain")
    }

    /// A `413 Payload Too Large` naming the declared size and the cap it
    /// broke — the answer to a well-framed request whose body the server
    /// refuses to buffer.
    pub fn payload_too_large(len: usize, cap: usize) -> Self {
        let body = format!("payload too large: {len} bytes declared, cap is {cap}");
        Self::new(413, body.into_bytes(), "text/plain")
    }

    /// The response a parsed head and the body after it describe.
    fn parsed(head_bytes: &[u8], head: &Head<u16>, body: Vec<u8>) -> Self {
        let content_type = header_lines(head.headers.text(head_bytes))
            .find(|(name, _)| *name == "content-type")
            .map_or(Cow::Borrowed(""), |(_, value)| {
                Cow::Owned(value.trim().to_owned())
            });
        Self {
            status: head.start,
            content_type,
            body: Cow::Owned(body),
        }
    }

    /// Serializes onto a transport: status line, `content-type`,
    /// `content-length`, body. The head is appended piece by piece, with
    /// no formatting machinery; a status without a known reason phrase
    /// keeps the space before its empty phrase (`HTTP/1.1 500 \r\n`).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), HttpError> {
        let mut digits = [0u8; 20];
        w.write_all(b"HTTP/1.1 ")?;
        w.write_all(decimal(u64::from(self.status), &mut digits))?;
        w.write_all(b" ")?;
        w.write_all(reason_phrase(self.status).as_bytes())?;
        w.write_all(b"\r\ncontent-type: ")?;
        w.write_all(self.content_type.as_bytes())?;
        w.write_all(b"\r\ncontent-length: ")?;
        w.write_all(decimal(self.body.len() as u64, &mut digits))?;
        w.write_all(b"\r\n\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Parses a response (status line, headers, exactly `Content-Length`
    /// body bytes).
    pub fn read_from(r: &mut impl BufRead) -> Result<Response, HttpError> {
        let mut head_bytes = Vec::new();
        let head =
            read_head(r, &mut head_bytes, status_line)?.ok_or(HttpError::ConnectionClosed)?;
        let mut body = Vec::new();
        read_body(r, &mut body, response_body_len(&head_bytes, &head)?)?;
        Ok(Self::parsed(&head_bytes, &head, body))
    }
}

// ---------------------------------------------------------------------------
// Incremental parsing — the event-driven front end
// ---------------------------------------------------------------------------

/// Outcome of one incremental parse step ([`RequestParser::next_request`]).
#[derive(Debug)]
pub enum ParseStep<T> {
    /// A complete message was parsed and consumed from the buffer. Call
    /// again — pipelined keep-alive peers may have buffered another.
    Complete(T),
    /// The buffered bytes are a valid (possibly empty) message prefix;
    /// feed more when the socket becomes readable.
    Incomplete,
    /// Parse failure. When `recoverable`, the parser has already moved
    /// past the offending input (skipping the declared body, or resyncing
    /// to the blank line that ends the refused head) and the connection
    /// can keep serving — answer 400/413 and continue. Otherwise the
    /// framing is poisoned and the connection must close after the error
    /// response drains.
    Failed {
        /// What went wrong — the same [`HttpError`] the one-shot parser
        /// reports for this input.
        error: HttpError,
        /// Whether the parser resynced and the connection may live on.
        recoverable: bool,
    },
}

/// Post-error resynchronisation: what to discard before parsing resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resync {
    None,
    /// Discard this many declared-but-refused body bytes (413 path).
    Body(usize),
    /// Discard through the next blank line, the end of a refused head
    /// (an over-long line or a runaway header block). `all_cr` carries
    /// the blank-line detector state across feeds.
    ToBlankLine {
        /// Whether the current line's bytes so far are all `\r`.
        all_cr: bool,
    },
}

/// Free bytes [`RequestParser::spare`] offers each socket read: the most
/// one read takes.
const READ_SPARE: usize = 16 * 1024;

/// Incremental request parser for non-blocking connections: feed whatever
/// bytes the socket yields (or read them straight into its buffer), pull
/// zero or more complete [`Request`]s.
///
/// It runs the same one-pass head parser as [`Request::read_from`], kept
/// across feeds, so every accepted or rejected message matches the
/// one-shot parser's and no byte of a trickled head is parsed twice.
///
/// A complete request borrows the parser's buffer: framing it copies and
/// allocates nothing. The buffer is reused across requests; consumed
/// bytes are reclaimed only when room is needed, never while a request
/// borrows them.
#[derive(Debug)]
pub struct RequestParser {
    /// Every byte of `buf` is initialized; `pos..end` is unconsumed input.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    end: usize,
    framer: HeadFramer<RequestLine>,
    /// The parsed head and total length once the head is complete —
    /// nothing is re-parsed while a body trickles in.
    pending: Option<(Head<RequestLine>, usize)>,
    resync: Resync,
    cap: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser enforcing the default [`MAX_REQUEST_BODY_BYTES`] cap.
    pub fn new() -> Self {
        Self::with_cap(MAX_REQUEST_BODY_BYTES)
    }

    /// A parser with an explicit request-body cap (mirrors
    /// [`Request::read_from_with_cap`]).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            framer: HeadFramer::new(),
            pending: None,
            resync: Resync::None,
            cap,
        }
    }

    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Free room at the end of the buffer (at least [`READ_SPARE`] bytes)
    /// for a socket read to fill in place; [`commit`](Self::commit) what
    /// it read.
    pub(crate) fn spare(&mut self) -> &mut [u8] {
        self.reserve(READ_SPARE)
    }

    /// Takes in `n` bytes a read wrote at the front of
    /// [`spare`](Self::spare).
    pub(crate) fn commit(&mut self, n: usize) {
        assert!(
            self.end + n <= self.buf.len(),
            "committed past the spare room"
        );
        self.end += n;
    }

    /// At least `min` free bytes past the input. The consumed prefix is
    /// dropped first; the buffer grows (zero-filled, once) only when that
    /// leaves too little room. Offsets into the message are relative to
    /// `pos`, so moving the input never invalidates them.
    fn reserve(&mut self, min: usize) -> &mut [u8] {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < min {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() - self.end < min {
                self.buf.resize(self.end + min, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Bytes buffered but not yet consumed by a complete message.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// True when no partial message is buffered — EOF now is a clean
    /// keep-alive close, not a truncation.
    pub fn is_clean(&self) -> bool {
        self.buffered() == 0 && self.resync == Resync::None
    }

    /// Attempts to parse the next buffered request. Call in a loop after
    /// each [`feed`](Self::feed) until it stops returning
    /// [`ParseStep::Complete`].
    pub fn next_request(&mut self) -> ParseStep<Request<'_>> {
        if !self.run_resync() {
            return ParseStep::Incomplete;
        }
        // Parse the head as far as the bytes go (once), then wait until the
        // declared body, at most `cap` bytes, is in.
        let (head, total) = match self.pending {
            Some(pending) => pending,
            None => {
                let bytes = &mut self.buf[self.pos..self.end];
                let head = match self.framer.advance(bytes, request_line) {
                    Framed::Head(head) => head,
                    Framed::Wait => return ParseStep::Incomplete,
                    Framed::Overflow(overflow) => {
                        // An over-long line or a runaway header block: skip
                        // to the blank line that ends the refused head, so
                        // its remaining lines never parse as a request of
                        // their own. The connection survives with a 400.
                        self.next_message(overflow.scanned);
                        self.resync = Resync::ToBlankLine {
                            all_cr: overflow.all_cr,
                        };
                        return ParseStep::Failed {
                            error: overflow.cap.error(),
                            recoverable: true,
                        };
                    }
                    Framed::Invalid(error) => {
                        return ParseStep::Failed {
                            error,
                            recoverable: false,
                        }
                    }
                };
                match request_body_len(bytes, &head, self.cap) {
                    Ok(len) => (head, head.len + len),
                    Err(error @ HttpError::BodyTooLarge { len, .. }) => {
                        // Well-framed, oversized: skip the head and the
                        // declared body, and the connection survives with
                        // a 413.
                        self.next_message(head.len);
                        self.resync = Resync::Body(len);
                        return ParseStep::Failed {
                            error,
                            recoverable: true,
                        };
                    }
                    Err(error) => {
                        return ParseStep::Failed {
                            error,
                            recoverable: false,
                        }
                    }
                }
            }
        };
        if self.buffered() < total {
            self.pending = Some((head, total));
            return ParseStep::Incomplete;
        }
        let at = self.pos;
        self.next_message(total);
        let message = &self.buf[at..at + total];
        ParseStep::Complete(Request::parsed(Cow::Borrowed(message), head))
    }

    /// Runs any pending resync against the buffer. Returns `true` when
    /// resync is finished and normal parsing may resume.
    fn run_resync(&mut self) -> bool {
        match self.resync {
            Resync::None => true,
            Resync::Body(remaining) => {
                let take = remaining.min(self.buffered());
                self.pos += take;
                if take == remaining {
                    self.resync = Resync::None;
                    true
                } else {
                    self.resync = Resync::Body(remaining - take);
                    false
                }
            }
            Resync::ToBlankLine { mut all_cr } => {
                while self.pos < self.end {
                    let b = self.buf[self.pos];
                    self.pos += 1;
                    match b {
                        b'\n' if all_cr => {
                            self.resync = Resync::None;
                            return true;
                        }
                        b'\n' => all_cr = true,
                        b'\r' => {}
                        _ => all_cr = false,
                    }
                }
                self.resync = Resync::ToBlankLine { all_cr };
                false
            }
        }
    }

    /// Marks `consumed` bytes done and resets per-message state.
    fn next_message(&mut self, consumed: usize) {
        self.pos += consumed;
        self.framer = HeadFramer::new();
        self.pending = None;
    }
}

/// Size in bytes of chunk `k` at `level` as served over HTTP.
pub fn chunk_bytes(video: &Video, k: usize, level: LevelIdx) -> usize {
    (video.chunk_size_kbits(k, level) * 1000.0 / 8.0).ceil() as usize
}

/// A DASH origin server: serves `/manifest.mpd` and
/// `/video/{level}/{chunk}.m4s` with deterministic filler bodies of the
/// exact encoded size.
///
/// The video is held as a [`Cow`] so the emulated path can borrow the
/// caller's `Video` (thousands of per-session servers, zero clones) while
/// the socket server ([`crate::server::Server`]) owns it (its loop threads
/// need `'static`). The manifest is generated lazily on first request —
/// emulated sessions never fetch it, so they never pay for it.
#[derive(Debug)]
pub struct ChunkServer<'a> {
    video: Cow<'a, Video>,
    manifest: OnceLock<String>,
}

impl ChunkServer<'static> {
    /// Builds a server owning `video`.
    pub fn new(video: Video) -> Self {
        Self {
            video: Cow::Owned(video),
            manifest: OnceLock::new(),
        }
    }
}

impl<'a> ChunkServer<'a> {
    /// Builds a server borrowing `video` (the allocation-lean emulated
    /// path).
    pub fn borrowed(video: &'a Video) -> Self {
        Self {
            video: Cow::Borrowed(video),
            manifest: OnceLock::new(),
        }
    }

    /// The video being served.
    pub fn video(&self) -> &Video {
        &self.video
    }

    /// The MPD manifest (generated on first access).
    pub fn manifest(&self) -> &str {
        self.manifest.get_or_init(|| mpd::generate(&self.video))
    }

    /// Routes one request to a response (pure function of the request —
    /// usable from any transport).
    pub fn handle(&self, req: &Request) -> Response {
        if req.method() != "GET" {
            return Response::not_found();
        }
        if req.path() == "/manifest.mpd" {
            return Response::ok(self.manifest().as_bytes().to_vec(), "application/dash+xml");
        }
        if let Some(rest) = req.path().strip_prefix("/video/") {
            if let Some((level_s, chunk_s)) = rest.split_once('/') {
                if let (Ok(level), Some(chunk_s)) =
                    (level_s.parse::<usize>(), chunk_s.strip_suffix(".m4s"))
                {
                    if let Ok(k) = chunk_s.parse::<usize>() {
                        if level < self.video.ladder().len() && k < self.video.num_chunks() {
                            let n = chunk_bytes(&self.video, k, LevelIdx(level));
                            // Deterministic filler: level/chunk tagged bytes.
                            let tag = (level * 31 + k) as u8;
                            return Response::ok(vec![tag; n], "video/mp4");
                        }
                    }
                }
            }
        }
        Response::not_found()
    }

    /// [`handle`](Self::handle) under a scheduled fault: the HTTP-level
    /// kinds replace the origin's answer (a 404 as if the chunk vanished,
    /// a 503 as if the origin buckled); every other kind — including the
    /// link-level ones, which corrupt delivery rather than routing — is
    /// answered normally.
    pub fn handle_faulted(&self, req: &Request, fault: &crate::fault::Fault) -> Response {
        match fault.kind {
            Some(crate::fault::FaultKind::NotFound) => Response::not_found(),
            Some(crate::fault::FaultKind::ServiceUnavailable) => Response::service_unavailable(),
            _ => self.handle(req),
        }
    }
}

/// A keep-alive HTTP client over any `Read + Write` transport.
#[derive(Debug)]
pub struct HttpClient<T: Read + Write> {
    reader: BufReader<T>,
}

impl<T: Read + Write> HttpClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        Self {
            reader: BufReader::new(transport),
        }
    }

    /// Issues a `GET` and reads the full response.
    pub fn get(&mut self, path: &str) -> Result<Response, HttpError> {
        self.send(&Request::get(path))
    }

    /// `POST`s `body` to `path` and reads the full response.
    pub fn post(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: &str,
    ) -> Result<Response, HttpError> {
        self.send(&Request::post(path, body, content_type))
    }

    /// Sends any request and reads the full response.
    pub fn send(&mut self, req: &Request) -> Result<Response, HttpError> {
        req.write_to(self.reader.get_mut())?;
        Response::read_from(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::envivio_video;
    use std::io::Cursor;

    fn round_trip_request(req: &Request) -> Request<'static> {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        Request::read_from(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn request_round_trip() {
        let req = Request::get("/video/3/42.m4s");
        let back = round_trip_request(&req);
        assert_eq!(req, back);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok(b"hello world", "text/plain");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn post_round_trip_carries_body() {
        let req = Request::post("/decision", b"sid 1\nchunk 0\n", "text/plain");
        let back = round_trip_request(&req);
        assert_eq!(req, back);
        assert_eq!(back.body(), b"sid 1\nchunk 0\n");
        assert_eq!(back.header("content-length"), Some("14"));
    }

    #[test]
    fn post_without_content_length_is_malformed() {
        let raw = b"POST /session HTTP/1.1\r\nconnection: keep-alive\r\n\r\nbody".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(ref w) if w.contains("content-length")), "{err:?}");
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let raw = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap().unwrap();
        assert!(req.body().is_empty());
    }

    #[test]
    fn oversized_header_block_is_malformed() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..4 {
            raw.extend_from_slice(format!("x-{i}: {}\r\n", "v".repeat(7000)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(ref w) if w.contains("headers exceed")), "{err:?}");
    }

    #[test]
    fn oversized_request_line_is_malformed() {
        let mut raw = b"GET /".to_vec();
        raw.extend_from_slice("x".repeat(MAX_LINE_BYTES).as_bytes());
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn oversized_request_body_is_body_too_large() {
        let raw = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_REQUEST_BODY_BYTES + 1
        )
        .into_bytes();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::BodyTooLarge {
                    len,
                    cap: MAX_REQUEST_BODY_BYTES,
                } if len == MAX_REQUEST_BODY_BYTES + 1
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn body_cap_is_inclusive_and_configurable() {
        let at_cap = |len: usize| {
            format!("POST /x HTTP/1.1\r\ncontent-length: {len}\r\n\r\n{}", "b".repeat(len))
                .into_bytes()
        };
        // Exactly cap bytes pass; one more is rejected as too large, with
        // the custom cap reported.
        let req = Request::read_from_with_cap(&mut Cursor::new(at_cap(16)), 16)
            .unwrap()
            .unwrap();
        assert_eq!(req.body().len(), 16);
        let err = Request::read_from_with_cap(&mut Cursor::new(at_cap(17)), 16).unwrap_err();
        assert!(
            matches!(err, HttpError::BodyTooLarge { len: 17, cap: 16 }),
            "{err:?}"
        );
        // The default entry point enforces the default cap.
        let req = Request::read_from(&mut Cursor::new(at_cap(MAX_REQUEST_BODY_BYTES)))
            .unwrap()
            .unwrap();
        assert_eq!(req.body().len(), MAX_REQUEST_BODY_BYTES);
    }

    #[test]
    fn payload_too_large_response_round_trips() {
        let resp = Response::payload_too_large(2_000_000, MAX_REQUEST_BODY_BYTES);
        assert_eq!(resp.status, 413);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.status, 413);
        let body = String::from_utf8_lossy(&back.body).to_string();
        assert!(body.contains("2000000"), "{body}");
        assert!(body.contains(&MAX_REQUEST_BODY_BYTES.to_string()), "{body}");
    }

    #[test]
    fn truncated_request_body_detected() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::TruncatedBody { expected: 10, got: 3 }));
    }

    #[test]
    fn bad_request_describes_the_problem() {
        let resp = Response::bad_request("POST without content-length");
        assert_eq!(resp.status, 400);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back.status, 400);
        assert!(String::from_utf8_lossy(&back.body).contains("content-length"));
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(Request::read_from(&mut Cursor::new(Vec::new()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_request_line_rejected() {
        let err = Request::read_from(&mut Cursor::new(b"GARBAGE\r\n\r\n".to_vec())).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        let err2 =
            Request::read_from(&mut Cursor::new(b"GET / SPDY/9\r\n\r\n".to_vec())).unwrap_err();
        assert!(matches!(err2, HttpError::Malformed(_)));
    }

    #[test]
    fn malformed_header_rejected() {
        let raw = b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn truncated_body_detected() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc".to_vec();
        let err = Response::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(
            err,
            HttpError::TruncatedBody {
                expected: 10,
                got: 3
            }
        ));
    }

    #[test]
    fn headers_are_case_insensitive() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: Text/Plain\r\n\r\nok".to_vec();
        let resp = Response::read_from(&mut Cursor::new(raw)).unwrap();
        assert_eq!(resp.content_type, "Text/Plain");
        assert_eq!(resp.body.as_ref(), b"ok");
        let raw = b"GET / HTTP/1.1\r\nX-Thing: Yes\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.header("x-thing"), Some("Yes"));
        assert_eq!(req.header("X-THING"), Some("Yes"));
        assert_eq!(req.headers().collect::<Vec<_>>(), [("x-thing", "Yes")]);
    }

    #[test]
    fn server_serves_manifest_and_chunks() {
        let server = ChunkServer::new(envivio_video());
        let m = server.handle(&Request::get("/manifest.mpd"));
        assert_eq!(m.status, 200);
        assert!(String::from_utf8_lossy(&m.body).contains("MPD"));

        let c = server.handle(&Request::get("/video/4/0.m4s"));
        assert_eq!(c.status, 200);
        // 3000 kbps * 4 s = 12,000 kbits = 1,500,000 bytes.
        assert_eq!(c.body.len(), 1_500_000);
    }

    #[test]
    fn server_404s() {
        let server = ChunkServer::new(envivio_video());
        for path in [
            "/nope",
            "/video/9/0.m4s",    // level out of range
            "/video/0/999.m4s",  // chunk out of range
            "/video/0/0.mp4",    // wrong extension
            "/video/abc/0.m4s",  // non-numeric
        ] {
            assert_eq!(server.handle(&Request::get(path)).status, 404, "{path}");
        }
        let post = Request::post("/manifest.mpd", b"", "text/plain");
        assert_eq!(server.handle(&post).status, 404);
    }

    #[test]
    fn service_unavailable_round_trips() {
        let resp = Response::service_unavailable();
        assert_eq!(resp.status, 503);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn faulted_handler_overrides_only_http_kinds() {
        use crate::fault::{Fault, FaultKind};
        let server = ChunkServer::new(envivio_video());
        let req = Request::get("/video/2/7.m4s");
        let clean = server.handle(&req);
        assert_eq!(clean.status, 200);
        let with = |kind| Fault { kind: Some(kind), jitter_secs: 0.0 };
        assert_eq!(
            server.handle_faulted(&req, &with(FaultKind::NotFound)).status,
            404
        );
        assert_eq!(
            server
                .handle_faulted(&req, &with(FaultKind::ServiceUnavailable))
                .status,
            503
        );
        // Link-level kinds and clean requests are routed normally.
        for fault in [
            Fault::none(),
            with(FaultKind::ConnectionReset { body_fraction: 0.5 }),
            with(FaultKind::Truncate { body_fraction: 0.5 }),
            with(FaultKind::Stall { body_fraction: 0.5 }),
        ] {
            assert_eq!(server.handle_faulted(&req, &fault), clean);
        }
    }

    #[test]
    fn borrowed_server_matches_owning_server() {
        let video = envivio_video();
        let owned = ChunkServer::new(video.clone());
        let borrowed = ChunkServer::borrowed(&video);
        for path in ["/manifest.mpd", "/video/2/7.m4s", "/nope"] {
            let req = Request::get(path);
            assert_eq!(owned.handle(&req), borrowed.handle(&req), "{path}");
        }
        assert_eq!(owned.manifest(), borrowed.manifest());
    }

    /// The `write!` rendering `Response::write_to` used before it appended
    /// the head piece by piece, kept as its oracle.
    fn fmt_write_to(resp: &Response, w: &mut Vec<u8>) {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
            resp.status,
            reason_phrase(resp.status),
            resp.content_type,
            resp.body.len()
        )
        .unwrap();
        w.extend_from_slice(&resp.body);
    }

    #[test]
    fn response_head_matches_the_fmt_oracle() {
        let long_type: String = "application/x-"
            .chars()
            .chain(std::iter::repeat('z'))
            .take(200)
            .collect();
        let bodies: Vec<Vec<u8>> = [0usize, 1, 9, 10, 99, 100, 12_345, 1 << 20]
            .iter()
            .map(|&n| vec![b'x'; n])
            .collect();
        for status in [
            200, 400, 404, 409, 410, 413, 503, 500, 0, 7, 99, 100, 999, 65_535,
        ] {
            for content_type in ["text/plain", "", long_type.as_str()] {
                for body in &bodies {
                    let resp = Response {
                        status,
                        content_type: Cow::Owned(content_type.to_string()),
                        body: Cow::Owned(body.clone()),
                    };
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    resp.write_to(&mut got).unwrap();
                    fmt_write_to(&resp, &mut want);
                    assert_eq!(
                        got,
                        want,
                        "status {status}, type {content_type:?}, {} bytes",
                        body.len()
                    );
                }
            }
        }
        let mut wire = Vec::new();
        Response::new(500, b"", "text/plain")
            .write_to(&mut wire)
            .unwrap();
        assert!(
            wire.starts_with(b"HTTP/1.1 500 \r\n"),
            "{:?}",
            String::from_utf8_lossy(&wire)
        );
        let mut digits = [0u8; 20];
        assert_eq!(
            decimal(u64::MAX, &mut digits),
            u64::MAX.to_string().as_bytes()
        );
    }

    #[test]
    fn chunk_bytes_rounds_up() {
        let v = envivio_video();
        // 350 kbps * 4 s = 1400 kbits = 175,000 bytes exactly.
        assert_eq!(chunk_bytes(&v, 0, LevelIdx(0)), 175_000);
    }

    mod incremental {
        use super::super::*;
        use std::io::Cursor;

        fn complete(step: ParseStep<Request>) -> Request {
            match step {
                ParseStep::Complete(r) => r,
                other => panic!("expected Complete, got {other:?}"),
            }
        }

        #[test]
        fn byte_at_a_time_matches_one_shot() {
            let mut wire = Vec::new();
            Request::post("/decision", b"sid 1\nchunk 0\n", "text/plain")
                .write_to(&mut wire)
                .unwrap();
            let expect = Request::read_from(&mut Cursor::new(wire.clone()))
                .unwrap()
                .unwrap();
            let mut p = RequestParser::new();
            let mut got = None;
            for (i, b) in wire.iter().enumerate() {
                p.feed(std::slice::from_ref(b));
                match p.next_request() {
                    ParseStep::Complete(r) => {
                        assert_eq!(i, wire.len() - 1, "completed early at byte {i}");
                        got = Some(r.into_owned());
                    }
                    ParseStep::Incomplete => assert!(i < wire.len() - 1),
                    ParseStep::Failed { error, .. } => panic!("failed at byte {i}: {error}"),
                }
            }
            assert_eq!(got.unwrap(), expect);
            assert!(p.is_clean());
        }

        #[test]
        fn pipelined_requests_parse_in_order() {
            let mut wire = Vec::new();
            for k in 0..3 {
                Request::post(
                    &format!("/decision/{k}"),
                    format!("chunk {k}\n").as_bytes(),
                    "text/plain",
                )
                .write_to(&mut wire)
                .unwrap();
            }
            Request::get("/metrics").write_to(&mut wire).unwrap();
            let mut p = RequestParser::new();
            p.feed(&wire);
            for k in 0..3 {
                let r = complete(p.next_request());
                assert_eq!(r.path(), format!("/decision/{k}"));
                assert_eq!(r.body(), format!("chunk {k}\n").as_bytes());
            }
            assert_eq!(complete(p.next_request()).path(), "/metrics");
            assert!(matches!(p.next_request(), ParseStep::Incomplete));
            assert!(p.is_clean());
        }

        #[test]
        fn split_across_body_boundary() {
            let mut wire = Vec::new();
            Request::post("/x", b"0123456789", "text/plain")
                .write_to(&mut wire)
                .unwrap();
            // Split mid-body: head + 4 body bytes, then the rest.
            let cut = wire.len() - 6;
            let mut p = RequestParser::new();
            p.feed(&wire[..cut]);
            assert!(matches!(p.next_request(), ParseStep::Incomplete));
            assert!(!p.is_clean());
            p.feed(&wire[cut..]);
            let r = complete(p.next_request());
            assert_eq!(r.body(), b"0123456789");
        }

        #[test]
        fn body_too_large_is_recoverable() {
            let mut wire =
                format!("POST /big HTTP/1.1\r\ncontent-length: 64\r\n\r\n{}", "b".repeat(64))
                    .into_bytes();
            Request::get("/after").write_to(&mut wire).unwrap();
            let mut p = RequestParser::with_cap(16);
            p.feed(&wire);
            match p.next_request() {
                ParseStep::Failed { error, recoverable } => {
                    assert!(matches!(error, HttpError::BodyTooLarge { len: 64, cap: 16 }));
                    assert!(recoverable);
                }
                other => panic!("{other:?}"),
            }
            // The declared body was skipped; the next request parses.
            assert_eq!(complete(p.next_request()).path(), "/after");
        }

        #[test]
        fn body_too_large_resyncs_across_trickled_body() {
            let head = b"POST /big HTTP/1.1\r\ncontent-length: 64\r\n\r\n";
            let mut p = RequestParser::with_cap(16);
            p.feed(head);
            assert!(matches!(
                p.next_request(),
                ParseStep::Failed { recoverable: true, .. }
            ));
            // Refused body arrives in dribs; parser discards silently.
            for _ in 0..4 {
                p.feed(&[b'b'; 16]);
                if let ParseStep::Complete(r) = p.next_request() {
                    panic!("phantom request {r:?}");
                }
            }
            let mut after = Vec::new();
            Request::get("/after").write_to(&mut after).unwrap();
            p.feed(&after);
            assert_eq!(complete(p.next_request()).path(), "/after");
        }

        #[test]
        fn overlong_line_is_recoverable_and_resyncs() {
            let mut wire = Vec::new();
            wire.extend_from_slice(b"GET /");
            wire.extend_from_slice("x".repeat(2 * MAX_LINE_BYTES).as_bytes());
            wire.extend_from_slice(b" HTTP/1.1\r\nhost: x\r\n\r\n");
            let mut after = Vec::new();
            Request::get("/after").write_to(&mut after).unwrap();
            wire.extend_from_slice(&after);
            let mut p = RequestParser::new();
            p.feed(&wire);
            match p.next_request() {
                ParseStep::Failed { error, recoverable } => {
                    assert!(
                        matches!(error, HttpError::Malformed(ref w) if w.contains("line exceeds")),
                        "{error:?}"
                    );
                    assert!(recoverable);
                }
                other => panic!("{other:?}"),
            }
            // Resynced past the refused head, header and blank line
            // included: the next request is the one that follows it.
            assert_eq!(complete(p.next_request()).path(), "/after");
            assert!(p.is_clean());
        }

        #[test]
        fn runaway_headers_are_recoverable_and_resync_to_blank_line() {
            let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
            // Many sub-cap lines, blank line far beyond the head limit.
            for i in 0..8 {
                wire.extend_from_slice(
                    format!("x-{i}: {}\r\n", "v".repeat(MAX_LINE_BYTES - 64)).as_bytes(),
                );
            }
            wire.extend_from_slice(b"\r\n");
            let mut after = Vec::new();
            Request::get("/after").write_to(&mut after).unwrap();
            wire.extend_from_slice(&after);
            let mut p = RequestParser::new();
            p.feed(&wire);
            match p.next_request() {
                ParseStep::Failed { error, recoverable } => {
                    assert!(
                        matches!(error, HttpError::Malformed(ref w) if w.contains("headers exceed")),
                        "{error:?}"
                    );
                    assert!(recoverable);
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(complete(p.next_request()).path(), "/after");
        }

        #[test]
        fn garbage_request_line_is_terminal() {
            let mut p = RequestParser::new();
            p.feed(b"NOT-HTTP-AT-ALL\r\n\r\n");
            match p.next_request() {
                ParseStep::Failed { error, recoverable } => {
                    assert!(matches!(error, HttpError::Malformed(_)));
                    assert!(!recoverable);
                }
                other => panic!("{other:?}"),
            }
        }

        #[test]
        fn post_without_content_length_is_terminal() {
            let mut p = RequestParser::new();
            p.feed(b"POST /x HTTP/1.1\r\n\r\n");
            match p.next_request() {
                ParseStep::Failed { error, recoverable } => {
                    assert!(
                        matches!(error, HttpError::Malformed(ref w) if w.contains("content-length"))
                    );
                    assert!(!recoverable);
                }
                other => panic!("{other:?}"),
            }
        }

        #[test]
        fn zero_length_body_and_keep_alive_boundary() {
            // A GET (no body) followed immediately by a POST with an empty
            // body: both boundaries are head-only.
            let mut wire = Vec::new();
            Request::get("/a").write_to(&mut wire).unwrap();
            Request::post("/b", b"", "text/plain")
                .write_to(&mut wire)
                .unwrap();
            let mut p = RequestParser::new();
            p.feed(&wire);
            assert_eq!(complete(p.next_request()).path(), "/a");
            let b = complete(p.next_request());
            assert_eq!(b.path(), "/b");
            assert!(b.body().is_empty());
            assert!(p.is_clean());
        }
    }

    /// The parser's behaviour as golden data: for each input, the request
    /// it accepts or the exact error it reports (and whether the
    /// connection survives). The expected values were recorded from the
    /// earlier line-reader parser, so the in-place head parser is held to
    /// that behaviour case by case, through both entry points.
    mod golden {
        use super::super::*;
        use std::io::Cursor;

        enum Expect {
            Accept {
                method: &'static str,
                path: String,
                headers: Vec<(&'static str, String)>,
                body: &'static [u8],
            },
            Reject {
                error: &'static str,
                recoverable: bool,
            },
        }

        fn accept(
            method: &'static str,
            path: &str,
            headers: &[(&'static str, &str)],
            body: &'static [u8],
        ) -> Expect {
            Expect::Accept {
                method,
                path: path.to_string(),
                headers: headers.iter().map(|&(n, v)| (n, v.to_string())).collect(),
                body,
            }
        }

        fn reject(error: &'static str, recoverable: bool) -> Expect {
            Expect::Reject { error, recoverable }
        }

        /// `(name, input, body cap, expected)`.
        fn request_cases() -> Vec<(&'static str, Vec<u8>, usize, Expect)> {
            let cap = MAX_REQUEST_BODY_BYTES;
            let mut cases = vec![
                // The malformed corpus of `tests/http_incremental.rs`.
                (
                    "not http",
                    b"NOT-HTTP-AT-ALL\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: request line 'NOT-HTTP-AT-ALL'", false),
                ),
                (
                    "foreign version",
                    b"GET / SPDY/9\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: version 'SPDY/9'", false),
                ),
                (
                    "post without content-length",
                    b"POST /x HTTP/1.1\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: POST without content-length", false),
                ),
                (
                    "header without colon",
                    b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: header line 'no-colon-here'", false),
                ),
                (
                    "non-numeric content-length",
                    b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: content-length 'banana'", false),
                ),
                (
                    "one-token request line",
                    b"GARBAGE\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: request line 'GARBAGE'", false),
                ),
                (
                    "blank request line",
                    b"\r\nGET / HTTP/1.1\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: request line ''", false),
                ),
                // Header names are lowercased, values kept as sent.
                (
                    "mixed-case header names",
                    b"POST /decision HTTP/1.1\r\nConnection: Keep-Alive\r\nCONTENT-Type: Text/Plain\r\nContent-LENGTH: 5\r\n\r\nhello".to_vec(),
                    cap,
                    accept(
                        "POST",
                        "/decision",
                        &[("connection", "Keep-Alive"), ("content-type", "Text/Plain"), ("content-length", "5")],
                        b"hello",
                    ),
                ),
                (
                    "repeated content-length, first wins",
                    b"POST /x HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 5\r\n\r\nabcde".to_vec(),
                    cap,
                    accept("POST", "/x", &[("content-length", "3"), ("content-length", "5")], b"abc"),
                ),
                (
                    "repeated content-length, bad first",
                    b"POST /x HTTP/1.1\r\ncontent-length: x\r\ncontent-length: 3\r\n\r\nabc".to_vec(),
                    cap,
                    reject("malformed http: content-length 'x'", false),
                ),
                (
                    "cr-cr-lf line ends",
                    b"GET /a HTTP/1.1\r\r\nhost: h\r\r\n\r\r\n".to_vec(),
                    cap,
                    accept("GET", "/a", &[("host", "h")], b""),
                ),
                (
                    "bare lf line ends",
                    b"POST /b HTTP/1.1\nContent-Length: 2\n\nok".to_vec(),
                    cap,
                    accept("POST", "/b", &[("content-length", "2")], b"ok"),
                ),
                (
                    "extra request-line tokens",
                    b"GET /a HTTP/1.1 extra tokens\r\n\r\n".to_vec(),
                    cap,
                    accept("GET", "/a", &[], b""),
                ),
                (
                    "unicode whitespace in the request line",
                    "GET\u{a0}/x\u{2003}HTTP/1.0\r\n\r\n".as_bytes().to_vec(),
                    cap,
                    accept("GET", "/x", &[], b""),
                ),
                (
                    "non-utf8 request line",
                    b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
                    cap,
                    reject("i/o error: stream did not contain valid UTF-8", false),
                ),
                (
                    "non-utf8 header value",
                    b"GET / HTTP/1.1\r\nx-a: \xfe\r\n\r\n".to_vec(),
                    cap,
                    reject("i/o error: stream did not contain valid UTF-8", false),
                ),
                (
                    "non-utf8 body",
                    b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xff\xfe".to_vec(),
                    cap,
                    accept("POST", "/", &[("content-length", "2")], b"\xff\xfe"),
                ),
                (
                    "header whitespace trimmed",
                    b"GET / HTTP/1.1\r\n  X-A \t:\t v 1 \t\r\n: empty-name\r\nx-b:\r\n\r\n".to_vec(),
                    cap,
                    accept("GET", "/", &[("x-a", "v 1"), ("", "empty-name"), ("x-b", "")], b""),
                ),
                (
                    "put without content-length",
                    b"PUT /x HTTP/1.1\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: PUT without content-length", false),
                ),
                (
                    "plus-signed content-length",
                    b"POST /x HTTP/1.1\r\ncontent-length: +3\r\n\r\nabc".to_vec(),
                    cap,
                    accept("POST", "/x", &[("content-length", "+3")], b"abc"),
                ),
                (
                    "get with a body",
                    b"GET /g HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody".to_vec(),
                    cap,
                    accept("GET", "/g", &[("content-length", "4")], b"body"),
                ),
                (
                    "lowercase version",
                    b"GET / http/1.1\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: version 'http/1.1'", false),
                ),
                (
                    "two-token request line",
                    b"GET /\r\n\r\n".to_vec(),
                    cap,
                    reject("malformed http: request line 'GET /'", false),
                ),
                (
                    "body over the cap",
                    b"POST /x HTTP/1.1\r\ncontent-length: 17\r\n\r\n".to_vec(),
                    16,
                    reject("request body of 17 bytes exceeds the 16-byte cap", true),
                ),
                (
                    "body at the cap",
                    b"POST /x HTTP/1.1\r\ncontent-length: 16\r\n\r\n0123456789abcdef".to_vec(),
                    16,
                    accept("POST", "/x", &[("content-length", "16")], b"0123456789abcdef"),
                ),
            ];

            // Two 8005-byte header lines plus a third that brings the
            // accounted block (each line without its CRLF, plus two) to
            // exactly MAX_HEADER_BYTES, or one byte over.
            let big = "v".repeat(7998);
            let block = |last: usize| {
                let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
                for _ in 0..2 {
                    raw.extend_from_slice(format!("x-a: {big}\r\n").as_bytes());
                }
                raw.extend_from_slice(format!("x-b: {}\r\n\r\n", "w".repeat(last)).as_bytes());
                raw
            };
            cases.push((
                "header block one byte over MAX_HEADER_BYTES",
                block(368),
                cap,
                reject("malformed http: headers exceed 16384 bytes", false),
            ));
            let last = "w".repeat(367);
            cases.push((
                "header block of exactly MAX_HEADER_BYTES",
                block(367),
                cap,
                accept(
                    "GET",
                    "/",
                    &[("x-a", &big), ("x-a", &big), ("x-b", &last)],
                    b"",
                ),
            ));

            // A request line `GET /xx.. HTTP/1.1\r\n` with `n` x's. Its raw
            // length is n + 16: 8176 x's fill MAX_LINE_BYTES exactly, 8177
            // exceed it by one (the line parser refuses, the head scan
            // does not fire), and 8192 trip the head scan itself, which
            // resyncs and keeps the connection.
            let long_line =
                |n: usize| format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(n)).into_bytes();
            cases.push((
                "request line of exactly MAX_LINE_BYTES",
                long_line(8176),
                cap,
                accept("GET", &format!("/{}", "x".repeat(8176)), &[], b""),
            ));
            cases.push((
                "request line one byte over MAX_LINE_BYTES",
                long_line(8177),
                cap,
                reject("malformed http: line exceeds 8192 bytes", false),
            ));
            cases.push((
                "request line over the head scan's line cap",
                long_line(8192),
                cap,
                reject("malformed http: line exceeds 8192 bytes", true),
            ));
            cases
        }

        fn check_request(name: &str, got: &Request, expect: &Expect) {
            let Expect::Accept {
                method,
                path,
                headers,
                body,
            } = expect
            else {
                panic!("{name}: accepted {got:?}");
            };
            assert_eq!(got.method(), *method, "{name}");
            assert_eq!(got.path(), path, "{name}");
            let got_headers: Vec<(&str, &str)> = got.headers().collect();
            let want: Vec<(&str, &str)> = headers.iter().map(|(n, v)| (*n, v.as_str())).collect();
            assert_eq!(got_headers, want, "{name}");
            assert_eq!(got.body(), *body, "{name}");
        }

        #[test]
        fn request_parsing_matches_the_golden_table() {
            for (name, input, cap, expect) in request_cases() {
                let mut p = RequestParser::with_cap(cap);
                p.feed(&input);
                match (p.next_request(), &expect) {
                    (ParseStep::Complete(req), _) => check_request(name, &req, &expect),
                    (
                        ParseStep::Failed { error, recoverable },
                        Expect::Reject {
                            error: e,
                            recoverable: r,
                        },
                    ) => {
                        assert_eq!(error.to_string(), *e, "{name}");
                        assert_eq!(recoverable, *r, "{name}");
                    }
                    (other, _) => panic!("{name}: {other:?}"),
                }
                match (
                    Request::read_from_with_cap(&mut Cursor::new(&input), cap),
                    &expect,
                ) {
                    (Ok(Some(req)), _) => check_request(name, &req, &expect),
                    (Err(error), Expect::Reject { error: e, .. }) => {
                        assert_eq!(error.to_string(), *e, "{name} (one-shot)")
                    }
                    (other, _) => panic!("{name} (one-shot): {other:?}"),
                }
            }
        }

        #[test]
        fn response_parsing_matches_the_golden_table() {
            // `(input, Ok((status, content type, body)) or Err(error text))`.
            type Outcome = Result<(u16, &'static str, &'static [u8]), &'static str>;
            let cases: [(&[u8], Outcome); 10] = [
                (
                    b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 2\r\n\r\nok",
                    Ok((200, "text/plain", b"ok")),
                ),
                (
                    b"HTTP/1.1 404\r\nContent-Length: 0\r\n\r\n",
                    Ok((404, "", b"")),
                ),
                (
                    b"HTTP/1.0 503 Service  Unavailable\r\n\r\n",
                    Ok((503, "", b"")),
                ),
                (
                    b"HTTP/1.1 abc OK\r\n\r\n",
                    Err("malformed http: status 'abc'"),
                ),
                (
                    b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n",
                    Err("malformed http: content-length"),
                ),
                (
                    b"HTTP/2 200 OK\r\n\r\n",
                    Err("malformed http: version 'HTTP/2'"),
                ),
                (b"\r\n", Err("malformed http: status line ''")),
                (
                    b"HTTP/1.1  200 OK\r\n\r\n",
                    Err("malformed http: status ''"),
                ),
                (
                    b"HTTP/1.1 200 OK\r\nbad header\r\n\r\n",
                    Err("malformed http: header line 'bad header'"),
                ),
                (
                    b"HTTP/1.1 99999 OK\r\n\r\n",
                    Err("malformed http: status '99999'"),
                ),
            ];
            let seen = |r: Result<Response, HttpError>| match r {
                Ok(resp) => Ok((
                    resp.status,
                    resp.content_type.into_owned(),
                    resp.body.to_vec(),
                )),
                Err(e) => Err(e.to_string()),
            };
            for (input, expect) in cases {
                let expect = expect
                    .map(|(s, ct, body)| (s, ct.to_string(), body.to_vec()))
                    .map_err(str::to_string);
                let one_shot = seen(Response::read_from(&mut Cursor::new(input)));
                assert_eq!(one_shot, expect, "{}", input.escape_ascii());
            }
        }
    }

    /// The framing the one-pass head parser replaced, kept as the oracle of
    /// `framing_differential`: a byte-by-byte scan for the blank line
    /// (`HeadScan`), then a line-by-line parse of the head with a UTF-8
    /// check per line (`parse_head`), then an owned copy of the message,
    /// whose `connection` header is looked up afterwards.
    mod reference {
        use super::super::{
            header_lines, HttpError, RequestLine, Span, HEAD_SCAN_LIMIT, MAX_HEADER_BYTES,
            MAX_LINE_BYTES,
        };
        use std::io::BufRead;

        /// A request as the reference frames it.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Message {
            pub method: String,
            pub path: String,
            pub headers: Vec<(String, String)>,
            pub body: Vec<u8>,
            pub close: bool,
        }

        #[derive(Debug, Clone, Copy)]
        struct Head {
            start: RequestLine,
            headers: Span,
            content_length: Option<Span>,
            len: usize,
        }

        fn next_line(bytes: &[u8], at: usize) -> Result<(&str, usize), HttpError> {
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| at + i + 1);
            let raw = std::str::from_utf8(&bytes[at..end]).map_err(|_| {
                HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                ))
            })?;
            if raw.len() > MAX_LINE_BYTES {
                return Err(HttpError::Malformed(format!(
                    "line exceeds {MAX_LINE_BYTES} bytes"
                )));
            }
            let mut len = raw.len();
            while len > 0 && matches!(raw.as_bytes()[len - 1], b'\r' | b'\n') {
                len -= 1;
            }
            Ok((&raw[..len], end))
        }

        fn request_line(line: &str, at: usize) -> Result<RequestLine, HttpError> {
            let mut parts = line.split_whitespace();
            let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(p), Some(v)) => (m, p, v),
                _ => return Err(HttpError::Malformed(format!("request line '{line}'"))),
            };
            if !version.starts_with("HTTP/1.") {
                return Err(HttpError::Malformed(format!("version '{version}'")));
            }
            Ok(RequestLine {
                method: Span::within(line, method, at),
                path: Span::within(line, path, at),
            })
        }

        fn parse_head(bytes: &mut [u8]) -> Result<Head, HttpError> {
            let (line, mut at) = next_line(bytes, 0)?;
            let start = request_line(line, 0)?;
            let headers_at = at;
            let mut accounted = 0usize;
            let mut content_length = None;
            while at < bytes.len() {
                let line_at = at;
                let (line, next) = next_line(bytes, at)?;
                at = next;
                if line.is_empty() {
                    let headers = Span {
                        start: headers_at,
                        end: line_at,
                    };
                    return Ok(Head {
                        start,
                        headers,
                        content_length,
                        len: at,
                    });
                }
                accounted += line.len() + 2;
                if accounted > MAX_HEADER_BYTES {
                    return Err(HttpError::Malformed(format!(
                        "headers exceed {MAX_HEADER_BYTES} bytes"
                    )));
                }
                let Some((name, value)) = line.split_once(':') else {
                    return Err(HttpError::Malformed(format!("header line '{line}'")));
                };
                if content_length.is_none() && name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = Some(Span::within(line, value.trim(), line_at));
                }
                let name_end = line_at + name.len();
                bytes[line_at..name_end].make_ascii_lowercase();
            }
            Err(HttpError::ConnectionClosed)
        }

        fn request_body_len(bytes: &[u8], head: &Head, cap: usize) -> Result<usize, HttpError> {
            match head.content_length {
                Some(value) => {
                    let value = value.text(bytes);
                    let len: usize = value
                        .parse()
                        .map_err(|_| HttpError::Malformed(format!("content-length '{value}'")))?;
                    if len > cap {
                        return Err(HttpError::BodyTooLarge { len, cap });
                    }
                    Ok(len)
                }
                None => match head.start.method.text(bytes) {
                    method @ ("POST" | "PUT") => Err(HttpError::Malformed(format!(
                        "{method} without content-length"
                    ))),
                    _ => Ok(0),
                },
            }
        }

        /// The owned copy of a framed message, and what the server looked
        /// up in it.
        fn message(buf: &[u8], head: &Head) -> Message {
            let block = head.headers.text(buf);
            let headers: Vec<(String, String)> = header_lines(block)
                .map(|(n, v)| (n.to_string(), v.trim().to_string()))
                .collect();
            let close = headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case("connection"))
                .is_some_and(|(_, v)| v.eq_ignore_ascii_case("close"));
            Message {
                method: head.start.method.text(buf).to_string(),
                path: head.start.path.text(buf).to_string(),
                headers,
                body: buf[head.len..].to_vec(),
                close,
            }
        }

        #[derive(Debug, Clone, Copy)]
        enum Overflow {
            Line,
            Head,
        }

        impl Overflow {
            fn error(self) -> HttpError {
                HttpError::Malformed(match self {
                    Overflow::Line => format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    Overflow::Head => format!("headers exceed {MAX_HEADER_BYTES} bytes"),
                })
            }
        }

        #[derive(Debug, Clone, Copy)]
        struct HeadScan {
            idx: usize,
            line_len: usize,
            all_cr: bool,
        }

        impl HeadScan {
            fn new() -> Self {
                Self {
                    idx: 0,
                    line_len: 0,
                    all_cr: true,
                }
            }

            fn advance(&mut self, fresh: &[u8]) -> Result<Option<usize>, Overflow> {
                for &b in fresh {
                    self.idx += 1;
                    if b == b'\n' {
                        if self.all_cr {
                            return Ok(Some(self.idx));
                        }
                        self.line_len = 0;
                        self.all_cr = true;
                    } else {
                        self.line_len += 1;
                        if b != b'\r' {
                            self.all_cr = false;
                        }
                        if self.line_len > MAX_LINE_BYTES {
                            return Err(Overflow::Line);
                        }
                    }
                    if self.idx > HEAD_SCAN_LIMIT {
                        return Err(Overflow::Head);
                    }
                }
                Ok(None)
            }
        }

        /// The one-shot parser.
        pub fn read_from(r: &mut impl BufRead, cap: usize) -> Result<Option<Message>, HttpError> {
            let mut buf = Vec::new();
            let mut scan = HeadScan::new();
            loop {
                let chunk = r.fill_buf()?;
                if chunk.is_empty() {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    break;
                }
                let seen = scan.idx;
                let found = scan.advance(chunk).map_err(Overflow::error)?;
                let take = found.map_or(chunk.len(), |len| len - seen);
                buf.extend_from_slice(&chunk[..take]);
                r.consume(take);
                if found.is_some() {
                    break;
                }
            }
            let head = parse_head(&mut buf)?;
            let len = request_body_len(&buf, &head, cap)?;
            let start = buf.len();
            buf.resize(start + len, 0);
            let mut got = 0;
            while got < len {
                let n = r.read(&mut buf[start + got..])?;
                if n == 0 {
                    return Err(HttpError::TruncatedBody { expected: len, got });
                }
                got += n;
            }
            Ok(Some(message(&buf, &head)))
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Resync {
            None,
            Body(usize),
            ToBlankLine { all_cr: bool },
        }

        pub enum Step {
            Complete(Message),
            Incomplete,
            Failed { error: HttpError, recoverable: bool },
        }

        /// The incremental parser.
        pub struct Parser {
            buf: Vec<u8>,
            pos: usize,
            scan: HeadScan,
            pending: Option<(Head, usize)>,
            resync: Resync,
            cap: usize,
        }

        impl Parser {
            pub fn new(cap: usize) -> Self {
                Self {
                    buf: Vec::new(),
                    pos: 0,
                    scan: HeadScan::new(),
                    pending: None,
                    resync: Resync::None,
                    cap,
                }
            }

            pub fn feed(&mut self, bytes: &[u8]) {
                self.compact();
                self.buf.extend_from_slice(bytes);
            }

            pub fn buffered(&self) -> usize {
                self.buf.len() - self.pos
            }

            pub fn is_clean(&self) -> bool {
                self.buffered() == 0 && self.resync == Resync::None
            }

            fn compact(&mut self) {
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                } else if self.pos >= 8 * 1024 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
            }

            fn run_resync(&mut self) -> bool {
                match self.resync {
                    Resync::None => true,
                    Resync::Body(remaining) => {
                        let take = remaining.min(self.buffered());
                        self.pos += take;
                        if take == remaining {
                            self.resync = Resync::None;
                            true
                        } else {
                            self.resync = Resync::Body(remaining - take);
                            false
                        }
                    }
                    Resync::ToBlankLine { mut all_cr } => {
                        while self.pos < self.buf.len() {
                            let b = self.buf[self.pos];
                            self.pos += 1;
                            match b {
                                b'\n' if all_cr => {
                                    self.resync = Resync::None;
                                    return true;
                                }
                                b'\n' => all_cr = true,
                                b'\r' => {}
                                _ => all_cr = false,
                            }
                        }
                        self.resync = Resync::ToBlankLine { all_cr };
                        false
                    }
                }
            }

            fn fail_into(&mut self, resync: Resync) {
                self.pos += self.scan.idx;
                self.scan = HeadScan::new();
                self.pending = None;
                self.resync = resync;
                self.compact();
            }

            pub fn next_request(&mut self) -> Step {
                if !self.run_resync() {
                    return Step::Incomplete;
                }
                let (head, total) = match self.pending {
                    Some(pending) => pending,
                    None => {
                        let fresh = &self.buf[self.pos + self.scan.idx..];
                        let head_len = match self.scan.advance(fresh) {
                            Ok(Some(len)) => len,
                            Ok(None) => return Step::Incomplete,
                            Err(overflow) => {
                                let all_cr = self.scan.all_cr;
                                self.fail_into(Resync::ToBlankLine { all_cr });
                                return Step::Failed {
                                    error: overflow.error(),
                                    recoverable: true,
                                };
                            }
                        };
                        let bytes = &mut self.buf[self.pos..self.pos + head_len];
                        let head = match parse_head(bytes) {
                            Ok(head) => head,
                            Err(error) => {
                                return Step::Failed {
                                    error,
                                    recoverable: false,
                                }
                            }
                        };
                        match request_body_len(bytes, &head, self.cap) {
                            Ok(len) => (head, head_len + len),
                            Err(error @ HttpError::BodyTooLarge { len, .. }) => {
                                self.fail_into(Resync::Body(len));
                                return Step::Failed {
                                    error,
                                    recoverable: true,
                                };
                            }
                            Err(error) => {
                                return Step::Failed {
                                    error,
                                    recoverable: false,
                                }
                            }
                        }
                    }
                };
                if self.buffered() < total {
                    self.pending = Some((head, total));
                    return Step::Incomplete;
                }
                // The owned copy each request took.
                let copy = self.buf[self.pos..self.pos + total].to_vec();
                let msg = message(&copy, &head);
                self.pos += total;
                self.scan = HeadScan::new();
                self.pending = None;
                self.compact();
                Step::Complete(msg)
            }
        }
    }

    /// The one-pass framing against the framing it replaced (`reference`),
    /// fed the same byte streams split at random offsets: the same
    /// requests (method, path, headers, body, `connection: close`), the
    /// same errors (text and recoverable flag), and after every step the
    /// same count of bytes still buffered, so every resync skips the same
    /// bytes. The one-shot parsers read the same streams whole, through a
    /// reader whose buffer also splits them.
    mod framing_differential {
        use super::super::*;
        use super::reference;
        use abr_par::{check, SplitMix64};
        use std::io::{BufReader, Cursor};

        const CORPUS: &[&[u8]] = &include!("../tests/corpus/malformed.rs");

        #[derive(Debug, PartialEq, Eq)]
        enum Event {
            Request(reference::Message),
            Incomplete,
            Failed(String, bool),
        }

        fn message(req: &Request) -> reference::Message {
            reference::Message {
                method: req.method().to_string(),
                path: req.path().to_string(),
                headers: req
                    .headers()
                    .map(|(n, v)| (n.to_string(), v.to_string()))
                    .collect(),
                body: req.body().to_vec(),
                close: req.wants_close(),
            }
        }

        /// Every step of the one-pass parser over `wire` fed in the pieces
        /// `cuts` makes, with the bytes left buffered after it, up to an
        /// unrecoverable failure; then whether the parser ends clean.
        fn drive(wire: &[u8], cuts: &[usize], cap: usize) -> (Vec<(Event, usize)>, bool) {
            let mut p = RequestParser::with_cap(cap);
            let mut steps = Vec::new();
            for piece in pieces(wire, cuts) {
                p.feed(piece);
                loop {
                    let (event, done) = match p.next_request() {
                        ParseStep::Complete(req) => (Event::Request(message(&req)), false),
                        ParseStep::Incomplete => (Event::Incomplete, true),
                        ParseStep::Failed { error, recoverable } => {
                            if !recoverable {
                                steps.push((Event::Failed(error.to_string(), false), p.buffered()));
                                return (steps, p.is_clean());
                            }
                            (Event::Failed(error.to_string(), true), false)
                        }
                    };
                    steps.push((event, p.buffered()));
                    if done {
                        break;
                    }
                }
            }
            (steps, p.is_clean())
        }

        /// [`drive`] for the reference parser.
        fn drive_reference(wire: &[u8], cuts: &[usize], cap: usize) -> (Vec<(Event, usize)>, bool) {
            let mut p = reference::Parser::new(cap);
            let mut steps = Vec::new();
            for piece in pieces(wire, cuts) {
                p.feed(piece);
                loop {
                    let (event, done) = match p.next_request() {
                        reference::Step::Complete(msg) => (Event::Request(msg), false),
                        reference::Step::Incomplete => (Event::Incomplete, true),
                        reference::Step::Failed { error, recoverable } => {
                            if !recoverable {
                                steps.push((Event::Failed(error.to_string(), false), p.buffered()));
                                return (steps, p.is_clean());
                            }
                            (Event::Failed(error.to_string(), true), false)
                        }
                    };
                    steps.push((event, p.buffered()));
                    if done {
                        break;
                    }
                }
            }
            (steps, p.is_clean())
        }

        fn pieces<'w>(wire: &'w [u8], cuts: &[usize]) -> impl Iterator<Item = &'w [u8]> + 'w {
            let mut bounds: Vec<usize> = cuts.to_vec();
            bounds.push(wire.len());
            let mut prev = 0;
            bounds.into_iter().map(move |cut| {
                let piece = &wire[prev..cut];
                prev = cut;
                piece
            })
        }

        /// The one-shot parsers' messages over the whole stream, read
        /// through a reader with a `chunk`-byte buffer, up to the first
        /// error or the end.
        fn one_shot(
            wire: &[u8],
            cap: usize,
            chunk: usize,
        ) -> (Vec<reference::Message>, Option<String>) {
            let mut r = BufReader::with_capacity(chunk, Cursor::new(wire));
            let mut msgs = Vec::new();
            loop {
                match Request::read_from_with_cap(&mut r, cap) {
                    Ok(Some(req)) => msgs.push(message(&req)),
                    Ok(None) => return (msgs, None),
                    Err(e) => return (msgs, Some(e.to_string())),
                }
            }
        }

        fn one_shot_reference(
            wire: &[u8],
            cap: usize,
            chunk: usize,
        ) -> (Vec<reference::Message>, Option<String>) {
            let mut r = BufReader::with_capacity(chunk, Cursor::new(wire));
            let mut msgs = Vec::new();
            loop {
                match reference::read_from(&mut r, cap) {
                    Ok(Some(msg)) => msgs.push(msg),
                    Ok(None) => return (msgs, None),
                    Err(e) => return (msgs, Some(e.to_string())),
                }
            }
        }

        /// Both parsers, incremental and one-shot, agree on `wire`.
        fn agree(rng: &mut SplitMix64, wire: &[u8], cap: usize) {
            let cuts = match rng.below(4) {
                // Byte at a time.
                0 if wire.len() <= 4096 => (1..wire.len()).collect(),
                _ => {
                    let mut cuts = rng.vec(0..16, |r| r.below(wire.len().max(1)));
                    cuts.sort_unstable();
                    cuts
                }
            };
            let got = drive(wire, &cuts, cap);
            let want = drive_reference(wire, &cuts, cap);
            assert_eq!(
                got,
                want,
                "stream {:?}, cuts {cuts:?}",
                wire.escape_ascii().to_string()
            );
            let chunk = rng.range(1usize..64) * if rng.next_bool() { 1 } else { 512 };
            let got = one_shot(wire, cap, chunk);
            let want = one_shot_reference(wire, cap, chunk);
            assert_eq!(
                got,
                want,
                "stream {:?}, chunk {chunk}",
                wire.escape_ascii().to_string()
            );
        }

        const EOLS: [&[u8]; 4] = [b"\r\n", b"\n", b"\r\r\n", b"\r\n"];

        fn eol(rng: &mut SplitMix64) -> &'static [u8] {
            EOLS[rng.below(EOLS.len())]
        }

        /// Random case for an ASCII name.
        fn cased(rng: &mut SplitMix64, name: &str) -> Vec<u8> {
            name.bytes()
                .map(|b| {
                    if rng.next_bool() {
                        b.to_ascii_uppercase()
                    } else {
                        b
                    }
                })
                .collect()
        }

        /// Whitespace of every kind `trim` and `split_whitespace` know, and
        /// none.
        const SPACES: [&str; 9] = [
            "", " ", "  ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{85}", "\u{2003}",
        ];

        fn space(rng: &mut SplitMix64) -> &'static [u8] {
            SPACES[rng.below(SPACES.len())].as_bytes()
        }

        /// One request: a random method, path, headers (`content-length`
        /// right, missing, duplicated or garbled, `connection` close or
        /// not, in any case, padded with any whitespace) and body, with
        /// random line ends.
        fn request(rng: &mut SplitMix64, wire: &mut Vec<u8>) {
            let method: &[u8] = [b"GET".as_slice(), b"POST", b"PUT", b"DELETE"][rng.below(4)];
            let body = rng.vec(0..40, |r| {
                if r.below(8) == 0 {
                    r.next_u64() as u8
                } else {
                    r.range(b'a'..=b'z')
                }
            });
            wire.extend_from_slice(space(rng));
            wire.extend_from_slice(method);
            wire.push(b' ');
            wire.extend_from_slice(space(rng));
            wire.extend_from_slice(b"/p");
            wire.extend(rng.vec(0..8, |r| r.range(b'a'..=b'z')));
            wire.extend_from_slice(if rng.below(4) == 0 { space(rng) } else { b" " });
            wire.extend_from_slice(b"HTTP/1.");
            wire.push(b'0' + rng.below(2) as u8);
            wire.extend_from_slice(eol(rng));
            for _ in 0..rng.below(5) {
                let (name, value): (&str, Vec<u8>) = match rng.below(6) {
                    0 => (
                        "connection",
                        if rng.next_bool() {
                            b"close".to_vec()
                        } else {
                            b" keep-alive ".to_vec()
                        },
                    ),
                    1 => ("connection", b" Close\t".to_vec()),
                    2 => (
                        "content-length",
                        rng.range(0usize..50).to_string().into_bytes(),
                    ),
                    3 => (
                        "content-length",
                        [b"x".as_slice(), b"-1", b"+3", b" 4 ", b""][rng.below(5)].to_vec(),
                    ),
                    _ => ("x-h", rng.vec(0..12, |r| r.range(b' '..=b'~'))),
                };
                wire.extend_from_slice(space(rng));
                wire.extend(cased(rng, name));
                wire.extend_from_slice(space(rng));
                wire.push(b':');
                wire.extend_from_slice(space(rng));
                wire.extend_from_slice(&value);
                wire.extend_from_slice(space(rng));
                wire.extend_from_slice(eol(rng));
            }
            if rng.below(4) != 0 {
                wire.extend(cased(rng, "content-length"));
                wire.extend_from_slice(format!(": {}", body.len()).as_bytes());
                wire.extend_from_slice(eol(rng));
            }
            // The blank line: any run of `\r` before its `\n`.
            wire.extend(std::iter::repeat_n(b'\r', rng.below(3)));
            wire.push(b'\n');
            wire.extend_from_slice(&body);
        }

        /// Random edits that land on the bytes framing cares about.
        fn mutate(rng: &mut SplitMix64, wire: &mut Vec<u8>) {
            const BYTES: &[u8] = b"\r\n: \t\x0b0x\xff\xc3\x80A";
            for _ in 0..rng.below(4) {
                if wire.is_empty() {
                    return;
                }
                let at = rng.below(wire.len());
                let b = BYTES[rng.below(BYTES.len())];
                match rng.below(3) {
                    0 => wire[at] = b,
                    1 => wire.insert(at, b),
                    _ => {
                        wire.remove(at);
                    }
                }
            }
        }

        #[test]
        fn pipelined_and_mutated_streams_frame_alike() {
            check(600, |rng| {
                let mut wire = Vec::new();
                for _ in 0..rng.range(1usize..5) {
                    request(rng, &mut wire);
                }
                if rng.next_bool() {
                    mutate(rng, &mut wire);
                }
                let cap = if rng.below(4) == 0 {
                    rng.below(30)
                } else {
                    MAX_REQUEST_BODY_BYTES
                };
                agree(rng, &wire, cap);
            });
        }

        /// Lines and heads at and past their caps, runs of `\r` as long as
        /// a line may be, and a request behind them.
        #[test]
        fn oversized_lines_and_heads_frame_alike() {
            check(150, |rng| {
                let mut wire = Vec::new();
                let fill = |rng: &mut SplitMix64, n: usize| -> Vec<u8> {
                    let b = [b'x', b'\r', b'\xe2'][rng.below(3)];
                    let mut v = vec![b; n];
                    if rng.next_bool() && n > 0 {
                        let at = rng.below(n);
                        v[at] = b'x';
                    }
                    v
                };
                let near = |rng: &mut SplitMix64, n: usize| n + rng.below(24) - 12;
                match rng.below(4) {
                    0 => {
                        // An over-long request line.
                        wire.extend_from_slice(b"GET /");
                        let n = near(rng, MAX_LINE_BYTES - 16);
                        wire.extend(fill(rng, n));
                        wire.extend_from_slice(b" HTTP/1.1");
                        wire.extend_from_slice(eol(rng));
                    }
                    1 => {
                        // A header line about the line cap.
                        wire.extend_from_slice(b"GET / HTTP/1.1\r\n");
                        let n = near(rng, MAX_LINE_BYTES - 4);
                        wire.extend_from_slice(b"x: ");
                        wire.extend(fill(rng, n));
                        wire.extend_from_slice(eol(rng));
                    }
                    2 => {
                        // A header block about the header and head caps.
                        wire.extend_from_slice(b"GET / HTTP/1.1\r\n");
                        let lines = rng.range(2usize..5);
                        let head = MAX_HEADER_BYTES + rng.below(2) * MAX_LINE_BYTES;
                        let each = near(rng, head / lines);
                        for _ in 0..lines {
                            wire.extend_from_slice(b"x-a:");
                            wire.extend(fill(rng, each.min(MAX_LINE_BYTES - 8)));
                            wire.extend_from_slice(eol(rng));
                        }
                    }
                    _ => {
                        // A blank line of `\r`s about the line cap.
                        wire.extend_from_slice(b"GET / HTTP/1.1\r\nx: y\r\n");
                        let n = near(rng, MAX_LINE_BYTES);
                        wire.extend(std::iter::repeat_n(b'\r', n));
                    }
                }
                wire.extend(std::iter::repeat_n(b'\r', rng.below(3)));
                wire.push(b'\n');
                request(rng, &mut wire);
                agree(rng, &wire, MAX_REQUEST_BODY_BYTES);
            });
        }

        /// Caps that meet on one byte: a line past its cap starting where
        /// its cap byte is the head's, give or take a few, or a line whose
        /// `\n` is the head's cap byte, give or take one; then a blank
        /// line or not, and a request.
        #[test]
        fn caps_meeting_on_one_byte_frame_alike() {
            check(120, |rng| {
                let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
                let long = rng.next_bool();
                let target = if long {
                    HEAD_SCAN_LIMIT - MAX_LINE_BYTES + rng.below(7) - 3
                } else {
                    HEAD_SCAN_LIMIT - rng.range(2usize..40)
                };
                // Header lines of at most 4,000 bytes up to `target`.
                while wire.len() < target {
                    let room = target - wire.len();
                    let n = if room >= 8004 {
                        4000
                    } else if room > 4000 {
                        room / 2
                    } else {
                        room
                    };
                    wire.extend_from_slice(b"x:");
                    wire.extend(std::iter::repeat_n(b'v', n - 4));
                    wire.extend_from_slice(b"\r\n");
                }
                let fill = [b'x', b'\r'][rng.below(2)];
                if long {
                    let n = MAX_LINE_BYTES + rng.range(1usize..10);
                    wire.extend(std::iter::repeat_n(fill, n));
                } else {
                    let n = HEAD_SCAN_LIMIT - target + rng.below(3) - 1;
                    wire.push(b'x');
                    wire.extend(std::iter::repeat_n(fill, n - 1));
                }
                wire.extend_from_slice([b"\n".as_slice(), b"\r\n", b"x\n", b"\r"][rng.below(4)]);
                wire.extend_from_slice([b"\n".as_slice(), b"\r\n", b"x\r\n\r\n"][rng.below(3)]);
                request(rng, &mut wire);
                agree(rng, &wire, MAX_REQUEST_BODY_BYTES);
            });
        }

        /// The malformed corpus, behind a good request or not, and bodies
        /// over a small cap, with a request behind them.
        #[test]
        fn corpus_and_oversized_bodies_frame_alike() {
            check(300, |rng| {
                let mut wire = Vec::new();
                if rng.next_bool() {
                    request(rng, &mut wire);
                }
                let cap = if rng.next_bool() {
                    wire.extend_from_slice(CORPUS[rng.below(CORPUS.len())]);
                    MAX_REQUEST_BODY_BYTES
                } else {
                    let len = rng.range(0usize..80);
                    wire.extend_from_slice(
                        format!("POST /big HTTP/1.1\r\ncontent-length: {len}\r\n\r\n").as_bytes(),
                    );
                    wire.extend(std::iter::repeat_n(b'b', len));
                    rng.range(0usize..40)
                };
                request(rng, &mut wire);
                agree(rng, &wire, cap);
            });
        }
    }

    mod fuzz {
        use super::super::*;
        use abr_par::check;
        use std::io::Cursor;

        /// Arbitrary bytes must never panic the request parser — only
        /// return an error, a request, or clean EOF.
        #[test]
        fn request_parser_never_panics() {
            check(256, |rng| {
                let bytes = rng.vec(0..512, |r| r.next_u64() as u8);
                let _ = Request::read_from(&mut Cursor::new(bytes));
            });
        }

        /// Same for the response parser.
        #[test]
        fn response_parser_never_panics() {
            check(256, |rng| {
                let bytes = rng.vec(0..512, |r| r.next_u64() as u8);
                let _ = Response::read_from(&mut Cursor::new(bytes));
            });
        }

        /// Structured-ish garbage: a valid prefix with random tail.
        #[test]
        fn response_parser_survives_corrupted_frames() {
            check(256, |rng| {
                let status = rng.range(0u32..2000);
                let len_decl = rng.range(0usize..64);
                let body = rng.vec(0..64, |r| r.next_u64() as u8);
                let mut raw = format!("HTTP/1.1 {status} X\r\ncontent-length: {len_decl}\r\n\r\n")
                    .into_bytes();
                raw.extend_from_slice(&body);
                // A malformed or truncated frame may fail; one that parses
                // carries the declared body.
                if let Ok(resp) = Response::read_from(&mut Cursor::new(raw)) {
                    assert_eq!(resp.body.len(), len_decl);
                }
            });
        }

        /// The server must answer *something* well-formed for any path.
        #[test]
        fn server_handles_arbitrary_paths() {
            let server = ChunkServer::new(abr_video::envivio_video());
            check(256, |rng| {
                // Up to 80 printable ASCII characters.
                let path = rng.vec(0..81, |r| r.range(b' '..=b'~'));
                let path = String::from_utf8(path).unwrap();
                let resp = server.handle(&Request::get(&path));
                assert!(resp.status == 200 || resp.status == 404);
                let mut buf = Vec::new();
                resp.write_to(&mut buf).unwrap();
                let back = Response::read_from(&mut Cursor::new(buf)).unwrap();
                assert_eq!(back.status, resp.status);
            });
        }
    }
}
