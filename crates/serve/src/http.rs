//! Hand-rolled HTTP/1.1: request parsing, response writing (fixed-length
//! and chunked), and a small blocking client.
//!
//! The sanctioned dependency set has no HTTP crate, so this implements the
//! subset the audit service needs: `GET`/`POST` with `Content-Length`
//! bodies, persistent connections (`Connection: close` honored), chunked
//! transfer encoding for streamed batch responses, and hard limits on
//! header and body sizes. The [`client`] side decodes both body framings
//! and is shared by the integration tests and the `load_gen` benchmark
//! binary.

use std::fmt;
use std::io::{BufRead, Read, Write};

use crate::json::Json;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: usize = 16 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// A failure while reading a request or response from the wire.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed (including read timeouts).
    Io(std::io::Error),
    /// The peer sent something that is not HTTP/1.1 as we speak it.
    Malformed(String),
    /// The declared body exceeds the configured limit.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// An `Expect` header other than `100-continue` (answered 417).
    ExpectationFailed(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::ExpectationFailed(value) => write!(f, "unsupported expectation {value:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed request: method, path, headers, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the peer, not by us).
    pub method: String,
    /// The request target, e.g. `/audit`.
    pub path: String,
    /// Header name/value pairs in wire order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The raw body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to yes unless the peer asked to close.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one CRLF- (or LF-) terminated line, rejecting lines past
/// [`MAX_LINE`]. `Ok(None)` is clean EOF *before any byte*.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let mut limited = reader.take((MAX_LINE + 1) as u64);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(HttpError::Malformed(if buf.len() > MAX_LINE {
            "line too long".into()
        } else {
            "truncated line".into()
        }));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))
}

/// Reads one request from the connection. `Ok(None)` means the peer closed
/// cleanly between requests (normal keep-alive teardown).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {line:?}"))),
    };
    // HTTP/1.1 only: a 1.0 peer would neither expect our default
    // keep-alive nor understand chunked batch responses.
    if version != "HTTP/1.1" {
        return Err(HttpError::Malformed(format!("unsupported {version:?}")));
    }
    let mut headers = Vec::new();
    loop {
        let header =
            read_line(reader)?.ok_or_else(|| HttpError::Malformed("eof inside headers".into()))?;
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header {header:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
    };
    if let Some(len) = request.header("content-length") {
        let declared: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
        if declared > max_body {
            return Err(HttpError::TooLarge {
                declared,
                limit: max_body,
            });
        }
        let mut body = vec![0u8; declared];
        reader.read_exact(&mut body)?;
        request.body = body;
    } else if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }
    Ok(Some(request))
}

/// Where an in-flight [`RequestParser`] is in the current request.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseState {
    /// Reading the request line and headers.
    Head,
    /// Reading a `Content-Length` body.
    Body { remaining: usize },
    /// Reading a chunk-size line of a chunked body.
    ChunkSize,
    /// Reading chunk data.
    ChunkData { remaining: usize },
    /// Reading the CRLF that terminates a chunk's data.
    ChunkDataEnd,
    /// Reading (and discarding) trailer lines after the `0` chunk.
    Trailers,
}

/// Incremental, resumable HTTP/1.1 request parsing for nonblocking sockets.
///
/// Feed raw bytes with [`push`](Self::push), then call
/// [`advance`](Self::advance): `Ok(None)` means more input is needed,
/// `Ok(Some(request))` yields one complete request and leaves any pipelined
/// leftover bytes buffered for the next one. Unlike [`read_request`], this
/// parser also decodes `Transfer-Encoding: chunked` bodies, and can hand
/// body bytes out *as they decode* ([`stream_body`](Self::stream_body) +
/// [`take_body`](Self::take_body)) so large uploads never need a full-size
/// buffer.
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
    state: ParseState,
    max_body: usize,
    /// Request line once parsed: method, path.
    request_line: Option<(String, String)>,
    headers: Vec<(String, String)>,
    /// The parsed head (empty body) once headers are complete.
    head: Option<Request>,
    /// Total decoded chunked-body bytes (for the body limit).
    decoded_total: usize,
    /// When true, body bytes go to `stream_out` instead of `head.body`.
    streaming: bool,
    stream_out: Vec<u8>,
    /// The head asked for `100 Continue` and nobody has taken it yet.
    continue_pending: bool,
}

impl RequestParser {
    /// A parser enforcing the given body-size limit.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            state: ParseState::Head,
            max_body,
            request_line: None,
            headers: Vec::new(),
            head: None,
            decoded_total: 0,
            streaming: false,
            stream_out: Vec::new(),
            continue_pending: false,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// No request is in flight and no bytes are buffered: the connection is
    /// genuinely idle (safe to reap on an idle timeout).
    pub fn is_idle(&self) -> bool {
        self.state == ParseState::Head && self.request_line.is_none() && self.pos >= self.buf.len()
    }

    /// Headers of the current request are fully parsed (body may not be).
    pub fn head_received(&self) -> bool {
        self.head.is_some()
    }

    /// The parsed head (empty body) once headers are complete and before
    /// the request is returned — lets the caller pick streaming mode.
    pub fn head(&self) -> Option<&Request> {
        self.head.as_ref()
    }

    /// Switches the in-flight request to streaming: decoded body bytes are
    /// handed out via [`take_body`](Self::take_body) instead of being
    /// accumulated, and the eventual [`advance`](Self::advance) completion
    /// carries an empty `body`. Any bytes already accumulated move to the
    /// stream buffer so nothing is lost.
    pub fn stream_body(&mut self) {
        if !self.streaming {
            self.streaming = true;
            if let Some(head) = self.head.as_mut() {
                self.stream_out.append(&mut head.body);
            }
        }
    }

    /// Whether the current request's head carried `Expect: 100-continue`
    /// and passed the body-size check, so the client may be holding its
    /// body back until it sees `100 Continue`. True at most once per
    /// request, and never once the request is complete.
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.continue_pending)
    }

    /// Drains decoded body bytes accumulated in streaming mode.
    pub fn take_body(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stream_out)
    }

    /// Pulls the next complete line (without its terminator) out of the
    /// buffer, enforcing [`MAX_LINE`]. `Ok(None)` = need more input.
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        let avail = &self.buf[self.pos..];
        let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
            if avail.len() > MAX_LINE {
                return Err(HttpError::Malformed("line too long".into()));
            }
            return Ok(None);
        };
        if nl > MAX_LINE {
            return Err(HttpError::Malformed("line too long".into()));
        }
        let mut line = avail[..nl].to_vec();
        self.pos += nl + 1;
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))
    }

    /// Consumes up to `limit` raw body bytes, appending them to the right
    /// sink. Returns how many were taken.
    fn take_body_bytes(&mut self, limit: usize) -> usize {
        let n = limit.min(self.buf.len() - self.pos);
        if n > 0 {
            let range = self.pos..self.pos + n;
            if self.streaming {
                self.stream_out.extend_from_slice(&self.buf[range]);
            } else if let Some(head) = self.head.as_mut() {
                head.body.extend_from_slice(&self.buf[range]);
            }
            self.pos += n;
        }
        n
    }

    /// Headers are complete: decide the body framing.
    fn begin_body(&mut self) -> Result<(), HttpError> {
        let head = self.head.as_ref().expect("head set before begin_body");
        if let Some(len) = head.header("content-length") {
            let declared: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
            if declared > self.max_body {
                return Err(HttpError::TooLarge {
                    declared,
                    limit: self.max_body,
                });
            }
            self.state = ParseState::Body {
                remaining: declared,
            };
        } else if let Some(te) = head.header("transfer-encoding") {
            if !te.eq_ignore_ascii_case("chunked") {
                return Err(HttpError::Malformed(format!(
                    "unsupported transfer-encoding {te:?}"
                )));
            }
            self.decoded_total = 0;
            self.state = ParseState::ChunkSize;
        } else {
            self.state = ParseState::Body { remaining: 0 };
        }
        match head.header("expect") {
            None => {}
            Some(value) if value.eq_ignore_ascii_case("100-continue") => {
                self.continue_pending = true;
            }
            Some(value) => return Err(HttpError::ExpectationFailed(value.to_owned())),
        }
        Ok(())
    }

    /// The current request is fully parsed: reset for the next one and
    /// return it (body empty in streaming mode).
    fn complete(&mut self) -> Request {
        let mut request = self.head.take().expect("complete requires a head");
        if self.streaming {
            request.body = Vec::new();
        }
        self.state = ParseState::Head;
        self.request_line = None;
        self.headers = Vec::new();
        self.decoded_total = 0;
        self.streaming = false;
        self.continue_pending = false;
        request
    }

    /// Makes as much progress as the buffered input allows. `Ok(None)`
    /// means more bytes are needed; `Ok(Some(_))` yields one complete
    /// request (pipelined leftovers stay buffered). Errors are fatal to the
    /// connection: the caller should respond (400/413) and close.
    pub fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        let result = self.advance_inner();
        // Compact consumed bytes once per call (not per internal step) so
        // large bodies don't turn the buffer into an O(n^2) shift.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        result
    }

    fn advance_inner(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match self.state {
                ParseState::Head => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if self.request_line.is_none() {
                        let mut parts = line.split(' ');
                        let (method, path, version) =
                            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                                (Some(m), Some(p), Some(v), None)
                                    if !m.is_empty() && p.starts_with('/') =>
                                {
                                    (m, p, v)
                                }
                                _ => {
                                    return Err(HttpError::Malformed(format!(
                                        "bad request line {line:?}"
                                    )))
                                }
                            };
                        if version != "HTTP/1.1" {
                            return Err(HttpError::Malformed(format!("unsupported {version:?}")));
                        }
                        self.request_line = Some((method.to_owned(), path.to_owned()));
                    } else if line.is_empty() {
                        let (method, path) =
                            self.request_line.clone().expect("request line parsed");
                        self.head = Some(Request {
                            method,
                            path,
                            headers: std::mem::take(&mut self.headers),
                            body: Vec::new(),
                        });
                        self.begin_body()?;
                        if self.state == (ParseState::Body { remaining: 0 }) {
                            return Ok(Some(self.complete()));
                        }
                    } else {
                        if self.headers.len() >= MAX_HEADERS {
                            return Err(HttpError::Malformed("too many headers".into()));
                        }
                        let (name, value) = line
                            .split_once(':')
                            .ok_or_else(|| HttpError::Malformed(format!("bad header {line:?}")))?;
                        self.headers
                            .push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
                    }
                }
                ParseState::Body { remaining } => {
                    let taken = self.take_body_bytes(remaining);
                    let remaining = remaining - taken;
                    self.state = ParseState::Body { remaining };
                    if remaining == 0 {
                        return Ok(Some(self.complete()));
                    }
                    return Ok(None);
                }
                ParseState::ChunkSize => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    // Chunk extensions (after ';') are tolerated, ignored.
                    let digits = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(digits, 16)
                        .map_err(|_| HttpError::Malformed(format!("bad chunk size {line:?}")))?;
                    if size == 0 {
                        self.state = ParseState::Trailers;
                        continue;
                    }
                    self.decoded_total = self.decoded_total.saturating_add(size);
                    if self.decoded_total > self.max_body {
                        return Err(HttpError::TooLarge {
                            declared: self.decoded_total,
                            limit: self.max_body,
                        });
                    }
                    self.state = ParseState::ChunkData { remaining: size };
                }
                ParseState::ChunkData { remaining } => {
                    let taken = self.take_body_bytes(remaining);
                    let remaining = remaining - taken;
                    self.state = ParseState::ChunkData { remaining };
                    if remaining > 0 {
                        return Ok(None);
                    }
                    self.state = ParseState::ChunkDataEnd;
                }
                ParseState::ChunkDataEnd => {
                    let avail = &self.buf[self.pos..];
                    match avail {
                        [] => return Ok(None),
                        [b'\n', ..] => {
                            self.pos += 1;
                            self.state = ParseState::ChunkSize;
                        }
                        [b'\r'] => return Ok(None),
                        [b'\r', b'\n', ..] => {
                            self.pos += 2;
                            self.state = ParseState::ChunkSize;
                        }
                        _ => {
                            return Err(HttpError::Malformed(
                                "missing CRLF after chunk data".into(),
                            ))
                        }
                    }
                }
                ParseState::Trailers => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if line.is_empty() {
                        return Ok(Some(self.complete()));
                    }
                    // Trailer fields are read and discarded.
                }
            }
        }
    }
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(writer, status, content_type, body, keep_alive, &[])
}

/// [`write_response`] plus extra response headers (name, value). Values must
/// already be header-safe — the server only passes sanitized trace ids.
pub fn write_response_with<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Writes a JSON response.
pub fn write_json<W: Write>(
    writer: &mut W,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_json_with(writer, status, body, keep_alive, &[])
}

/// [`write_json`] plus extra response headers.
pub fn write_json_with<W: Write>(
    writer: &mut W,
    status: u16,
    body: &Json,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    write_response_with(
        writer,
        status,
        "application/json",
        body.to_string().as_bytes(),
        keep_alive,
        extra_headers,
    )
}

/// A chunked-transfer response in progress: headers go out at construction,
/// each [`chunk`](Self::chunk) is flushed immediately (that is the point —
/// batch lines reach the client as they complete), and
/// [`finish`](Self::finish) writes the terminating chunk.
pub struct ChunkedWriter<W: Write> {
    writer: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts a chunked response.
    pub fn new(
        writer: W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        Self::new_with(writer, status, content_type, keep_alive, &[])
    }

    /// [`new`](Self::new) plus extra response headers.
    pub fn new_with(
        mut writer: W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<Self> {
        write!(
            writer,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
            status_text(status),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in extra_headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.flush()?;
        Ok(Self { writer })
    }

    /// Sends one chunk (skipped when empty — an empty chunk would terminate
    /// the stream) and flushes it to the socket.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.writer, "{:x}\r\n", data.len())?;
        self.writer.write_all(data)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()
    }

    /// Terminates the stream.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

/// A small blocking HTTP/1.1 client speaking exactly this server's dialect —
/// shared by the integration tests and the `load_gen` benchmark binary.
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    use std::time::Duration;

    use super::HttpError;
    use crate::json::Json;

    /// A persistent connection to the server.
    pub struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    /// A decoded response.
    #[derive(Debug, Clone)]
    pub struct Response {
        /// The status code.
        pub status: u16,
        /// The full (de-chunked) body.
        pub body: String,
        /// Response headers in wire order, names lowercased.
        pub headers: Vec<(String, String)>,
    }

    impl Response {
        /// The first header with this (case-insensitive) name.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
        }

        /// Parses the body as one JSON document.
        pub fn json(&self) -> Result<Json, HttpError> {
            Json::parse(&self.body).map_err(|e| HttpError::Malformed(format!("response body: {e}")))
        }

        /// Splits an `application/x-ndjson` body into parsed lines.
        pub fn ndjson(&self) -> Result<Vec<Json>, HttpError> {
            self.body
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| {
                    Json::parse(l)
                        .map_err(|e| HttpError::Malformed(format!("ndjson line {l:?}: {e}")))
                })
                .collect()
        }
    }

    impl Client {
        /// Connects with a read timeout (`None` = block forever).
        pub fn connect<A: ToSocketAddrs>(
            addr: A,
            read_timeout: Option<Duration>,
        ) -> std::io::Result<Self> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(read_timeout)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            Ok(Self {
                writer: stream,
                reader,
            })
        }

        /// Sends `GET path` and reads the response.
        pub fn get(&mut self, path: &str) -> Result<Response, HttpError> {
            write!(self.writer, "GET {path} HTTP/1.1\r\nHost: wcbk\r\n\r\n")?;
            self.writer.flush()?;
            self.read_response()
        }

        /// Sends `POST path` with a JSON body and reads the response.
        pub fn post(&mut self, path: &str, body: &str) -> Result<Response, HttpError> {
            write!(
                self.writer,
                "POST {path} HTTP/1.1\r\nHost: wcbk\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )?;
            self.writer.write_all(body.as_bytes())?;
            self.writer.flush()?;
            self.read_response()
        }

        /// Sends raw bytes as-is (for malformed-request tests).
        pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.writer.write_all(bytes)?;
            self.writer.flush()
        }

        /// Reads one response after [`send_raw`](Self::send_raw); an
        /// interim `1xx` response is returned on its own, body-less.
        pub fn read_response(&mut self) -> Result<Response, HttpError> {
            let status_line = read_line(&mut self.reader)?
                .ok_or_else(|| HttpError::Malformed("eof before status line".into()))?;
            let mut parts = status_line.split(' ');
            let status: u16 = match (parts.next(), parts.next()) {
                (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad status {status_line:?}")))?,
                _ => {
                    return Err(HttpError::Malformed(format!(
                        "bad status line {status_line:?}"
                    )))
                }
            };
            let mut content_length: Option<usize> = None;
            let mut chunked = false;
            let mut headers = Vec::new();
            loop {
                let header = read_line(&mut self.reader)?
                    .ok_or_else(|| HttpError::Malformed("eof inside headers".into()))?;
                if header.is_empty() {
                    break;
                }
                let Some((name, value)) = header.split_once(':') else {
                    continue;
                };
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = Some(value.parse().map_err(|_| {
                        HttpError::Malformed(format!("bad content-length {value:?}"))
                    })?);
                } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
                headers.push((name, value.to_owned()));
            }
            let mut body = Vec::new();
            if (100..200).contains(&status) {
                // An interim response (`100 Continue`) never has a body.
            } else if chunked {
                loop {
                    let size_line = read_line(&mut self.reader)?
                        .ok_or_else(|| HttpError::Malformed("eof inside chunk size".into()))?;
                    let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                        HttpError::Malformed(format!("bad chunk size {size_line:?}"))
                    })?;
                    let mut chunk = vec![0u8; size + 2]; // data + CRLF
                    self.reader.read_exact(&mut chunk)?;
                    if size == 0 {
                        break;
                    }
                    chunk.truncate(size);
                    body.extend_from_slice(&chunk);
                }
            } else if let Some(len) = content_length {
                body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
            } else {
                self.reader.read_to_end(&mut body)?;
            }
            let body = String::from_utf8(body)
                .map_err(|_| HttpError::Malformed("non-UTF-8 response body".into()))?;
            Ok(Response {
                status,
                body,
                headers,
            })
        }
    }

    /// Reads one CRLF/LF-terminated line from the response stream.
    fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
        let mut buf = Vec::new();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        String::from_utf8(buf)
            .map(Some)
            .map_err(|_| HttpError::Malformed("non-UTF-8 line".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let req =
            parse(b"POST /audit HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n{\"a\"")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.keep_alive());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap().unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            &b"NOT_HTTP\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.0\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: x\r\n", // EOF inside headers
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{:?} should be malformed",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(
            err,
            HttpError::TooLarge {
                declared: 9999,
                limit: 1024
            }
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, HttpError::Io(_)));
    }

    #[test]
    fn response_writers_produce_parseable_http() {
        let mut out = Vec::new();
        write_json(
            &mut out,
            200,
            &Json::object(vec![("ok", true.into())]),
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");

        let mut out = Vec::new();
        let mut chunked = ChunkedWriter::new(&mut out, 200, "application/x-ndjson", false).unwrap();
        chunked.chunk(b"{\"i\":0}\n").unwrap();
        chunked.chunk(b"").unwrap(); // no accidental terminator
        chunked.chunk(b"{\"i\":1}\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("8\r\n{\"i\":0}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }

    /// Feeds `raw` one request at a time with the input split at `cut`,
    /// asserting the parser needs more bytes until the full input arrives.
    fn parse_split(raw: &[u8], cut: usize, max_body: usize) -> Request {
        let mut parser = RequestParser::new(max_body);
        parser.push(&raw[..cut]);
        // Anything short of the full request must be Incomplete, never Err.
        if cut < raw.len() {
            assert!(
                parser.advance().unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        parser.push(&raw[cut..]);
        let req = parser.advance().unwrap().expect("complete request");
        assert!(parser.is_idle(), "no leftover bytes after a single request");
        req
    }

    #[test]
    fn incremental_parser_handles_every_split_point() {
        let raw = b"POST /audit HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 9\r\n\r\n{\"k\":3}\r\n";
        for cut in 0..=raw.len() {
            let req = parse_split(raw, cut, 1024);
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/audit");
            assert_eq!(req.body, b"{\"k\":3}\r\n");
        }
    }

    #[test]
    fn incremental_parser_decodes_chunked_at_every_split_point() {
        let raw = b"POST /tables HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nab,c\r\n6\r\n\nd,e,f\r\n0\r\n\r\n";
        for cut in 0..=raw.len() {
            let req = parse_split(raw, cut, 1024);
            assert_eq!(req.body, b"ab,c\nd,e,f");
        }
    }

    #[test]
    fn incremental_parser_preserves_pipelined_requests() {
        let mut parser = RequestParser::new(1024);
        parser.push(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n");
        let first = parser.advance().unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(!parser.is_idle(), "second request still buffered");
        let second = parser.advance().unwrap().unwrap();
        assert_eq!(second.path, "/stats");
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_rejects_oversized_declared_body_at_header_time() {
        let mut parser = RequestParser::new(64);
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(matches!(
            parser.advance(),
            Err(HttpError::TooLarge { declared: 9999, .. })
        ));
    }

    #[test]
    fn incremental_parser_rejects_oversized_chunked_mid_stream() {
        let mut parser = RequestParser::new(8);
        parser.push(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n6\r\nghijkl\r\n",
        );
        assert!(matches!(
            parser.advance(),
            Err(HttpError::TooLarge { declared: 12, .. })
        ));
    }

    #[test]
    fn incremental_parser_rejects_garbage() {
        for raw in [
            &b"NOT_HTTP\r\n\r\n"[..],
            b"GET /x HTTP/1.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX",
        ] {
            let mut parser = RequestParser::new(1024);
            parser.push(raw);
            assert!(
                parser.advance().is_err(),
                "{:?} should be rejected",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn streaming_mode_hands_body_bytes_out_incrementally() {
        let mut parser = RequestParser::new(1024);
        parser.push(b"POST /tables HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(parser.advance().unwrap().is_none());
        assert!(parser.head_received());
        assert_eq!(parser.head().unwrap().path, "/tables");
        parser.stream_body();
        parser.push(b"3\r\na,b\r\n");
        assert!(parser.advance().unwrap().is_none());
        assert_eq!(parser.take_body(), b"a,b");
        parser.push(b"4\r\n\n1,2\r\n0\r\n\r\n");
        let done = parser.advance().unwrap().unwrap();
        assert!(done.body.is_empty(), "streamed body is not re-buffered");
        assert_eq!(parser.take_body(), b"\n1,2");
    }

    #[test]
    fn streaming_mode_recovers_bytes_already_buffered() {
        let mut parser = RequestParser::new(1024);
        parser.push(b"POST /tables HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc");
        assert!(parser.advance().unwrap().is_none());
        parser.stream_body();
        assert_eq!(parser.take_body(), b"abc");
        parser.push(b"defgh");
        assert!(parser.advance().unwrap().unwrap().body.is_empty());
        assert_eq!(parser.take_body(), b"defgh");
    }

    #[test]
    fn expect_continue_is_offered_once_and_other_expectations_fail() {
        let mut parser = RequestParser::new(64);
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nExpect: 100-Continue\r\n\r\n");
        assert!(parser.advance().unwrap().is_none());
        assert!(parser.take_continue());
        assert!(!parser.take_continue(), "offered once per request");
        parser.push(b"abcGET /y HTTP/1.1\r\n\r\n");
        assert_eq!(parser.advance().unwrap().unwrap().body, b"abc");
        assert!(parser.advance().unwrap().is_some());
        assert!(!parser.take_continue());

        // A body that arrives with its head needs no invitation.
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nExpect: 100-continue\r\n\r\na");
        assert!(parser.advance().unwrap().is_some());
        assert!(!parser.take_continue());

        // The size check comes first; any other expectation is refused.
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 99\r\nExpect: 100-continue\r\n\r\n");
        assert!(matches!(parser.advance(), Err(HttpError::TooLarge { .. })));
        let mut parser = RequestParser::new(64);
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nExpect: 200-ok\r\n\r\na");
        assert!(matches!(
            parser.advance(),
            Err(HttpError::ExpectationFailed(value)) if value == "200-ok"
        ));
    }

    #[test]
    fn status_texts_cover_served_codes() {
        for code in [200u16, 400, 404, 405, 413, 417, 500, 503] {
            assert_ne!(status_text(code), "Unknown", "{code}");
        }
        assert_eq!(status_text(418), "Unknown");
    }
}
