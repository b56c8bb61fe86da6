//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! The build environment has no async runtime and no HTTP crate, so this
//! module hand-rolls exactly the subset the BFC service needs: request
//! parsing with `Content-Length` bodies, response serialisation, and
//! keep-alive. It is deliberately *not* a general server — no chunked
//! transfer, no continuations, no pipelining beyond what a `BufReader`
//! loop gives for free.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on an accepted request body. A full-gradient fig.10 job is
/// well under 1 MiB of JSON; 16 MiB leaves generous headroom while keeping
/// a hostile `Content-Length` from ballooning the process. The same bound
/// caps a job's operands: `JobRequest::from_json` refuses a shape whose
/// X + ∇Y + ∇W at f32 exceed it.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// How long a connection may sit idle mid-request before the worker gives
/// up on it. Keeps a stalled client from pinning an accept-loop worker.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string included).
    pub path: String,
    /// Header name/value pairs; names lower-cased for lookup.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one read attempt on a connection.
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The bytes on the wire were not a parseable HTTP request (or the
    /// body exceeded [`MAX_BODY_BYTES`] / the read timed out mid-frame).
    Malformed(String),
}

/// Read one HTTP request off `reader`. Returns [`ReadOutcome::Closed`] on
/// a clean EOF before any bytes of a new request.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> ReadOutcome {
    let mut start_line = String::new();
    match reader.read_line(&mut start_line) {
        Ok(0) => return ReadOutcome::Closed,
        Ok(_) => {}
        Err(e) => return ReadOutcome::Malformed(format!("read error on request line: {e}")),
    }
    let start = start_line.trim_end();
    let mut parts = start.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p),
        _ => return ReadOutcome::Malformed(format!("bad request line: {start:?}")),
    };

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return ReadOutcome::Malformed("eof inside headers".into()),
            Ok(_) => {}
            Err(e) => return ReadOutcome::Malformed(format!("read error in headers: {e}")),
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
        if headers.len() > 256 {
            return ReadOutcome::Malformed("too many headers".into());
        }
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        if let Err(e) = reader.read_exact(&mut body) {
            return ReadOutcome::Malformed(format!("short body: {e}"));
        }
    }

    ReadOutcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// An HTTP response under construction.
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialise and write the response in one `write_all` of head and
    /// body together. `close` controls the `Connection` header (and should
    /// match the server's intent to drop the stream afterwards). Writing
    /// the head and the body separately stalls a keep-alive connection:
    /// under Nagle's algorithm the body waits for the peer's delayed ACK of
    /// the head, tens of milliseconds on Linux.
    pub fn write_to<W: Write>(&self, stream: &mut W, close: bool) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.status,
            reason,
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        let mut message = head.into_bytes();
        message.extend_from_slice(&self.body);
        stream.write_all(&message)?;
        stream.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn roundtrip(raw: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let t = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let out = read_request(&mut reader);
        t.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let out = roundtrip(b"POST /v1/bfc HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        match out {
            ReadOutcome::Request(r) => {
                assert_eq!(r.method, "POST");
                assert_eq!(r.path, "/v1/bfc");
                assert_eq!(r.body, b"abcd");
                assert!(!r.wants_close());
            }
            _ => panic!("expected a parsed request"),
        }
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(roundtrip(b""), ReadOutcome::Closed));
    }

    #[test]
    fn garbage_start_line_is_malformed() {
        assert!(matches!(
            roundtrip(b"NOT-HTTP\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn oversized_content_length_is_refused_without_allocating() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(roundtrip(raw.as_bytes()), ReadOutcome::Malformed(_)));
    }

    /// A writer that accepts everything and counts the `write` calls.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_written_in_one_write() {
        let resp = Response::json(429, "{\"kind\":\"queue-full\"}".to_string())
            .with_header("Retry-After", "1");
        let mut w = CountingWriter::default();
        resp.write_to(&mut w, false).unwrap();
        assert_eq!(w.writes, 1, "head and body must leave in one write");
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("\r\nRetry-After: 1\r\n"), "{text}");
        let tail = "Connection: keep-alive\r\n\r\n{\"kind\":\"queue-full\"}";
        assert!(text.ends_with(tail), "{text}");
    }

    #[test]
    fn connection_close_header_is_honoured() {
        let out = roundtrip(b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n");
        match out {
            ReadOutcome::Request(r) => assert!(r.wants_close()),
            _ => panic!("expected a parsed request"),
        }
    }
}
