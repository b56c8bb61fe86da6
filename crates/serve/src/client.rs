//! A small blocking HTTP client for the BFC service — enough for the
//! load generator, the CI smoke test and the e2e suite, with no ambition
//! beyond that (one request per connection, JSON bodies only).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use winrs_json::Json;

use crate::protocol::JobRequest;

/// A parsed HTTP reply.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header in seconds, when the server sent one.
    pub retry_after: Option<u64>,
    /// Parsed JSON body.
    pub body: Json,
}

impl Reply {
    /// True for any 2xx status.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Serialise one `Connection: close` request with a JSON body and send
/// it in a single `write_all`: a head written apart from its body would
/// wait under Nagle's algorithm for the server's delayed ACK.
fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    path: &str,
    host: &str,
    body: &str,
) -> std::io::Result<()> {
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Blocking client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:8077"`).
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            // Generous: a cold fig.10 batch behind a long queue still
            // answers well inside this.
            timeout: Duration::from_secs(120),
        }
    }

    /// Override the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Submit a BFC job (`POST /v1/bfc`).
    pub fn post_job(&self, job: &JobRequest) -> Result<Reply, String> {
        self.request("POST", "/v1/bfc", Some(&job.to_json().to_document()))
    }

    /// Fetch a GET endpoint (`/healthz`, `/v1/stats`).
    pub fn get(&self, path: &str) -> Result<Reply, String> {
        self.request("GET", path, None)
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| format!("set timeout: {e}"))?;
        let mut write_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;

        write_request(
            &mut write_half,
            method,
            path,
            &self.addr,
            body.unwrap_or(""),
        )
        .map_err(|e| format!("send request: {e}"))?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| format!("read status line: {e}"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;

        let mut retry_after = None;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("read headers: {e}"))?;
            let line = line.trim_end();
            if n == 0 || line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let k = k.trim().to_ascii_lowercase();
                let v = v.trim();
                if k == "content-length" {
                    content_length = v.parse().unwrap_or(0);
                } else if k == "retry-after" {
                    retry_after = v.parse().ok();
                }
            }
        }

        let mut body = vec![0u8; content_length];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        let text = String::from_utf8(body).map_err(|e| format!("body not UTF-8: {e}"))?;
        let body = Json::parse(&text).map_err(|e| format!("body not JSON ({e}): {text:?}"))?;
        Ok(Reply {
            status,
            retry_after,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWriter;

    #[test]
    fn request_is_written_in_one_write() {
        let mut w = CountingWriter::default();
        write_request(&mut w, "POST", "/v1/bfc", "127.0.0.1:9", "{\"n\":1}").unwrap();
        assert_eq!(w.writes, 1, "head and body must leave in one write");
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(
            text.starts_with("POST /v1/bfc HTTP/1.1\r\nHost: 127.0.0.1:9\r\n"),
            "{text}"
        );
        let tail = "Content-Length: 7\r\nConnection: close\r\n\r\n{\"n\":1}";
        assert!(text.ends_with(tail), "{text}");
    }
}
