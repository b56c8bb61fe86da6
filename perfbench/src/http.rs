//! A keep-alive HTTP/1.1 client for the open-loop generator: one
//! persistent connection, `Content-Length` framing, and a reconnect when
//! the server closes the connection between requests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct KeepAlive {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened after the first.
    pub reconnects: u64,
    opened: u64,
}

/// Largest body the client accepts.
const MAX_BODY: usize = 64 << 20;

impl KeepAlive {
    pub fn new(addr: &str) -> KeepAlive {
        KeepAlive {
            addr: addr.to_string(),
            conn: None,
            reconnects: 0,
            opened: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        if self.opened > 0 {
            self.reconnects += 1;
        }
        self.opened += 1;
        self.conn = Some(BufReader::new(stream));
        Ok(())
    }

    /// POST `body` to `path`. A reused connection that turns out to be
    /// closed before any response byte arrives is reopened and the
    /// request sent once more; any other failure is returned.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut head = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        head.extend_from_slice(body);
        for attempt in 0..2 {
            let reused = self.conn.is_some();
            if !reused {
                self.connect()?;
            }
            match self.exchange(&head) {
                Ok(resp) => return Ok(resp),
                Err(Exchange::ClosedBeforeReply) if reused && attempt == 0 => {
                    self.conn = None;
                }
                Err(Exchange::ClosedBeforeReply) => {
                    self.conn = None;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before the reply",
                    ));
                }
                Err(Exchange::Io(e)) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        Err(std::io::Error::other("no reply after reconnecting"))
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Response, Exchange> {
        let conn = self.conn.as_mut().ok_or(Exchange::ClosedBeforeReply)?;
        // One write for head and body, so the request leaves in one segment.
        if conn.get_mut().write_all(request).is_err() {
            return Err(Exchange::ClosedBeforeReply);
        }
        let mut status_line = String::new();
        match conn.read_line(&mut status_line) {
            Ok(0) => return Err(Exchange::ClosedBeforeReply),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                return Err(Exchange::ClosedBeforeReply)
            }
            Err(e) => return Err(Exchange::Io(e)),
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Exchange::Io(bad(format!("bad status line {status_line:?}"))))?;
        let mut length = None;
        let mut close = false;
        loop {
            let mut line = String::new();
            if conn.read_line(&mut line).map_err(Exchange::Io)? == 0 {
                return Err(Exchange::Io(bad("headers cut short".into())));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim(), v.trim());
                if k.eq_ignore_ascii_case("content-length") {
                    let n: usize = v
                        .parse()
                        .map_err(|_| Exchange::Io(bad(format!("bad Content-Length {v:?}"))))?;
                    if n > MAX_BODY {
                        return Err(Exchange::Io(bad(format!("body of {n} bytes is too large"))));
                    }
                    length = Some(n);
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.eq_ignore_ascii_case("close");
                }
            }
        }
        let body = match length {
            Some(n) => {
                let mut body = vec![0u8; n];
                conn.read_exact(&mut body).map_err(Exchange::Io)?;
                body
            }
            // No length: the body runs to the end of the connection.
            None => {
                let mut body = Vec::new();
                conn.take(MAX_BODY as u64)
                    .read_to_end(&mut body)
                    .map_err(Exchange::Io)?;
                close = true;
                body
            }
        };
        if close {
            self.conn = None;
        }
        Ok(Response { status, body })
    }
}

enum Exchange {
    ClosedBeforeReply,
    Io(std::io::Error),
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Read one request (head + Content-Length body) from `r`.
    fn read_request(r: &mut BufReader<TcpStream>) -> Option<Vec<u8>> {
        let mut len = 0usize;
        let mut first = true;
        loop {
            let mut line = String::new();
            if r.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if first {
                assert!(line.starts_with("POST /echo HTTP/1.1"), "{line:?}");
                first = false;
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l.strip_prefix("Content-Length: ") {
                len = v.parse().ok()?;
            }
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).ok()?;
        Some(body)
    }

    #[test]
    fn frames_by_content_length_and_reconnects_after_a_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: two keep-alive replies, head and body sent
            // separately, then the server drops the connection unasked.
            let (s, _) = listener.accept().expect("accept 1");
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            for _ in 0..2 {
                let body = read_request(&mut r).expect("request");
                let reply = [b"got:".as_slice(), &body].concat();
                write!(
                    w,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                    reply.len()
                )
                .expect("head");
                w.flush().expect("flush");
                w.write_all(&reply).expect("body");
            }
            drop((r, w));
            // Connection 2: one reply that announces the close.
            let (s, _) = listener.accept().expect("accept 2");
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            read_request(&mut r).expect("request");
            w.write_all(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}").expect("reply");
            // Connection 3: served after the announced close.
            let (s, _) = listener.accept().expect("accept 3");
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            read_request(&mut r).expect("request");
            w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .expect("reply");
        });
        let mut c = KeepAlive::new(&addr);
        let a = c.post("/echo", b"one").expect("first");
        assert_eq!((a.status, a.body.as_slice()), (200, b"got:one".as_slice()));
        let b = c.post("/echo", b"two-two").expect("second");
        assert_eq!(b.body, b"got:two-two");
        assert_eq!(c.reconnects, 0);
        // The server closed connection 1: the client reopens and resends.
        let d = c.post("/echo", b"three").expect("third");
        assert_eq!((d.status, d.body.as_slice()), (429, b"{}".as_slice()));
        assert_eq!(c.reconnects, 1);
        // `Connection: close` was honoured: the next request opens anew.
        let e = c.post("/echo", b"four").expect("fourth");
        assert_eq!((e.status, e.body.len()), (200, 0));
        assert_eq!(c.reconnects, 2);
        server.join().expect("server thread");
    }
}
