//! A minimal HTTP/1.1 layer over `std::net`: just enough protocol for the
//! job API — request parsing with bounded header/body sizes, JSON
//! responses, `Connection: close` semantics — and a tiny blocking client
//! for tests and smoke gates. No async runtime: the workspace builds
//! offline and dependency-free, and a simulation job takes seconds to
//! minutes, so thread-per-connection is the right amount of machinery.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on request header bytes (request line + headers).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on request body bytes (a job spec is < 1 KB; this leaves
/// headroom for future batch submissions without letting a client OOM
/// the daemon).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Per-connection socket read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Decoded body (empty when none was sent).
    pub body: String,
}

/// A protocol-level rejection: HTTP status plus a human-readable reason,
/// serialized into the standard error JSON body.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Response status code.
    pub status: u16,
    /// One-line explanation returned to the client.
    pub message: String,
}

impl HttpError {
    /// Convenience constructor.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reads and parses one request from `stream`.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| HttpError::new(500, format!("set_read_timeout: {e}")))?;
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    let mut header_bytes = reader
        .read_line(&mut line)
        .map_err(|e| HttpError::new(400, format!("cannot read request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "request line has no HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            505,
            format!("unsupported version {version}"),
        ));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: usize = 0;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| HttpError::new(400, format!("cannot read header: {e}")))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-headers"));
        }
        header_bytes += n;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::new(431, "request headers too large"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::new(400, "bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::new(400, format!("body shorter than Content-Length: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| HttpError::new(400, "body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a JSON response (closing the connection afterwards is the
/// caller's business; every response advertises `Connection: close`).
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A response as seen by the blocking test/smoke client.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lower-cased header (name, value) pairs.
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
}

impl Response {
    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Blocking one-shot HTTP client: connects, sends, reads to EOF. Used by
/// the integration tests and the CI smoke gate; not exposed to job code.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Response {
        status,
        headers,
        body: payload.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Spawns a one-request server, sends it `raw`, and returns what the
    /// server parsed.
    fn round_trip(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.flush().unwrap();
            // Half-close: a request cut short reads as end of stream at
            // once instead of waiting out `READ_TIMEOUT`.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            // Keep the read side open until the server has parsed.
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn);
        drop(conn);
        client.join().unwrap();
        parsed
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body_and_lowercase_method() {
        let req = round_trip("get /v1/health HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_protocol_garbage() {
        assert_eq!(round_trip("\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(round_trip("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(round_trip("GET / SMTP/3\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            round_trip("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            round_trip("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn rejects_oversized_payloads() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(round_trip(&huge).unwrap_err().status, 413);
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "x-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(600)
        );
        assert_eq!(round_trip(&many_headers).unwrap_err().status, 431);
    }

    #[test]
    fn client_and_write_json_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap();
            assert_eq!(req.method, "POST");
            write_json(
                &mut conn,
                202,
                &[("x-dx100-cache", "miss")],
                "{\"ok\":true}",
            )
            .unwrap();
        });
        let resp = request(&addr, "POST", "/v1/jobs", Some("{}")).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.body, "{\"ok\":true}");
        assert_eq!(resp.header("x-dx100-cache"), Some("miss"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
    }
}
