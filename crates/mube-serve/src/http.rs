//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The server speaks just enough HTTP for a JSON API: one request per
//! connection (`Connection: close`), methods + paths + headers +
//! `Content-Length` bodies. Robustness over features: header and body sizes
//! are capped, reads are bounded by socket timeouts set by the caller, and
//! every malformed input maps to a structured [`HttpError`] (which the
//! server renders as a 4xx) instead of a panic or a hang.

use std::io::{Read, Write};

/// Upper bound on the request line + headers, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of header lines. A head can fit thousands of
/// tiny headers under [`MAX_HEAD_BYTES`]; capping the count bounds the
/// per-request allocation independent of header sizes.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client; not normalized).
    pub method: String,
    /// The path, without query string.
    pub path: String,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (possibly empty).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body decoded as UTF-8.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; the reason phrase to report.
    Malformed(&'static str),
    /// Request line + headers exceeded `MAX_HEAD_BYTES` or `MAX_HEADERS`
    /// (rendered as 431).
    HeadTooLarge,
    /// Declared `Content-Length` exceeded the server's body cap.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Socket error or timeout mid-request.
    Io(std::io::Error),
    /// The peer closed before sending anything (not worth a response).
    EmptyConnection,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds cap {limit}")
            }
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::EmptyConnection => write!(f, "connection closed before request"),
        }
    }
}

/// Reads one request from `stream`. `max_body` caps the accepted
/// `Content-Length`. The caller is responsible for socket timeouts.
pub fn read_request<S: Read>(stream: &mut S, max_body: usize) -> Result<Request, HttpError> {
    // Accumulate until the blank line ending the head. Reading one chunk at
    // a time is fine here: requests are small and connections short-lived.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        // deadline: the caller wraps the stream in a deadline-bounded
        // reader (server::DeadlineStream) or sets socket timeouts, so this
        // read cannot block past the request deadline.
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::EmptyConnection);
            }
            return Err(HttpError::Malformed("connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    // Strip the query string; the API is body-driven.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    // Body bytes already read past the head, then the remainder.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        // deadline: same contract as the head read — the caller's
        // deadline-bounded stream caps the total time here.
        let n = stream.read(&mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` JSON response.
pub fn write_response<S: Write>(stream: &mut S, status: u16, body: &str) -> std::io::Result<()> {
    write_response_with(stream, status, &[], body)
}

/// Like [`write_response`], with extra `(name, value)` headers interleaved
/// before the blank line (e.g. `Retry-After` on 429/503).
pub fn write_response_with<S: Write>(
    stream: &mut S,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        status,
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"seed\": 1}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_utf8().unwrap(), "{\"seed\": 1}");
    }

    #[test]
    fn parses_get_without_body_and_strips_query() {
        let req = parse("GET /metrics?pretty=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(
            err,
            HttpError::BodyTooLarge {
                declared: 9999,
                limit: 1024
            }
        ));
    }

    #[test]
    fn rejects_oversized_head() {
        let huge = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(32 * 1024));
        assert!(matches!(parse(&huge), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("x-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse(""), Err(HttpError::EmptyConnection)));
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET / SMTP/1.0\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbad header line\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        // Truncated body: declared 10 bytes, got 2.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").is_err());
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "{\"error\":{}}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("content-length: 12\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"error\":{}}"), "{text}");
    }

    #[test]
    fn response_with_extra_headers() {
        let mut out = Vec::new();
        write_response_with(&mut out, 429, &[("retry-after", "2")], "{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        // Extra headers land inside the head, before the blank line.
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("retry-after").unwrap() < head_end);
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
