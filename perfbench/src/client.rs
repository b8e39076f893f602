//! A minimal HTTP/1.1 client for the server's one-request-per-connection
//! protocol (every response carries `connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mube_serve::Json;

/// One response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON).
    pub body: String,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.body).map_err(|e| format!("bad JSON in {}: {e}", self.status))
    }
}

/// Sends one request and reads the whole response.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|e| format!("{method} {path}: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}
