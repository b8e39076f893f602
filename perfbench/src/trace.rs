//! Client-side request spans for the traced run.
//!
//! Every request the ops send goes through [`Tracer::ok`]. Untraced, it
//! only forwards. Traced, it times the request from the client, reads the
//! server's own counters before and after it (the `/metrics` document,
//! taken in-process so the read is not itself a request) for the
//! handler's and the solver's share, and keeps the request body so the
//! report can time the server's JSON reader on it after the run.

use std::time::{Duration, Instant};

use crate::client::Reply;
use crate::node::Node;

/// One traced request.
#[derive(Debug, Clone)]
pub struct RequestSpan {
    /// Op the request belongs to.
    pub op: u64,
    /// `METHOD /path` with ids masked.
    pub endpoint: String,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// Client-observed latency.
    pub client: Duration,
    /// Server-side request time (`request_latency.sum_micros` delta).
    pub handler_us: u64,
    /// Solver time inside it (`solve_latency.sum_micros` delta).
    pub solve_us: u64,
    /// The request body.
    pub body: String,
    /// Journal records the request appended.
    pub appends: u64,
    /// Journal snapshots (compactions) it triggered.
    pub snapshots: u64,
    /// Replication frames shipped while it ran.
    pub frames: u64,
    /// Response status.
    pub status: u16,
}

/// Forwards requests, recording [`RequestSpan`]s when enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// The op requests are attributed to.
    pub op: u64,
    /// Recorded spans, in order.
    pub requests: Vec<RequestSpan>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            requests: Vec::new(),
        }
    }

    /// Whether requests are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sends one request and insists on a 2xx.
    pub fn ok(
        &mut self,
        node: &Node,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Reply, String> {
        if !self.enabled {
            return node.ok(method, path, body);
        }
        let before = node.metrics();
        let t0 = Instant::now();
        let reply = node.call(method, path, body)?;
        let client = t0.elapsed();
        // The server counts a request just after writing its response;
        // wait for that so the delta covers exactly this request.
        let deadline = Instant::now() + Duration::from_secs(5);
        let after = loop {
            let m = node.metrics();
            if m.requests > before.requests {
                break m;
            }
            if Instant::now() > deadline {
                return Err(format!("{method} {path}: server never counted the request"));
            }
            std::thread::yield_now();
        };
        let d = after.since(&before);
        self.requests.push(RequestSpan {
            op: self.op,
            endpoint: endpoint(method, path),
            start: t0 - self.epoch,
            client,
            handler_us: d.request_micros,
            solve_us: d.solve_micros,
            body: body.to_string(),
            appends: d.journal_appends,
            snapshots: d.journal_snapshots,
            frames: d.frames_shipped,
            status: reply.status,
        });
        if reply.ok() {
            Ok(reply)
        } else {
            Err(format!(
                "{method} {path} -> {}: {}",
                reply.status, reply.body
            ))
        }
    }
}

/// `METHOD /path` with numeric path segments masked as `{id}`.
pub fn endpoint(method: &str, path: &str) -> String {
    let masked: Vec<&str> = path
        .split('/')
        .map(|s| {
            if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
                "{id}"
            } else {
                s
            }
        })
        .collect();
    format!("{method} {}", masked.join("/"))
}
