//! In-process `mube-serve` nodes: configuration, start, stop, and the
//! calls the benchmark makes against them.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mube_serve::{FsyncPolicy, ServeConfig, Server, ServerHandle};

use crate::client::{call, Reply};
use crate::stats::MetricsSnap;

/// Server workers: the host has two CPUs and the single client thread
/// waits for each reply, so two workers never queue.
const WORKERS: usize = 2;

/// Long enough that no timer lands inside a run: heartbeats, idle-read
/// timeouts and the watchdog stay silent, so every run does the same work.
const NEVER: Duration = Duration::from_secs(3_600);

/// Journal compaction cadence for the durable workload: about eight
/// snapshots per 30 s run (an op appends 24 records), in one op of some
/// 340, so the median op is one without a snapshot. A snapshot rewrites
/// the whole state and fsyncs it, and an fsync's latency is the shared
/// disk's (see [`JOURNAL_FSYNC`]), so compaction is kept this rare.
pub const SNAPSHOT_EVERY: u64 = 8_192;

/// How a node persists and replicates.
pub enum Role {
    /// In memory only.
    Memory,
    /// Journal (see [`JOURNAL_FSYNC`]); semi-sync leader when `repl` is set.
    Leader { dir: PathBuf, repl: bool },
    /// Journal, following `leader`'s replication port.
    Follower { dir: PathBuf, leader: SocketAddr },
}

/// Journals write every record through to the file but never fsync it.
/// An fsync's latency is the shared disk's, not the program's: it moves
/// with other tenants' I/O from run to run, and at 24 records per op it
/// would put that noise into every op. Everything else on the write path
/// — framing, checksums, appends, compaction, frame shipping and
/// semi-sync acks — still runs on every record.
pub const JOURNAL_FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// The benchmark's server configuration: two workers, a per-solve
/// evaluation cap, and every background timer pinned off.
pub fn config(max_solve_evaluations: u64, role: &Role) -> ServeConfig {
    let mut c = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        max_body_bytes: 64 << 20,
        read_timeout: NEVER,
        max_sessions: 4_096,
        idle_ttl: NEVER,
        max_solve_evaluations,
        max_solve_millis: 600_000,
        heartbeat_interval: NEVER,
        repl_sync_timeout: Duration::from_secs(120),
        scrub_interval: Duration::ZERO,
        fsync: JOURNAL_FSYNC,
        snapshot_every: SNAPSHOT_EVERY,
        ..ServeConfig::default()
    };
    match role {
        Role::Memory => {}
        Role::Leader { dir, repl } => {
            c.data_dir = Some(dir.display().to_string());
            if *repl {
                c.repl_addr = Some("127.0.0.1:0".to_string());
                c.repl_sync = true;
            }
        }
        Role::Follower { dir, leader } => {
            c.data_dir = Some(dir.display().to_string());
            c.follow = Some(leader.to_string());
        }
    }
    c
}

/// One running server.
pub struct Node {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Node {
    /// Binds (replaying the journal, if any) and starts serving.
    pub fn start(config: ServeConfig) -> Result<Node, String> {
        let (handle, join) = Server::spawn(config).map_err(|e| format!("server start: {e}"))?;
        Ok(Node { handle, join })
    }

    /// The HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The replication address (leaders only).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.handle.repl_addr()
    }

    /// Sends one request.
    pub fn call(&self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        call(self.addr(), method, path, body)
    }

    /// Sends one request and insists on a 2xx.
    pub fn ok(&self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let r = self.call(method, path, body)?;
        if r.ok() {
            Ok(r)
        } else {
            Err(format!("{method} {path} -> {}: {}", r.status, r.body))
        }
    }

    /// The counters `GET /metrics` would serve, read without a request so
    /// the read itself is not counted.
    pub fn metrics(&self) -> MetricsSnap {
        MetricsSnap::parse(&self.handle.stats().to_json()).expect("own metrics document parses")
    }

    /// `(lsn, digest)` from `GET /healthz` (journaled nodes only).
    pub fn lsn_digest(&self) -> Result<(u64, String), String> {
        let j = self.ok("GET", "/healthz", "")?.json()?;
        let lsn = j.get("lsn").and_then(mube_serve::Json::as_u64);
        let digest = j.get("digest").and_then(mube_serve::Json::as_str);
        match (lsn, digest) {
            (Some(l), Some(d)) => Ok((l, d.to_string())),
            _ => Err("healthz has no lsn/digest".to_string()),
        }
    }

    /// Graceful shutdown; waits for the drain.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))
    }
}

/// A follower is ready once it has applied the leader's tip and agrees on
/// the state digest. Polls its `/healthz`.
pub fn wait_caught_up(follower: &Node, tip: &(u64, String)) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if follower.lsn_digest().ok().as_ref() == Some(tip) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("follower never reached lsn {}", tip.0));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Copies a (flat) data directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_type().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(())
}
