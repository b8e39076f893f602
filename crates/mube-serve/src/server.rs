//! The HTTP session server: configuration, routing, handlers, lifecycle.
//!
//! One acceptor thread hands connections to a [`WorkerPool`]; each worker
//! reads a request, routes it, and answers with JSON. Sessions live in the
//! [`Store`]; a solve locks its session's mutex for the duration, so
//! same-session requests serialize while different sessions run in
//! parallel across workers.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] flips the draining
//! flag (mutating endpoints start answering 503) and wakes the acceptor,
//! which stops accepting and drains the pool — every request already
//! accepted, including in-flight solves, completes before `run` returns.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_audit::Analyzer;
use mube_core::catalog;
use mube_core::constraints::Constraints;
use mube_core::explain;
use mube_core::jsonw::JsonBuf;
use mube_core::matchop::MatchOperator;
use mube_core::problem::Problem;
use mube_core::qefs::default_qefs;
use mube_core::session::Session;
use mube_core::source::Universe;
use mube_core::MubeError;
use mube_exec::{
    BreakerConfig, DataSourceBackend, Executor, FaultSpec, HealthRegistry, Query, RetryPolicy,
    SpanBackend, VirtualClock,
};
use mube_match::{ClusterMatcher, JaccardNGram, SimilarityCache};
use mube_opt::{CancelToken, SolverChoice};

use crate::http::{self, HttpError, Request};
use crate::json::Json;
use crate::metrics::{Metrics, ServerStats};
use crate::persist::{Event, FsyncPolicy, Journal, SolutionRecord};
use crate::pool::WorkerPool;
use crate::repl::{self, FollowerState, ReplHub, ROLE_FOLLOWER, ROLE_LEADER};
use crate::store::{SessionEntry, Store, StoreError};

/// Server configuration. [`ServeConfig::default`] is suitable for tests
/// and local use (ephemeral port, 4 workers).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7207` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Request body cap in bytes; larger declared bodies get a 413.
    pub max_body_bytes: usize,
    /// Socket read timeout (a stalled client gets a 408).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Live-session cap; at the cap, idle sessions are evicted first and
    /// creation is refused (429) when nothing is idle.
    pub max_sessions: usize,
    /// Sessions untouched this long are eligible for eviction.
    pub idle_ttl: Duration,
    /// Per-solve budget: the objective-evaluation cap of every solver,
    /// portfolio members included.
    pub max_solve_evaluations: u64,
    /// Watchdog wall-clock ceiling per solve, in milliseconds. Every solve
    /// is deadline-bounded by this; a request's `time_budget_ms` can only
    /// shorten it. A cut-short solve still answers 200 with the best
    /// incumbent found, flagged `timed_out`.
    pub max_solve_millis: u64,
    /// Directory for the durable session journal; `None` keeps sessions
    /// in memory only (the pre-persistence behavior).
    pub data_dir: Option<String>,
    /// When journal appends reach stable storage (see
    /// [`FsyncPolicy`]). Ignored without `data_dir`.
    pub fsync: FsyncPolicy,
    /// Compact the journal into a snapshot every this many tail records.
    pub snapshot_every: u64,
    /// Run as a replication follower of this leader address (requires
    /// `data_dir`): apply its WAL stream, serve reads, refuse writes with
    /// a 409 + leader hint until promoted.
    pub follow: Option<String>,
    /// Serve the WAL replication stream to followers on this address
    /// (requires `data_dir`).
    pub repl_addr: Option<String>,
    /// Semi-sync replication: a mutating request is not acknowledged
    /// until a follower has durably applied its journal frame (or the
    /// response degrades to a 503 after `repl_sync_timeout`).
    pub repl_sync: bool,
    /// How long a semi-sync response waits for a follower ack.
    pub repl_sync_timeout: Duration,
    /// A follower self-promotes after the leader has been silent this
    /// long. Zero (the default) means promotion is manual-only
    /// (`POST /admin/promote`).
    pub promote_timeout: Duration,
    /// Leader heartbeat cadence on idle replication connections.
    pub heartbeat_interval: Duration,
    /// Admission control: when this many jobs are already waiting in the
    /// worker queue, new connections are shed with a 503 + `Retry-After`
    /// before they consume a worker. Zero disables shedding.
    pub queue_high_water: usize,
    /// Total wall-clock budget for reading one request (head + body). A
    /// slowloris trickling bytes cannot hold a worker past this.
    pub request_deadline: Duration,
    /// Background-scrub cadence: re-read the on-disk journal against the
    /// served state digest this often (requires `data_dir`). Zero
    /// disables the scrubber. A failed scrub fences the node read-only.
    pub scrub_interval: Duration,
    /// Quarantine retention: keep the newest this many
    /// `quarantine-N.wal` evidence files, prune the rest.
    pub quarantine_keep: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_sessions: 64,
            idle_ttl: Duration::from_secs(15 * 60),
            max_solve_evaluations: 20_000,
            max_solve_millis: 30_000,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every: 256,
            follow: None,
            repl_addr: None,
            repl_sync: false,
            repl_sync_timeout: Duration::from_secs(5),
            promote_timeout: Duration::ZERO,
            heartbeat_interval: Duration::from_millis(500),
            queue_high_water: 128,
            request_deadline: Duration::from_secs(15),
            scrub_interval: Duration::from_secs(60),
            quarantine_keep: crate::persist::DEFAULT_QUARANTINE_KEEP,
        }
    }
}

/// Background-scrubber counters, updated by the scrub thread and read by
/// `/metrics` / `/healthz`.
#[derive(Debug, Default)]
pub(crate) struct ScrubState {
    /// Completed scrub passes.
    pub(crate) runs: AtomicU64,
    /// Passes that found corruption or a digest mismatch.
    pub(crate) failures: AtomicU64,
    /// LSN covered by the last completed pass.
    pub(crate) last_lsn: AtomicU64,
    /// What the last failed pass found (`None` while healthy).
    pub(crate) last_error: std::sync::Mutex<Option<String>>,
}

/// Shared state behind every worker: config, store, metrics, drain flag,
/// and — when replicated — the role byte and the replication endpoints.
pub(crate) struct ServerState {
    pub(crate) config: ServeConfig,
    pub(crate) store: Store,
    pub(crate) metrics: Metrics,
    pub(crate) draining: AtomicBool,
    /// The pool's panic counter (workers lost to job panics, respawned).
    pub(crate) worker_panics: Arc<AtomicU64>,
    /// The durable session journal, when `--data-dir` is configured.
    pub(crate) journal: Option<Journal>,
    /// This node's replication role (leader/follower/candidate).
    pub(crate) role: AtomicU8,
    /// Fan-out point for committed WAL frames, when `--repl-addr` is set.
    pub(crate) repl_hub: Option<Arc<ReplHub>>,
    /// Follower-side replication state, when `--follow` is set.
    pub(crate) follower: Option<Arc<FollowerState>>,
    /// The replication thread's handle, so `/admin/resync` can join the
    /// old incarnation before spawning a fresh one.
    pub(crate) follower_thread: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The bound replication listener address, when `--repl-addr` is set.
    pub(crate) repl_bound: Option<SocketAddr>,
    /// Background-scrubber status (meaningful only with a journal).
    pub(crate) scrub: ScrubState,
    /// Set by a failed scrub: the node stops accepting mutations (503)
    /// until an operator repairs the data dir or resyncs the replica.
    pub(crate) read_only: AtomicBool,
}

impl ServerState {
    fn stats(&self) -> ServerStats {
        let scrub = self.journal.as_ref().map(|_| crate::metrics::ScrubStats {
            runs: self.scrub.runs.load(Ordering::SeqCst),
            failures: self.scrub.failures.load(Ordering::SeqCst),
            last_lsn: self.scrub.last_lsn.load(Ordering::SeqCst),
            last_error: self
                .scrub
                .last_error
                .lock()
                .expect("scrub lock poisoned")
                .clone(),
        });
        self.metrics.snapshot(
            self.store.sessions_len() as u64,
            self.worker_panics.load(Ordering::SeqCst),
            mube_opt::member_panics_total(),
            self.journal.as_ref().map(Journal::stats),
            repl::repl_stats(self),
            scrub,
            self.read_only.load(Ordering::SeqCst),
        )
    }

    /// Appends to the journal if one is configured, publishing the
    /// committed frame to any connected followers. Append failures are
    /// logged, not fatal: the server keeps serving from memory (the same
    /// availability-over-durability stance as the quarantine path).
    fn journal_append(&self, event: Event) {
        if let Some(j) = &self.journal {
            match j.append_frame(event) {
                Ok((_, frame)) => {
                    if let Some(hub) = &self.repl_hub {
                        hub.publish(&frame);
                    }
                }
                Err(e) => eprintln!("mube-serve: journal append failed: {e}"),
            }
        }
    }

    /// Refuses (413 `record_too_large`) an event the journal could not
    /// frame. Handlers call it before changing any state, so a write they
    /// acknowledge always replays and replicates.
    fn check_journalable(&self, event: &Event) -> Result<(), ApiError> {
        if self.journal.is_none() || event.fits_frame() {
            return Ok(());
        }
        Err(ApiError::new(
            413,
            "record_too_large",
            format!(
                "the write exceeds the journal's {}-byte record bound",
                crate::frame::MAX_RECORD_BYTES
            ),
        ))
    }

    /// Forces journaled events to disk — called before sessions become
    /// unreachable (deletion, eviction) so their final state survives a
    /// crash no matter the fsync policy.
    fn journal_flush(&self) {
        if let Some(j) = &self.journal {
            if let Err(e) = j.flush() {
                eprintln!("mube-serve: journal flush failed: {e}");
            }
        }
    }
}

/// A bound server, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: WorkerPool,
}

/// A cloneable handle for observing and stopping a running server.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. With a `data_dir`,
    /// opens the journal and replays the persisted sessions before serving
    /// (corrupt journal tails are quarantined, never fatal).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        if (config.follow.is_some() || config.repl_addr.is_some()) && config.data_dir.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication (--follow / --repl-addr) requires --data-dir",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let repl_listener = match &config.repl_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let repl_bound = match &repl_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let pool = WorkerPool::new(config.threads);
        let store = Store::new(config.max_sessions, config.idle_ttl);
        let journal = match &config.data_dir {
            Some(dir) => {
                let (journal, events, report) = Journal::open_with(
                    Path::new(dir),
                    config.fsync,
                    config.snapshot_every,
                    config.quarantine_keep,
                )?;
                if let Some(why) = &report.corruption {
                    eprintln!(
                        "mube-serve: journal corruption in {dir} ({why}); quarantined {} bytes{}",
                        report.quarantined_bytes,
                        report
                            .quarantine_file
                            .as_ref()
                            .map(|p| format!(" to {}", p.display()))
                            .unwrap_or_default()
                    );
                }
                let summary = replay_events(&store, config.max_solve_evaluations, events);
                eprintln!(
                    "mube-serve: replayed {} catalogs, {} sessions, {} feedbacks, {} solves \
                     ({} deletes, {} skipped) from {dir}",
                    summary.catalogs,
                    summary.sessions,
                    summary.feedbacks,
                    summary.solves,
                    summary.deletes,
                    summary.skipped
                );
                Some(journal)
            }
            None => None,
        };
        let follower = config.follow.clone().map(|leader| {
            // A data dir quarantined by a past digest failure stays
            // quarantined across restarts until the operator removes the
            // marker: promotion from it must keep being refused.
            let diverged = config
                .data_dir
                .as_ref()
                .is_some_and(|d| Path::new(d).join(repl::DIVERGED_MARKER).exists());
            if diverged {
                eprintln!(
                    "mube-serve: data dir carries a divergence marker ({}); \
                     this follower will not be promotable",
                    repl::DIVERGED_MARKER
                );
            }
            let f = FollowerState::new(leader, diverged);
            // A restarted follower resumes from its replayed journal: the
            // hello re-requests from here, not from zero.
            f.applied.store(
                journal.as_ref().map_or(0, Journal::last_lsn),
                Ordering::SeqCst,
            );
            Arc::new(f)
        });
        let role = if follower.is_some() {
            ROLE_FOLLOWER
        } else {
            ROLE_LEADER
        };
        let state = Arc::new(ServerState {
            store,
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            worker_panics: pool.panic_counter(),
            journal,
            role: AtomicU8::new(role),
            repl_hub: repl_listener.as_ref().map(|_| Arc::new(ReplHub::new())),
            follower,
            follower_thread: std::sync::Mutex::new(None),
            repl_bound,
            scrub: ScrubState::default(),
            read_only: AtomicBool::new(false),
            config,
        });
        if let Some(repl_listener) = repl_listener {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("mube-repl-acceptor".to_string())
                .spawn(move || repl::run_leader_acceptor(repl_listener, st))?;
        }
        if state.follower.is_some() {
            let st = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name("mube-repl-follower".to_string())
                .spawn(move || repl::run_follower(st))?;
            *state
                .follower_thread
                .lock()
                .expect("follower thread lock poisoned") = Some(handle);
        }
        if state.journal.is_some() && !state.config.scrub_interval.is_zero() {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("mube-scrubber".to_string())
                .spawn(move || run_scrubber(&st))?;
        }
        Ok(Server {
            listener,
            state,
            pool,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound replication address, when `--repl-addr` is configured.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.state.repl_bound
    }

    /// A handle for stats and shutdown, usable from other threads.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            state: Arc::clone(&self.state),
        })
    }

    /// Binds and runs on a background thread; returns the handle and the
    /// join handle of the acceptor thread.
    pub fn spawn(
        config: ServeConfig,
    ) -> std::io::Result<(ServerHandle, std::thread::JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(config)?;
        let handle = server.handle()?;
        let join = std::thread::Builder::new()
            .name("mube-serve-acceptor".to_string())
            .spawn(move || server.run())?;
        Ok((handle, join))
    }

    /// Accepts connections until [`ServerHandle::shutdown`], then drains
    /// the worker pool (in-flight and queued requests complete) and
    /// returns.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.state.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else {
                // Transient accept error (e.g. the peer vanished between
                // accept and here); keep serving.
                continue;
            };
            // Admission control: past the queue high-water mark, shed the
            // connection here — a canned 503 written on the acceptor — so
            // overload never grows the queue without bound. The short
            // write timeout keeps a dead peer from stalling accepts.
            let high_water = self.state.config.queue_high_water;
            if high_water > 0 && self.pool.queued() >= high_water {
                self.state.metrics.record_shed();
                let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                let body = error_body("overloaded", "worker queue is full", |_| {});
                let _ = http::write_response_with(
                    &mut stream,
                    503,
                    &[("retry-after", RETRY_AFTER_SECS)],
                    &body,
                );
                self.state
                    .metrics
                    .record_request("SHED", 503, Duration::ZERO);
                continue;
            }
            let state = Arc::clone(&self.state);
            if !self.pool.execute(move || handle_connection(stream, &state)) {
                break;
            }
        }
        drop(self.listener);
        self.pool.shutdown();
        // All workers are done; make their final appends durable.
        self.state.journal_flush();
        // Graceful drain ships the final frame batch: wake the replication
        // writers (they flush their queues, then send a last heartbeat)
        // and wait — bounded — for a follower to ack the journal's tip.
        if let (Some(hub), Some(journal)) = (&self.state.repl_hub, &self.state.journal) {
            hub.wake_all();
            if hub.live_followers() > 0 {
                let _ = hub.wait_acked(journal.last_lsn(), Duration::from_secs(5));
            }
        }
        Ok(())
    }
}

impl ServerHandle {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// A consistent counters snapshot (what `GET /metrics` serves).
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Starts a graceful shutdown: new mutating requests get 503, the
    /// acceptor stops, and queued work drains. Returns immediately; join
    /// the thread running [`Server::run`] to wait for the drain.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor so it observes the flag even with no traffic.
        let _ = TcpStream::connect(self.addr);
        // Wake the replication acceptor the same way.
        if let Some(addr) = self.state.repl_bound {
            let _ = TcpStream::connect(addr);
        }
    }

    /// The bound replication address, when `--repl-addr` is configured.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.state.repl_bound
    }

    /// This node's current replication role (`leader`, `follower`, or
    /// `candidate`).
    pub fn role(&self) -> &'static str {
        repl::role_str(self.state.role.load(Ordering::SeqCst))
    }
}

// ---------------------------------------------------------------------
// Background scrubbing
// ---------------------------------------------------------------------

/// The background scrub loop: every `scrub_interval`, re-read the
/// on-disk snapshot + journal tail and compare their replay digest to
/// the digest of the state being served. A mismatch (or on-disk
/// corruption) fences the node read-only — serving stale-but-correct
/// reads beats accepting writes on top of state that can no longer be
/// made durable truthfully.
fn run_scrubber(state: &ServerState) {
    let interval = state.config.scrub_interval;
    loop {
        // Sleep in short slices so a drain stops the scrubber promptly.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if state.draining.load(Ordering::SeqCst) {
                return;
            }
            let slice = Duration::from_millis(50).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        let Some(journal) = &state.journal else {
            return;
        };
        state.scrub.runs.fetch_add(1, Ordering::SeqCst);
        match journal.scrub() {
            Ok(report) => {
                state
                    .scrub
                    .last_lsn
                    .store(report.last_lsn, Ordering::SeqCst);
                if report.ok {
                    *state.scrub.last_error.lock().expect("scrub lock poisoned") = None;
                } else {
                    let why = report.corruption.clone().unwrap_or_else(|| {
                        format!(
                            "state digest mismatch at lsn {}: memory {:#018x}, disk {:#018x}",
                            report.last_lsn, report.memory_digest, report.disk_digest
                        )
                    });
                    state.scrub.failures.fetch_add(1, Ordering::SeqCst);
                    *state.scrub.last_error.lock().expect("scrub lock poisoned") =
                        Some(why.clone());
                    if !state.read_only.swap(true, Ordering::SeqCst) {
                        eprintln!(
                            "mube-serve: SCRUB FAILURE: {why}; node is now read-only \
                             (stop it and run `mube fsck --repair` on the data dir)"
                        );
                    }
                }
            }
            Err(e) => {
                // An I/O error reading our own files is recorded but does
                // not fence the node: the served state is not implicated.
                state.scrub.failures.fetch_add(1, Ordering::SeqCst);
                *state.scrub.last_error.lock().expect("scrub lock poisoned") =
                    Some(format!("scrub I/O error: {e}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection handling and routing
// ---------------------------------------------------------------------

/// `Retry-After` value (seconds) sent with 429/503 back-pressure
/// responses.
const RETRY_AFTER_SECS: &str = "1";

/// A read adapter that bounds the *total* time spent reading one request.
///
/// Per-read socket timeouts alone do not stop a slowloris: a client
/// trickling one byte per interval resets the timer forever. Each read
/// through this wrapper re-arms the socket timeout to the smaller of the
/// per-read timeout and the remaining request budget, so the whole
/// head+body read is over within `request_deadline` no matter the drip
/// rate.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    per_read: Duration,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ));
        }
        self.stream
            .set_read_timeout(Some(remaining.min(self.per_read)))?;
        (&mut &*self.stream).read(buf)
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let start = Instant::now();
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let result = {
        let mut reader = DeadlineStream {
            stream: &stream,
            deadline: start + state.config.request_deadline,
            per_read: state.config.read_timeout,
        };
        http::read_request(&mut reader, state.config.max_body_bytes)
    };
    let mut stream = stream;
    match result {
        Ok(req) => {
            let label = endpoint_label(&req.method, &req.path);
            let (status, body) = route(state, &req);
            // Back-pressure responses tell the client when to come back:
            // 429 means a session slot may free up, 503 means the process
            // is draining and a fresh instance should be up shortly.
            let extra: &[(&str, &str)] = match status {
                429 | 503 => &[("retry-after", RETRY_AFTER_SECS)],
                _ => &[],
            };
            let _ = http::write_response_with(&mut stream, status, extra, &body);
            state
                .metrics
                .record_request(&label, status, start.elapsed());
        }
        // The shutdown wake-up and port scans land here; nothing to say.
        Err(HttpError::EmptyConnection) => {}
        Err(e) => {
            let (status, code) = match &e {
                HttpError::HeadTooLarge => (431, "headers_too_large"),
                HttpError::BodyTooLarge { .. } => (413, "payload_too_large"),
                HttpError::Io(_) => (408, "timeout"),
                _ => (400, "bad_request"),
            };
            let body = error_body(code, &e.to_string(), |_| {});
            let _ = http::write_response(&mut stream, status, &body);
            state
                .metrics
                .record_request("MALFORMED", status, start.elapsed());
        }
    }
}

/// A route handler: server state, request, and the path's `{id}` segment
/// (empty when the pattern has none).
type Handler = fn(&Arc<ServerState>, &Request, &str) -> Result<(u16, String), ApiError>;

/// The route table: method, path pattern, handler. `{id}` in a pattern
/// matches any one segment, and the pattern doubles as the bounded metrics
/// label. Dispatch, the 405 answer and [`endpoint_label`] all read it.
const ROUTES: &[(&str, &str, Handler)] = &[
    ("GET", "/healthz", |s, _, _| Ok(healthz(s))),
    ("GET", "/metrics", |s, _, _| Ok(metrics(s))),
    ("POST", "/catalogs", |s, r, _| create_catalog(s, r)),
    ("POST", "/sessions", |s, r, _| create_session(s, r)),
    ("DELETE", "/sessions/{id}", |s, _, id| delete_session(s, id)),
    ("POST", "/sessions/{id}/solve", |s, r, id| {
        with_session(s, id, |e| solve(s, e, r))
    }),
    ("POST", "/sessions/{id}/execute", |s, r, id| {
        with_session(s, id, |e| execute_session(s, e, r))
    }),
    ("POST", "/sessions/{id}/feedback", |s, r, id| {
        with_session(s, id, |e| feedback(s, e, r))
    }),
    ("GET", "/sessions/{id}/explain", |s, _, id| {
        with_session(s, id, explain_session)
    }),
    ("GET", "/sessions/{id}/lint", |s, _, id| {
        with_session(s, id, lint_session)
    }),
    ("POST", "/admin/promote", |s, _, _| admin_promote(s)),
    ("POST", "/admin/resync", |s, _, _| admin_resync(s)),
];

/// The non-empty segments of a request path.
fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Matches path segments against a route pattern; yields the `{id}`
/// segment (empty when the pattern has none).
fn match_pattern<'p>(pattern: &str, segs: &[&'p str]) -> Option<&'p str> {
    let mut segs = segs.iter();
    let mut id = "";
    for p in pattern.split('/').skip(1) {
        match (p, segs.next()?) {
            ("{id}", seg) => id = seg,
            (lit, seg) if lit != *seg => return None,
            _ => {}
        }
    }
    segs.next().is_none().then_some(id)
}

/// The handler for `method` on `path` with its `{id}` segment, or the
/// error: 405 on a known path, 404 otherwise.
fn resolve<'p>(method: &str, path: &'p str) -> Result<(Handler, &'p str), ApiError> {
    let segs = segments(path);
    let mut known_path = false;
    for &(m, pattern, handler) in ROUTES {
        if let Some(id) = match_pattern(pattern, &segs) {
            if m == method {
                return Ok((handler, id));
            }
            known_path = true;
        }
    }
    Err(if known_path {
        ApiError::new(
            405,
            "method_not_allowed",
            format!("{method} is not supported on {path}"),
        )
    } else {
        ApiError::new(404, "not_found", format!("no route for {path}"))
    })
}

/// Normalizes a request to a bounded-cardinality metrics label, e.g.
/// `POST /sessions/{id}/solve`.
fn endpoint_label(method: &str, path: &str) -> String {
    let segs = segments(path);
    let norm = ROUTES
        .iter()
        .find(|(_, pattern, _)| match_pattern(pattern, &segs).is_some())
        .map_or("/unknown", |&(_, pattern, _)| pattern);
    format!("{method} {norm}")
}

/// A handler failure: status, stable code and message, plus the extra
/// members of its error object. [`route`] renders it once.
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
    /// The `MUBE0xx` codes that explain the failure.
    lint: Option<Vec<&'static str>>,
    /// The index of the feedback action that failed.
    action: Option<usize>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            lint: None,
            action: None,
        }
    }

    /// The response body: the error object with `lint` and `action` when
    /// set.
    fn body(&self) -> String {
        error_body(self.code, &self.message, |j| {
            if let Some(codes) = &self.lint {
                j.key("lint").begin_arr();
                for code in codes {
                    j.str_value(code);
                }
                j.end_arr();
            }
            if let Some(i) = self.action {
                j.key("action").uint_value(i as u64);
            }
        })
    }
}

impl From<MubeError> for ApiError {
    fn from(e: MubeError) -> Self {
        let (status, code) = engine_code(&e);
        ApiError::new(status, code, e.to_string())
    }
}

/// `{"error":{"code":...,"message":...,<extra>}}`; `extra` appends
/// additional members to the error object.
fn error_body(code: &str, message: &str, extra: impl FnOnce(&mut JsonBuf)) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("error").begin_obj();
    j.key("code").str_value(code);
    j.key("message").str_value(message);
    extra(&mut j);
    j.end_obj();
    j.end_obj();
    j.finish()
}

/// Stable status + code for every engine error.
fn engine_code(e: &MubeError) -> (u16, &'static str) {
    match e {
        MubeError::StaleGaIndex { .. } => (409, "stale_ga_index"),
        MubeError::UnknownAttribute { .. } | MubeError::UnknownSourceName { .. } => {
            (422, "unknown_name")
        }
        MubeError::UnknownSource { .. } => (422, "unknown_source"),
        MubeError::UnknownQef { .. } => (422, "unknown_qef"),
        MubeError::InvalidWeights { .. } => (422, "invalid_weights"),
        MubeError::InvalidParameter { .. } => (422, "invalid_parameter"),
        MubeError::ConstraintConflict { .. } => (422, "constraint_conflict"),
        _ => (422, "engine_error"),
    }
}

/// On a constraint conflict, asks the analyzer which `MUBE0xx` findings
/// explain it, so the response carries the same codes `mube lint` would.
fn conflict_error(e: &MubeError, universe: &Universe, constraints: &Constraints) -> ApiError {
    let (status, code) = engine_code(e);
    let mut err = ApiError::new(status, code, e.to_string());
    if matches!(e, MubeError::ConstraintConflict { .. }) {
        let measure = JaccardNGram::trigram();
        let report = Analyzer::new(universe)
            .constraints(constraints)
            .similarity(&measure)
            .run();
        err.lint = Some(report.errors().map(|d| d.code.code()).collect());
    }
    err
}

fn route(state: &Arc<ServerState>, req: &Request) -> (u16, String) {
    let segs = segments(&req.path);
    if state.draining.load(Ordering::SeqCst) && req.method != "GET" {
        return (
            503,
            error_body("draining", "server is shutting down", |_| {}),
        );
    }
    // A failed scrub fences the node: reads keep flowing (memory state is
    // still self-consistent), mutations are refused because they could no
    // longer be made durable truthfully. Admin endpoints stay reachable —
    // they are the way out.
    if state.read_only.load(Ordering::SeqCst)
        && req.method != "GET"
        && segs.first() != Some(&"admin")
    {
        return (
            503,
            error_body(
                "read_only",
                "a scrub found disk disagreeing with served state; this node \
                 is fenced read-only until repaired",
                |_| {},
            ),
        );
    }
    // Followers (and candidates mid-promotion) are read-only replicas:
    // anything mutating is refused with a hint at who the leader is, so
    // clients behind a naive load balancer can redirect themselves.
    let role = state.role.load(Ordering::SeqCst);
    if role != ROLE_LEADER
        && req.method != "GET"
        && !matches!(segs.as_slice(), ["admin", "promote" | "resync"])
    {
        let leader = state.config.follow.clone();
        return (
            409,
            error_body("not_leader", "this node is a read-only replica", |j| {
                j.key("role").str_value(repl::role_str(role));
                match &leader {
                    Some(addr) => j.key("leader").str_value(addr),
                    None => j.key("leader").null_value(),
                };
            }),
        );
    }
    let result = resolve(&req.method, &req.path).and_then(|(handler, id)| handler(state, req, id));
    let (status, body) = match result {
        Ok(ok) => ok,
        Err(e) => (e.status, e.body()),
    };
    // Semi-sync replication: a mutating request only succeeds once a
    // follower has durably applied its journal event. On timeout the
    // write is still locally durable, but the client learns replication
    // lagged instead of being handed an unreplicated success.
    if state.config.repl_sync && req.method != "GET" && (200..300).contains(&status) {
        if let (Some(hub), Some(journal)) = (&state.repl_hub, &state.journal) {
            if !hub.wait_acked(journal.last_lsn(), state.config.repl_sync_timeout) {
                return (
                    503,
                    error_body(
                        "replication_timeout",
                        "write is locally durable but no follower acked in time",
                        |_| {},
                    ),
                );
            }
        }
    }
    (status, body)
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = req
        .body_utf8()
        .map_err(|e| ApiError::new(400, "bad_request", e.to_string()))?;
    Json::parse(text).map_err(|e| ApiError::new(400, "bad_json", e.to_string()))
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

/// A JSON type a request field can hold. `EXPECTED` ends the message of
/// the 400 for a field that does not hold one: "… must be {EXPECTED}".
trait FieldType<'a>: Sized {
    const EXPECTED: &'static str;
    fn read(value: &'a Json) -> Option<Self>;
}

/// Implements [`FieldType`]: `type: "expected" => reader;`.
macro_rules! field_types {
    ($($t:ty: $expected:literal => $read:expr;)*) => {$(
        impl<'a> FieldType<'a> for $t {
            const EXPECTED: &'static str = $expected;
            fn read(value: &'a Json) -> Option<Self> {
                $read(value)
            }
        }
    )*};
}

field_types! {
    u64: "a non-negative integer" => Json::as_u64;
    usize: "a non-negative integer" => Json::as_usize;
    NonZeroUsize: "a positive integer" => |v: &Json| v.as_usize().and_then(NonZeroUsize::new);
    f64: "a number" => Json::as_f64;
    bool: "a boolean" => Json::as_bool;
    &'a str: "a string" => Json::as_str;
    &'a [Json]: "an array" => Json::as_array;
    &'a [(String, Json)]: "an object" => Json::as_object;
}

/// The fields of one JSON object in a request, read by type. A required
/// field that is missing, or any field of the wrong JSON type, is a 400
/// `bad_request` whose message names it: `` `seed` ``, `` `prune.top_k` ``,
/// `` `pin` action field `source` ``.
struct Fields<'a> {
    members: &'a [(String, Json)],
    /// What a field's name starts with: the opening backtick and the path
    /// of the enclosing object.
    prefix: String,
}

impl<'a> Fields<'a> {
    /// The top-level fields of a request body.
    fn body(body: &'a Json) -> Result<Fields<'a>, ApiError> {
        let members = body.as_object().ok_or_else(|| {
            ApiError::new(400, "bad_request", "the request body must be an object")
        })?;
        Ok(Fields {
            members,
            prefix: "`".to_string(),
        })
    }

    /// The fields of a nested object whose own name is `name`.
    fn nested(&self, name: &str, members: &'a [(String, Json)]) -> Fields<'a> {
        Fields {
            members,
            prefix: format!("{}{name}.", self.prefix),
        }
    }

    /// `value`, the value of the field `key`, as a `T`.
    fn read<T: FieldType<'a>>(&self, key: &str, value: &'a Json) -> Result<T, ApiError> {
        T::read(value).ok_or_else(|| {
            let message = format!("{}{key}` must be {}", self.prefix, T::EXPECTED);
            ApiError::new(400, "bad_request", message)
        })
    }

    /// An optional field (the last of duplicate keys wins).
    fn opt<T: FieldType<'a>>(&self, key: &str) -> Result<Option<T>, ApiError> {
        let value = self.members.iter().rev().find(|(k, _)| k == key);
        value.map(|(_, v)| self.read(key, v)).transpose()
    }

    /// A required field.
    fn req<T: FieldType<'a>>(&self, key: &str) -> Result<T, ApiError> {
        let value = self.opt(key)?;
        value.map_or_else(|| self.read(key, &Json::Null), Ok)
    }

    /// An optional array whose every entry is a `T`.
    fn list<T: FieldType<'a>>(&self, key: &str) -> Result<Option<Vec<T>>, ApiError> {
        let Some(items) = self.opt::<&[Json]>(key)? else {
            return Ok(None);
        };
        let entries = items.iter().enumerate();
        let list = entries.map(|(i, item)| self.read(&format!("{key}[{i}]"), item));
        list.collect::<Result<_, _>>().map(Some)
    }

    /// An optional object.
    fn object(&self, key: &str) -> Result<Option<Fields<'a>>, ApiError> {
        Ok(self.opt(key)?.map(|members| self.nested(key, members)))
    }

    /// A required array of objects.
    fn objects(&self, key: &str) -> Result<Vec<Fields<'a>>, ApiError> {
        let items = self.req::<&[Json]>(key)?;
        let entries = items.iter().enumerate().map(|(i, item)| {
            let name = format!("{key}[{i}]");
            Ok(self.nested(&name, self.read(&name, item)?))
        });
        entries.collect()
    }
}

/// Moves the required string field `key` out of a request body: the text
/// of a catalog upload is the largest field a request carries, and it is
/// never copied.
fn take_string(body: Json, key: &str) -> Result<String, ApiError> {
    Fields::body(&body)?.req::<&str>(key)?;
    let Json::Obj(members) = body else {
        unreachable!("`Fields::body` accepts only objects")
    };
    let text = members.into_iter().rev().find_map(|(k, v)| match v {
        Json::Str(text) if k == key => Some(text),
        _ => None,
    });
    Ok(text.expect("checked above"))
}

fn with_session(
    state: &ServerState,
    id: &str,
    f: impl FnOnce(&Arc<SessionEntry>) -> Result<(u16, String), ApiError>,
) -> Result<(u16, String), ApiError> {
    let entry = id
        .parse::<u64>()
        .ok()
        .and_then(|id| state.store.session(id))
        .ok_or_else(|| ApiError::new(404, "unknown_session", format!("no session `{id}`")))?;
    entry.touch();
    f(&entry)
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

fn healthz(state: &ServerState) -> (u16, String) {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("status").str_value("ok");
    j.key("draining")
        .bool_value(state.draining.load(Ordering::SeqCst));
    j.key("sessions")
        .uint_value(state.store.sessions_len() as u64);
    j.key("role")
        .str_value(repl::role_str(state.role.load(Ordering::SeqCst)));
    j.key("read_only")
        .bool_value(state.read_only.load(Ordering::SeqCst));
    if let Some(journal) = &state.journal {
        let (lsn, digest) = journal.state_digest();
        j.key("lsn").uint_value(lsn);
        j.key("digest").str_value(&format!("{digest:016x}"));
        j.key("quarantine_files")
            .uint_value(journal.stats().quarantine_files);
        let failures = state.scrub.failures.load(Ordering::SeqCst);
        j.key("scrub").begin_obj();
        j.key("runs")
            .uint_value(state.scrub.runs.load(Ordering::SeqCst));
        j.key("failures").uint_value(failures);
        j.key("last_lsn")
            .uint_value(state.scrub.last_lsn.load(Ordering::SeqCst));
        j.key("ok").bool_value(
            state
                .scrub
                .last_error
                .lock()
                .expect("scrub lock poisoned")
                .is_none(),
        );
        j.end_obj();
    }
    if let Some(follower) = &state.follower {
        j.key("follower").begin_obj();
        j.key("leader").str_value(&follower.leader);
        j.key("applied")
            .uint_value(follower.applied.load(Ordering::SeqCst));
        j.key("diverged")
            .bool_value(follower.diverged.load(Ordering::SeqCst));
        j.end_obj();
    }
    j.end_obj();
    (200, j.finish())
}

/// `POST /admin/promote`: checked failover. Refuses when this node is
/// already the leader or has been quarantined by a digest mismatch;
/// otherwise stops following, flips the role, and reports the state
/// digest the operator can compare against the old leader's replay.
fn admin_promote(state: &ServerState) -> Result<(u16, String), ApiError> {
    match repl::promote(state) {
        Ok((lsn, digest)) => {
            let verified = state
                .follower
                .as_ref()
                .map_or(0, |f| f.verified.load(Ordering::SeqCst));
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("promoted").bool_value(true);
            j.key("role").str_value("leader");
            j.key("lsn").uint_value(lsn);
            j.key("digest").str_value(&format!("{digest:016x}"));
            j.key("verified_lsn").uint_value(verified);
            j.end_obj();
            Ok((200, j.finish()))
        }
        Err("diverged") => Err(ApiError::new(
            409,
            "diverged",
            "follower state diverged from the leader and is quarantined; \
             refusing to promote",
        )),
        Err(_) => Err(ApiError::new(
            409,
            "already_leader",
            "this node is already the leader",
        )),
    }
}

/// `POST /admin/resync`: anti-entropy repair for a quarantined (or
/// merely suspect) follower. Archives the local journal for forensics,
/// wipes the replica's state, clears the divergence marker, and rejoins
/// the leader from LSN 0 — the full history streams back through the
/// normal frame machinery, after which the digest rounds prove the copy
/// and promotion eligibility is restored.
fn admin_resync(state: &Arc<ServerState>) -> Result<(u16, String), ApiError> {
    match repl::resync(state) {
        Ok(outcome) => {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("resync").bool_value(true);
            j.key("role").str_value("follower");
            j.key("was_diverged").bool_value(outcome.was_diverged);
            j.key("archived").begin_arr();
            for p in &outcome.archived {
                j.str_value(&p.display().to_string());
            }
            j.end_arr();
            j.end_obj();
            Ok((200, j.finish()))
        }
        Err(repl::ResyncError::NotFollower) => Err(ApiError::new(
            409,
            "not_follower",
            "resync only applies to a replica (--follow); this node is a leader",
        )),
        Err(repl::ResyncError::Io(e)) => Err(ApiError::new(
            500,
            "resync_failed",
            format!("resync aborted: {e}"),
        )),
    }
}

fn metrics(state: &ServerState) -> (u16, String) {
    (200, state.stats().to_json())
}

fn create_catalog(state: &ServerState, req: &Request) -> Result<(u16, String), ApiError> {
    let text = take_string(parse_body(req)?, "catalog")?;
    let mut event = Event::CatalogCreate { id: 0, text };
    state.check_journalable(&event)?;
    let Event::CatalogCreate { id: slot, text } = &mut event else {
        unreachable!("built above")
    };
    let universe = Arc::new(catalog::from_text(text)?);
    let cache = Arc::new(SimilarityCache::build(&universe, &JaccardNGram::trigram()));
    let distinct = cache.distinct_names();
    let id = state.store.insert_catalog(Arc::clone(&universe), cache);
    *slot = id;
    state.metrics.catalog_created();
    state.journal_append(event);
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("catalog").uint_value(id);
    j.key("sources").uint_value(universe.len() as u64);
    j.key("attributes")
        .uint_value(universe.total_attrs() as u64);
    j.key("distinct_names").uint_value(distinct as u64);
    j.end_obj();
    Ok((201, j.finish()))
}

/// Upper bounds on the compute one `POST /sessions` may reserve. Exceeding
/// any of them is a 422 `invalid_parameter` carrying lint code `MUBE015`
/// (see PROTOCOL.md).
const MAX_THREADS: usize = 64;
/// Cap on `restarts`.
const MAX_RESTARTS: usize = 64;
/// Cap on total portfolio members (`|portfolio| × restarts`).
const MAX_PORTFOLIO_MEMBERS: usize = 256;

/// 422 for a parameter that exceeds a server resource bound, tagged with
/// the stable `MUBE015` lint code.
fn bound_error(field: &str, value: usize, max: usize) -> ApiError {
    ApiError {
        lint: Some(vec![mube_core::DiagCode::ResourceBoundExceeded.code()]),
        ..invalid_parameter(format!(
            "`{field}` = {value} exceeds the server bound of {max}"
        ))
    }
}

/// 422 `invalid_parameter`: a well-typed value the engine cannot use.
fn invalid_parameter(message: impl Into<String>) -> ApiError {
    ApiError::new(422, "invalid_parameter", message)
}

/// Everything `POST /sessions` builds before touching the store.
struct BuiltSession {
    catalog_id: u64,
    session: Session,
    solver_name: String,
    seed: u64,
    pruned: Option<PruneStats>,
}

/// What the optional `prune` block did, echoed in the 201 response.
struct PruneStats {
    /// Sources in the uploaded catalog.
    catalog_sources: usize,
    /// Survivors of the relevance stage.
    survivors: usize,
    /// LSH near-duplicate clusters over the survivors.
    clusters: usize,
    /// Sources in the session's working universe after (optional) dedup.
    kept: usize,
}

/// Applies the `prune: {…}` block: one relevance pass keeps the `top_k`
/// best-scoring sources (pinned names are always kept), then MinHash/LSH
/// blocking groups near-duplicates; with `"dedup": true` only each
/// cluster's best-scoring member (plus pinned members) survives. Returns
/// the reduced universe the session's problem is built over.
fn prune_universe(
    universe: &Universe,
    spec: &Fields,
    pins: &[&str],
) -> Result<(Universe, PruneStats), ApiError> {
    use mube_scale::{block, top_k, LshConfig, RelevanceQuery, ScoringTable, UniverseStream};

    let k = spec
        .opt::<NonZeroUsize>("top_k")?
        .map_or(1_500, NonZeroUsize::get);
    let keywords = spec.list::<&str>("keywords")?.unwrap_or_default();
    let dedup = spec.opt("dedup")?.unwrap_or(false);
    // Pinned names are force-kept; unknown names surface as 422s when the
    // pins resolve against the pruned universe below.
    let pin_names: Vec<String> = pins.iter().map(ToString::to_string).collect();

    let stream = UniverseStream::new(universe);
    let query = RelevanceQuery {
        keywords: keywords.into_iter().map(str::to_string).collect(),
        prefer_characteristics: vec!["mttf".to_string()],
    };
    let survivors = top_k(&stream, &query, &ScoringTable::default(), k, &pin_names);
    let scores: Vec<f64> = survivors.iter().map(|s| s.score).collect();
    let records: Vec<mube_scale::SourceRecord> = survivors.into_iter().map(|s| s.record).collect();
    let blocks = block(&records, &LshConfig::default());

    let kept: Vec<usize> = if dedup {
        let mut kept = Vec::new();
        for members in &blocks.clusters {
            let mut best = members[0];
            for &m in members {
                if scores[m] > scores[best] {
                    best = m;
                }
            }
            kept.push(best);
            for &m in members {
                if m != best && pin_names.iter().any(|n| *n == records[m].name) {
                    kept.push(m);
                }
            }
        }
        kept.sort_unstable();
        kept
    } else {
        (0..records.len()).collect()
    };

    let stats = PruneStats {
        catalog_sources: universe.len(),
        survivors: records.len(),
        clusters: blocks.clusters.len(),
        kept: kept.len(),
    };
    let mut builder = Universe::builder();
    for &p in &kept {
        builder.add_source(records[p].clone().into_spec());
    }
    let pruned = builder
        .build()
        .map_err(|e| invalid_parameter(format!("pruning left no usable catalog: {e}")))?;
    Ok((pruned, stats))
}

/// Parses and validates a session-creation body into a ready [`Session`].
/// Shared verbatim by the HTTP handler and journal replay, so a replayed
/// session passes through exactly the validation its original request did.
fn build_session_from_body(
    store: &Store,
    max_solve_evaluations: u64,
    body: &Json,
) -> Result<BuiltSession, ApiError> {
    // Every field is decoded before any work is done.
    let f = Fields::body(body)?;
    let catalog_id = f.req("catalog")?;
    let pins = f.list::<&str>("pins")?.unwrap_or_default();
    let prune = f.object("prune")?;
    let max_sources = f.opt("max_sources")?;
    let theta = f.opt("theta")?;
    let beta = f.opt("beta")?;
    let mut weights = Vec::new();
    if let Some(w) = f.object("weights")? {
        for (name, v) in w.members {
            weights.push((name, w.read::<f64>(name, v)?));
        }
    }
    let seed = f.opt("seed")?.unwrap_or(0);
    let continuity = f.opt("continuity")?.unwrap_or(false);
    let solver = solver_choice(&f)?;

    let entry = store.catalog(catalog_id).ok_or_else(|| {
        ApiError::new(404, "unknown_catalog", format!("no catalog `{catalog_id}`"))
    })?;
    // Optional pruning front end (see PROTOCOL.md `prune`): reduce the
    // catalog to a relevant, deduplicated candidate set before the problem
    // is built. Runs inside this shared builder, so journal replay
    // re-prunes deterministically from the recorded request body.
    let (universe, pruned) = match &prune {
        Some(spec) => {
            let (pruned, stats) = prune_universe(&entry.universe, spec, &pins)?;
            (Arc::new(pruned), Some(stats))
        }
        None => (Arc::clone(&entry.universe), None),
    };

    let mut constraints = Constraints::with_max_sources(max_sources.unwrap_or(universe.len()));
    if let Some(theta) = theta {
        constraints = constraints.theta(theta);
    }
    if let Some(beta) = beta {
        constraints = constraints.beta(beta);
    }
    for name in pins {
        let source = universe
            .source_by_name(name)
            .ok_or_else(|| MubeError::UnknownSourceName {
                name: name.to_string(),
            })?;
        constraints.required_sources.insert(source.id());
    }
    let mut qefs = default_qefs(&universe);
    for (name, w) in weights {
        qefs = qefs.reweighted(name, w)?;
    }

    // The catalog entry's similarity cache was interned over the *full*
    // universe; a pruned session gets a fresh matcher over its own subset.
    let matcher: Arc<dyn MatchOperator> = if pruned.is_some() {
        Arc::new(ClusterMatcher::new(
            Arc::clone(&universe),
            JaccardNGram::trigram(),
        ))
    } else {
        Arc::new(ClusterMatcher::with_cache(
            &universe,
            Arc::clone(&entry.cache),
        ))
    };
    let problem = Problem::new(Arc::clone(&universe), matcher, qefs, constraints.clone())
        .map_err(|e| conflict_error(&e, &universe, &constraints))?;

    // Every solver, a portfolio member or not, carries the server's
    // per-solve evaluation cap.
    let solver = solver
        .build(max_solve_evaluations)
        .map_err(invalid_parameter)?;
    let solver_name = solver.name().to_string();
    let mut session = Session::new(problem, solver, seed);
    if continuity {
        session = session.with_continuity();
    }
    Ok(BuiltSession {
        catalog_id,
        session,
        solver_name,
        seed,
        pruned,
    })
}

/// The session's solver: [`SolverChoice::new`] over the `solver`,
/// `portfolio`, `threads` and `restarts` fields, within the server's
/// resource bounds.
fn solver_choice(f: &Fields) -> Result<SolverChoice, ApiError> {
    let threads = f.opt::<NonZeroUsize>("threads")?.map(NonZeroUsize::get);
    let restarts = f
        .opt::<NonZeroUsize>("restarts")?
        .map_or(1, NonZeroUsize::get);
    let (solver, portfolio) = (f.opt("solver")?, f.opt("portfolio")?);
    if let Some(n) = threads.filter(|&n| n > MAX_THREADS) {
        return Err(bound_error("threads", n, MAX_THREADS));
    }
    if restarts > MAX_RESTARTS {
        return Err(bound_error("restarts", restarts, MAX_RESTARTS));
    }
    let choice =
        SolverChoice::new(solver, portfolio, threads, restarts).map_err(invalid_parameter)?;
    if choice.runs() > MAX_PORTFOLIO_MEMBERS {
        return Err(bound_error(
            "portfolio members (|portfolio| × restarts)",
            choice.runs(),
            MAX_PORTFOLIO_MEMBERS,
        ));
    }
    Ok(choice)
}

fn create_session(state: &ServerState, req: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(req)?;
    let built = build_session_from_body(&state.store, state.config.max_solve_evaluations, &body)?;
    let catalog_id = built.catalog_id;
    // Journal the raw body, so replay re-runs this handler's exact
    // validation.
    let mut event = Event::SessionCreate {
        id: 0,
        catalog_id,
        body: req.body_utf8().unwrap_or("{}").to_string(),
    };
    state.check_journalable(&event)?;

    // Make room: sweep idle sessions first, then let the insert evict
    // more if the cap still binds.
    let swept = state.store.sweep_idle();
    let (id, evicted) = state
        .store
        .insert_session(catalog_id, built.session)
        .map_err(|e| match e {
            StoreError::UnknownCatalog => {
                ApiError::new(404, "unknown_catalog", format!("no catalog `{catalog_id}`"))
            }
            StoreError::TooManySessions { limit } => ApiError::new(
                429,
                "too_many_sessions",
                format!("{limit} sessions are live and none is idle"),
            ),
        })?;
    state.metrics.session_created();
    let evicted_total = (swept.len() + evicted.len()) as u64;
    state.metrics.sessions_evicted(evicted_total);

    // Journal the creation and the evictions it caused; flush so the
    // evicted sessions' final state is durable before they become
    // unreachable.
    if let Event::SessionCreate { id: slot, .. } = &mut event {
        *slot = id;
    }
    state.journal_append(event);
    for &session in swept.iter().chain(evicted.iter()) {
        state.journal_append(Event::SessionDelete { session });
    }
    if evicted_total > 0 {
        state.journal_flush();
    }

    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("session").uint_value(id);
    j.key("catalog").uint_value(catalog_id);
    j.key("seed").uint_value(built.seed);
    j.key("solver").str_value(&built.solver_name);
    j.key("evicted").uint_value(evicted_total);
    if let Some(p) = &built.pruned {
        j.key("pruned").begin_obj();
        j.key("catalog_sources")
            .uint_value(p.catalog_sources as u64);
        j.key("survivors").uint_value(p.survivors as u64);
        j.key("clusters").uint_value(p.clusters as u64);
        j.key("kept").uint_value(p.kept as u64);
        j.end_obj();
    }
    j.end_obj();
    Ok((201, j.finish()))
}

fn source_name(universe: &Universe, id: mube_core::SourceId) -> String {
    universe
        .get(id)
        .map_or_else(|| id.to_string(), |s| s.name().to_string())
}

fn solve(
    state: &ServerState,
    entry: &Arc<SessionEntry>,
    req: &Request,
) -> Result<(u16, String), ApiError> {
    let body = parse_body(req)?;
    let requested = Fields::body(&body)?.opt::<u64>("time_budget_ms")?;
    // The watchdog is always armed: every solve is bounded by the server's
    // `max_solve_millis`; a request budget can only shorten the deadline.
    let budget_ms = requested
        .unwrap_or(state.config.max_solve_millis)
        .min(state.config.max_solve_millis);
    let cancel = CancelToken::after(Duration::from_millis(budget_ms));

    let mut session = entry.session.lock().expect("session lock poisoned");
    let t0 = Instant::now();
    let result = session.run_cancel(&cancel);
    let elapsed = t0.elapsed();
    if let Err(e) = result {
        let constraints = session.constraints().clone();
        return Err(conflict_error(&e, session.universe(), &constraints));
    }
    let latest = session.latest().expect("run succeeded");
    let timed_out = latest.timed_out;
    state.metrics.record_solve(elapsed, timed_out);
    state.journal_append(Event::Solve {
        session: entry.id,
        solution: SolutionRecord::from_solution(latest),
    });
    let universe = session.universe();
    let solution_json = session.latest().expect("run succeeded").to_json(universe);
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("session").uint_value(entry.id);
    j.key("iteration").uint_value(session.iterations() as u64);
    j.key("timed_out").bool_value(timed_out);
    j.key("solution").raw_value(&solution_json);
    match session.last_diff() {
        Some(diff) => {
            j.key("diff").begin_obj();
            j.key("sources_added").begin_arr();
            for &id in &diff.sources_added {
                j.str_value(&source_name(universe, id));
            }
            j.end_arr();
            j.key("sources_removed").begin_arr();
            for &id in &diff.sources_removed {
                j.str_value(&source_name(universe, id));
            }
            j.end_arr();
            j.key("gas_changed").uint_value(diff.gas_changed as u64);
            j.end_obj();
        }
        None => {
            j.key("diff").null_value();
        }
    }
    j.end_obj();
    Ok((200, j.finish()))
}

/// `POST /sessions/{id}/execute`: runs the session's latest solution as a
/// simulated query execution over a span backend, optionally injecting
/// faults (`"faults"`: a spec like `rate=0.3` or `auto`, `"fault_seed"`,
/// `"query"`: `{"start","end"}`). Returns the executor's degradation
/// report plus the health registry's per-source view, and folds the
/// attempt/failure tallies into `/metrics`.
fn execute_session(
    state: &ServerState,
    entry: &Arc<SessionEntry>,
    req: &Request,
) -> Result<(u16, String), ApiError> {
    let body = parse_body(req)?;
    let f = Fields::body(&body)?;
    let (lo, hi) = match f.object("query")? {
        None => (0, u64::MAX),
        Some(q) => (
            q.opt("start")?.unwrap_or(0),
            q.opt("end")?.unwrap_or(u64::MAX),
        ),
    };
    if lo > hi {
        return Err(ApiError::new(
            400,
            "bad_request",
            "`query.start` must not exceed `query.end`",
        ));
    }
    let fault_seed = f.opt("fault_seed")?.unwrap_or(1);
    let faults = f.opt::<&str>("faults")?;
    let spec = faults
        .map(FaultSpec::parse)
        .transpose()
        .map_err(invalid_parameter)?;

    let session = entry.session.lock().expect("session lock poisoned");
    let solution = session
        .latest()
        .ok_or_else(|| ApiError::new(409, "no_solution", "no iteration has run in this session"))?;
    let universe = Arc::clone(session.problem().universe());

    let backend: Box<dyn DataSourceBackend> = match &spec {
        None => Box::new(SpanBackend::from_universe(&universe)),
        Some(spec) => Box::new(mube_exec::FaultInjector::new(
            SpanBackend::from_universe(&universe),
            &universe,
            spec,
            fault_seed,
        )),
    };
    let clock: Arc<dyn mube_exec::Clock> = Arc::new(VirtualClock::default());
    let registry = Arc::new(HealthRegistry::new(
        BreakerConfig::default(),
        Arc::clone(&clock),
    ));
    let executor = Executor::new(Arc::clone(&universe), backend)
        .with_policy(RetryPolicy::default().with_jitter_seed(fault_seed))
        .with_registry(Arc::clone(&registry))
        .with_clock(clock);

    let t0 = Instant::now();
    let report = executor.execute(&solution.sources, &Query::range(lo, hi));
    let elapsed = t0.elapsed();
    let totals = registry.totals();
    state.metrics.record_execution(
        totals.attempts,
        totals.failures,
        report.degradation.failed.len() as u64,
        report.degradation.degraded.len() as u64,
        elapsed,
    );

    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("session").uint_value(entry.id);
    j.key("iteration").uint_value(session.iterations() as u64);
    j.key("report").raw_value(&report.to_json(&universe));
    j.key("health").begin_obj();
    j.key("attempts").uint_value(totals.attempts);
    j.key("successes").uint_value(totals.successes);
    j.key("failures").uint_value(totals.failures);
    j.key("tripped").uint_value(totals.tripped);
    j.key("sources").begin_arr();
    for s in registry.snapshots() {
        j.begin_obj();
        j.key("source").str_value(&source_name(&universe, s.source));
        j.key("attempts").uint_value(s.attempts);
        j.key("availability").num_value(s.availability);
        j.key("state").str_value(s.state.as_str());
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.end_obj();
    Ok((200, j.finish()))
}

/// Applies one feedback action.
fn apply_action(session: &mut Session, action: &Fields) -> Result<(), ApiError> {
    let op = action.req::<&str>("op")?;
    let f = Fields {
        members: action.members,
        prefix: format!("`{op}` action field `"),
    };
    match op {
        "pin" => session.pin_source_by_name(f.req("source")?)?,
        "unpin" => session.unpin_source_by_name(f.req("source")?)?,
        "adopt_ga" => session.adopt_ga(f.req("index")?)?,
        "require_ga" => {
            let mut pairs = Vec::new();
            for a in f.objects("attrs")? {
                pairs.push((a.req("source")?, a.req("attr")?));
            }
            session.require_ga_by_names(&pairs)?;
        }
        "clear_gas" => session.clear_ga_constraints()?,
        "weight" => session.set_weight(f.req("qef")?, f.req("value")?)?,
        "theta" => session.set_theta(f.req("value")?)?,
        "beta" => session.set_beta(f.req("value")?)?,
        "max_sources" => session.set_max_sources(f.req("value")?)?,
        other => {
            return Err(ApiError::new(
                400,
                "bad_request",
                format!("unknown feedback op `{other}`"),
            ))
        }
    }
    Ok(())
}

fn feedback(
    state: &ServerState,
    entry: &Arc<SessionEntry>,
    req: &Request,
) -> Result<(u16, String), ApiError> {
    let body = parse_body(req)?;
    let actions = Fields::body(&body)?.objects("actions")?;
    let event = Event::Feedback {
        session: entry.id,
        body: req.body_utf8().unwrap_or("{}").to_string(),
    };
    state.check_journalable(&event)?;
    let mut session = entry.session.lock().expect("session lock poisoned");
    for (i, action) in actions.iter().enumerate() {
        // Actions apply in order, so the failing index tells the caller
        // that everything before it took effect.
        apply_action(&mut session, action).map_err(|e| ApiError {
            action: Some(i),
            ..e
        })?;
    }
    // Journal only after every action applied: replay applies the whole
    // batch the same way, so a half-failed batch is never persisted.
    state.journal_append(event);
    let constraints = session.constraints();
    let universe = session.universe();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("applied").uint_value(actions.len() as u64);
    j.key("constraints").begin_obj();
    j.key("max_sources")
        .uint_value(constraints.max_sources as u64);
    j.key("theta").num_value(constraints.theta);
    j.key("beta").uint_value(constraints.beta as u64);
    j.key("pinned").begin_arr();
    for &id in &constraints.required_sources {
        j.str_value(&source_name(universe, id));
    }
    j.end_arr();
    j.key("required_gas")
        .uint_value(constraints.required_gas.len() as u64);
    j.end_obj();
    j.end_obj();
    Ok((200, j.finish()))
}

fn explain_session(entry: &Arc<SessionEntry>) -> Result<(u16, String), ApiError> {
    let session = entry.session.lock().expect("session lock poisoned");
    let solution = session
        .latest()
        .ok_or_else(|| ApiError::new(409, "no_solution", "no iteration has run in this session"))?;
    let explanation = explain::explain(session.problem(), solution);
    let universe = session.universe();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("session").uint_value(entry.id);
    j.key("iteration").uint_value(session.iterations() as u64);
    j.key("contributions").begin_arr();
    for c in &explanation.contributions {
        j.begin_obj();
        j.key("source").str_value(&source_name(universe, c.source));
        j.key("removal_infeasible").bool_value(c.removal_infeasible);
        // `num_value` renders the +∞ of a required source as null.
        j.key("quality_delta").num_value(c.quality_delta);
        j.key("qefs").begin_arr();
        for (name, delta) in &c.qef_deltas {
            j.begin_obj();
            j.key("name").str_value(name);
            j.key("delta").num_value(*delta);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    Ok((200, j.finish()))
}

fn lint_session(entry: &Arc<SessionEntry>) -> Result<(u16, String), ApiError> {
    let session = entry.session.lock().expect("session lock poisoned");
    let universe = session.universe();
    let measure = JaccardNGram::trigram();
    let report = Analyzer::new(universe)
        .constraints(session.constraints())
        .similarity(&measure)
        .run();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("session").uint_value(entry.id);
    j.key("clean").bool_value(report.is_clean());
    j.key("errors").bool_value(report.has_errors());
    j.key("diagnostics").raw_value(&report.to_json(universe));
    j.end_obj();
    Ok((200, j.finish()))
}

fn delete_session(state: &ServerState, id: &str) -> Result<(u16, String), ApiError> {
    let parsed = id.parse::<u64>().ok();
    let removed = parsed.is_some_and(|id| state.store.remove_session(id));
    if !removed {
        return Err(ApiError::new(
            404,
            "unknown_session",
            format!("no session `{id}`"),
        ));
    }
    state.journal_append(Event::SessionDelete {
        session: parsed.expect("removed implies parsed"),
    });
    state.journal_flush();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("deleted").bool_value(true);
    j.end_obj();
    Ok((200, j.finish()))
}

// ---------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------

/// What boot-time replay rebuilt, for the startup log line.
#[derive(Debug, Default)]
struct ReplaySummary {
    catalogs: u64,
    sessions: u64,
    feedbacks: u64,
    solves: u64,
    deletes: u64,
    /// Events that failed to apply (logged and skipped; a skipped event
    /// never aborts the boot).
    skipped: u64,
}

/// Rebuilds the store from journaled events, in LSN order. Individual
/// failures are logged and skipped — recovering most sessions beats
/// refusing to start.
fn replay_events(store: &Store, max_solve_evaluations: u64, events: Vec<Event>) -> ReplaySummary {
    let mut summary = ReplaySummary::default();
    for event in events {
        let counter = match &event {
            Event::CatalogCreate { .. } => &mut summary.catalogs,
            Event::SessionCreate { .. } => &mut summary.sessions,
            Event::Feedback { .. } => &mut summary.feedbacks,
            Event::Solve { .. } => &mut summary.solves,
            Event::SessionDelete { .. } => &mut summary.deletes,
        };
        match replay_event(store, max_solve_evaluations, event) {
            Ok(()) => *counter += 1,
            Err(why) => {
                eprintln!("mube-serve: replay skipped an event: {why}");
                summary.skipped += 1;
            }
        }
    }
    summary
}

pub(crate) fn replay_event(
    store: &Store,
    max_solve_evaluations: u64,
    event: Event,
) -> Result<(), String> {
    match event {
        Event::CatalogCreate { id, text } => {
            let universe =
                Arc::new(catalog::from_text(&text).map_err(|e| format!("catalog {id}: {e}"))?);
            let cache = Arc::new(SimilarityCache::build(&universe, &JaccardNGram::trigram()));
            store.insert_catalog_with_id(id, universe, cache);
        }
        Event::SessionCreate { id, body, .. } => {
            let json = Json::parse(&body).map_err(|e| format!("session {id}: {e}"))?;
            let built = build_session_from_body(store, max_solve_evaluations, &json)
                .map_err(|e| format!("session {id}: {}", e.message))?;
            store
                .insert_session_with_id(id, built.catalog_id, built.session)
                .map_err(|_| format!("session {id}: catalog {} missing", built.catalog_id))?;
        }
        Event::Feedback { session, body } => {
            let entry = store
                .session(session)
                .ok_or_else(|| format!("feedback for missing session {session}"))?;
            let json = Json::parse(&body).map_err(|e| format!("session {session}: {e}"))?;
            let why = |e: ApiError| format!("session {session}: {}", e.message);
            let actions = Fields::body(&json)
                .and_then(|f| f.objects("actions"))
                .map_err(why)?;
            let mut s = entry.session.lock().expect("session lock poisoned");
            for action in &actions {
                apply_action(&mut s, action).map_err(why)?;
            }
        }
        Event::Solve { session, solution } => {
            let entry = store
                .session(session)
                .ok_or_else(|| format!("solve for missing session {session}"))?;
            let sol = solution
                .into_solution()
                .map_err(|e| format!("session {session}: {e}"))?;
            entry
                .session
                .lock()
                .expect("session lock poisoned")
                .restore_solution(sol)
                .map_err(|e| format!("session {session}: {e}"))?;
        }
        Event::SessionDelete { session } => {
            store.remove_session(session);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("GET", "/healthz"), "GET /healthz");
        assert_eq!(
            endpoint_label("POST", "/sessions/42/solve"),
            "POST /sessions/{id}/solve"
        );
        assert_eq!(
            endpoint_label("DELETE", "/sessions/7"),
            "DELETE /sessions/{id}"
        );
        assert_eq!(
            endpoint_label("POST", "/admin/resync"),
            "POST /admin/resync"
        );
        assert_eq!(endpoint_label("GET", "/x/y/z/w"), "GET /unknown");
        assert_eq!(
            resolve("GET", "/x/y/z/w").err().map(|e| e.status),
            Some(404)
        );

        // Every route has its own label, and every other method on its
        // path is a 405.
        let mut labels = std::collections::HashSet::new();
        for &(method, pattern, _) in ROUTES {
            let path = pattern.replace("{id}", "42");
            let label = endpoint_label(method, &path);
            assert_eq!(label, format!("{method} {pattern}"));
            assert!(labels.insert(label), "{method} {pattern} is listed twice");
            assert!(resolve(method, &path).is_ok(), "{method} {path}");
            for other in ["GET", "POST", "PUT", "DELETE", "PATCH", "HEAD"] {
                if !ROUTES.iter().any(|&(m, p, _)| m == other && p == pattern) {
                    let status = resolve(other, &path).err().map(|e| e.status);
                    assert_eq!(status, Some(405), "{other} {path}");
                }
            }
        }
    }

    #[test]
    fn error_body_shape() {
        let body = error_body("bad_json", "oops \"quoted\"", |j| {
            j.key("action").uint_value(3);
        });
        let v = Json::parse(&body).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("bad_json"));
        assert_eq!(
            e.get("message").and_then(Json::as_str),
            Some("oops \"quoted\"")
        );
        assert_eq!(e.get("action").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn engine_codes_are_stable() {
        assert_eq!(
            engine_code(&MubeError::StaleGaIndex {
                index: 3,
                available: 1
            }),
            (409, "stale_ga_index")
        );
        assert_eq!(
            engine_code(&MubeError::ConstraintConflict { detail: "x".into() }),
            (422, "constraint_conflict")
        );
        assert_eq!(
            engine_code(&MubeError::UnknownQef { name: "x".into() }),
            (422, "unknown_qef")
        );
    }

    /// A write whose journal event exceeds the frame bound is refused with
    /// a 413 before any state changes — catalog upload, session create and
    /// feedback alike: nothing is created or applied, no LSN is taken, and
    /// the next write journals normally.
    #[test]
    fn unjournalable_writes_are_refused_before_any_state_changes() {
        let dir = std::env::temp_dir().join(format!("mube-serve-oversized-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: Some(dir.to_string_lossy().into_owned()),
            max_body_bytes: 80 * 1024 * 1024,
            ..ServeConfig::default()
        })
        .unwrap();
        let state = &server.state;
        let journal = state.journal.as_ref().unwrap();
        let post = |path: &str, members: &[(&str, &str)], pad: Option<&str>| {
            let mut body = JsonBuf::new();
            body.begin_obj();
            for (k, raw) in members {
                body.key(k).raw_value(raw);
            }
            if let Some(pad) = pad {
                body.key("pad").str_value(pad);
            }
            body.end_obj();
            let req = Request {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body: body.finish().into_bytes(),
            };
            let (status, body) = route(state, &req);
            (status, Json::parse(&body).unwrap())
        };
        let error_code = |v: &Json| {
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let huge = "x".repeat(crate::frame::MAX_RECORD_BYTES as usize);
        let catalog = mube_core::jsonw::string("source a\n  attr title\n");

        let huge_catalog = mube_core::jsonw::string(&huge);
        let (status, v) = post("/catalogs", &[("catalog", &huge_catalog)], None);
        drop(huge_catalog);
        assert_eq!(
            (status, error_code(&v)),
            (413, Some("record_too_large".into()))
        );
        assert_eq!(journal.last_lsn(), 0);
        assert_eq!(state.store.catalogs_len(), 0);

        let (status, v) = post("/catalogs", &[("catalog", &catalog)], None);
        assert_eq!(status, 201, "{v:?}");
        assert_eq!(journal.last_lsn(), 1);
        let id = v.get("catalog").and_then(Json::as_u64).unwrap().to_string();

        let session = [
            ("catalog", id.as_str()),
            ("max_sources", "1"),
            ("beta", "1"),
        ];
        let (status, v) = post("/sessions", &session, Some(&huge));
        assert_eq!(
            (status, error_code(&v)),
            (413, Some("record_too_large".into()))
        );
        assert_eq!(journal.last_lsn(), 1);
        assert_eq!(state.store.sessions_len(), 0);

        let (status, v) = post("/sessions", &session, None);
        assert_eq!(status, 201, "{v:?}");
        assert_eq!(journal.last_lsn(), 2);
        let sid = v.get("session").and_then(Json::as_u64).unwrap();

        let feedback = format!("/sessions/{sid}/feedback");
        let pin = [("actions", r#"[{"op":"pin","source":"a"}]"#)];
        let (status, v) = post(&feedback, &pin, Some(&huge));
        assert_eq!(
            (status, error_code(&v)),
            (413, Some("record_too_large".into()))
        );
        assert_eq!(journal.last_lsn(), 2);
        let (status, v) = post(&feedback, &pin, None);
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(journal.last_lsn(), 3);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.threads >= 1);
        assert!(c.max_body_bytes >= 64 * 1024);
        assert!(c.max_sessions >= 1);
    }
}
