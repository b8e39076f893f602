//! Leader/follower WAL replication with checked failover.
//!
//! The journal already gives one process crash safety; this module gives a
//! *pair* of processes availability. The leader ships every committed WAL
//! frame — the exact `[len][crc][lsn][tag][body]` bytes that hit its own
//! disk — over a TCP replication port. A follower (`mube serve --follow`)
//! appends each frame to its own journal verbatim, applies its event
//! through the same replay handlers boot-time recovery uses, and acks by
//! LSN. Because replay is byte-identical, leader/follower state equality is
//! *checkable*: heartbeats carry a state digest (FNV-1a over the payloads
//! of the deleted-filtered live frames) and the follower verifies it
//! whenever its applied LSN matches the heartbeat's — a mismatch marks the
//! follower **diverged**, writes a quarantine marker, and permanently
//! refuses promotion rather than ever silently serving wrong state.
//!
//! ## Wire protocol
//!
//! The follower connects and sends a 16-byte hello: the magic
//! `b"MUBEREP1"` followed by its last applied LSN (u64 LE). The leader
//! responds with a stream of standard WAL frames:
//!
//! * event frames (tags 1–5) — verbatim journal bytes, in LSN order;
//! * heartbeat frames (tag 250, `lsn` = leader's last LSN, body = state
//!   digest as u64 LE) — sent every heartbeat interval and used for both
//!   liveness and the divergence check;
//! * a reset frame (tag 251, `lsn` 0, empty body) — sent when the
//!   follower's ack is behind the leader's compaction drop horizon, telling
//!   it to discard everything and take the full live set that follows.
//!
//! The follower writes 8-byte LE acked-LSN values back on the same socket.
//! An ack means the frame is durable (journaled **and** fsynced) on the
//! follower — that is the invariant `--repl-sync` builds on. A torn or
//! corrupt frame on the stream makes the follower drop the connection and
//! reconnect with its last good LSN, so corruption re-requests instead of
//! quarantining good state.
//!
//! Every blocking socket operation in this module carries an explicit
//! timeout (the `mube lint-src` MUBE107 invariant): a wedged peer can
//! stall a replication thread for at most one timeout, never forever.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{encode_frame, parse_frame, RawFrame};
use crate::persist::Journal;
use crate::server::ServerState;

/// Replication hello magic (8 bytes, versioned).
pub(crate) const MAGIC: [u8; 8] = *b"MUBEREP1";

/// Heartbeat frame tag: `lsn` = leader's last LSN, body = state digest.
pub const TAG_HEARTBEAT: u8 = 250;

/// Reset frame tag: discard local state, a full resync follows.
pub const TAG_RESET: u8 = 251;

/// Roles a replicated server moves through. Stored in an `AtomicU8` on the
/// server state; transitions are FOLLOWER → CANDIDATE → LEADER only.
pub(crate) const ROLE_LEADER: u8 = 0;
/// See [`ROLE_LEADER`].
pub(crate) const ROLE_FOLLOWER: u8 = 1;
/// See [`ROLE_LEADER`].
pub(crate) const ROLE_CANDIDATE: u8 = 2;

/// The `/healthz` string for a role byte.
pub(crate) fn role_str(role: u8) -> &'static str {
    match role {
        ROLE_FOLLOWER => "follower",
        ROLE_CANDIDATE => "candidate",
        _ => "leader",
    }
}

/// Filename of the divergence quarantine marker in the data dir. Its
/// presence means this data dir failed a digest check against its leader
/// and must never be promoted without operator intervention.
pub(crate) const DIVERGED_MARKER: &str = "diverged.marker";

/// Delay between follower reconnect attempts.
const RECONNECT_DELAY: Duration = Duration::from_millis(200);

/// Connect timeout for the follower's dial to the leader.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a draining leader holds a follower socket open waiting for the
/// journal tip to be acked before closing it anyway.
const DRAIN_ACK_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Incremental frame reader
// ---------------------------------------------------------------------------

/// An incremental WAL-frame decoder over a byte stream: the stream mode
/// of [`parse_frame`]. Feed it whatever the socket yields; it emits
/// complete frames, treats a torn frame as "need more bytes", and reports
/// a bad length or CRC as an error (the caller drops the connection and
/// re-requests).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived stream doesn't grow the buffer.
        if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Next complete frame, borrowed from the reader's buffer: `Ok(None)`
    /// means more bytes are needed; `Err` means the stream is corrupt from
    /// here on.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame<'_>>, String> {
        match parse_frame(&self.buf[self.pos..]) {
            Ok(Some((frame, len))) => {
                self.pos += len;
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(stop) if stop.is_torn() => Ok(None),
            Err(stop) => Err(stop.to_string()),
        }
    }
}

/// Encodes a heartbeat frame for `(last_lsn, digest)`.
pub fn encode_heartbeat(lsn: u64, digest: u64) -> Vec<u8> {
    encode_frame(lsn, TAG_HEARTBEAT, &digest.to_le_bytes()).expect("an 8-byte body fits a frame")
}

/// Encodes the reset frame that precedes a full resync.
pub fn encode_reset() -> Vec<u8> {
    encode_frame(0, TAG_RESET, &[]).expect("an empty body fits a frame")
}

// ---------------------------------------------------------------------------
// Leader side: the replication hub
// ---------------------------------------------------------------------------

/// One connected follower, as the leader sees it: an outbound frame queue
/// drained by a writer thread, and the ack state fed by a reader thread.
pub(crate) struct FollowerConn {
    queue: Mutex<VecDeque<Arc<[u8]>>>,
    cv: Condvar,
    acked: AtomicU64,
    last_ack: Mutex<Instant>,
    dead: AtomicBool,
}

impl FollowerConn {
    fn new() -> Self {
        FollowerConn {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            acked: AtomicU64::new(0),
            last_ack: Mutex::new(Instant::now()),
            dead: AtomicBool::new(false),
        }
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// The leader's fan-out point: every journal append publishes its frame
/// here; per-follower writer threads drain their queues; acks funnel back
/// for `--repl-sync` waits and `/metrics` lag reporting.
pub(crate) struct ReplHub {
    conns: Mutex<Vec<Arc<FollowerConn>>>,
    /// Highest LSN acked by *any* live follower (semi-sync needs one
    /// durable copy besides the leader's, not a quorum).
    ack: Mutex<u64>,
    ack_cv: Condvar,
    frames_shipped: AtomicU64,
    heartbeats_sent: AtomicU64,
    resets_sent: AtomicU64,
}

impl ReplHub {
    pub(crate) fn new() -> Self {
        ReplHub {
            conns: Mutex::new(Vec::new()),
            ack: Mutex::new(0),
            ack_cv: Condvar::new(),
            frames_shipped: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            resets_sent: AtomicU64::new(0),
        }
    }

    /// Enqueues one committed frame for every live follower.
    pub(crate) fn publish(&self, frame: &Arc<[u8]>) {
        let conns = self.conns.lock().expect("repl conns lock poisoned");
        for conn in conns.iter() {
            if conn.dead.load(Ordering::SeqCst) {
                continue;
            }
            conn.queue
                .lock()
                .expect("repl queue lock poisoned")
                .push_back(Arc::clone(frame));
            conn.cv.notify_one();
        }
    }

    /// Records a follower's ack and wakes semi-sync waiters.
    fn note_ack(&self, lsn: u64) {
        let mut acked = self.ack.lock().expect("repl ack lock poisoned");
        if lsn > *acked {
            *acked = lsn;
            self.ack_cv.notify_all();
        }
    }

    /// Blocks until some follower has durably acked `lsn`, or the timeout
    /// elapses. This is the `--repl-sync` gate: a mutating response is not
    /// sent until this returns `true`.
    pub(crate) fn wait_acked(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut acked = self.ack.lock().expect("repl ack lock poisoned");
        while *acked < lsn {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .ack_cv
                .wait_timeout(acked, deadline - now)
                .expect("repl ack lock poisoned");
            acked = guard;
        }
        true
    }

    /// `(live followers, max acked LSN, freshest ack age)`.
    fn ack_view(&self) -> (u64, u64, Option<Duration>) {
        let conns = self.conns.lock().expect("repl conns lock poisoned");
        let mut live = 0u64;
        let mut acked = 0u64;
        let mut age: Option<Duration> = None;
        for conn in conns.iter() {
            if conn.dead.load(Ordering::SeqCst) {
                continue;
            }
            live += 1;
            acked = acked.max(conn.acked.load(Ordering::SeqCst));
            let last = *conn.last_ack.lock().expect("repl ack-time lock poisoned");
            let a = last.elapsed();
            age = Some(age.map_or(a, |cur| cur.min(a)));
        }
        (live, acked, age)
    }

    fn register(&self, conn: Arc<FollowerConn>) {
        self.conns
            .lock()
            .expect("repl conns lock poisoned")
            .push(conn);
    }

    fn unregister(&self, conn: &Arc<FollowerConn>) {
        conn.mark_dead();
        self.conns
            .lock()
            .expect("repl conns lock poisoned")
            .retain(|c| !Arc::ptr_eq(c, conn));
    }

    /// Live follower connections (the drain path skips its final
    /// ship-and-wait when nobody is listening).
    pub(crate) fn live_followers(&self) -> u64 {
        self.ack_view().0
    }

    /// Wakes every writer thread (used at drain so they flush and exit).
    pub(crate) fn wake_all(&self) {
        let conns = self.conns.lock().expect("repl conns lock poisoned");
        for conn in conns.iter() {
            conn.cv.notify_all();
        }
    }
}

/// Accepts follower connections on the replication listener until the
/// server drains. One thread per follower pair (writer + ack reader).
pub(crate) fn run_leader_acceptor(listener: TcpListener, state: Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("mube-repl-conn".to_string())
            .spawn(move || serve_follower(stream, &state));
    }
}

/// Handles one follower connection on the leader: hello, backlog, then
/// stream frames + heartbeats while reading acks.
fn serve_follower(stream: TcpStream, state: &ServerState) {
    let Some(journal) = &state.journal else {
        return;
    };
    let Some(hub) = &state.repl_hub else { return };
    let config = &state.config;
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    // Hello: magic + the follower's last applied LSN.
    let mut hello = [0u8; 16];
    let mut rd = &stream;
    // deadline: read_timeout is set above, so a silent dialer can hold
    // this thread for at most one timeout.
    if rd.read_exact(&mut hello).is_err() || hello[..8] != MAGIC {
        return;
    }
    let follower_lsn = u64::from_le_bytes(hello[8..16].try_into().expect("8 bytes"));

    let conn = Arc::new(FollowerConn::new());
    hub.register(Arc::clone(&conn));
    // Registration happens *before* the backlog snapshot, so a frame
    // published in between appears both in the backlog and the queue; the
    // follower's `lsn <= applied` skip de-duplicates. Backlog goes to the
    // queue front to preserve LSN order past that race.
    {
        let mut q = conn.queue.lock().expect("repl queue lock poisoned");
        let (reset, frames) = journal.frames_after(follower_lsn);
        for frame in frames.into_iter().rev() {
            q.push_front(frame);
        }
        if reset {
            // The follower's ack horizon predates a dropping compaction:
            // catch-up frames are gone, full resync.
            q.push_front(encode_reset().into());
            hub.resets_sent.fetch_add(1, Ordering::SeqCst);
        }
    }
    conn.cv.notify_one();

    // Ack reader: 8-byte LE LSNs, one per durable follower apply.
    let ack_conn = Arc::clone(&conn);
    let ack_hub = Arc::clone(hub);
    let ack_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            hub.unregister(&conn);
            return;
        }
    };
    let ack_reader = std::thread::Builder::new()
        .name("mube-repl-ack".to_string())
        .spawn(move || {
            let mut buf = [0u8; 8];
            let mut rd = &ack_stream;
            loop {
                // deadline: the socket read timeout (set at accept)
                // bounds each wait; timeouts mean "no acks right now",
                // which is fine between heartbeats.
                match rd.read_exact(&mut buf) {
                    Ok(()) => {
                        let lsn = u64::from_le_bytes(buf);
                        ack_conn.acked.store(lsn, Ordering::SeqCst);
                        *ack_conn
                            .last_ack
                            .lock()
                            .expect("repl ack-time lock poisoned") = Instant::now();
                        ack_hub.note_ack(lsn);
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if ack_conn.dead.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Err(_) => {
                        ack_conn.mark_dead();
                        return;
                    }
                }
            }
        });

    // Writer loop: drain the queue; on idle ticks send a heartbeat with
    // the current (last_lsn, digest) pair for liveness + divergence checks.
    let mut wr = &stream;
    'writer: loop {
        let draining = state.draining.load(Ordering::SeqCst);
        let next = {
            let mut q = conn.queue.lock().expect("repl queue lock poisoned");
            if q.is_empty() && !draining && !conn.dead.load(Ordering::SeqCst) {
                let (guard, _) = conn
                    .cv
                    .wait_timeout(q, config.heartbeat_interval)
                    .expect("repl queue lock poisoned");
                q = guard;
            }
            q.pop_front()
        };
        if conn.dead.load(Ordering::SeqCst) {
            break;
        }
        match next {
            Some(frame) => {
                // deadline: write_timeout is set at accept; a stalled
                // follower fails the write instead of wedging the leader.
                if wr.write_all(&frame).is_err() {
                    break 'writer;
                }
                hub.frames_shipped.fetch_add(1, Ordering::SeqCst);
            }
            None => {
                let (lsn, digest) = journal.state_digest();
                if wr.write_all(&encode_heartbeat(lsn, digest)).is_err() {
                    break 'writer;
                }
                hub.heartbeats_sent.fetch_add(1, Ordering::SeqCst);
                if draining {
                    // Final frame batch + heartbeat are out. Hold the
                    // socket open — bounded — until the follower acks the
                    // tip: closing immediately would kill the ack channel
                    // the drain path's wait_acked depends on, and could cut
                    // off a follower still reading the shipped tail.
                    let tip = journal.last_lsn();
                    let deadline = Instant::now() + DRAIN_ACK_TIMEOUT;
                    while conn.acked.load(Ordering::SeqCst) < tip
                        && !conn.dead.load(Ordering::SeqCst)
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    break 'writer;
                }
            }
        }
    }
    hub.unregister(&conn);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if let Ok(h) = ack_reader {
        let _ = h.join();
    }
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// The follower's replication state, shared between the client thread,
/// the HTTP handlers (role gate, promote, healthz), and `/metrics`.
pub(crate) struct FollowerState {
    /// The leader's address (`--follow`), echoed as the 409 leader hint.
    pub(crate) leader: String,
    /// Last LSN durably applied locally.
    pub(crate) applied: AtomicU64,
    /// Last LSN at which a heartbeat digest check passed.
    pub(crate) verified: AtomicU64,
    /// Set when a digest check failed; never cleared at runtime.
    pub(crate) diverged: AtomicBool,
    /// Tells the client thread to stop (promotion or shutdown).
    pub(crate) stop: AtomicBool,
    /// Last successful contact with the leader (connect or frame).
    pub(crate) last_contact: Mutex<Option<Instant>>,
    pub(crate) frames_applied: AtomicU64,
    pub(crate) resyncs: AtomicU64,
    pub(crate) digest_checks: AtomicU64,
    pub(crate) digest_failures: AtomicU64,
}

impl FollowerState {
    pub(crate) fn new(leader: String, diverged: bool) -> Self {
        FollowerState {
            leader,
            applied: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            diverged: AtomicBool::new(diverged),
            stop: AtomicBool::new(false),
            last_contact: Mutex::new(None),
            frames_applied: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            digest_checks: AtomicU64::new(0),
            digest_failures: AtomicU64::new(0),
        }
    }

    fn touch_contact(&self) {
        *self
            .last_contact
            .lock()
            .expect("follower contact lock poisoned") = Some(Instant::now());
    }

    fn contact_age(&self) -> Option<Duration> {
        self.last_contact
            .lock()
            .expect("follower contact lock poisoned")
            .map(|t| t.elapsed())
    }
}

/// The follower client loop: connect to the leader, apply the frame
/// stream, ack durably applied LSNs, and — when the leader goes silent
/// past `--promote-timeout` — self-promote (digest-gated).
pub(crate) fn run_follower(state: Arc<ServerState>) {
    let Some(follower) = state.follower.clone() else {
        return;
    };
    follower.touch_contact(); // grace period starts at boot, not at epoch
    while !should_stop(&state, &follower) {
        match connect_leader(&follower.leader, &state) {
            Ok(stream) => {
                follower.touch_contact();
                if let Err(why) = serve_follow_stream(&stream, &state, &follower) {
                    if !why.is_empty() {
                        eprintln!("mube-serve: replication stream error: {why}");
                    }
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            Err(_) => {
                // Leader unreachable; fall through to the promote check.
            }
        }
        if should_stop(&state, &follower) {
            break;
        }
        if maybe_auto_promote(&state, &follower) {
            return;
        }
        std::thread::sleep(RECONNECT_DELAY);
    }
}

fn should_stop(state: &ServerState, follower: &FollowerState) -> bool {
    follower.stop.load(Ordering::SeqCst)
        || follower.diverged.load(Ordering::SeqCst)
        || state.draining.load(Ordering::SeqCst)
}

/// Dials the leader with bounded connect + socket timeouts.
fn connect_leader(addr: &str, state: &ServerState) -> std::io::Result<TcpStream> {
    let sockaddr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
    // deadline: connect, reads, and writes are all individually bounded.
    let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(state.config.read_timeout))?;
    stream.set_write_timeout(Some(state.config.write_timeout))?;
    Ok(stream)
}

/// Applies one connection's worth of the leader's frame stream. Returns
/// `Err` with a reason on a corrupt stream (caller reconnects and the
/// hello's LSN re-requests from the last good frame) and `Ok` on an
/// orderly end (EOF, stop, drain).
fn serve_follow_stream(
    stream: &TcpStream,
    state: &ServerState,
    follower: &FollowerState,
) -> Result<(), String> {
    let Some(journal) = &state.journal else {
        return Err("follower requires a journal".to_string());
    };
    let mut wr = stream;
    let mut hello = Vec::with_capacity(16);
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&follower.applied.load(Ordering::SeqCst).to_le_bytes());
    wr.write_all(&hello).map_err(|e| format!("hello: {e}"))?;

    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 8192];
    let mut rd = stream;
    loop {
        if should_stop(state, follower) {
            return Ok(());
        }
        // deadline: the socket read timeout bounds this; a timeout with a
        // silent leader feeds the missed-heartbeat promotion clock.
        let n = match rd.read(&mut chunk) {
            Ok(0) => return Ok(()), // leader closed (drain or death)
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // No heartbeat inside the read timeout: hand control back
                // so the outer loop can weigh auto-promotion.
                return Ok(());
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        reader.feed(&chunk[..n]);
        let mut applied_any = false;
        let mut heartbeat: Option<(u64, u64)> = None;
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => match frame.tag {
                    TAG_HEARTBEAT => {
                        let body: [u8; 8] = frame
                            .body
                            .try_into()
                            .map_err(|_| "heartbeat body must be 8 bytes".to_string())?;
                        heartbeat = Some((frame.lsn, u64::from_le_bytes(body)));
                    }
                    TAG_RESET => {
                        // Full resync: drop everything, take the live set.
                        state.store.clear();
                        journal.reset().map_err(|e| format!("reset: {e}"))?;
                        follower.applied.store(0, Ordering::SeqCst);
                        follower.verified.store(0, Ordering::SeqCst);
                        follower.resyncs.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {
                        if frame.lsn <= follower.applied.load(Ordering::SeqCst) {
                            continue; // duplicate from the backlog race
                        }
                        apply_frame(state, journal, follower, frame)?;
                        applied_any = true;
                    }
                },
                Ok(None) => break,
                Err(why) => {
                    // Corrupt stream: reconnect and re-request from the
                    // last good LSN. Nothing bad was applied (the CRC
                    // gate rejected the frame before decode).
                    follower.resyncs.fetch_add(1, Ordering::SeqCst);
                    return Err(why);
                }
            }
        }
        follower.touch_contact();
        // Ack once per read burst: everything applied above is already
        // durable (apply_frame flushes), so one ack covers the batch.
        let applied = follower.applied.load(Ordering::SeqCst);
        if applied_any {
            // deadline: write timeout set at connect.
            wr.write_all(&applied.to_le_bytes())
                .map_err(|e| format!("ack: {e}"))?;
        }
        if let Some((hb_lsn, hb_digest)) = heartbeat {
            check_heartbeat(state, journal, follower, hb_lsn, hb_digest)?;
            // Heartbeat acks keep the leader's ack-age metric fresh even
            // when no frames flow.
            wr.write_all(&follower.applied.load(Ordering::SeqCst).to_le_bytes())
                .map_err(|e| format!("ack: {e}"))?;
        }
    }
}

/// Journals (durably, as the received bytes), replays, and publishes one
/// replicated frame.
fn apply_frame(
    state: &ServerState,
    journal: &Journal,
    follower: &FollowerState,
    frame: RawFrame<'_>,
) -> Result<(), String> {
    let lsn = frame.lsn;
    let event = journal
        .append_at(frame)
        .map_err(|e| format!("journal frame {lsn}: {e}"))?;
    // Ack implies durable: fsync regardless of policy, so `--repl-sync`
    // on the leader really means "a second durable copy exists".
    journal.flush().map_err(|e| format!("flush {lsn}: {e}"))?;
    if let Err(why) =
        crate::server::replay_event(&state.store, state.config.max_solve_evaluations, event)
    {
        // Same stance as boot replay: log and skip, keep the stream
        // moving. The digest check still covers us — the journaled bytes
        // are identical even if the in-memory apply was skipped, and a
        // skipped apply on one side only will surface as divergence.
        eprintln!("mube-serve: replication apply skipped an event: {why}");
    }
    follower.applied.store(lsn, Ordering::SeqCst);
    follower.frames_applied.fetch_add(1, Ordering::SeqCst);
    // Chaining: if this follower is itself a replication source
    // (`--repl-addr` set), forward the frame downstream.
    if let Some(hub) = &state.repl_hub {
        hub.publish(&frame.bytes.into());
    }
    Ok(())
}

/// Verifies a heartbeat's digest when the applied LSN matches. A mismatch
/// is divergence: quarantine (marker file), never promote, stop
/// replicating — serving stale-but-honest reads beats serving wrong state.
fn check_heartbeat(
    state: &ServerState,
    journal: &Journal,
    follower: &FollowerState,
    hb_lsn: u64,
    hb_digest: u64,
) -> Result<(), String> {
    let applied = follower.applied.load(Ordering::SeqCst);
    if applied != hb_lsn {
        // The heartbeat raced an append; a later one will line up.
        return Ok(());
    }
    let (local_lsn, local_digest) = journal.state_digest();
    if local_lsn != hb_lsn {
        return Ok(());
    }
    follower.digest_checks.fetch_add(1, Ordering::SeqCst);
    if local_digest == hb_digest {
        follower.verified.store(hb_lsn, Ordering::SeqCst);
        return Ok(());
    }
    follower.digest_failures.fetch_add(1, Ordering::SeqCst);
    follower.diverged.store(true, Ordering::SeqCst);
    if let Some(dir) = &state.config.data_dir {
        let marker = std::path::Path::new(dir).join(DIVERGED_MARKER);
        let _ = std::fs::write(
            &marker,
            format!(
                "state digest mismatch at lsn {hb_lsn}: leader {hb_digest:#018x}, \
                 local {local_digest:#018x}\n"
            ),
        );
    }
    Err(format!(
        "state digest mismatch at lsn {hb_lsn} (leader {hb_digest:#018x}, local \
         {local_digest:#018x}); follower quarantined"
    ))
}

/// Auto-promotion: if the leader has been silent past `--promote-timeout`
/// (0 disables), run the same checked promotion `POST /admin/promote`
/// does. Returns `true` when this follower became the leader.
fn maybe_auto_promote(state: &ServerState, follower: &FollowerState) -> bool {
    let timeout = state.config.promote_timeout;
    if timeout.is_zero() {
        return false;
    }
    let silent = follower.contact_age().is_none_or(|age| age >= timeout);
    if !silent {
        return false;
    }
    state.role.store(ROLE_CANDIDATE, Ordering::SeqCst);
    match promote(state) {
        Ok((lsn, digest)) => {
            eprintln!(
                "mube-serve: leader silent for {}ms; promoted to leader at lsn {lsn} \
                 (digest {digest:#018x})",
                timeout.as_millis()
            );
            true
        }
        Err(why) => {
            // Diverged: stay a candidate refusing writes; an operator
            // must intervene. Never serve wrong state.
            eprintln!("mube-serve: auto-promotion refused: {why}");
            follower.stop.store(true, Ordering::SeqCst);
            false
        }
    }
}

/// The checked promotion: refuses on a leader (`already_leader`) and on a
/// quarantined follower (`diverged`); otherwise stops the replication
/// client, flips the role, and returns the promoted `(lsn, digest)` pair
/// — the proof obligation the failover test compares against the old
/// leader's replayed data dir.
pub(crate) fn promote(state: &ServerState) -> Result<(u64, u64), &'static str> {
    let Some(follower) = &state.follower else {
        return Err("already_leader");
    };
    if state.role.load(Ordering::SeqCst) == ROLE_LEADER {
        return Err("already_leader");
    }
    if follower.diverged.load(Ordering::SeqCst) {
        return Err("diverged");
    }
    follower.stop.store(true, Ordering::SeqCst);
    state.role.store(ROLE_LEADER, Ordering::SeqCst);
    let (lsn, digest) = match &state.journal {
        Some(j) => j.state_digest(),
        None => (0, 0),
    };
    Ok((lsn, digest))
}

// ---------------------------------------------------------------------------
// Anti-entropy resync
// ---------------------------------------------------------------------------

/// Why a resync was refused or aborted.
#[derive(Debug)]
pub(crate) enum ResyncError {
    /// This node has no follower state (it is, or has become, a leader).
    NotFollower,
    /// The archive/reset phase failed; the node keeps its pre-resync
    /// state (nothing is wiped before archival succeeds).
    Io(std::io::Error),
}

/// What `/admin/resync` did.
#[derive(Debug)]
pub(crate) struct ResyncOutcome {
    /// Quarantine files holding the pre-resync journal, for forensics.
    pub(crate) archived: Vec<std::path::PathBuf>,
    /// Whether the node was under divergence quarantine when resynced.
    pub(crate) was_diverged: bool,
}

/// Un-quarantines a replica by rebuilding it from its leader. The order
/// matters:
///
/// 1. stop and join the replication thread (divergence already made it
///    exit; a live one stops within a read timeout) so nothing appends
///    while the journal is rebuilt;
/// 2. archive the local journal into quarantine files — `fs::copy`, not
///    rename, because [`Journal::reset`] truncates through its held file
///    handle and would hollow out a renamed archive;
/// 3. wipe: clear the store, reset the journal, drop the divergence
///    marker, rewind `applied`/`verified` to 0;
/// 4. rejoin: flip the role back to follower (auto-promotion may have
///    left it a candidate), un-fence reads/writes gated on `read_only`,
///    and spawn a fresh replication thread whose LSN-0 hello pulls the
///    leader's full history through the normal frame machinery.
///
/// Divergence is *not* required: resyncing a healthy follower is a
/// harmless (if wasteful) full re-pull, and an operator who distrusts a
/// replica should not have to wait for a digest round to fail.
pub(crate) fn resync(state: &Arc<ServerState>) -> Result<ResyncOutcome, ResyncError> {
    let follower = state.follower.as_ref().ok_or(ResyncError::NotFollower)?;
    if state.role.load(Ordering::SeqCst) == ROLE_LEADER {
        return Err(ResyncError::NotFollower);
    }
    let journal = state.journal.as_ref().ok_or(ResyncError::NotFollower)?;
    let dir = std::path::PathBuf::from(
        state
            .config
            .data_dir
            .as_ref()
            .ok_or(ResyncError::NotFollower)?,
    );
    let was_diverged = follower.diverged.load(Ordering::SeqCst);

    follower.stop.store(true, Ordering::SeqCst);
    let old_thread = state
        .follower_thread
        .lock()
        .expect("follower thread lock poisoned")
        .take();
    if let Some(handle) = old_thread {
        // Bounded: every socket read in run_follower carries a timeout,
        // so the thread observes `stop` within one timeout.
        let _ = handle.join();
    }

    // Make everything on disk durable first so the archive is a faithful
    // copy of what this replica believed.
    journal.flush().map_err(ResyncError::Io)?;
    let mut archived = Vec::new();
    for name in ["snapshot.wal", "journal.wal"] {
        let src = dir.join(name);
        let has_bytes = std::fs::metadata(&src).is_ok_and(|m| m.len() > 0);
        if has_bytes {
            let dst = crate::persist::quarantine_path(&dir);
            std::fs::copy(&src, &dst).map_err(ResyncError::Io)?;
            archived.push(dst);
        }
    }
    crate::persist::prune_quarantines(&dir, state.config.quarantine_keep);

    state.store.clear();
    journal.reset().map_err(ResyncError::Io)?;
    let _ = std::fs::remove_file(dir.join(DIVERGED_MARKER));
    follower.applied.store(0, Ordering::SeqCst);
    follower.verified.store(0, Ordering::SeqCst);
    follower.diverged.store(false, Ordering::SeqCst);
    follower.resyncs.fetch_add(1, Ordering::SeqCst);
    state.role.store(ROLE_FOLLOWER, Ordering::SeqCst);
    state.read_only.store(false, Ordering::SeqCst);
    follower.stop.store(false, Ordering::SeqCst);

    let st = Arc::clone(state);
    let handle = std::thread::Builder::new()
        .name("mube-repl-follower".to_string())
        .spawn(move || run_follower(st))
        .map_err(ResyncError::Io)?;
    *state
        .follower_thread
        .lock()
        .expect("follower thread lock poisoned") = Some(handle);
    Ok(ResyncOutcome {
        archived,
        was_diverged,
    })
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Replication counters for `/metrics`: role, LSN positions, lag, and the
/// health of the digest handshake.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplStats {
    /// `leader`, `follower`, or `candidate`.
    pub role: &'static str,
    /// Leader: last committed LSN. Follower: last applied LSN.
    pub last_lsn: u64,
    /// Live follower connections (leader side).
    pub followers: u64,
    /// Highest LSN acked by any live follower (leader side).
    pub acked_lsn: u64,
    /// Replication lag in LSNs: `last_lsn - acked_lsn` (leader side).
    pub lag: u64,
    /// Milliseconds since the freshest follower ack (leader side).
    pub ack_age_ms: Option<u64>,
    /// Frames shipped to followers since boot (leader side).
    pub frames_shipped: u64,
    /// Heartbeats sent (leader) or digest checks run (follower).
    pub heartbeats: u64,
    /// Full resyncs initiated (RESET frames sent or received).
    pub resets: u64,
    /// The upstream leader address (follower side).
    pub leader: Option<String>,
    /// Last digest-verified LSN (follower side).
    pub verified_lsn: u64,
    /// Digest checks that failed (any failure also sets `diverged`).
    pub digest_failures: u64,
    /// Whether this node is quarantined by a failed digest check.
    pub diverged: bool,
    /// Milliseconds since last leader contact (follower side).
    pub last_contact_ms: Option<u64>,
}

/// Builds the `/metrics` replication block; `None` when the server runs
/// unreplicated (no `--repl-addr`, no `--follow`).
pub(crate) fn repl_stats(state: &ServerState) -> Option<ReplStats> {
    if state.repl_hub.is_none() && state.follower.is_none() {
        return None;
    }
    let mut s = ReplStats {
        role: role_str(state.role.load(Ordering::SeqCst)),
        last_lsn: state.journal.as_ref().map_or(0, Journal::last_lsn),
        ..ReplStats::default()
    };
    if let Some(hub) = &state.repl_hub {
        let (live, acked, age) = hub.ack_view();
        s.followers = live;
        s.acked_lsn = acked;
        s.lag = s.last_lsn.saturating_sub(acked);
        s.ack_age_ms = age.map(|a| u64::try_from(a.as_millis()).unwrap_or(u64::MAX));
        s.frames_shipped = hub.frames_shipped.load(Ordering::SeqCst);
        s.heartbeats = hub.heartbeats_sent.load(Ordering::SeqCst);
        s.resets = hub.resets_sent.load(Ordering::SeqCst);
    }
    if let Some(f) = &state.follower {
        s.leader = Some(f.leader.clone());
        s.verified_lsn = f.verified.load(Ordering::SeqCst);
        s.heartbeats = s.heartbeats.max(f.digest_checks.load(Ordering::SeqCst));
        s.resets = s.resets.max(f.resyncs.load(Ordering::SeqCst));
        s.digest_failures = f.digest_failures.load(Ordering::SeqCst);
        s.diverged = f.diverged.load(Ordering::SeqCst);
        s.last_contact_ms = f
            .contact_age()
            .map(|a| u64::try_from(a.as_millis()).unwrap_or(u64::MAX));
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{encode_event_frame, Event};

    fn frame(lsn: u64, event: &Event) -> Vec<u8> {
        encode_event_frame(lsn, event).unwrap()
    }

    fn ev(id: u64) -> Event {
        Event::CatalogCreate {
            id,
            text: format!("catalog {id}"),
        }
    }

    #[test]
    fn frame_reader_roundtrips_split_input() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame(1, &ev(1)));
        wire.extend_from_slice(&encode_heartbeat(1, 0xDEAD_BEEF));
        wire.extend_from_slice(&encode_reset());
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        // Feed one byte at a time: torn boundaries everywhere.
        for &b in &wire {
            reader.feed(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                let event = (f.tag == 1).then(|| Event::decode(f).unwrap());
                frames.push((f.lsn, f.tag, f.body.to_vec(), event));
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!((frames[0].0, frames[0].3.clone()), (1, Some(ev(1))));
        assert_eq!(frames[1].1, TAG_HEARTBEAT);
        assert_eq!(
            u64::from_le_bytes(frames[1].2.as_slice().try_into().unwrap()),
            0xDEAD_BEEF
        );
        assert_eq!(frames[2].1, TAG_RESET);
        assert!(frames[2].2.is_empty());
    }

    #[test]
    fn frame_reader_rejects_corrupt_and_implausible_frames() {
        // Bit flip inside the payload: CRC mismatch.
        let mut wire = frame(1, &ev(1));
        let n = wire.len();
        wire[n - 1] ^= 0x01;
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        assert!(reader.next_frame().unwrap_err().contains("CRC"));

        // Implausible length prefix.
        let mut reader = FrameReader::new();
        reader.feed(&[0xFF; 16]);
        assert!(reader.next_frame().unwrap_err().contains("implausible"));
    }

    #[test]
    fn frame_reader_consumes_good_prefix_before_corruption() {
        let mut wire = frame(1, &ev(1));
        let mut bad = frame(2, &ev(2));
        let n = bad.len();
        bad[n - 2] ^= 0x80;
        wire.extend_from_slice(&bad);
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let first = reader.next_frame().unwrap().expect("good frame");
        assert_eq!(first.lsn, 1);
        assert!(
            reader.next_frame().is_err(),
            "corruption after the good prefix"
        );
    }

    #[test]
    fn hub_acks_and_waits() {
        let hub = ReplHub::new();
        let conn = Arc::new(FollowerConn::new());
        hub.register(Arc::clone(&conn));
        assert!(!hub.wait_acked(5, Duration::from_millis(10)));
        conn.acked.store(5, Ordering::SeqCst);
        hub.note_ack(5);
        assert!(hub.wait_acked(5, Duration::from_millis(10)));
        assert!(hub.wait_acked(3, Duration::from_millis(10)), "monotone");
        let (live, acked, _) = hub.ack_view();
        assert_eq!((live, acked), (1, 5));
        hub.unregister(&conn);
        let (live, _, _) = hub.ack_view();
        assert_eq!(live, 0);
    }

    #[test]
    fn hub_publish_enqueues_per_follower() {
        let hub = ReplHub::new();
        let a = Arc::new(FollowerConn::new());
        let b = Arc::new(FollowerConn::new());
        hub.register(Arc::clone(&a));
        hub.register(Arc::clone(&b));
        b.mark_dead();
        hub.publish(&frame(1, &ev(1)).into());
        assert_eq!(a.queue.lock().unwrap().len(), 1);
        assert_eq!(b.queue.lock().unwrap().len(), 0, "dead conns are skipped");
    }

    #[test]
    fn roles_render_stably() {
        assert_eq!(role_str(ROLE_LEADER), "leader");
        assert_eq!(role_str(ROLE_FOLLOWER), "follower");
        assert_eq!(role_str(ROLE_CANDIDATE), "candidate");
    }
}
