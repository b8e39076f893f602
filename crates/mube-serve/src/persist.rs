//! Durable session journal: a crash-safe write-ahead log for the
//! [`Store`](crate::store::Store).
//!
//! `µBE`'s value is the *iterative* feedback loop — a session accumulates
//! user guidance (pins, adopted GAs, reweights) over many solve rounds, and
//! losing it to a process crash throws that work away. This module journals
//! every state-changing session event to an append-only, CRC32-checksummed,
//! length-prefixed WAL, periodically compacted into a snapshot, so a server
//! restarted with the same `--data-dir` replays its sessions byte-
//! identically.
//!
//! ## On-disk format
//!
//! Two files live in the data directory:
//!
//! * `journal.wal` — the append-only tail. Each record is one [`frame`]
//!   — `[len][crc][lsn][tag][body]` — whose `lsn` is a monotonically
//!   increasing log sequence number shared by both files.
//!
//! * `snapshot.wal` — a compacted prefix of the log. Its first record is a
//!   snapshot header (`tag 0`) carrying `through_lsn`; the rest are the
//!   *live* events (deleted sessions dropped) with their original LSNs.
//!   Snapshots are written to a temp file, fsynced, and atomically renamed,
//!   so a crash never leaves a half snapshot. After a snapshot lands, the
//!   tail is truncated; a crash *between* those two steps is benign because
//!   boot skips tail records with `lsn <= through_lsn`.
//!
//! Torn or bit-flipped tail records are **quarantined, not fatal**: the
//! corrupt suffix is copied to `quarantine-N.wal`, the tail is truncated to
//! the last good record, and the server boots with everything up to that
//! point. Durability of the suffix depends on the [`FsyncPolicy`].
//!
//! Solve events record the *resulting solution* (bit-exact f64s), not the
//! solve parameters: a deadline-cut solve is not reproducible from its seed,
//! but installing the recorded incumbent keeps the session history — and
//! therefore every future seed derivation and warm start — byte-identical.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mube_core::{AttrId, GlobalAttribute, MediatedSchema, Solution, SourceId};

use crate::frame::{self, encode_frame, RawFrame};

/// Snapshot-header record tag (never appears in [`Event`]).
const TAG_SNAPSHOT: u8 = 0;

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "record truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.u8()? != 0)
    }
    fn str(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 in record: {e}"))
    }
    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A bit-exact, self-contained record of one solve's outcome: everything
/// needed to rebuild the [`Solution`] on replay without re-running the
/// solver (floats are stored as raw bit patterns so replay is byte-
/// identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionRecord {
    /// Selected source ids.
    pub sources: Vec<u32>,
    /// `Q(S)` as `f64::to_bits`.
    pub quality_bits: u64,
    /// Objective evaluations spent.
    pub evaluations: u64,
    /// Whether the solve was deadline-cut.
    pub timed_out: bool,
    /// Per-QEF `(name, weight bits, score bits)`.
    pub qef_scores: Vec<(String, u64, u64)>,
    /// Mediated schema: one inner vec per GA, each attr as
    /// `(source id, attr index)`.
    pub schema: Vec<Vec<(u32, u32)>>,
}

impl SolutionRecord {
    /// Captures a solution for journaling.
    pub fn from_solution(sol: &Solution) -> Self {
        SolutionRecord {
            sources: sol.sources.iter().map(|s| s.0).collect(),
            quality_bits: sol.quality.to_bits(),
            evaluations: sol.evaluations,
            timed_out: sol.timed_out,
            qef_scores: sol
                .qef_scores
                .iter()
                .map(|(n, w, s)| (n.clone(), w.to_bits(), s.to_bits()))
                .collect(),
            schema: sol
                .schema
                .gas()
                .iter()
                .map(|ga| ga.attrs().iter().map(|a| (a.source.0, a.index)).collect())
                .collect(),
        }
    }

    /// Rebuilds the solution. Fails only on a structurally invalid record
    /// (e.g. an empty GA), which indicates corruption that slipped past the
    /// CRC or a foreign writer.
    pub fn into_solution(self) -> Result<Solution, String> {
        let sources: BTreeSet<SourceId> = self.sources.iter().map(|&s| SourceId(s)).collect();
        let mut gas = Vec::with_capacity(self.schema.len());
        for attrs in &self.schema {
            let ga = GlobalAttribute::try_new(
                attrs
                    .iter()
                    .map(|&(s, i)| AttrId::new(SourceId(s), i))
                    .collect::<Vec<_>>(),
            )
            .map_err(|e| format!("invalid GA in solve record: {e}"))?;
            gas.push(ga);
        }
        Ok(Solution {
            sources,
            schema: MediatedSchema::new(gas),
            quality: f64::from_bits(self.quality_bits),
            qef_scores: self
                .qef_scores
                .into_iter()
                .map(|(n, w, s)| (n, f64::from_bits(w), f64::from_bits(s)))
                .collect(),
            evaluations: self.evaluations,
            timed_out: self.timed_out,
        })
    }
}

/// One journaled state change. Everything the boot-time replay needs to
/// rebuild the `Store` is in here; requests are stored as their raw JSON
/// bodies so replay reuses the exact handler validation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A catalog upload (`POST /catalogs`), with the full catalog text.
    CatalogCreate {
        /// Assigned catalog id.
        id: u64,
        /// The raw catalog text as uploaded.
        text: String,
    },
    /// A session creation (`POST /sessions`), with the raw request body.
    SessionCreate {
        /// Assigned session id.
        id: u64,
        /// The owning catalog.
        catalog_id: u64,
        /// The raw JSON request body.
        body: String,
    },
    /// A feedback batch (`POST /sessions/{id}/feedback`), raw request body.
    Feedback {
        /// The session the feedback applied to.
        session: u64,
        /// The raw JSON request body.
        body: String,
    },
    /// A completed solve and its exact outcome.
    Solve {
        /// The session that solved.
        session: u64,
        /// The resulting solution, bit-exact.
        solution: SolutionRecord,
    },
    /// A session deletion (explicit `DELETE` or idle eviction).
    SessionDelete {
        /// The deleted session.
        session: u64,
    },
}

impl Event {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Event::CatalogCreate { .. } => 1,
            Event::SessionCreate { .. } => 2,
            Event::Feedback { .. } => 3,
            Event::Solve { .. } => 4,
            Event::SessionDelete { .. } => 5,
        }
    }

    fn encode_body(&self, e: &mut Enc) {
        match self {
            Event::CatalogCreate { id, text } => {
                e.u64(*id);
                e.str(text);
            }
            Event::SessionCreate {
                id,
                catalog_id,
                body,
            } => {
                e.u64(*id);
                e.u64(*catalog_id);
                e.str(body);
            }
            Event::Feedback { session, body } => {
                e.u64(*session);
                e.str(body);
            }
            Event::Solve { session, solution } => {
                e.u64(*session);
                e.u32(solution.sources.len() as u32);
                for &s in &solution.sources {
                    e.u32(s);
                }
                e.u64(solution.quality_bits);
                e.u64(solution.evaluations);
                e.bool(solution.timed_out);
                e.u32(solution.qef_scores.len() as u32);
                for (name, w, s) in &solution.qef_scores {
                    e.str(name);
                    e.u64(*w);
                    e.u64(*s);
                }
                e.u32(solution.schema.len() as u32);
                for ga in &solution.schema {
                    e.u32(ga.len() as u32);
                    for &(src, idx) in ga {
                        e.u32(src);
                        e.u32(idx);
                    }
                }
            }
            Event::SessionDelete { session } => {
                e.u64(*session);
            }
        }
    }

    /// Bytes [`Event::encode_body`] writes, counted without encoding.
    fn body_len(&self) -> usize {
        match self {
            Event::CatalogCreate { text, .. } => 8 + 4 + text.len(),
            Event::SessionCreate { body, .. } => 8 + 8 + 4 + body.len(),
            Event::Feedback { body, .. } => 8 + 4 + body.len(),
            Event::Solve { solution, .. } => {
                let qefs: usize = solution.qef_scores.iter().map(|q| 4 + q.0.len() + 16).sum();
                let gas: usize = solution.schema.iter().map(|ga| 4 + 8 * ga.len()).sum();
                8 + 4 + 4 * solution.sources.len() + 8 + 8 + 1 + 4 + qefs + 4 + gas
            }
            Event::SessionDelete { .. } => 8,
        }
    }

    /// Whether the event fits in one journal frame, checked without
    /// encoding it.
    pub fn fits_frame(&self) -> bool {
        frame::body_fits(self.body_len())
    }

    /// Decodes the event an intact frame carries.
    pub(crate) fn decode(frame: RawFrame<'_>) -> Result<Event, String> {
        let d = &mut Dec::new(frame.body);
        let event = match frame.tag {
            1 => Event::CatalogCreate {
                id: d.u64()?,
                text: d.str()?,
            },
            2 => Event::SessionCreate {
                id: d.u64()?,
                catalog_id: d.u64()?,
                body: d.str()?,
            },
            3 => Event::Feedback {
                session: d.u64()?,
                body: d.str()?,
            },
            4 => {
                let session = d.u64()?;
                let n_sources = d.u32()? as usize;
                let mut sources = Vec::with_capacity(n_sources.min(65_536));
                for _ in 0..n_sources {
                    sources.push(d.u32()?);
                }
                let quality_bits = d.u64()?;
                let evaluations = d.u64()?;
                let timed_out = d.bool()?;
                let n_qefs = d.u32()? as usize;
                let mut qef_scores = Vec::with_capacity(n_qefs.min(65_536));
                for _ in 0..n_qefs {
                    qef_scores.push((d.str()?, d.u64()?, d.u64()?));
                }
                let n_gas = d.u32()? as usize;
                let mut schema = Vec::with_capacity(n_gas.min(65_536));
                for _ in 0..n_gas {
                    let n_attrs = d.u32()? as usize;
                    let mut ga = Vec::with_capacity(n_attrs.min(65_536));
                    for _ in 0..n_attrs {
                        ga.push((d.u32()?, d.u32()?));
                    }
                    schema.push(ga);
                }
                Event::Solve {
                    session,
                    solution: SolutionRecord {
                        sources,
                        quality_bits,
                        evaluations,
                        timed_out,
                        qef_scores,
                        schema,
                    },
                }
            }
            5 => Event::SessionDelete { session: d.u64()? },
            other => return Err(format!("unknown record tag {other}")),
        };
        d.done()?;
        Ok(event)
    }

    /// The session this event belongs to, if session-scoped.
    pub(crate) fn session_id(&self) -> Option<u64> {
        match self {
            Event::CatalogCreate { .. } => None,
            Event::SessionCreate { id, .. } => Some(*id),
            Event::Feedback { session, .. }
            | Event::Solve { session, .. }
            | Event::SessionDelete { session } => Some(*session),
        }
    }
}

/// Encodes one event as a frame; refuses (`InvalidInput`) an event over
/// the frame bound.
pub fn encode_event_frame(lsn: u64, event: &Event) -> std::io::Result<Vec<u8>> {
    let mut enc = Enc::new();
    event.encode_body(&mut enc);
    encode_frame(lsn, event.tag(), &enc.buf)
}

/// Writes `snapshot.wal` atomically (temp file, fsync, rename): a header
/// carrying `through_lsn`, then the frames of `live`. Shared by compaction
/// and `mube fsck --repair`.
pub(crate) fn write_snapshot(
    dir: &Path,
    through_lsn: u64,
    live: &[(u64, Event)],
) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    {
        let mut f = File::create(&tmp)?;
        let header = through_lsn.to_le_bytes();
        f.write_all(&encode_frame(
            through_lsn.wrapping_add(1),
            TAG_SNAPSHOT,
            &header,
        )?)?;
        for (lsn, event) in live {
            f.write_all(&encode_event_frame(*lsn, event)?)?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join("snapshot.wal"))?;
    if let Ok(d) = File::open(dir) {
        // durability: directory sync is best-effort — some filesystems
        // refuse fsync on a directory handle, and losing only the rename
        // leaves the previous snapshot and the tail, which boot replays.
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// File scanning
// ---------------------------------------------------------------------------

/// One decoded record.
pub(crate) enum Record {
    Snapshot { through_lsn: u64 },
    Event { lsn: u64, event: Event },
}

impl Record {
    /// The one record decoder over an intact frame: snapshot header or
    /// event. Boot replay, the scrubber and `mube fsck` all decode here.
    pub(crate) fn decode(frame: RawFrame<'_>) -> Result<Record, String> {
        if frame.tag == TAG_SNAPSHOT {
            let mut d = Dec::new(frame.body);
            return d
                .u64()
                .and_then(|through_lsn| d.done().map(|()| Record::Snapshot { through_lsn }))
                .map_err(|e| format!("bad snapshot header: {e}"));
        }
        Event::decode(frame)
            .map(|event| Record::Event {
                lsn: frame.lsn,
                event,
            })
            .map_err(|e| format!("undecodable record: {e}"))
    }
}

/// A WAL file's bytes; an absent file reads as empty.
fn read_wal(path: &Path) -> std::io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// The live event set a boot over a snapshot scan and a tail scan loads.
pub(crate) struct Live {
    /// Snapshot members, then tail events past the horizon, in LSN order.
    pub(crate) events: Vec<(u64, Event)>,
    /// The snapshot header's compaction horizon (0 without one).
    pub(crate) through_lsn: u64,
    /// How many of `events` came from the snapshot.
    pub(crate) snapshot_events: u64,
}

impl Live {
    /// Folds the two scans: the snapshot header's horizon, its members,
    /// and the tail events with `lsn > through_lsn` (a tail record at or
    /// below it is the benign crash window between snapshot rename and
    /// tail truncation), sorted by LSN.
    pub(crate) fn fold(snapshot: Vec<Record>, tail: Vec<Record>) -> Live {
        let mut through_lsn = 0u64;
        let mut events = Vec::new();
        for rec in snapshot {
            match rec {
                Record::Snapshot { through_lsn: t } => through_lsn = t,
                Record::Event { lsn, event } => events.push((lsn, event)),
            }
        }
        let snapshot_events = events.len() as u64;
        for rec in tail {
            if let Record::Event { lsn, event } = rec {
                if lsn > through_lsn {
                    events.push((lsn, event));
                }
            }
        }
        events.sort_by_key(|&(lsn, _)| lsn);
        Live {
            events,
            through_lsn,
            snapshot_events,
        }
    }

    /// Events that came from the tail.
    pub(crate) fn tail_events(&self) -> u64 {
        self.events.len() as u64 - self.snapshot_events
    }

    /// The highest LSN covered: the last event's, or the horizon.
    pub(crate) fn last_lsn(&self) -> u64 {
        self.events
            .last()
            .map_or(self.through_lsn, |&(lsn, _)| lsn.max(self.through_lsn))
    }
}

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When journal appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: no acknowledged event is ever lost, at a
    /// per-request latency cost.
    Always,
    /// `fsync` at most once per interval (plus on eviction, deletion, and
    /// shutdown). A crash loses at most the last interval's events.
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes when it pleases. Fastest,
    /// weakest.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(Duration::from_millis(100))
    }
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::default()),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("invalid fsync interval `{ms}` (expected milliseconds)")),
                None => Err(format!(
                    "unknown fsync policy `{other}` (expected always, interval[:ms], or never)"
                )),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// What boot-time recovery found in the data directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Events restored from the snapshot.
    pub snapshot_events: u64,
    /// Events restored from the journal tail.
    pub tail_events: u64,
    /// Bytes of corrupt suffix moved to a quarantine file (0 = clean).
    pub quarantined_bytes: u64,
    /// Path of the quarantine file, when corruption was found.
    pub quarantine_file: Option<PathBuf>,
    /// Description of the corruption, when found.
    pub corruption: Option<String>,
}

/// Counters exposed through `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStats {
    /// Events appended since boot.
    pub appends: u64,
    /// Snapshots written since boot.
    pub snapshots: u64,
    /// Events currently live (after compaction).
    pub live_events: u64,
    /// Bytes quarantined at boot.
    pub quarantined_bytes: u64,
    /// `quarantine-N.wal` files currently on disk (after retention).
    pub quarantine_files: u64,
}

/// Default retention for `quarantine-N.wal` evidence files (newest kept).
pub const DEFAULT_QUARANTINE_KEEP: u64 = 8;

/// One background-scrub pass over the on-disk files, compared against the
/// in-memory journal mirror. `ok` is the only field the caller must act
/// on: `false` means the disk no longer replays to the state being served.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// LSN of the in-memory journal at scrub time.
    pub last_lsn: u64,
    /// Digest of the in-memory live event stream.
    pub memory_digest: u64,
    /// Digest of the live event stream re-read from disk.
    pub disk_digest: u64,
    /// First corruption found re-reading the files, if any.
    pub corruption: Option<String>,
    /// Whether the disk matches the served state.
    pub ok: bool,
}

struct JournalInner {
    tail: File,
    policy: FsyncPolicy,
    last_sync: Instant,
    next_lsn: u64,
    /// In-memory mirror of every live event (snapshot + tail), in LSN
    /// order. Kept under the same lock as the tail file so compaction
    /// never needs any other lock — handlers append and move on.
    live: Vec<(u64, Event)>,
    tail_records: u64,
    snapshot_every: u64,
    appends: u64,
    snapshots: u64,
    quarantined_bytes: u64,
    /// `through_lsn` of the most recent compaction that actually *dropped*
    /// events. A replication follower whose ack is behind this horizon can
    /// no longer be caught up frame-by-frame (the dropped frames are gone)
    /// and must full-resync instead.
    last_drop_through: u64,
}

/// The durable session journal. One per server; `append` is safe from any
/// handler thread.
pub struct Journal {
    dir: PathBuf,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replaying the snapshot and
    /// tail. Returns the journal, the live events in LSN order (for the
    /// caller to rebuild its store from), and a recovery report. Corrupt
    /// tail suffixes are quarantined, never fatal.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        snapshot_every: u64,
    ) -> std::io::Result<(Journal, Vec<Event>, RecoveryReport)> {
        Journal::open_with(dir, policy, snapshot_every, DEFAULT_QUARANTINE_KEEP)
    }

    /// [`Journal::open`] with an explicit quarantine retention cap (keep
    /// the newest `quarantine_keep` evidence files, prune the rest).
    pub fn open_with(
        dir: &Path,
        policy: FsyncPolicy,
        snapshot_every: u64,
        quarantine_keep: u64,
    ) -> std::io::Result<(Journal, Vec<Event>, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // Snapshot: atomically written, so corruption here is unexpected —
        // but tolerated the same way (good prefix wins).
        let snap_scan = frame::scan(&read_wal(&dir.join("snapshot.wal"))?, Record::decode);
        if let Some(why) = &snap_scan.corruption {
            report.corruption = Some(format!("snapshot: {why}"));
        }

        // Tail: quarantine anything after the first corrupt byte.
        let tail_path = dir.join("journal.wal");
        let tail_data = read_wal(&tail_path)?;
        let tail_scan = frame::scan(&tail_data, Record::decode);
        if let Some(why) = &tail_scan.corruption {
            let qpath = quarantine_path(dir);
            let bad = &tail_data[tail_scan.good_len as usize..];
            fs::write(&qpath, bad)?;
            let f = OpenOptions::new().write(true).open(&tail_path)?;
            f.set_len(tail_scan.good_len)?;
            f.sync_all()?;
            report.quarantined_bytes = bad.len() as u64;
            report.quarantine_file = Some(qpath);
            report.corruption = Some(format!("tail: {why}"));
        }
        // Bound the corruption-evidence footprint: keep the newest few
        // quarantine files, prune the rest.
        prune_quarantines(dir, quarantine_keep);

        let live = Live::fold(snap_scan.records, tail_scan.records);
        report.snapshot_events = live.snapshot_events;
        report.tail_events = live.tail_events();
        let next_lsn = live.last_lsn() + 1;
        let events: Vec<Event> = live.events.iter().map(|(_, e)| e.clone()).collect();

        let tail = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&tail_path)?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            inner: Mutex::new(JournalInner {
                tail,
                policy,
                last_sync: Instant::now(),
                next_lsn,
                tail_records: report.tail_events,
                live: live.events,
                snapshot_every: snapshot_every.max(1),
                appends: 0,
                snapshots: 0,
                quarantined_bytes: report.quarantined_bytes,
                // Conservative: an on-disk snapshot may have dropped events
                // before this boot, so treat its horizon as the drop line.
                last_drop_through: live.through_lsn,
            }),
        };
        Ok((journal, events, report))
    }

    /// Appends one event, applying the fsync policy, and compacts into a
    /// fresh snapshot once the tail exceeds the snapshot cadence.
    pub fn append(&self, event: Event) -> std::io::Result<()> {
        self.append_frame(event).map(|_| ())
    }

    /// Like [`Journal::append`], but also returns the assigned LSN and the
    /// encoded wire frame, so a replication hub can ship the exact bytes
    /// that hit the local disk.
    pub fn append_frame(&self, event: Event) -> std::io::Result<(u64, Vec<u8>)> {
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        let lsn = inner.next_lsn;
        self.append_locked(&mut inner, lsn, event)
    }

    /// Appends one event at an *explicit* LSN — the follower apply path,
    /// which must preserve the leader's numbering so state digests are
    /// computed over identical `(lsn, event)` streams. `lsn` must be at
    /// least `next_lsn`; gaps are allowed (the leader may have compacted),
    /// regressions are not.
    pub fn append_at(&self, lsn: u64, event: Event) -> std::io::Result<(u64, Vec<u8>)> {
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        if lsn < inner.next_lsn {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "replicated LSN {lsn} regresses below local next LSN {}",
                    inner.next_lsn
                ),
            ));
        }
        self.append_locked(&mut inner, lsn, event)
    }

    fn append_locked(
        &self,
        inner: &mut JournalInner,
        lsn: u64,
        event: Event,
    ) -> std::io::Result<(u64, Vec<u8>)> {
        // Encode first: a refused event leaves the LSN, mirror and tail
        // untouched.
        let frame = encode_event_frame(lsn, &event)?;
        inner.next_lsn = lsn + 1;
        inner.tail.write_all(&frame)?;
        match inner.policy {
            FsyncPolicy::Always => {
                inner.tail.sync_data()?;
                inner.last_sync = Instant::now();
            }
            FsyncPolicy::Interval(iv) => {
                if inner.last_sync.elapsed() >= iv {
                    inner.tail.sync_data()?;
                    inner.last_sync = Instant::now();
                }
            }
            FsyncPolicy::Never => {}
        }
        inner.live.push((lsn, event));
        inner.tail_records += 1;
        inner.appends += 1;
        if inner.tail_records >= inner.snapshot_every {
            self.compact_locked(inner)?;
        }
        Ok((lsn, frame))
    }

    /// The highest LSN assigned so far (0 when the journal is empty).
    pub fn last_lsn(&self) -> u64 {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.next_lsn - 1
    }

    /// A deterministic digest of the replayed store: FNV-1a 64 over the
    /// live `(lsn, tag, body)` stream *after* dropping deleted sessions'
    /// events. The filter makes the digest invariant under compaction
    /// timing — leader and follower agree at a common LSN no matter when
    /// each of them last compacted — and because the store is a pure
    /// function of these events (byte-identical replay), equal digests at
    /// equal LSNs mean byte-identical stores. Returns `(last_lsn, digest)`.
    pub fn state_digest(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("journal lock poisoned");
        (inner.next_lsn - 1, digest_events(&inner.live))
    }

    /// Encoded wire frames for every live event with `lsn > after`, in LSN
    /// order — the catch-up backlog for a follower acked at `after`.
    /// Returns `None` when `after` is behind the drop horizon of a past
    /// compaction: frames the follower never saw are gone, so it must
    /// full-resync instead.
    pub fn frames_after(&self, after: u64) -> Option<Vec<Vec<u8>>> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        if after < inner.last_drop_through {
            return None;
        }
        Some(
            inner
                .live
                .iter()
                .filter(|&&(lsn, _)| lsn > after)
                .map(|(lsn, event)| live_frame(*lsn, event))
                .collect(),
        )
    }

    /// Encoded wire frames for the entire live set — the full-resync
    /// payload sent after a `RESET`.
    pub fn all_frames(&self) -> Vec<Vec<u8>> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner
            .live
            .iter()
            .map(|(lsn, event)| live_frame(*lsn, event))
            .collect()
    }

    /// Discards all local state (live events, tail, snapshot) ahead of a
    /// full resync from the leader. The caller must clear its store too.
    pub fn reset(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        inner.live.clear();
        inner.next_lsn = 1;
        inner.tail_records = 0;
        inner.last_drop_through = 0;
        let snap = self.dir.join("snapshot.wal");
        if snap.exists() {
            fs::remove_file(&snap)?;
        }
        inner.tail.set_len(0)?;
        inner.tail.seek(SeekFrom::Start(0))?;
        inner.tail.sync_all()?;
        inner.last_sync = Instant::now();
        Ok(())
    }

    /// Forces buffered appends to stable storage — called before dropping
    /// evicted sessions, on deletion, and at shutdown.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        inner.tail.sync_data()?;
        inner.last_sync = Instant::now();
        Ok(())
    }

    /// Current counters for `/metrics`.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock().expect("journal lock poisoned");
        JournalStats {
            appends: inner.appends,
            snapshots: inner.snapshots,
            live_events: inner.live.len() as u64,
            quarantined_bytes: inner.quarantined_bytes,
            quarantine_files: quarantine_files(&self.dir).len() as u64,
        }
    }

    /// One scrub pass: re-reads `snapshot.wal` and `journal.wal` from disk,
    /// rebuilds the live event stream exactly as boot recovery would, and
    /// compares its digest against the in-memory mirror. Runs under the
    /// journal lock, so the files are quiescent for the duration (appends
    /// briefly queue behind it) and the comparison is exact, not racy.
    ///
    /// This is the detection half of the self-healing story: a bit flip
    /// that lands *after* boot — when the snapshot is otherwise only ever
    /// read again at the next restart — is caught here while the node is
    /// still serving, instead of at the next crash.
    pub fn scrub(&self) -> std::io::Result<ScrubReport> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        let snap_scan = frame::scan(&read_wal(&self.dir.join("snapshot.wal"))?, Record::decode);
        let tail_scan = frame::scan(&read_wal(&self.dir.join("journal.wal"))?, Record::decode);
        let corruption = [("snapshot.wal", &snap_scan), ("journal.wal", &tail_scan)]
            .into_iter()
            .find_map(|(name, scan)| {
                let why = scan.corruption.as_ref()?;
                Some(format!("{name}: {why} at byte {}", scan.good_len))
            });
        let disk_digest = digest_events(&Live::fold(snap_scan.records, tail_scan.records).events);
        let memory_digest = digest_events(&inner.live);
        let ok = corruption.is_none() && disk_digest == memory_digest;
        Ok(ScrubReport {
            last_lsn: inner.next_lsn - 1,
            memory_digest,
            disk_digest,
            corruption,
            ok,
        })
    }

    /// Drops deleted sessions' events, writes a fresh snapshot atomically,
    /// and truncates the tail. Caller holds the journal lock; no other lock
    /// is touched, so compaction can never deadlock against handlers.
    fn compact_locked(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        let deleted = deleted_sessions(&inner.live);
        let before = inner.live.len();
        inner.live.retain(|(_, e)| match e.session_id() {
            Some(s) => !deleted.contains(&s),
            None => true,
        });
        let through_lsn = inner.next_lsn - 1;
        if inner.live.len() < before {
            // Events are gone for good: followers acked before this horizon
            // can no longer catch up incrementally.
            inner.last_drop_through = through_lsn;
        }
        write_snapshot(&self.dir, through_lsn, &inner.live)?;
        // Crash window here is benign: boot skips tail LSNs <= through_lsn.
        inner.tail.set_len(0)?;
        inner.tail.seek(SeekFrom::Start(0))?;
        inner.tail.sync_all()?;
        inner.last_sync = Instant::now();
        inner.tail_records = 0;
        inner.snapshots += 1;
        Ok(())
    }
}

/// The frame of a live event: it was framed once already when appended,
/// so it fits the bound.
fn live_frame(lsn: u64, event: &Event) -> Vec<u8> {
    encode_event_frame(lsn, event).expect("a live event fits a frame")
}

/// FNV-1a 64 over the deleted-filtered `(lsn, tag, body)` stream — the
/// shared digest kernel behind [`Journal::state_digest`], the background
/// scrubber, and `mube fsck`. Equal digests over equal LSN ranges mean
/// byte-identical replayed stores.
pub(crate) fn digest_events(live: &[(u64, Event)]) -> u64 {
    let deleted = deleted_sessions(live);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut enc = Enc::new();
    for (lsn, event) in live {
        if event.session_id().is_some_and(|s| deleted.contains(&s)) {
            continue;
        }
        enc.buf.clear();
        event.encode_body(&mut enc);
        fnv(&lsn.to_le_bytes());
        fnv(&[event.tag()]);
        fnv(&enc.buf);
    }
    hash
}

/// Sessions with a `SessionDelete` in `live`.
fn deleted_sessions(live: &[(u64, Event)]) -> std::collections::HashSet<u64> {
    live.iter()
        .filter_map(|(_, e)| match e {
            Event::SessionDelete { session } => Some(*session),
            _ => None,
        })
        .collect()
}

/// First unused `quarantine-N.wal` path in `dir`.
pub(crate) fn quarantine_path(dir: &Path) -> PathBuf {
    for n in 0.. {
        let p = dir.join(format!("quarantine-{n}.wal"));
        if !p.exists() {
            return p;
        }
    }
    unreachable!("u64 quarantine indices exhausted")
}

/// The `quarantine-N.wal` files currently in `dir`, sorted by `N`.
pub(crate) fn quarantine_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("quarantine-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|&(n, _)| n);
    out
}

/// Retention cap on quarantined corruption evidence: keeps the newest
/// `keep` `quarantine-N.wal` files (highest `N`), deletes the rest, and
/// returns how many were pruned. Unbounded corruption on a flapping disk
/// must not eat the volume that also holds the live journal.
pub(crate) fn prune_quarantines(dir: &Path, keep: u64) -> u64 {
    let files = quarantine_files(dir);
    let excess = files.len().saturating_sub(keep as usize);
    let mut pruned = 0u64;
    for (_, path) in files.into_iter().take(excess) {
        if fs::remove_file(&path).is_ok() {
            pruned += 1;
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mube-persist-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev_catalog(id: u64) -> Event {
        Event::CatalogCreate {
            id,
            text: format!("catalog-{id} text"),
        }
    }

    fn ev_session(id: u64, catalog: u64) -> Event {
        Event::SessionCreate {
            id,
            catalog_id: catalog,
            body: format!("{{\"catalog\":{catalog},\"seed\":{id}}}"),
        }
    }

    fn ev_solve(session: u64) -> Event {
        Event::Solve {
            session,
            solution: SolutionRecord {
                sources: vec![1, 4, 7],
                quality_bits: 0.731_f64.to_bits(),
                evaluations: 1234,
                timed_out: session.is_multiple_of(2),
                qef_scores: vec![("matching".into(), 0.25_f64.to_bits(), 0.9_f64.to_bits())],
                schema: vec![vec![(1, 0), (4, 2)], vec![(7, 1)]],
            },
        }
    }

    #[test]
    fn event_roundtrip_through_frames() {
        let events = [
            ev_catalog(1),
            ev_session(1, 1),
            Event::Feedback {
                session: 1,
                body: "{\"actions\":[{\"op\":\"pin\",\"source\":\"s1\"}]}".into(),
            },
            ev_solve(1),
            Event::SessionDelete { session: 1 },
        ];
        for (i, event) in events.iter().enumerate() {
            let frame = encode_event_frame(i as u64 + 1, event).unwrap();
            let (raw, len) = frame::parse_frame(&frame).unwrap().unwrap();
            assert_eq!((raw.lsn, len), (i as u64 + 1, frame.len()));
            assert_eq!(raw.body.len(), event.body_len(), "{event:?}");
            assert!(event.fits_frame());
            assert_eq!(&Event::decode(raw).unwrap(), event);
        }
    }

    #[test]
    fn fits_frame_agrees_with_the_encoder_at_the_bound() {
        let at_bound = |extra: usize| Event::CatalogCreate {
            id: 1,
            text: "x".repeat(frame::MAX_RECORD_BYTES as usize - 9 - 12 + extra),
        };
        assert!(at_bound(0).fits_frame());
        assert!(encode_event_frame(1, &at_bound(0)).is_ok());
        assert!(!at_bound(1).fits_frame());
        assert!(encode_event_frame(1, &at_bound(1)).is_err());
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = test_dir("roundtrip");
        let written = vec![ev_catalog(1), ev_session(1, 1), ev_solve(1)];
        {
            let (j, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
            assert!(replayed.is_empty());
            assert!(report.corruption.is_none());
            for e in &written {
                j.append(e.clone()).unwrap();
            }
        }
        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        assert_eq!(replayed, written);
        assert_eq!(report.tail_events, 3);
        assert_eq!(report.quarantined_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_drops_deleted_sessions() {
        let dir = test_dir("compact");
        {
            let (j, _, _) = Journal::open(&dir, FsyncPolicy::Never, 4).unwrap();
            j.append(ev_catalog(1)).unwrap();
            j.append(ev_session(1, 1)).unwrap();
            j.append(ev_solve(1)).unwrap();
            j.append(Event::SessionDelete { session: 1 }).unwrap(); // triggers compaction
            assert_eq!(j.stats().snapshots, 1);
            assert_eq!(j.stats().live_events, 1, "only the catalog survives");
            j.append(ev_session(2, 1)).unwrap();
            j.flush().unwrap();
        }
        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Never, 4).unwrap();
        assert_eq!(replayed, vec![ev_catalog(1), ev_session(2, 1)]);
        assert_eq!(report.snapshot_events, 1);
        assert_eq!(report.tail_events, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_survives_snapshot_plus_tail_lsn_overlap() {
        // Simulate the crash window: snapshot written, tail NOT truncated.
        let dir = test_dir("overlap");
        fs::create_dir_all(&dir).unwrap();
        // Tail holds events with LSN 1..=3.
        let mut tail = Vec::new();
        tail.extend_from_slice(&encode_event_frame(1, &ev_catalog(1)).unwrap());
        tail.extend_from_slice(&encode_event_frame(2, &ev_session(1, 1)).unwrap());
        tail.extend_from_slice(&encode_event_frame(3, &ev_solve(1)).unwrap());
        fs::write(dir.join("journal.wal"), &tail).unwrap();
        // Snapshot covers LSN <= 2 and already contains those events.
        write_snapshot(&dir, 2, &[(1, ev_catalog(1)), (2, ev_session(1, 1))]).unwrap();

        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Never, 1000).unwrap();
        assert_eq!(
            replayed,
            vec![ev_catalog(1), ev_session(1, 1), ev_solve(1)],
            "overlapping tail records must not replay twice"
        );
        assert_eq!(report.snapshot_events, 2);
        assert_eq!(report.tail_events, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_quarantined_not_fatal() {
        let dir = test_dir("corrupt");
        {
            let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
            j.append(ev_catalog(1)).unwrap();
            j.append(ev_session(1, 1)).unwrap();
            j.append(ev_solve(1)).unwrap();
        }
        // Flip a bit inside the last record's body.
        let path = dir.join("journal.wal");
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x40;
        fs::write(&path, &data).unwrap();

        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        assert_eq!(replayed, vec![ev_catalog(1), ev_session(1, 1)]);
        assert!(report.corruption.as_deref().unwrap().contains("CRC"));
        assert!(report.quarantined_bytes > 0);
        let qfile = report.quarantine_file.clone().unwrap();
        assert!(qfile.exists());
        assert_eq!(
            fs::metadata(&qfile).unwrap().len(),
            report.quarantined_bytes
        );

        // The journal stays usable: append after recovery, replay again.
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        j.append(ev_solve(1)).unwrap();
        drop(j);
        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        assert_eq!(replayed.len(), 3);
        assert!(report.corruption.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_event_is_refused_before_any_byte_is_written() {
        let dir = test_dir("oversized");
        {
            let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
            j.append(ev_catalog(1)).unwrap();
            let huge = Event::CatalogCreate {
                id: 2,
                text: "x".repeat(frame::MAX_RECORD_BYTES as usize),
            };
            let err = j.append_frame(huge).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(j.last_lsn(), 1, "a refused event takes no LSN");
            assert_eq!(j.stats().live_events, 1);
            let (lsn, _) = j.append_frame(ev_session(1, 1)).unwrap();
            assert_eq!(lsn, 2, "no LSN gap after the refusal");
        }
        let (j, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        assert!(report.corruption.is_none(), "{report:?}");
        assert_eq!(report.quarantined_bytes, 0);
        assert_eq!(replayed, vec![ev_catalog(1), ev_session(1, 1)]);
        let lsns: Vec<u64> = j
            .all_frames()
            .iter()
            .map(|f| frame::parse_frame(f).unwrap().unwrap().0.lsn)
            .collect();
        assert_eq!(lsns, vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_quarantined_not_fatal() {
        let dir = test_dir("torn");
        {
            let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
            j.append(ev_catalog(1)).unwrap();
            j.append(ev_solve(7)).unwrap();
        }
        let path = dir.join("journal.wal");
        let data = fs::read(&path).unwrap();
        // Tear the last record in half.
        fs::write(&path, &data[..data.len() - 11]).unwrap();

        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        assert_eq!(replayed, vec![ev_catalog(1)]);
        assert!(report.corruption.as_deref().unwrap().contains("torn"));
        assert!(report.quarantine_file.unwrap().exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn solution_record_roundtrips_bit_exactly() {
        let rec = SolutionRecord {
            sources: vec![0, 3, 9],
            quality_bits: 0.123_456_789_f64.to_bits(),
            evaluations: 999,
            timed_out: true,
            qef_scores: vec![
                ("matching".into(), 0.25_f64.to_bits(), 0.91_f64.to_bits()),
                ("coverage".into(), 0.75_f64.to_bits(), 0.33_f64.to_bits()),
            ],
            schema: vec![vec![(0, 1), (3, 0)]],
        };
        let sol = rec.clone().into_solution().unwrap();
        assert_eq!(sol.quality.to_bits(), rec.quality_bits);
        assert!(sol.timed_out);
        assert_eq!(SolutionRecord::from_solution(&sol), rec);
    }

    #[test]
    fn empty_ga_in_solve_record_is_rejected() {
        let rec = SolutionRecord {
            sources: vec![0],
            quality_bits: 0,
            evaluations: 0,
            timed_out: false,
            qef_scores: vec![],
            schema: vec![vec![]],
        };
        assert!(rec.into_solution().is_err());
    }

    #[test]
    fn state_digest_is_invariant_under_compaction_timing() {
        // Two journals fed the same event stream, one compacting eagerly
        // (every 2 appends) and one never, must agree on (lsn, digest).
        let d1 = test_dir("digest-eager");
        let d2 = test_dir("digest-lazy");
        let (eager, _, _) = Journal::open(&d1, FsyncPolicy::Never, 2).unwrap();
        let (lazy, _, _) = Journal::open(&d2, FsyncPolicy::Never, 100_000).unwrap();
        let stream = [
            ev_catalog(1),
            ev_session(1, 1),
            ev_solve(1),
            ev_session(2, 1),
            Event::SessionDelete { session: 1 },
            ev_solve(2),
        ];
        for e in &stream {
            eager.append(e.clone()).unwrap();
            lazy.append(e.clone()).unwrap();
        }
        assert_eq!(eager.state_digest(), lazy.state_digest());
        assert_eq!(eager.last_lsn(), stream.len() as u64);
        fs::remove_dir_all(&d1).unwrap();
        fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn state_digest_differs_on_divergent_streams() {
        let d1 = test_dir("digest-a");
        let d2 = test_dir("digest-b");
        let (a, _, _) = Journal::open(&d1, FsyncPolicy::Never, 1000).unwrap();
        let (b, _, _) = Journal::open(&d2, FsyncPolicy::Never, 1000).unwrap();
        a.append(ev_catalog(1)).unwrap();
        b.append(ev_catalog(2)).unwrap();
        assert_eq!(a.last_lsn(), b.last_lsn());
        assert_ne!(a.state_digest().1, b.state_digest().1);
        fs::remove_dir_all(&d1).unwrap();
        fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn append_at_preserves_leader_lsns_and_rejects_regression() {
        let dir = test_dir("append-at");
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Never, 1000).unwrap();
        j.append_at(3, ev_catalog(1)).unwrap();
        j.append_at(7, ev_session(1, 1)).unwrap(); // gap: leader compacted
        assert_eq!(j.last_lsn(), 7);
        assert!(j.append_at(5, ev_solve(1)).is_err(), "LSN regression");
        // Digest covers the *leader's* LSNs, not a local renumbering.
        let (lsn, _) = j.state_digest();
        assert_eq!(lsn, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_after_returns_backlog_or_demands_resync() {
        let dir = test_dir("frames-after");
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Never, 3).unwrap();
        j.append(ev_catalog(1)).unwrap();
        j.append(ev_session(1, 1)).unwrap();
        let frames = j.frames_after(1).unwrap();
        assert_eq!(frames.len(), 1);
        let (raw, _) = frame::parse_frame(&frames[0]).unwrap().unwrap();
        assert_eq!(raw.lsn, 2);
        assert_eq!(Event::decode(raw).unwrap(), ev_session(1, 1));
        // Trigger a dropping compaction (delete makes the 3rd tail record).
        j.append(Event::SessionDelete { session: 1 }).unwrap();
        assert!(
            j.frames_after(1).is_none(),
            "acks behind the drop horizon must force a resync"
        );
        assert_eq!(j.frames_after(3).unwrap().len(), 0);
        assert_eq!(j.all_frames().len(), 1, "only the catalog survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_clears_journal_for_full_resync() {
        let dir = test_dir("reset");
        {
            let (j, _, _) = Journal::open(&dir, FsyncPolicy::Never, 2).unwrap();
            j.append(ev_catalog(1)).unwrap();
            j.append(ev_session(1, 1)).unwrap(); // compacts -> snapshot.wal
            j.append(ev_solve(1)).unwrap();
            j.reset().unwrap();
            assert_eq!(j.last_lsn(), 0);
            assert!(!dir.join("snapshot.wal").exists());
            // Usable immediately after reset, at leader-assigned LSNs.
            j.append_at(4, ev_catalog(9)).unwrap();
            j.flush().unwrap();
        }
        let (_, replayed, report) = Journal::open(&dir, FsyncPolicy::Never, 2).unwrap();
        assert_eq!(replayed, vec![ev_catalog(9)]);
        assert!(report.corruption.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_passes_on_a_healthy_journal_and_catches_bit_flips() {
        let dir = test_dir("scrub");
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        j.append(ev_catalog(1)).unwrap();
        j.append(ev_session(1, 1)).unwrap(); // compacts -> snapshot.wal
        j.append(ev_solve(1)).unwrap(); // lives in the tail
        let clean = j.scrub().unwrap();
        assert!(clean.ok, "healthy dir must scrub clean: {clean:?}");
        assert_eq!(clean.memory_digest, clean.disk_digest);
        assert_eq!(clean.last_lsn, 3);

        // Flip one bit inside the sealed snapshot — the file a running
        // server would otherwise never read again before its next boot.
        let snap = dir.join("snapshot.wal");
        let mut data = fs::read(&snap).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x20;
        fs::write(&snap, &data).unwrap();
        let dirty = j.scrub().unwrap();
        assert!(!dirty.ok);
        assert!(
            dirty
                .corruption
                .as_deref()
                .unwrap()
                .contains("snapshot.wal"),
            "{dirty:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_catches_tail_corruption() {
        let dir = test_dir("scrub-tail");
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 1000).unwrap();
        j.append(ev_catalog(1)).unwrap();
        j.append(ev_solve(1)).unwrap();
        let path = dir.join("journal.wal");
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x01;
        fs::write(&path, &data).unwrap();
        let report = j.scrub().unwrap();
        assert!(!report.ok);
        assert!(
            report
                .corruption
                .as_deref()
                .unwrap()
                .contains("journal.wal"),
            "{report:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_retention_keeps_newest_k() {
        let dir = test_dir("quarantine-cap");
        fs::create_dir_all(&dir).unwrap();
        for n in 0..6 {
            fs::write(dir.join(format!("quarantine-{n}.wal")), [n as u8]).unwrap();
        }
        assert_eq!(prune_quarantines(&dir, 2), 4);
        let left = quarantine_files(&dir);
        assert_eq!(
            left.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![4, 5],
            "newest files survive"
        );
        // Opening a journal applies the cap too.
        for n in 6..10 {
            fs::write(dir.join(format!("quarantine-{n}.wal")), [n as u8]).unwrap();
        }
        let (j, _, _) = Journal::open_with(&dir, FsyncPolicy::Never, 1000, 3).unwrap();
        assert_eq!(j.stats().quarantine_files, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parsing() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert_eq!(
            FsyncPolicy::parse("interval").unwrap(),
            FsyncPolicy::default()
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:abc").is_err());
    }
}
