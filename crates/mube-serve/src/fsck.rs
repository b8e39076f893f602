//! Offline data-dir integrity checking and repair: the engine behind
//! `mube fsck [--repair] [--json]`.
//!
//! [`Journal::open`](crate::persist::Journal::open) already survives
//! corruption — it quarantines everything after the first bad byte and
//! boots with the clean prefix. That is the right *online* stance (never
//! refuse to start), but it silently forfeits every record *after* the
//! corruption, and it gives an operator no way to ask "what exactly is
//! wrong with this directory?" without starting a server on it.
//!
//! `fsck` is the offline complement:
//!
//! * **Check** — scans `snapshot.wal` and `journal.wal` record by record,
//!   verifying frame CRCs, LSN monotonicity, the snapshot header, and the
//!   snapshot/tail overlap; replays the recoverable prefix to the same
//!   FNV-1a state digest `/healthz` reports; counts quarantine files and
//!   reads the divergence marker. Every finding pinpoints the file, byte
//!   offset, and record index.
//! * **Salvage** — unlike boot recovery, fsck re-synchronizes *past* a
//!   corrupt record: frames are self-delimiting and CRC-checked, so it
//!   searches forward for the next valid frame boundary and recovers
//!   every intact record after the damage. A single flipped bit loses at
//!   most the one record it landed in — and if it landed in the snapshot
//!   *header* (which carries only the compaction horizon), nothing at all.
//! * **Repair** (`--repair`) — quarantines the corrupt byte ranges as
//!   forensic evidence, rebuilds a clean `snapshot.wal` from every
//!   recovered record (good prefix + salvage, deduplicated by LSN)
//!   atomically (temp + fsync + rename), truncates the tail, and prunes
//!   quarantine files past the retention cap. After a successful repair
//!   the directory scans clean and a server started on it replays to the
//!   reported digest.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use crate::frame;
use crate::persist::{
    digest, prune_quarantines, quarantine_files, quarantine_path, write_snapshot, Live, Record,
    DEFAULT_QUARANTINE_KEEP,
};
use crate::repl::DIVERGED_MARKER;
use mube_core::jsonw::JsonBuf;

/// What `fsck` should do beyond checking.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Quarantine corrupt ranges, rebuild the snapshot from everything
    /// recoverable, truncate the tail, and prune old quarantine files.
    pub repair: bool,
    /// Quarantine retention cap applied during repair.
    pub quarantine_keep: u64,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            repair: false,
            quarantine_keep: DEFAULT_QUARANTINE_KEEP,
        }
    }
}

/// Per-file findings: `snapshot.wal` or `journal.wal`.
#[derive(Debug, Clone, Default)]
pub struct FsckFile {
    /// Whether the file exists.
    pub present: bool,
    /// Total file length in bytes.
    pub bytes: u64,
    /// Records in the clean prefix.
    pub records: u64,
    /// Byte length of the clean prefix (== `bytes` when clean).
    pub good_bytes: u64,
    /// Records recovered by re-synchronizing past the corruption.
    pub salvaged_records: u64,
    /// First corruption, with the record index and byte offset.
    pub corruption: Option<String>,
}

/// The full `mube fsck` report.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// The checked directory.
    pub dir: PathBuf,
    /// `snapshot.wal` findings.
    pub snapshot: FsckFile,
    /// `journal.wal` findings.
    pub journal: FsckFile,
    /// Compaction horizon from the snapshot header (0 when absent).
    pub through_lsn: u64,
    /// Live events a server booted on this dir would replay (clean-prefix
    /// semantics, i.e. without salvage).
    pub live_events: u64,
    /// Highest LSN recoverable from the clean prefixes.
    pub last_lsn: u64,
    /// FNV-1a state digest of the clean-prefix replay — comparable to the
    /// `digest` field in `/healthz`.
    pub replay_digest: u64,
    /// Tail records shadowed by the snapshot (the benign crash window
    /// between snapshot rename and tail truncation).
    pub overlap_events: u64,
    /// `quarantine-N.wal` files present.
    pub quarantine_files: u64,
    /// Contents of `diverged.marker`, when present (replication
    /// quarantine; `mube resync` is the road back, not `--repair`).
    pub diverged: Option<String>,
    /// Integrity findings; empty means the directory is clean.
    pub issues: Vec<String>,
    /// Repair actions taken (empty without `--repair`).
    pub repairs: Vec<String>,
    /// No issues found (after repair, when repairing).
    pub clean: bool,
}

/// Checks (and with `opts.repair`, repairs) the data directory.
///
/// Never run this against the data dir of a *live* server: fsck takes no
/// lock, and a concurrent append would race the rebuild. The server's
/// background scrubber covers the online case.
pub fn fsck(dir: &Path, opts: &FsckOptions) -> std::io::Result<FsckReport> {
    if !dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("data dir {} does not exist", dir.display()),
        ));
    }
    let mut report = check(dir)?;
    if opts.repair && !report.clean {
        let repairs = repair(dir, opts)?;
        // Re-check so the report reflects the repaired state; keep the
        // action log from the repair pass.
        report = check(dir)?;
        report.repairs = repairs;
    }
    Ok(report)
}

/// One file's worth of scanning: clean prefix, salvage, findings.
struct FileScan {
    file: FsckFile,
    data: Vec<u8>,
    /// Clean-prefix records.
    records: Vec<Record>,
    /// Records recovered past the corruption (empty when clean).
    salvaged: Vec<Record>,
}

fn scan_file(dir: &Path, name: &str) -> std::io::Result<FileScan> {
    let path = dir.join(name);
    let data = match fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(FileScan {
                file: FsckFile::default(),
                data: Vec::new(),
                records: Vec::new(),
                salvaged: Vec::new(),
            })
        }
        Err(e) => return Err(e),
    };
    let scan = frame::scan(&data, Record::decode);
    let salvaged = match scan.corruption {
        Some(_) => salvage(&data, scan.good_len as usize + 1),
        None => Vec::new(),
    };
    let file = FsckFile {
        present: true,
        bytes: data.len() as u64,
        records: scan.records.len() as u64,
        good_bytes: scan.good_len,
        salvaged_records: salvaged.len() as u64,
        corruption: scan.corruption.map(|why| {
            format!(
                "{name}: {why} in record {} at byte {}",
                scan.records.len(),
                scan.good_len
            )
        }),
    };
    Ok(FileScan {
        file,
        data,
        records: scan.records,
        salvaged,
    })
}

/// Re-synchronizes past a corrupt record: scans a clean run of records
/// from `from`, and where none starts, slides forward one byte and tries
/// again. The CRC gate makes a false resync vanishingly unlikely (~2^-32
/// per candidate offset), and every salvaged record is individually
/// checksummed and decodable.
fn salvage(data: &[u8], from: usize) -> Vec<Record> {
    let mut out = Vec::new();
    let mut pos = from;
    while pos < data.len() {
        let run = frame::scan(&data[pos..], Record::decode);
        out.extend(run.records);
        pos += (run.good_len as usize).max(1);
    }
    out
}

/// The check pass: scan both files, validate structure, replay to digest.
fn check(dir: &Path) -> std::io::Result<FsckReport> {
    let snap = scan_file(dir, "snapshot.wal")?;
    let tail = scan_file(dir, "journal.wal")?;
    let mut issues = Vec::new();
    if let Some(why) = &snap.file.corruption {
        issues.push(why.clone());
    }
    if let Some(why) = &tail.file.corruption {
        issues.push(why.clone());
    }

    // Snapshot structure: exactly one header, first, horizon ≥ every
    // member event, events in strictly increasing LSN order.
    let horizon = match snap.records.first() {
        Some(Record::Snapshot { through_lsn }) => *through_lsn,
        _ => 0,
    };
    let mut prev_lsn: Option<u64> = None;
    for (i, rec) in snap.records.iter().enumerate() {
        match rec {
            Record::Snapshot { .. } if i == 0 => {}
            Record::Snapshot { .. } => {
                issues.push(format!("snapshot.wal: stray snapshot header in record {i}"));
            }
            Record::Event { frame, .. } => {
                let lsn = frame.lsn;
                if i == 0 {
                    issues.push("snapshot.wal: missing snapshot header".to_string());
                } else if lsn > horizon {
                    issues.push(format!(
                        "snapshot.wal: record {i} has lsn {lsn} beyond the \
                         snapshot horizon {horizon}"
                    ));
                }
                if let Some(prev) = prev_lsn.filter(|&p| lsn <= p) {
                    issues.push(format!(
                        "snapshot.wal: record {i} breaks LSN monotonicity ({lsn} after {prev})"
                    ));
                }
                prev_lsn = Some(lsn);
            }
        }
    }

    // Tail structure: event records only, strictly increasing LSNs;
    // records at or below the snapshot horizon are the benign
    // rename-then-crash overlap, counted but not flagged.
    let mut prev_lsn: Option<u64> = None;
    let mut tail_event_records = 0u64;
    for (i, rec) in tail.records.iter().enumerate() {
        match rec {
            Record::Snapshot { .. } => {
                issues.push(format!("journal.wal: snapshot header in record {i}"));
            }
            Record::Event { frame, .. } => {
                let lsn = frame.lsn;
                if let Some(prev) = prev_lsn.filter(|&p| lsn <= p) {
                    issues.push(format!(
                        "journal.wal: record {i} breaks LSN monotonicity ({lsn} after {prev})"
                    ));
                }
                prev_lsn = Some(lsn);
                tail_event_records += 1;
            }
        }
    }

    // Clean-prefix replay — exactly what a server booted here would load.
    let live = Live::fold(snap.records, tail.records);

    let diverged = match fs::read_to_string(dir.join(DIVERGED_MARKER)) {
        Ok(text) => Some(text.trim().to_string()),
        Err(_) => None,
    };
    let clean = issues.is_empty();
    Ok(FsckReport {
        dir: dir.to_path_buf(),
        snapshot: snap.file,
        journal: tail.file,
        through_lsn: live.through_lsn,
        live_events: live.frames.len() as u64,
        last_lsn: live.last_lsn(),
        replay_digest: digest(&live.frames),
        overlap_events: tail_event_records - live.tail_events(),
        quarantine_files: quarantine_files(dir).len() as u64,
        diverged,
        issues,
        repairs: Vec::new(),
        clean,
    })
}

/// The repair pass: quarantine corrupt ranges, rebuild the snapshot from
/// good prefix + salvage (deduplicated by LSN), truncate the tail, prune
/// quarantine files.
fn repair(dir: &Path, opts: &FsckOptions) -> std::io::Result<Vec<String>> {
    let snap = scan_file(dir, "snapshot.wal")?;
    let tail = scan_file(dir, "journal.wal")?;
    let mut repairs = Vec::new();

    // Evidence first: the corrupt suffixes, bit-for-bit, before anything
    // rewrites the files they came from.
    for (name, scan) in [("snapshot.wal", &snap), ("journal.wal", &tail)] {
        let good = scan.file.good_bytes as usize;
        if scan.file.corruption.is_some() && good < scan.data.len() {
            let qpath = quarantine_path(dir);
            fs::write(&qpath, &scan.data[good..])?;
            repairs.push(format!(
                "quarantined {} corrupt bytes of {name} to {}",
                scan.data.len() - good,
                qpath.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            ));
        }
    }

    // Everything recoverable, one record per LSN. Good-prefix records win
    // ties (salvage can only re-find identical frames, but be explicit).
    let mut through_lsn = 0u64;
    let mut live = BTreeMap::new();
    let all = snap
        .records
        .iter()
        .chain(tail.records.iter())
        .chain(snap.salvaged.iter())
        .chain(tail.salvaged.iter());
    let mut salvaged_used = 0u64;
    for (i, rec) in all.enumerate() {
        let from_prefix = i < snap.records.len() + tail.records.len();
        match rec {
            Record::Snapshot { through_lsn: t } => {
                through_lsn = through_lsn.max(*t);
            }
            Record::Event { frame, .. } => {
                if let Entry::Vacant(slot) = live.entry(frame.lsn) {
                    slot.insert(frame.clone());
                    if !from_prefix {
                        salvaged_used += 1;
                    }
                }
            }
        }
    }
    let live: Vec<_> = live.into_values().collect();
    let last_lsn = live.last().map_or(through_lsn, |f| f.lsn.max(through_lsn));
    if salvaged_used > 0 {
        repairs.push(format!(
            "salvaged {salvaged_used} records past the corruption"
        ));
    }

    // Rebuild the snapshot atomically over everything recovered, then
    // empty the tail — the rebuilt snapshot covers it entirely.
    write_snapshot(dir, last_lsn, &live)?;
    let f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join("journal.wal"))?;
    f.sync_all()?;
    repairs.push(format!(
        "rebuilt snapshot.wal with {} records through lsn {last_lsn}; \
         truncated journal.wal",
        live.len()
    ));

    let pruned = prune_quarantines(dir, opts.quarantine_keep);
    if pruned > 0 {
        repairs.push(format!(
            "pruned {pruned} quarantine files past the retention cap of {}",
            opts.quarantine_keep
        ));
    }
    Ok(repairs)
}

impl FsckReport {
    /// Renders the `--json` report (shape documented in PROTOCOL.md).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("dir").str_value(&self.dir.display().to_string());
        j.key("clean").bool_value(self.clean);
        j.key("last_lsn").uint_value(self.last_lsn);
        j.key("digest")
            .str_value(&format!("{:016x}", self.replay_digest));
        j.key("live_events").uint_value(self.live_events);
        for (name, f) in [("snapshot", &self.snapshot), ("journal", &self.journal)] {
            j.key(name).begin_obj();
            j.key("present").bool_value(f.present);
            j.key("bytes").uint_value(f.bytes);
            j.key("records").uint_value(f.records);
            j.key("good_bytes").uint_value(f.good_bytes);
            j.key("salvaged_records").uint_value(f.salvaged_records);
            match &f.corruption {
                Some(why) => j.key("corruption").str_value(why),
                None => j.key("corruption").null_value(),
            };
            j.end_obj();
        }
        j.key("through_lsn").uint_value(self.through_lsn);
        j.key("overlap_events").uint_value(self.overlap_events);
        j.key("quarantine_files").uint_value(self.quarantine_files);
        match &self.diverged {
            Some(text) => j.key("diverged").str_value(text),
            None => j.key("diverged").null_value(),
        };
        j.key("issues").begin_arr();
        for issue in &self.issues {
            j.str_value(issue);
        }
        j.end_arr();
        j.key("repairs").begin_arr();
        for r in &self.repairs {
            j.str_value(r);
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(&mut out, format!("fsck {}", self.dir.display()));
        for (name, f) in [
            ("snapshot.wal", &self.snapshot),
            ("journal.wal", &self.journal),
        ] {
            if !f.present {
                push(&mut out, format!("  {name}: absent"));
                continue;
            }
            push(
                &mut out,
                format!(
                    "  {name}: {} bytes, {} records clean{}",
                    f.bytes,
                    f.records,
                    match f.salvaged_records {
                        0 => String::new(),
                        n => format!(", {n} salvageable"),
                    }
                ),
            );
        }
        push(
            &mut out,
            format!(
                "  replay: {} live events through lsn {}, digest {:016x}",
                self.live_events, self.last_lsn, self.replay_digest
            ),
        );
        if self.overlap_events > 0 {
            push(
                &mut out,
                format!(
                    "  overlap: {} tail records shadowed by the snapshot (benign)",
                    self.overlap_events
                ),
            );
        }
        if self.quarantine_files > 0 {
            push(
                &mut out,
                format!("  quarantine: {} evidence files", self.quarantine_files),
            );
        }
        if let Some(why) = &self.diverged {
            push(&mut out, format!("  diverged: {why} (run `mube resync`)"));
        }
        for issue in &self.issues {
            push(&mut out, format!("  issue: {issue}"));
        }
        for r in &self.repairs {
            push(&mut out, format!("  repair: {r}"));
        }
        push(
            &mut out,
            if self.clean {
                "  status: clean".to_string()
            } else {
                "  status: CORRUPT (re-run with --repair to rebuild)".to_string()
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{encode_event_frame, Event, FsyncPolicy, Journal, SolutionRecord};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mube-fsck-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev_catalog(id: u64) -> Event {
        Event::CatalogCreate {
            id,
            text: format!("catalog-{id} text"),
        }
    }

    fn ev_solve(session: u64) -> Event {
        Event::Solve {
            session,
            solution: SolutionRecord {
                sources: vec![1, 2],
                quality_bits: 0.5_f64.to_bits(),
                evaluations: 10,
                timed_out: false,
                qef_scores: vec![("matching".into(), 1.0_f64.to_bits(), 0.9_f64.to_bits())],
                schema: vec![vec![(1, 0)]],
            },
        }
    }

    /// A dir with a snapshot (2 events) and a tail (2 events); returns
    /// the journal's digest for comparison.
    fn seeded_dir(tag: &str) -> (PathBuf, u64) {
        let dir = test_dir(tag);
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        j.append(ev_catalog(1)).unwrap();
        j.append(ev_catalog(2)).unwrap(); // compacts
        j.append(ev_solve(1)).unwrap();
        j.append(ev_solve(2)).unwrap(); // compacts again
        j.append(ev_catalog(3)).unwrap(); // tail
        let (_, digest) = j.state_digest();
        (dir, digest)
    }

    #[test]
    fn clean_dir_reports_clean_and_matches_server_digest() {
        let (dir, digest) = seeded_dir("clean");
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean, "{report:?}");
        assert!(report.issues.is_empty());
        assert_eq!(report.replay_digest, digest);
        assert_eq!(report.last_lsn, 5);
        assert_eq!(report.live_events, 5);
        assert!(report.snapshot.present);
        assert!(report.journal.present);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_error_and_empty_dir_is_clean() {
        let dir = test_dir("empty");
        assert!(fsck(&dir, &FsckOptions::default()).is_err());
        fs::create_dir_all(&dir).unwrap();
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean);
        assert!(!report.snapshot.present);
        assert_eq!(report.live_events, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_snapshot_header_is_pinpointed_and_fully_repaired() {
        let (dir, digest) = seeded_dir("header-flip");
        // Corrupt the snapshot *header* record (first 25 bytes): the only
        // payload it carries is the compaction horizon, which repair
        // reconstructs from the member LSNs — so nothing is lost.
        let snap = dir.join("snapshot.wal");
        let mut data = fs::read(&snap).unwrap();
        data[20] ^= 0x10;
        fs::write(&snap, &data).unwrap();

        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean);
        assert!(
            report
                .snapshot
                .corruption
                .as_deref()
                .unwrap()
                .contains("record 0"),
            "{report:?}"
        );
        assert!(report.snapshot.salvaged_records > 0, "{report:?}");

        let repaired = fsck(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(repaired.clean, "{repaired:?}");
        assert!(!repaired.repairs.is_empty());
        assert_eq!(
            repaired.replay_digest, digest,
            "header corruption must repair to the uncorrupted digest"
        );
        assert!(repaired.quarantine_files > 0, "evidence kept");

        // A server booted on the repaired dir replays to the same digest.
        let (j, _, rec) = Journal::open(&dir, FsyncPolicy::Never, 1000).unwrap();
        assert!(rec.corruption.is_none());
        assert_eq!(j.state_digest().1, digest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_an_event_record_loses_only_that_record() {
        let (dir, _) = seeded_dir("event-flip");
        // Flip a bit in the middle of the snapshot (an event record).
        let snap = dir.join("snapshot.wal");
        let mut data = fs::read(&snap).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        fs::write(&snap, &data).unwrap();

        let before = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(!before.clean);
        let repaired = fsck(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(repaired.clean, "{repaired:?}");
        // 5 events total; exactly one died with the flipped record.
        assert_eq!(repaired.live_events, 4, "{repaired:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_with_evidence() {
        let (dir, _) = seeded_dir("torn-tail");
        let path = dir.join("journal.wal");
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 7]).unwrap();

        let before = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(!before.clean);
        assert!(
            before
                .journal
                .corruption
                .as_deref()
                .unwrap()
                .contains("torn"),
            "{before:?}"
        );
        let repaired = fsck(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(repaired.clean);
        assert_eq!(repaired.journal.bytes, 0, "tail truncated into snapshot");
        assert!(repaired.quarantine_files > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lsn_monotonicity_violations_are_flagged() {
        let dir = test_dir("monotonic");
        fs::create_dir_all(&dir).unwrap();
        let mut tail = Vec::new();
        tail.extend_from_slice(&encode_event_frame(3, &ev_catalog(1)).unwrap());
        tail.extend_from_slice(&encode_event_frame(2, &ev_catalog(2)).unwrap());
        fs::write(dir.join("journal.wal"), &tail).unwrap();
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(!report.clean);
        assert!(
            report.issues.iter().any(|i| i.contains("monotonicity")),
            "{report:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diverged_marker_is_surfaced_not_repaired() {
        let (dir, _) = seeded_dir("diverged");
        fs::write(dir.join(DIVERGED_MARKER), "digest mismatch at lsn 9\n").unwrap();
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean, "a marker is not corruption");
        assert!(report.diverged.as_deref().unwrap().contains("lsn 9"));
        let json = report.to_json();
        assert!(json.contains("\"diverged\":\"digest mismatch"), "{json}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_renders_json_and_text() {
        let (dir, _) = seeded_dir("render");
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"digest\":\""), "{json}");
        assert!(json.contains("\"issues\":[]"), "{json}");
        let text = report.render();
        assert!(text.contains("status: clean"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
