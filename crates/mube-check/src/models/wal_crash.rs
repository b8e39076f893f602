//! Crash-point explorer for the WAL (`mube-serve/src/persist.rs`).
//!
//! Rather than interleaving threads, this model enumerates *crash points*:
//! it builds a WAL image with the production frame encoder
//! ([`mube_serve::frame::encode_frame`]), truncates it at **every byte
//! offset** (every record *and* intra-record boundary), and replays each
//! cut with the production slice scanner ([`mube_serve::frame::scan`]) at
//! the frame layer — the model bodies are opaque bytes, not events, so
//! nothing here re-implements the codec. The invariant, for every cut:
//!
//! 1. **Prefix consistency**: the replayed records are exactly the first
//!    `k` appended records, for some `k` — never reordered, invented, or
//!    holed.
//! 2. **Tail quarantine**: the bytes past the last good record are
//!    quarantined, never fatal, and byte-accounted exactly.
//! 3. A cut on a frame boundary quarantines nothing.
//!
//! A second pass flips one bit at every byte position and asserts replay
//! still yields a strict prefix (detected via CRC, length sanity, or torn
//! body — never a decoded garbage record).
//!
//! A third family of checks leaves the model codec behind and drives the
//! **real** recovery path: it seeds a data directory through the production
//! [`Journal`], then truncates `snapshot.wal` at every byte offset (and
//! flips every bit) and calls the production [`Journal::open`] on the
//! mutilated directory. For every mutation, open must return `Ok`, never
//! panic, report the corruption, recover exactly a prefix of the sealed
//! snapshot plus the surviving tail, stay writable, and recover the same
//! state again on a second open.

use mube_serve::frame::{self, RawFrame, Scan};
use mube_serve::persist::{Event, FsyncPolicy, Journal};
use std::path::Path;

/// One replayed record: `(lsn, tag, body)`.
pub type Record = (u64, u8, Vec<u8>);

/// Encodes one model record with the production encoder.
fn encode((lsn, tag, body): &Record) -> Vec<u8> {
    frame::encode_frame(*lsn, *tag, body).expect("model records are small")
}

/// Replays a WAL image with the production slice scanner: it stops at the
/// first torn header, implausible length, torn body, or CRC mismatch, and
/// production quarantines everything after `good_len`.
#[must_use]
pub fn replay(data: &[u8]) -> Scan<Record> {
    frame::scan(data, |f: RawFrame<'_>| Ok((f.lsn, f.tag, f.body.to_vec())))
}

/// The modeled WAL: four records with varied body sizes (including an
/// empty body, so a frame boundary can sit 9 bytes after a header).
#[must_use]
pub fn model_wal() -> Vec<Record> {
    vec![
        (1, 1, b"insert site0001".to_vec()),
        (2, 2, Vec::new()),
        (3, 1, b"solve {budget: 5, qef: fanout}".to_vec()),
        (4, 3, vec![0xFF; 21]),
    ]
}

/// Asserts the crash-point invariant for every byte-offset truncation of
/// the modeled WAL. Returns the number of crash points explored.
///
/// # Panics
/// When any cut violates prefix consistency or tail accounting.
pub fn check_all_crash_points() -> usize {
    let committed = model_wal();
    let frames: Vec<Vec<u8>> = committed.iter().map(encode).collect();
    let full: Vec<u8> = frames.concat();
    let mut boundaries = vec![0usize];
    for f in &frames {
        boundaries.push(boundaries.last().expect("non-empty") + f.len());
    }

    for cut in 0..=full.len() {
        let r = replay(&full[..cut]);
        let good_len = r.good_len as usize;
        let quarantined = cut - good_len;
        // Prefix consistency: recovered records are exactly the first k.
        assert!(
            r.records.len() <= committed.len(),
            "cut {cut}: invented records"
        );
        for (got, want) in r.records.iter().zip(&committed) {
            assert_eq!(got, want, "cut {cut}: replay diverged from the prefix");
        }
        // Tail accounting is exact.
        assert!(good_len <= cut, "cut {cut}: byte leak");
        assert_eq!(
            good_len,
            boundaries[r.records.len()],
            "cut {cut}: good_len off a frame boundary"
        );
        // A cut on a frame boundary is clean; off-boundary cuts quarantine
        // exactly the partial tail.
        if let Some(k) = boundaries.iter().position(|&b| b == cut) {
            assert_eq!(quarantined, 0, "cut {cut}: clean cut quarantined bytes");
            assert_eq!(r.records.len(), k, "cut {cut}: clean cut lost records");
        } else {
            assert!(quarantined > 0, "cut {cut}: torn tail not quarantined");
        }
    }
    full.len() + 1
}

/// Asserts that flipping any single bit of the image still replays to a
/// strict prefix of the committed records (corruption is contained, never
/// decoded as garbage). Returns the number of corruptions explored.
///
/// # Panics
/// When a corrupted image replays to something other than a prefix.
pub fn check_all_bit_flips() -> usize {
    let committed = model_wal();
    let full: Vec<u8> = committed.iter().flat_map(encode).collect();
    let mut explored = 0usize;
    for i in 0..full.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut img = full.clone();
            img[i] ^= bit;
            let r = replay(&img);
            assert!(
                r.records.len() <= committed.len(),
                "flip at byte {i}: invented records"
            );
            for (got, want) in r.records.iter().zip(&committed) {
                assert_eq!(
                    got, want,
                    "flip at byte {i}: corruption leaked into the replayed prefix"
                );
            }
            explored += 1;
        }
    }
    explored
}

// ---------------------------------------------------------------------------
// Snapshot crash points, against the production recovery path
// ---------------------------------------------------------------------------

/// Committed history for the snapshot explorer: five events with varied
/// body shapes. No `SessionDelete` — compaction prunes deleted sessions
/// from the snapshot, which would break the strict-prefix oracle below.
fn snapshot_model_events() -> Vec<Event> {
    vec![
        Event::CatalogCreate {
            id: 1,
            text: "site0001|books|title,author,publisher\n".to_string(),
        },
        Event::SessionCreate {
            id: 1,
            catalog_id: 1,
            body: "{\"max\":4,\"theta\":0.5}".to_string(),
        },
        Event::Feedback {
            session: 1,
            body: "{\"pin\":[\"site0001\"],\"weight\":{\"coverage\":0.4}}".to_string(),
        },
        Event::SessionCreate {
            id: 2,
            catalog_id: 1,
            body: "{\"max\":8}".to_string(),
        },
        Event::CatalogCreate {
            id: 2,
            text: "site0002|airfares|from,to,fare\n".to_string(),
        },
    ]
}

/// Opens `dir` with the production recovery path and asserts the snapshot
/// crash invariant: recovery succeeds, yields `committed[..k]` for some `k`
/// plus the surviving tail suffix, reports corruption honestly
/// (`expect_members` = `Some(k)` pins a clean image that must recover
/// exactly `k` members without a corruption report; `None` expects a
/// report), stays writable, and is deterministic across a second open.
fn assert_snapshot_recovery(
    dir: &Path,
    committed: &[Event],
    label: &str,
    expect_members: Option<usize>,
) {
    let (journal, events, report) =
        Journal::open(dir, FsyncPolicy::Never, 1000).unwrap_or_else(|e| {
            panic!("{label}: production open must tolerate snapshot damage, got Err({e})")
        });
    // The tail's events survive every snapshot mutation; snapshot members
    // survive as a strict prefix. So the recovered list must be
    // committed[..k] ++ committed[4..] for some k <= 4.
    let tail_suffix = &committed[4..];
    assert!(
        events.len() >= tail_suffix.len() && events.ends_with(tail_suffix),
        "{label}: journal tail lost (recovered {} events)",
        events.len()
    );
    let k = events.len() - tail_suffix.len();
    assert!(
        k <= 4 && events[..k] == committed[..k],
        "{label}: recovered members are not a prefix of the sealed snapshot"
    );
    match expect_members {
        Some(want) => {
            assert!(
                report.corruption.is_none(),
                "{label}: clean image reported corruption {:?}",
                report.corruption
            );
            assert_eq!(k, want, "{label}: clean image lost snapshot members");
        }
        None => assert!(
            report.corruption.is_some(),
            "{label}: damage recovered silently (k = {k})"
        ),
    }
    // Recovery is deterministic: drop the journal, open again, same state.
    drop(journal);
    let (journal2, events2, _) = Journal::open(dir, FsyncPolicy::Never, 1000)
        .unwrap_or_else(|e| panic!("{label}: second open failed: {e}"));
    assert_eq!(events, events2, "{label}: recovery is not deterministic");
    // The recovered journal stays writable past the damage.
    journal2
        .append(Event::SessionDelete { session: 99 })
        .unwrap_or_else(|e| panic!("{label}: recovered journal rejected an append: {e}"));
}

/// Seeds a real data dir whose `snapshot.wal` seals the first four events
/// (cadence 2 compacts at LSNs 2 and 4) and whose tail holds the fifth;
/// returns the committed events plus both files' bytes.
fn seed_snapshot_dir(dir: &Path) -> (Vec<Event>, Vec<u8>, Vec<u8>) {
    let committed = snapshot_model_events();
    let (journal, _, _) = Journal::open(dir, FsyncPolicy::Never, 2).expect("seed dir opens clean");
    for event in &committed {
        journal.append(event.clone()).expect("seed append");
    }
    journal.flush().expect("seed flush");
    drop(journal);
    let snap = std::fs::read(dir.join("snapshot.wal")).expect("seed snapshot exists");
    let tail = std::fs::read(dir.join("journal.wal")).expect("seed tail exists");
    assert!(snap.len() > 100, "seed snapshot too small to explore");
    assert!(
        !tail.is_empty(),
        "seed tail empty: cadence did not land at 4"
    );
    (committed, snap, tail)
}

/// Runs `mutate` over every index in `0..=snap.len()`, building a fresh
/// data dir with the mutated snapshot and the intact tail, and asserts
/// [`assert_snapshot_recovery`] on each. Returns the images explored.
fn explore_snapshot_images(
    what: &str,
    mutate: impl Fn(&[u8], usize) -> Option<(Vec<u8>, Option<usize>)>,
) -> usize {
    let base = std::env::temp_dir().join(format!(
        "mube-check-snapcrash-{what}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let seed = base.join("seed");
    std::fs::create_dir_all(&seed).expect("create seed dir");
    let (committed, snap, tail) = seed_snapshot_dir(&seed);

    let mut explored = 0usize;
    let work = base.join("work");
    for i in 0..=snap.len() {
        let Some((image, expect_members)) = mutate(&snap, i) else {
            continue;
        };
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("create work dir");
        std::fs::write(work.join("snapshot.wal"), &image).expect("write mutated snapshot");
        std::fs::write(work.join("journal.wal"), &tail).expect("write tail");
        assert_snapshot_recovery(
            &work,
            &committed,
            &format!("{what} at byte {i}"),
            expect_members,
        );
        explored += 1;
    }
    let _ = std::fs::remove_dir_all(&base);
    explored
}

/// Truncates a production-written `snapshot.wal` at every byte offset and
/// asserts the production `Journal::open` recovers a consistent prefix (or
/// an honestly-reported corruption) every time. Returns the cuts explored.
///
/// # Panics
/// When any cut panics recovery, loses the tail, invents state, or
/// misreports corruption.
pub fn check_all_snapshot_crash_points() -> usize {
    explore_snapshot_images("cut", |snap, cut| {
        // A cut on a frame boundary of the intact image scans clean and
        // leaves a well-formed (if shorter) snapshot holding however many
        // member frames fit before the cut (the first frame is the
        // header); everything else must be reported as corruption.
        let prefix = replay(&snap[..cut]);
        let boundary = prefix
            .corruption
            .is_none()
            .then(|| prefix.records.len().saturating_sub(1));
        Some((snap[..cut].to_vec(), boundary))
    })
}

/// Flips one bit at every byte of a production-written `snapshot.wal` and
/// asserts the production `Journal::open` contains the damage every time.
/// Returns the corruptions explored.
///
/// # Panics
/// When any flip panics recovery, leaks garbage into the recovered state,
/// or goes unreported.
pub fn check_all_snapshot_bit_flips() -> usize {
    explore_snapshot_images("flip", |snap, i| {
        if i == snap.len() {
            return None;
        }
        let mut image = snap.to_vec();
        image[i] ^= 0x40;
        // CRC-32 catches every single-bit error, so no flip is clean.
        Some((image, None))
    })
}

#[cfg(test)]
mod tests {
    /// Every byte-offset truncation restores a prefix-consistent state or
    /// quarantines the tail.
    #[test]
    fn every_crash_point_is_prefix_consistent() {
        let explored = super::check_all_crash_points();
        assert!(explored > 100, "model WAL too small: {explored} cuts");
    }

    /// Every single-bit corruption is contained to the tail.
    #[test]
    fn every_bit_flip_is_contained() {
        let explored = super::check_all_bit_flips();
        assert!(explored > 200, "model WAL too small: {explored} flips");
    }

    /// Every byte-offset truncation of a real `snapshot.wal` recovers a
    /// consistent prefix through the production `Journal::open` — never a
    /// panic, never invented state, never a lost tail.
    #[test]
    fn every_snapshot_crash_point_recovers_through_production_open() {
        let explored = super::check_all_snapshot_crash_points();
        assert!(explored > 100, "seed snapshot too small: {explored} cuts");
    }

    /// Every single-bit flip in a real `snapshot.wal` is reported and
    /// contained by the production `Journal::open`.
    #[test]
    fn every_snapshot_bit_flip_is_contained_by_production_open() {
        let explored = super::check_all_snapshot_bit_flips();
        assert!(explored > 100, "seed snapshot too small: {explored} flips");
    }

    /// Golden bytes of the production encoder: the on-disk and wire
    /// format every journal and follower depends on.
    #[test]
    fn frame_layout_matches_production() {
        let frame = mube_serve::frame::encode_frame(7, 2, b"xy").unwrap();
        #[rustfmt::skip]
        let golden: [u8; 19] = [
            0x0B, 0x00, 0x00, 0x00,                         // len = 8 + 1 + 2
            0x67, 0x4A, 0x07, 0x8F,                         // CRC-32 of the payload
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 7
            0x02,                                           // tag 2
            b'x', b'y',                                     // body
        ];
        assert_eq!(frame, golden);
    }
}
