//! Self-healing chaos smoke against real `mube` binaries.
//!
//! Two stories, both ending in a digest-proven recovery:
//!
//! 1. **Resync after divergence**: a follower whose journal disagrees with
//!    the leader's is quarantined by the digest rounds; `mube resync`
//!    archives its journal for forensics, takes a full copy from the
//!    leader, and the healed replica converges byte-for-byte — surviving a
//!    process restart.
//! 2. **fsck repair**: a bit flip in a sealed `snapshot.wal` is pinpointed
//!    by `mube fsck --json`, rebuilt by `--repair`, and the restarted
//!    server replays to the exact pre-corruption digest.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mube_core::catalog;
use mube_serve::{Event, FsyncPolicy, Journal};
use mube_synth::{generate, SynthConfig};

mod common;
use common::TestDir;

struct ServerProc {
    child: Child,
    addr: SocketAddr,
    repl: Option<SocketAddr>,
}

impl ServerProc {
    /// Spawns `mube serve --addr 127.0.0.1:0 --data-dir <dir> --fsync
    /// always <extra...>` and parses the bound addresses from the startup
    /// banner.
    fn spawn(data_dir: &Path, extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mube"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--data-dir",
            ])
            .arg(data_dir)
            .args(["--fsync", "always"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mube serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("server prints a startup line")
            .expect("readable stdout");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable startup line: {banner:?}"));
        let repl = if extra.contains(&"--repl-addr") {
            let line = lines
                .next()
                .expect("replication banner line")
                .expect("readable stdout");
            Some(
                line.rsplit(' ')
                    .next()
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| panic!("unparseable replication line: {line:?}")),
            )
        } else {
            None
        };
        ServerProc { child, addr, repl }
    }

    fn kill(mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn fresh_dir(tag: &str) -> TestDir {
    TestDir::new("selfheal-cli", tag)
}

/// Extracts `"key":value` (unquoted) or `"key":"value"` from a flat JSON
/// body without a parser dependency.
fn json_field(body: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let rest = &body[body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len()..];
    let rest = rest.trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().unwrap_or_default().to_string()
    } else {
        rest.split([',', '}'])
            .next()
            .unwrap_or_default()
            .trim()
            .to_string()
    }
}

fn healthz(addr: SocketAddr) -> String {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    body
}

fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

fn catalog_text(sources: usize, seed: u64) -> String {
    catalog::to_text(&generate(&SynthConfig::small(sources), seed).universe)
}

fn mube(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_mube"))
        .args(args)
        .output()
        .expect("run mube");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.success(), text)
}

#[test]
fn resync_heals_a_diverged_follower_through_the_cli() {
    let leader_dir = fresh_dir("resync-leader");
    let follower_dir = fresh_dir("resync-follower");

    // Divergent seed: both journals hold LSN 1, with different contents.
    {
        let (j, _, _) = Journal::open(&leader_dir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(8, 1),
        })
        .unwrap();
    }
    {
        let (j, _, _) = Journal::open(&follower_dir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(8, 2),
        })
        .unwrap();
    }

    let leader = ServerProc::spawn(&leader_dir, &["--repl-addr", "127.0.0.1:0"]);
    let repl = leader.repl.expect("leader replication port");
    let follow = repl.to_string();
    let follower = ServerProc::spawn(&follower_dir, &["--follow", &follow]);
    let follower_addr = follower.addr;

    wait_for("divergence detection", || {
        json_field(&healthz(follower_addr), "diverged") == "true"
    });
    assert!(follower_dir.join("diverged.marker").exists());

    // The operator-facing repair command.
    let (ok, out) = mube(&["resync", &follower_addr.to_string()]);
    assert!(ok, "mube resync failed: {out}");
    assert!(out.contains("resyncing"), "{out}");

    // The healed follower converges to the leader's exact state.
    let leader_lsn = json_field(&healthz(leader.addr), "lsn");
    let leader_digest = json_field(&healthz(leader.addr), "digest");
    wait_for("post-resync convergence", || {
        let h = healthz(follower_addr);
        json_field(&h, "lsn") == leader_lsn
            && json_field(&h, "digest") == leader_digest
            && json_field(&h, "diverged") == "false"
    });
    assert!(!follower_dir.join("diverged.marker").exists());
    assert!(
        std::fs::read_dir(&follower_dir)
            .expect("read follower dir")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("quarantine-")),
        "the divergent journal must be archived as forensic evidence"
    );

    // Byte-for-byte: the follower's journal is the leader's journal.
    wait_for("journal byte convergence", || {
        std::fs::read(leader_dir.join("journal.wal")).expect("leader journal")
            == std::fs::read(follower_dir.join("journal.wal")).expect("follower journal")
    });

    // The heal survives a process restart.
    follower.kill();
    let follower2 = ServerProc::spawn(&follower_dir, &["--follow", &follow]);
    let follower2_addr = follower2.addr;
    wait_for("restart convergence", || {
        let h = healthz(follower2_addr);
        json_field(&h, "lsn") == leader_lsn && json_field(&h, "digest") == leader_digest
    });

    // And promotion eligibility is restored: kill the leader, promote.
    leader.kill();
    let (ok, out) = mube(&["promote", &follower2_addr.to_string()]);
    assert!(ok, "promote after resync failed: {out}");
    wait_for("promoted role", || {
        json_field(&healthz(follower2_addr), "role") == "leader"
    });
    assert_eq!(
        json_field(&healthz(follower2_addr), "digest"),
        leader_digest
    );

    follower2.kill();
}

#[test]
fn fsck_repairs_a_flipped_snapshot_byte_and_the_server_restarts_identically() {
    let dir = fresh_dir("fsck");

    // Seed offline with an aggressive snapshot cadence so `snapshot.wal`
    // exists: cadence 2 over five appends seals LSNs 1..=4 and leaves LSN 5
    // in the tail.
    {
        let (j, _, _) = Journal::open(&dir, FsyncPolicy::Always, 2).unwrap();
        for (id, seed) in [(1u64, 11u64), (2, 12), (3, 13), (4, 14), (5, 15)] {
            j.append(Event::CatalogCreate {
                id,
                text: catalog_text(6, seed),
            })
            .unwrap();
        }
    }
    assert!(dir.join("snapshot.wal").exists(), "seed did not compact");

    // Ground truth: what a healthy boot serves.
    let server = ServerProc::spawn(&dir, &[]);
    let digest = json_field(&healthz(server.addr), "digest");
    let lsn = json_field(&healthz(server.addr), "lsn");
    server.kill();

    // A clean directory passes fsck with exit 0.
    let (ok, out) = mube(&["fsck", &dir.display().to_string()]);
    assert!(ok, "clean dir failed fsck: {out}");
    assert!(out.contains("status: clean"), "{out}");

    // Disk rot: flip one bit inside the snapshot's header record.
    let snap_path = dir.join("snapshot.wal");
    let mut snap = std::fs::read(&snap_path).expect("read snapshot");
    snap[20] ^= 0x10;
    std::fs::write(&snap_path, &snap).expect("write corrupted snapshot");

    // fsck pinpoints the damage and exits nonzero.
    let (ok, out) = mube(&["fsck", &dir.display().to_string(), "--json"]);
    assert!(!ok, "fsck must fail on a corrupt snapshot: {out}");
    assert!(out.contains("\"clean\":false"), "{out}");
    assert!(out.contains("snapshot.wal"), "{out}");
    assert!(out.contains("CRC mismatch"), "{out}");

    // --repair rebuilds the snapshot (quarantining the evidence) and the
    // re-check comes back clean.
    let (ok, out) = mube(&["fsck", &dir.display().to_string(), "--repair", "--json"]);
    assert!(ok, "fsck --repair did not restore a clean dir: {out}");
    assert!(out.contains("\"clean\":true"), "{out}");
    assert!(out.contains("rebuilt snapshot.wal"), "{out}");

    // The restarted server replays to the exact pre-corruption state: the
    // flipped byte sat in the reconstructible snapshot header, so repair
    // loses nothing.
    let server = ServerProc::spawn(&dir, &[]);
    assert_eq!(json_field(&healthz(server.addr), "digest"), digest);
    assert_eq!(json_field(&healthz(server.addr), "lsn"), lsn);
    server.kill();
}
