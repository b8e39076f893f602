//! Crash-safety of the durable session journal, tested against the real
//! `mube` binary: a server killed with SIGKILL mid-session and restarted on the same
//! `--data-dir` must replay to *byte-identical* behaviour, and a corrupted
//! journal tail must be quarantined — never a boot failure.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use mube_core::catalog;
use mube_synth::{generate, SynthConfig};

mod common;
use common::TestDir;

/// A `mube serve` child process bound to an ephemeral port.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `mube serve --addr 127.0.0.1:0 --data-dir <dir> --fsync always`
    /// and parses the bound address from its startup line. `--fsync always`
    /// makes every acknowledged request durable, so a SIGKILL at any point
    /// after a response loses nothing.
    fn spawn(data_dir: &Path) -> ServerProc {
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
        // "mube-serve listening on http://127.0.0.1:PORT (N worker threads)"
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable startup line: {banner:?}"));
        ServerProc { child, addr }
    }

    /// SIGKILL: no drain, no flush beyond what fsync already guaranteed.
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

/// One HTTP request over a fresh connection; returns `(status, raw body)`.
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

/// A fresh per-test data directory under the system temp dir.
fn fresh_dir(tag: &str) -> TestDir {
    TestDir::new("crash-test", tag)
}

/// Uploads the deterministic test catalog; ids are assigned from 1, so the
/// same call sequence yields the same ids on every server.
fn upload_catalog(addr: SocketAddr) -> u64 {
    let synth = generate(&SynthConfig::small(10), 2007);
    let text = catalog::to_text(&synth.universe);
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&text);
    j.end_obj();
    let (status, body) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{body}");
    1
}

fn create_session(addr: SocketAddr) -> u64 {
    let (status, body) = request(
        addr,
        "POST",
        "/sessions",
        "{\"catalog\":1,\"seed\":7,\"max_sources\":4,\"beta\":1,\"theta\":0.75}",
    );
    assert_eq!(status, 201, "{body}");
    1
}

/// Runs `rounds` solve+feedback iterations against session 1. The feedback
/// mutates real state (a pin and a re-weight) so replay has to restore more
/// than just solution history.
fn run_rounds(addr: SocketAddr, rounds: usize) {
    for i in 0..rounds {
        let (status, body) = request(addr, "POST", "/sessions/1/solve", "");
        assert_eq!(status, 200, "round {i}: {body}");
        let feedback = format!(
            "{{\"actions\":[{{\"op\":\"pin\",\"source\":\"site000{i}\"}},\
             {{\"op\":\"weight\",\"qef\":\"coverage\",\"value\":0.{}}}]}}",
            i + 3
        );
        let (status, body) = request(addr, "POST", "/sessions/1/feedback", &feedback);
        assert_eq!(status, 200, "round {i}: {body}");
    }
}

#[test]
fn sigkill_and_replay_is_byte_identical_to_an_uninterrupted_run() {
    const ROUNDS: usize = 2;

    // Reference: one server lives through the whole flow.
    let witness_dir = fresh_dir("witness");
    let witness = ServerProc::spawn(&witness_dir);
    upload_catalog(witness.addr);
    create_session(witness.addr);
    run_rounds(witness.addr, ROUNDS);
    let (status, expected) = request(witness.addr, "POST", "/sessions/1/solve", "");
    assert_eq!(status, 200, "{expected}");
    witness.kill();

    // Crash flow: same prefix, then SIGKILL with no warning — the next
    // solve was never issued, so the journal ends mid-session.
    let crash_dir = fresh_dir("crash");
    let doomed = ServerProc::spawn(&crash_dir);
    upload_catalog(doomed.addr);
    create_session(doomed.addr);
    run_rounds(doomed.addr, ROUNDS);
    doomed.kill();

    // Restart on the same data dir: replay must rebuild the session so
    // exactly that the next solve is byte-for-byte the witness's.
    let revived = ServerProc::spawn(&crash_dir);
    let (status, replayed) = request(revived.addr, "POST", "/sessions/1/solve", "");
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(
        replayed, expected,
        "post-crash solve diverged from the uninterrupted run"
    );
    revived.kill();
}

#[test]
fn corrupt_journal_tail_is_quarantined_and_the_server_still_boots() {
    let dir = fresh_dir("corrupt");
    let server = ServerProc::spawn(&dir);
    upload_catalog(server.addr);
    create_session(server.addr);
    let (status, body) = request(server.addr, "POST", "/sessions/1/solve", "");
    assert_eq!(status, 200, "{body}");
    server.kill();

    // Torn write, simulated: flip a byte inside the last record's payload
    // and tear off the final few bytes. Both the CRC mismatch and the
    // truncated frame fall in the corrupt suffix.
    let tail = dir.join("journal.wal");
    let mut bytes = std::fs::read(&tail).expect("read journal tail");
    assert!(
        bytes.len() > 40,
        "journal unexpectedly small: {}",
        bytes.len()
    );
    let mid = bytes.len() - 20;
    bytes[mid] ^= 0xFF;
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&tail, &bytes).expect("rewrite corrupted tail");

    // Boot must survive: the corrupt suffix is quarantined aside, the good
    // prefix replays, and the server serves.
    let revived = ServerProc::spawn(&dir);
    let (status, body) = request(revived.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        dir.join("quarantine-0.wal").exists(),
        "corrupt bytes must be preserved for forensics, not dropped"
    );
    // The replayed catalog is intact: a new session against it succeeds.
    let (status, body) = request(
        revived.addr,
        "POST",
        "/sessions",
        "{\"catalog\":1,\"seed\":9}",
    );
    assert_eq!(status, 201, "{body}");
    revived.kill();
}
