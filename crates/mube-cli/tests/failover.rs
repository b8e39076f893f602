//! Chaos failover smoke against real `mube` binaries: a leader with a
//! replication port, a follower tailing it, live traffic, SIGKILL of the
//! leader, `mube promote` on the follower — and the promoted follower must
//! behave *byte-identically* to a crash-replayed twin booted from the dead
//! leader's own journal. Replication is exactly as trustworthy as crash
//! recovery, or it is wrong.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mube_core::catalog;
use mube_synth::{generate, SynthConfig};

mod common;
use common::TestDir;

/// A `mube serve` child bound to an ephemeral HTTP port, optionally with a
/// replication port.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    repl: Option<SocketAddr>,
}

impl ServerProc {
    /// Spawns `mube serve --addr 127.0.0.1:0 --data-dir <dir> --fsync
    /// always <extra...>` and parses the bound addresses from the startup
    /// banner (line 1: HTTP, line 2 when replicating: replication port).
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
        // "mube-serve listening on http://127.0.0.1:PORT (N worker threads)"
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable startup line: {banner:?}"));
        // "mube-serve replication on 127.0.0.1:PORT"
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

    /// SIGKILL: no drain, no farewell frames — the follower sees a dead
    /// peer, exactly like a machine loss.
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

fn fresh_dir(tag: &str) -> TestDir {
    TestDir::new("failover-test", tag)
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

#[test]
fn killed_leader_fails_over_to_a_byte_identical_follower() {
    let leader_dir = fresh_dir("leader");
    let follower_dir = fresh_dir("follower");

    let leader = ServerProc::spawn(&leader_dir, &["--repl-addr", "127.0.0.1:0"]);
    let repl = leader.repl.expect("leader replication port");
    let follow = repl.to_string();
    let follower = ServerProc::spawn(&follower_dir, &["--follow", &follow]);

    // Live traffic on the leader: catalog, session, two solve+feedback
    // rounds. Every acknowledged write is fsynced and shipped.
    let text = catalog::to_text(&generate(&SynthConfig::small(10), 2007).universe);
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&text);
    j.end_obj();
    let (status, body) = request(leader.addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{body}");
    let (status, body) = request(
        leader.addr,
        "POST",
        "/sessions",
        "{\"catalog\":1,\"seed\":7,\"max_sources\":4,\"beta\":1,\"theta\":0.75}",
    );
    assert_eq!(status, 201, "{body}");
    for i in 0..2 {
        let (status, body) = request(leader.addr, "POST", "/sessions/1/solve", "");
        assert_eq!(status, 200, "round {i}: {body}");
        let feedback = format!("{{\"actions\":[{{\"op\":\"pin\",\"source\":\"site000{i}\"}}]}}");
        let (status, body) = request(leader.addr, "POST", "/sessions/1/feedback", &feedback);
        assert_eq!(status, 200, "round {i}: {body}");
    }

    // Let the follower reach the leader's LSN, then SIGKILL the leader.
    let leader_lsn = json_field(&healthz(leader.addr), "lsn");
    let leader_digest = json_field(&healthz(leader.addr), "digest");
    let follower_addr = follower.addr;
    wait_for("follower catch-up", || {
        json_field(&healthz(follower_addr), "lsn") == leader_lsn
    });
    leader.kill();

    // Promote through the CLI.
    let output = Command::new(env!("CARGO_BIN_EXE_mube"))
        .args(["promote", &follower.addr.to_string()])
        .output()
        .expect("run mube promote");
    assert!(
        output.status.success(),
        "promote failed: {}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("promoted"), "{stdout}");
    wait_for("promoted role", || {
        json_field(&healthz(follower_addr), "role") == "leader"
    });

    // The promoted follower carries the dead leader's exact state.
    assert_eq!(json_field(&healthz(follower_addr), "lsn"), leader_lsn);
    assert_eq!(json_field(&healthz(follower_addr), "digest"), leader_digest);

    // A crash-replayed twin booted from the dead leader's own journal is
    // the ground truth; the promoted follower must match it byte for byte.
    let twin = ServerProc::spawn(&leader_dir, &[]);
    assert_eq!(json_field(&healthz(twin.addr), "digest"), leader_digest);
    let (status, twin_solve) = request(twin.addr, "POST", "/sessions/1/solve", "");
    assert_eq!(status, 200, "{twin_solve}");
    let (status, promoted_solve) = request(follower_addr, "POST", "/sessions/1/solve", "");
    assert_eq!(status, 200, "{promoted_solve}");
    assert_eq!(
        promoted_solve, twin_solve,
        "promoted follower diverged from the crash-replayed leader journal"
    );

    twin.kill();
    follower.kill();
}
