//! Leader/follower replication end-to-end: WAL shipping over TCP, ack
//! plumbing, read-only followers, checked (digest-gated) promotion, and
//! semi-sync write acknowledgement — all against real servers on
//! ephemeral ports, driven like external clients.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mube_integration::{
    catalog_text, err_code, follower_config, healthz, leader_config, request, spawn,
    upload_catalog, wait_healthz, TestDir,
};
use mube_serve::{Event, FsyncPolicy, Journal, Json};

fn fresh_dir(tag: &str) -> TestDir {
    TestDir::new("repl-test", tag)
}

fn create_session(addr: SocketAddr, catalog: u64, seed: u64) -> u64 {
    let body = format!(
        "{{\"catalog\":{catalog},\"seed\":{seed},\"max_sources\":4,\"beta\":1,\"theta\":0.75}}"
    );
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{v:?}");
    v.get("session").and_then(Json::as_u64).expect("session id")
}

#[test]
fn follower_applies_the_leader_stream_and_refuses_writes() {
    let (ldir, fdir) = (fresh_dir("ship-l"), fresh_dir("ship-f"));
    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));

    // Traffic on the leader: catalog, session, solve.
    let cat = upload_catalog(leader.addr(), 8, 42);
    let sid = create_session(leader.addr(), cat, 7);
    let (status, solved) = request(
        leader.addr(),
        "POST",
        &format!("/sessions/{sid}/solve"),
        "{}",
    );
    assert_eq!(status, 200, "{solved:?}");
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("leader lsn");
    assert!(leader_lsn >= 3, "catalog+session+solve journaled");

    // The follower converges to the same LSN and digest.
    let fh = wait_healthz(follower.addr(), "follower catch-up", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
    });
    assert_eq!(fh.get("role").and_then(Json::as_str), Some("follower"));
    let ldigest = healthz(leader.addr())
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("leader digest");
    assert_eq!(
        fh.get("digest").and_then(Json::as_str),
        Some(ldigest.as_str()),
        "replicated state must be byte-identical"
    );

    // Read endpoints work on the follower; the replicated session explains.
    // Polled: the follower journals a frame (which advances healthz lsn and
    // digest) before replaying it into the store, so a read landing in that
    // window still sees the pre-apply session for an instant.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, explain) = request(
            follower.addr(),
            "GET",
            &format!("/sessions/{sid}/explain"),
            "",
        );
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replicated session never became readable: {status} {explain:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Writes are refused with the leader hint.
    let (status, refused) = request(follower.addr(), "POST", "/catalogs", "{\"catalog\":\"x\"}");
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(err_code(&refused), "not_leader");
    assert_eq!(
        refused
            .get("error")
            .and_then(|e| e.get("leader"))
            .and_then(Json::as_str),
        Some(repl.to_string().as_str())
    );

    // Leader-side metrics expose the replication block. The follower
    // count is polled: under load a delayed heartbeat can trip the
    // follower's read timeout and cause a momentary reconnect.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, metrics) = request(leader.addr(), "GET", "/metrics", "");
        let repl_block = metrics.get("repl").expect("repl block");
        assert_eq!(
            repl_block.get("role").and_then(Json::as_str),
            Some("leader")
        );
        if repl_block.get("followers").and_then(Json::as_u64) == Some(1)
            && repl_block.get("frames_shipped").and_then(Json::as_u64) >= Some(3)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leader never settled on one follower: {metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    follower.shutdown();
    leader.shutdown();
    fjoin.join().unwrap().unwrap();
    ljoin.join().unwrap().unwrap();
}

#[test]
fn promotion_is_digest_checked_and_flips_the_role() {
    let (ldir, fdir) = (fresh_dir("promote-l"), fresh_dir("promote-f"));
    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));

    // A promote on the leader itself is refused.
    let (status, v) = request(leader.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(err_code(&v), "already_leader");

    let cat = upload_catalog(leader.addr(), 6, 11);
    create_session(leader.addr(), cat, 3);
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    let ldigest = healthz(leader.addr())
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("digest");

    // Wait for catch-up AND a passed digest check (verified lsn).
    wait_healthz(follower.addr(), "digest verification", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
    });

    // Kill the leader the hard-stop way a failover would see.
    leader.shutdown();
    ljoin.join().unwrap().unwrap();

    // Promote the follower and check the digest proof.
    let (status, promoted) = request(follower.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 200, "{promoted:?}");
    assert_eq!(promoted.get("promoted").and_then(Json::as_bool), Some(true));
    assert_eq!(promoted.get("lsn").and_then(Json::as_u64), Some(leader_lsn));
    assert_eq!(
        promoted.get("digest").and_then(Json::as_str),
        Some(ldigest.as_str()),
        "promoted state must carry the leader's digest"
    );

    // The new leader serves writes.
    wait_healthz(follower.addr(), "promoted role", |h| {
        h.get("role").and_then(Json::as_str) == Some("leader")
    });
    let cat2 = upload_catalog(follower.addr(), 5, 99);
    assert!(cat2 > cat);

    // Promoting again is refused.
    let (status, again) = request(follower.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 409, "{again:?}");
    assert_eq!(err_code(&again), "already_leader");

    follower.shutdown();
    fjoin.join().unwrap().unwrap();
}

/// A follower keeps the leader's frames as it received them: after a
/// catch-up from a backlog plus live streaming, with no compaction on
/// either side, its `journal.wal` is byte-identical to the leader's.
#[test]
fn follower_journal_is_byte_identical_to_the_leaders() {
    let (ldir, fdir) = (fresh_dir("bytes-l"), fresh_dir("bytes-f"));
    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");

    // A backlog the follower must catch up on, then live traffic.
    let cat = upload_catalog(leader.addr(), 8, 11);
    let sid = create_session(leader.addr(), cat, 3);
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));
    let (status, v) = request(
        leader.addr(),
        "POST",
        &format!("/sessions/{sid}/solve"),
        "{}",
    );
    assert_eq!(status, 200, "{v:?}");
    let (status, v) = request(
        leader.addr(),
        "POST",
        &format!("/sessions/{sid}/feedback"),
        r#"{"actions":[{"op":"pin","source":"site0002"}]}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    let (status, v) = request(leader.addr(), "DELETE", &format!("/sessions/{sid}"), "");
    assert_eq!(status, 200, "{v:?}");
    let lh = healthz(leader.addr());
    assert_eq!(lh.get("lsn").and_then(Json::as_u64), Some(5));
    wait_healthz(follower.addr(), "follower catch-up", |h| {
        h.get("lsn") == lh.get("lsn") && h.get("digest") == lh.get("digest")
    });

    follower.shutdown();
    leader.shutdown();
    fjoin.join().unwrap().unwrap();
    ljoin.join().unwrap().unwrap();
    let wal = |dir: &std::path::Path| std::fs::read(dir.join("journal.wal")).expect("journal.wal");
    let leader_wal = wal(&ldir);
    assert!(!leader_wal.is_empty());
    assert!(!ldir.join("snapshot.wal").exists(), "no compaction ran");
    assert!(
        wal(&fdir) == leader_wal,
        "follower journal differs from the leader's"
    );
}

#[test]
fn graceful_drain_ships_the_tail_before_exit() {
    let (ldir, fdir) = (fresh_dir("drain-l"), fresh_dir("drain-f"));
    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));

    // Make sure the follower is attached before the burst, then shut the
    // leader down immediately after the last write: the drain path must
    // ship the in-flight tail rather than lose it.
    wait_healthz(leader.addr(), "follower attach", |_| {
        leader
            .stats()
            .repl
            .as_ref()
            .is_some_and(|r| r.followers > 0)
    });
    let cat = upload_catalog(leader.addr(), 6, 5);
    create_session(leader.addr(), cat, 1);
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    leader.shutdown();
    ljoin.join().unwrap().unwrap();

    wait_healthz(follower.addr(), "tail shipped at drain", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
    });

    follower.shutdown();
    fjoin.join().unwrap().unwrap();
}

#[test]
fn semi_sync_gates_writes_on_a_durable_follower_ack() {
    let ldir = fresh_dir("semisync-l");
    let mut config = leader_config(&ldir);
    config.repl_sync = true;
    config.repl_sync_timeout = Duration::from_millis(400);
    let (leader, ljoin) = spawn(config);
    let repl = leader.repl_addr().expect("leader repl addr");

    // No follower attached: the write is locally durable but degrades to
    // a 503 so the client knows there is no second copy.
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&catalog_text(6, 17));
    j.end_obj();
    let (status, v) = request(leader.addr(), "POST", "/catalogs", &j.finish());
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(err_code(&v), "replication_timeout");
    let journaled = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    assert_eq!(journaled, 1, "the degraded write is still locally durable");

    // With a follower attached, the same write succeeds — and by the
    // semi-sync invariant the follower has durably applied it by the time
    // the response arrives.
    let fdir = fresh_dir("semisync-f");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));
    wait_healthz(leader.addr(), "follower attach", |_| {
        leader
            .stats()
            .repl
            .as_ref()
            .is_some_and(|r| r.followers > 0)
    });
    let cat = upload_catalog(leader.addr(), 6, 18);
    let acked = follower.stats().repl.expect("follower repl stats");
    assert!(
        acked.last_lsn >= 2,
        "semi-sync acked before the follower applied: {acked:?}"
    );
    assert!(cat >= 2);

    follower.shutdown();
    leader.shutdown();
    fjoin.join().unwrap().unwrap();
    ljoin.join().unwrap().unwrap();
}

#[test]
fn diverged_follower_is_quarantined_and_refuses_promotion() {
    let (ldir, fdir) = (fresh_dir("diverge-l"), fresh_dir("diverge-f"));

    // Pre-seed both journals at LSN 1 with *different* events: the
    // follower believes it is caught up, but its state is not the
    // leader's. The first heartbeat's digest check must catch this.
    {
        let (j, _, _) = Journal::open(&ldir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(6, 1),
        })
        .unwrap();
    }
    {
        let (j, _, _) = Journal::open(&fdir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(6, 2),
        })
        .unwrap();
    }

    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));

    let fh = wait_healthz(follower.addr(), "divergence detection", |h| {
        h.get("follower")
            .and_then(|f| f.get("diverged"))
            .and_then(Json::as_bool)
            == Some(true)
    });
    assert_eq!(fh.get("role").and_then(Json::as_str), Some("follower"));

    // Quarantined: the marker exists and promotion is refused.
    assert!(fdir.join("diverged.marker").exists());
    let (status, refused) = request(follower.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(err_code(&refused), "diverged");

    // The quarantine survives a restart of the follower process.
    follower.shutdown();
    fjoin.join().unwrap().unwrap();
    let (follower2, fjoin2) = spawn(follower_config(&fdir, repl));
    let (status, refused) = request(follower2.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(err_code(&refused), "diverged");

    follower2.shutdown();
    leader.shutdown();
    fjoin2.join().unwrap().unwrap();
    ljoin.join().unwrap().unwrap();
}

#[test]
fn follower_auto_promotes_after_leader_silence() {
    let (ldir, fdir) = (fresh_dir("auto-l"), fresh_dir("auto-f"));
    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let mut fconfig = follower_config(&fdir, repl);
    fconfig.promote_timeout = Duration::from_millis(600);
    let (follower, fjoin) = spawn(fconfig);

    let cat = upload_catalog(leader.addr(), 6, 23);
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    wait_healthz(follower.addr(), "catch-up before failover", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
    });

    // Leader dies; the follower must self-promote after the timeout.
    leader.shutdown();
    ljoin.join().unwrap().unwrap();
    wait_healthz(follower.addr(), "auto-promotion", |h| {
        h.get("role").and_then(Json::as_str) == Some("leader")
    });

    // The promoted node serves writes over the replicated state.
    let sid = create_session(follower.addr(), cat, 9);
    let (status, v) = request(
        follower.addr(),
        "POST",
        &format!("/sessions/{sid}/solve"),
        "{}",
    );
    assert_eq!(status, 200, "{v:?}");

    follower.shutdown();
    fjoin.join().unwrap().unwrap();
}
