//! Self-healing storage end-to-end: the background scrubber catching disk
//! corruption and fencing the node read-only, and `/admin/resync` walking a
//! diverged (quarantined) follower back to health with a full copy from the
//! leader — all against real servers on ephemeral ports.

use std::io::Write as _;
use std::time::{Duration, Instant};

use mube_integration::{
    catalog_text, err_code, follower_config, healthz, leader_config, request, spawn,
    upload_catalog, wait_healthz, TestDir,
};
use mube_serve::{Event, FsyncPolicy, Journal, Json, ServeConfig};

fn fresh_dir(tag: &str) -> TestDir {
    TestDir::new("selfheal-test", tag)
}

fn quarantine_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("quarantine-") && name.ends_with(".wal")
        })
        .count()
}

#[test]
fn scrubber_detects_disk_corruption_and_fences_the_node_read_only() {
    let dir = fresh_dir("scrub");
    let mut config = ServeConfig {
        threads: 2,
        max_solve_evaluations: 600,
        data_dir: Some(dir.display().to_string()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    };
    config.scrub_interval = Duration::from_millis(100);
    let (server, join) = spawn(config);

    upload_catalog(server.addr(), 6, 42);

    // The scrubber runs cleanly against an intact journal.
    let h = wait_healthz(server.addr(), "a clean scrub pass", |h| {
        h.get("scrub")
            .and_then(|s| s.get("runs"))
            .and_then(Json::as_u64)
            >= Some(1)
    });
    assert_eq!(h.get("read_only").and_then(Json::as_bool), Some(false));
    assert_eq!(
        h.get("scrub")
            .and_then(|s| s.get("ok"))
            .and_then(Json::as_bool),
        Some(true),
        "{h:?}"
    );

    // Smash the journal behind the server's back: append bytes that can
    // never parse as a frame. The next scrub pass must notice that disk no
    // longer backs the state being served, and fence the node.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("journal.wal"))
        .expect("open live journal");
    f.write_all(b"\xde\xad. disk rot, as delivered by a failing controller")
        .expect("corrupt journal");
    f.sync_all().expect("sync corruption");
    drop(f);

    let fenced = wait_healthz(server.addr(), "scrub to fence the node", |h| {
        h.get("read_only").and_then(Json::as_bool) == Some(true)
    });
    assert_eq!(
        fenced
            .get("scrub")
            .and_then(|s| s.get("ok"))
            .and_then(Json::as_bool),
        Some(false),
        "{fenced:?}"
    );

    // Mutations are refused with a stable code; reads still serve.
    let (status, refused) = request(server.addr(), "POST", "/catalogs", "{\"catalog\":\"x\"}");
    assert_eq!(status, 503, "{refused:?}");
    assert_eq!(err_code(&refused), "read_only");

    // Reads survive the fence, and /metrics carries the scrub's own error
    // text for the operator.
    let (status, metrics) = request(server.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200, "reads must survive the fence");
    let scrub = metrics.get("scrub").expect("scrub block");
    assert!(
        scrub.get("failures").and_then(Json::as_u64) >= Some(1),
        "{metrics:?}"
    );
    assert!(
        scrub
            .get("last_error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("journal.wal")),
        "{metrics:?}"
    );

    server.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn resync_heals_a_diverged_follower_and_restores_promotability() {
    let (ldir, fdir) = (fresh_dir("resync-l"), fresh_dir("resync-f"));

    // Pre-seed both journals at LSN 1 with different events, so the first
    // digest round quarantines the follower.
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

    // Resync is a follower-only operation.
    let (status, refused) = request(leader.addr(), "POST", "/admin/resync", "");
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(err_code(&refused), "not_follower");

    wait_healthz(follower.addr(), "divergence detection", |h| {
        h.get("follower")
            .and_then(|f| f.get("diverged"))
            .and_then(Json::as_bool)
            == Some(true)
    });
    assert!(fdir.join("diverged.marker").exists());
    let (status, refused) = request(follower.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(err_code(&refused), "diverged");

    // The operator-triggered repair: archive the bad journal for forensics,
    // wipe, and re-pull everything from the leader.
    let (status, resynced) = request(follower.addr(), "POST", "/admin/resync", "");
    assert_eq!(status, 200, "{resynced:?}");
    assert_eq!(resynced.get("resync").and_then(Json::as_bool), Some(true));
    assert_eq!(
        resynced.get("was_diverged").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        quarantine_count(&fdir) >= 1,
        "the divergent journal must be archived, not destroyed"
    );

    // The follower converges to the leader's exact state and sheds the
    // quarantine marker.
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("leader lsn");
    let ldigest = healthz(leader.addr())
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("leader digest");
    let fh = wait_healthz(follower.addr(), "post-resync convergence", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
            && h.get("digest").and_then(Json::as_str) == Some(ldigest.as_str())
            && h.get("follower")
                .and_then(|f| f.get("diverged"))
                .and_then(Json::as_bool)
                == Some(false)
    });
    assert!(!fdir.join("diverged.marker").exists(), "{fh:?}");

    // New leader traffic still flows to the healed follower.
    upload_catalog(leader.addr(), 5, 77);
    let lsn2 = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    wait_healthz(follower.addr(), "post-resync replication", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(lsn2)
    });

    // After both sides quiesce, the journals agree byte-for-byte (polled:
    // the follower's last fsync can trail the healthz answer briefly).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let l = std::fs::read(ldir.join("journal.wal")).expect("leader journal");
        let f = std::fs::read(fdir.join("journal.wal")).expect("follower journal");
        if l == f {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "journals never converged: leader {} bytes, follower {} bytes",
            l.len(),
            f.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Promotion eligibility is restored — and the digest proves the state.
    let ldigest2 = healthz(leader.addr())
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("digest");
    leader.shutdown();
    ljoin.join().unwrap().unwrap();
    let (status, promoted) = request(follower.addr(), "POST", "/admin/promote", "");
    assert_eq!(status, 200, "{promoted:?}");
    assert_eq!(
        promoted.get("digest").and_then(Json::as_str),
        Some(ldigest2.as_str()),
        "promoted state must carry the dead leader's digest"
    );

    follower.shutdown();
    fjoin.join().unwrap().unwrap();
}

#[test]
fn resync_survives_a_follower_restart() {
    let (ldir, fdir) = (fresh_dir("resync-restart-l"), fresh_dir("resync-restart-f"));
    {
        let (j, _, _) = Journal::open(&ldir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(6, 3),
        })
        .unwrap();
    }
    {
        let (j, _, _) = Journal::open(&fdir, FsyncPolicy::Always, 256).unwrap();
        j.append(Event::CatalogCreate {
            id: 1,
            text: catalog_text(6, 4),
        })
        .unwrap();
    }

    let (leader, ljoin) = spawn(leader_config(&ldir));
    let repl = leader.repl_addr().expect("leader repl addr");
    let (follower, fjoin) = spawn(follower_config(&fdir, repl));

    wait_healthz(follower.addr(), "divergence detection", |h| {
        h.get("follower")
            .and_then(|f| f.get("diverged"))
            .and_then(Json::as_bool)
            == Some(true)
    });
    let (status, v) = request(follower.addr(), "POST", "/admin/resync", "");
    assert_eq!(status, 200, "{v:?}");
    let leader_lsn = healthz(leader.addr())
        .get("lsn")
        .and_then(Json::as_u64)
        .expect("lsn");
    wait_healthz(follower.addr(), "post-resync convergence", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
    });

    // Restart the follower process: the healed state must boot clean —
    // no marker, no divergence, digest still matching the leader's.
    follower.shutdown();
    fjoin.join().unwrap().unwrap();
    let (follower2, fjoin2) = spawn(follower_config(&fdir, repl));
    let ldigest = healthz(leader.addr())
        .get("digest")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("digest");
    wait_healthz(follower2.addr(), "restart convergence", |h| {
        h.get("lsn").and_then(Json::as_u64) == Some(leader_lsn)
            && h.get("digest").and_then(Json::as_str) == Some(ldigest.as_str())
    });
    assert!(!fdir.join("diverged.marker").exists());
    let (status, promotable) = request(follower2.addr(), "POST", "/admin/promote", "");
    // Promotion against a live leader is a legitimate switchover; what
    // matters here is that `diverged` is no longer the refusal.
    assert_ne!(err_code(&promotable), "diverged", "{status} {promotable:?}");

    follower2.shutdown();
    leader.shutdown();
    fjoin2.join().unwrap().unwrap();
    ljoin.join().unwrap().unwrap();
}
