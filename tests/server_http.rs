//! End-to-end tests for `mube-serve`: a real server on an ephemeral port,
//! driven over `std::net::TcpStream` exactly like an external client.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mube_core::catalog;
use mube_serve::{Json, ServeConfig, Server, ServerHandle};
use mube_synth::{generate, SynthConfig};

/// A CI-sized server: ephemeral port, small solve budget.
fn test_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        max_solve_evaluations: 800,
        ..ServeConfig::default()
    }
}

fn spawn(threads: usize) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    Server::spawn(test_config(threads)).expect("bind test server")
}

/// One HTTP request over a fresh connection; returns the raw response
/// text (status line, headers, body) for header-level assertions.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
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
    raw
}

/// One HTTP request over a fresh connection (the server closes after each
/// response). Returns `(status, parsed body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let raw = raw_request(addr, method, path, body);
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}"));
    (status, parsed)
}

/// Uploads a small synthetic catalog and returns its id.
fn upload_catalog(addr: SocketAddr, sources: usize, seed: u64) -> u64 {
    let synth = generate(&SynthConfig::small(sources), seed);
    let text = catalog::to_text(&synth.universe);
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&text);
    j.end_obj();
    let (status, body) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{body:?}");
    body.get("catalog")
        .and_then(Json::as_u64)
        .expect("catalog id")
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
fn full_feedback_loop_over_http() {
    let (handle, join) = spawn(4);
    let addr = handle.addr();

    // Health first: alive and not draining.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));

    let catalog_id = upload_catalog(addr, 12, 2007);
    let session = create_session(addr, catalog_id, 7);

    // Iteration 1.
    let (status, first) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.get("iteration").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("diff"), Some(&Json::Null));
    let solution = first.get("solution").expect("solution");
    let picked = solution.get("sources").and_then(Json::as_array).unwrap();
    assert!(!picked.is_empty() && picked.len() <= 4, "{picked:?}");
    assert!(
        solution.get("quality").and_then(Json::as_f64).unwrap() > 0.0,
        "{solution:?}"
    );
    assert!(
        !solution
            .get("schema")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "solution should mediate at least one GA"
    );

    // Feedback: pin a source not necessarily selected, adopt GA 0, and
    // re-weight — the paper's §6 gestures, over the wire.
    let feedback = "{\"actions\":[\
        {\"op\":\"pin\",\"source\":\"site0003\"},\
        {\"op\":\"adopt_ga\",\"index\":0},\
        {\"op\":\"weight\",\"qef\":\"coverage\",\"value\":0.4}]}";
    let (status, fb) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/feedback"),
        feedback,
    );
    assert_eq!(status, 200, "{fb:?}");
    assert_eq!(fb.get("applied").and_then(Json::as_u64), Some(3));
    let constraints = fb.get("constraints").expect("constraints");
    let pinned = constraints.get("pinned").and_then(Json::as_array).unwrap();
    assert!(
        pinned.iter().any(|p| p.as_str() == Some("site0003")),
        "{pinned:?}"
    );
    assert_eq!(
        constraints.get("required_gas").and_then(Json::as_u64),
        Some(1)
    );

    // Iteration 2 must honor the pin and report a diff.
    let (status, second) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
    assert_eq!(status, 200, "{second:?}");
    assert_eq!(second.get("iteration").and_then(Json::as_u64), Some(2));
    let names: Vec<&str> = second
        .get("solution")
        .and_then(|s| s.get("sources"))
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"site0003"), "{names:?}");
    assert!(second.get("diff").unwrap().get("gas_changed").is_some());

    // Explain: every selected source gets a contribution entry.
    let (status, ex) = request(addr, "GET", &format!("/sessions/{session}/explain"), "");
    assert_eq!(status, 200, "{ex:?}");
    let contributions = ex.get("contributions").and_then(Json::as_array).unwrap();
    assert_eq!(contributions.len(), names.len(), "{ex:?}");

    // Lint: the session's constraints audit cleanly here.
    let (status, lint) = request(addr, "GET", &format!("/sessions/{session}/lint"), "");
    assert_eq!(status, 200, "{lint:?}");
    assert_eq!(lint.get("errors").and_then(Json::as_bool), Some(false));
    assert!(lint.get("diagnostics").and_then(Json::as_array).is_some());

    // Execute the latest solution with every source forced to fail: the
    // report must say so, and the same seed must reproduce it exactly.
    let exec_body = "{\"faults\":\"rate=1\",\"fault_seed\":3}";
    let (status, ex1) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/execute"),
        exec_body,
    );
    assert_eq!(status, 200, "{ex1:?}");
    let report = ex1.get("report").expect("report");
    assert_eq!(
        report
            .get("degradation")
            .and_then(|d| d.get("clean"))
            .and_then(Json::as_bool),
        Some(false),
        "{report:?}"
    );
    assert_eq!(report.get("distinct").and_then(Json::as_u64), Some(0));
    let health = ex1.get("health").expect("health");
    assert!(
        health.get("failures").and_then(Json::as_u64).unwrap() > 0,
        "{health:?}"
    );
    let (status, ex2) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/execute"),
        exec_body,
    );
    assert_eq!(status, 200);
    assert_eq!(
        ex1.get("report"),
        ex2.get("report"),
        "same seed, same report"
    );

    // Without faults the same execution is clean and returns data.
    let (status, clean) = request(addr, "POST", &format!("/sessions/{session}/execute"), "{}");
    assert_eq!(status, 200, "{clean:?}");
    let clean_report = clean.get("report").expect("report");
    assert_eq!(
        clean_report
            .get("degradation")
            .and_then(|d| d.get("clean"))
            .and_then(Json::as_bool),
        Some(true),
        "{clean_report:?}"
    );
    assert!(clean_report.get("distinct").and_then(Json::as_u64).unwrap() > 0);

    // Executing a never-solved session is a 409, same as explain.
    let unsolved = create_session(addr, catalog_id, 8);
    let (status, err) = request(addr, "POST", &format!("/sessions/{unsolved}/execute"), "{}");
    assert_eq!(status, 409);
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("no_solution")
    );
    let (status, _) = request(addr, "DELETE", &format!("/sessions/{unsolved}"), "");
    assert_eq!(status, 200);

    // Error paths: stable codes, feedback reports the failing action.
    let (status, err) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/feedback"),
        "{\"actions\":[{\"op\":\"adopt_ga\",\"index\":999}]}",
    );
    assert_eq!(status, 409);
    let e = err.get("error").expect("error object");
    assert_eq!(e.get("code").and_then(Json::as_str), Some("stale_ga_index"));
    assert_eq!(e.get("action").and_then(Json::as_u64), Some(0));

    let (status, err) = request(addr, "POST", "/sessions/424242/solve", "");
    assert_eq!(status, 404);
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_session")
    );

    let (status, err) = request(addr, "POST", "/sessions", "{not json");
    assert_eq!(status, 400);
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_json")
    );

    let (status, err) = request(addr, "POST", "/sessions", "{\"catalog\":999}");
    assert_eq!(status, 404);
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_catalog")
    );

    let (status, _) = request(addr, "DELETE", "/catalogs", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // Delete the session; it stops being addressable.
    let (status, del) = request(addr, "DELETE", &format!("/sessions/{session}"), "");
    assert_eq!(status, 200);
    assert_eq!(del.get("deleted").and_then(Json::as_bool), Some(true));
    let (status, _) = request(addr, "GET", &format!("/sessions/{session}/explain"), "");
    assert_eq!(status, 404);

    // Metrics must reflect everything above, via API and endpoint alike.
    let stats = handle.stats();
    assert_eq!(stats.catalogs_created, 1);
    assert_eq!(stats.sessions_created, 2);
    assert_eq!(stats.solves_run, 2);
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.requests_for("POST /sessions/{id}/solve"), 3);
    assert_eq!(stats.requests_for("POST /sessions/{id}/execute"), 4);
    assert_eq!(stats.request_hist.total, stats.total_requests());
    // Three executions ran (the 409 never reached the executor); the two
    // faulted ones burned retries, so attempts exceed successes.
    assert_eq!(stats.executions_run, 3);
    assert_eq!(stats.exec_hist.total, 3);
    assert!(stats.exec_fetch_attempts > stats.exec_fetch_failures);
    assert!(stats.exec_fetch_failures > 0);
    assert!(stats.exec_sources_failed > 0);
    assert_eq!(stats.worker_panics, 0);
    let (status, m) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(m.get("solves_run").and_then(Json::as_u64), Some(2));
    assert_eq!(m.get("worker_panics").and_then(Json::as_u64), Some(0));
    let exec = m.get("exec").expect("exec counters");
    assert_eq!(exec.get("executions_run").and_then(Json::as_u64), Some(3));
    assert_eq!(
        exec.get("fetch_failures").and_then(Json::as_u64),
        Some(stats.exec_fetch_failures)
    );

    handle.shutdown();
    join.join().expect("acceptor thread").expect("clean run");
}

#[test]
fn session_cap_answers_429_with_retry_after() {
    let config = ServeConfig {
        max_sessions: 1,
        ..test_config(2)
    };
    let (handle, join) = Server::spawn(config).expect("bind test server");
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 8, 11);
    let _first = create_session(addr, catalog_id, 1);

    // The cap is 1 and the live session is not idle: creation is refused
    // with back-pressure the client can act on.
    let raw = raw_request(
        addr,
        "POST",
        "/sessions",
        &format!("{{\"catalog\":{catalog_id}}}"),
    );
    assert!(raw.starts_with("HTTP/1.1 429 "), "{raw:?}");
    assert!(raw.contains("retry-after: 1\r\n"), "{raw:?}");
    assert!(raw.contains("too_many_sessions"), "{raw:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn oversized_body_is_rejected_up_front() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    // Declare a body far over the cap without sending it; the server must
    // refuse from the declaration alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /catalogs HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw:?}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn concurrent_sessions_do_not_interfere() {
    const CLIENTS: usize = 8;
    const SOLVES_PER_CLIENT: usize = 2;
    let (handle, join) = spawn(4);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 12, 99);

    // Each client owns a distinct session and solves twice. Distinct seeds
    // exercise genuinely different search runs sharing one similarity
    // cache across worker threads.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let session = create_session(addr, catalog_id, 1000 + i as u64);
                let mut qualities = Vec::new();
                for _ in 0..SOLVES_PER_CLIENT {
                    let (status, v) =
                        request(addr, "POST", &format!("/sessions/{session}/solve"), "");
                    assert_eq!(status, 200, "client {i}: {v:?}");
                    qualities.push(
                        v.get("solution")
                            .and_then(|s| s.get("quality"))
                            .and_then(Json::as_f64)
                            .expect("quality"),
                    );
                }
                (session, qualities)
            })
        })
        .collect();
    let results: Vec<(u64, Vec<f64>)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // Every client got its own session id and real solutions.
    let mut ids: Vec<u64> = results.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS);
    for (_, qualities) in &results {
        assert_eq!(qualities.len(), SOLVES_PER_CLIENT);
        assert!(qualities.iter().all(|q| *q > 0.0));
    }

    // The books balance: counters must add up exactly across threads.
    let stats = handle.stats();
    assert_eq!(stats.sessions_created, CLIENTS as u64);
    assert_eq!(stats.sessions_live, CLIENTS as u64);
    assert_eq!(stats.solves_run, (CLIENTS * SOLVES_PER_CLIENT) as u64);
    assert_eq!(
        stats.requests_for("POST /sessions/{id}/solve"),
        (CLIENTS * SOLVES_PER_CLIENT) as u64
    );
    assert_eq!(stats.requests_for("POST /sessions"), CLIENTS as u64);
    assert_eq!(stats.solve_hist.total, stats.solves_run);

    // Graceful shutdown: drain completes, the port closes.
    handle.shutdown();
    join.join().expect("acceptor thread").expect("clean run");
    assert!(handle.is_draining());
}

#[test]
fn portfolio_sessions_are_thread_count_invariant() {
    let (handle, join) = spawn(4);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 10, 41);

    // Two sessions, same catalog/seed/portfolio, differing only in threads.
    let mut solutions = Vec::new();
    for threads in [1u64, 8] {
        let body = format!(
            "{{\"catalog\":{catalog_id},\"seed\":7,\"max_sources\":4,\
             \"threads\":{threads},\"portfolio\":\"tabu,sls,anneal\"}}"
        );
        let (status, v) = request(addr, "POST", "/sessions", &body);
        assert_eq!(status, 201, "{v:?}");
        assert_eq!(
            v.get("solver").and_then(Json::as_str),
            Some("portfolio(tabu,sls,annealing)"),
            "{v:?}"
        );
        let session = v.get("session").and_then(Json::as_u64).expect("session id");
        let (status, solved) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
        assert_eq!(status, 200, "{solved:?}");
        solutions.push(format!("{:?}", solved.get("solution")));
    }
    assert_eq!(
        solutions[0], solutions[1],
        "thread count changed the solution"
    );

    // `restarts` alone engages the default portfolio; bad specs are 422,
    // bad thread counts 400.
    let body = format!("{{\"catalog\":{catalog_id},\"restarts\":2}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{v:?}");
    assert_eq!(
        v.get("solver").and_then(Json::as_str),
        Some("portfolio(tabu,sls,annealing,pso,tabu,sls,annealing,pso)"),
        "{v:?}"
    );
    let body = format!("{{\"catalog\":{catalog_id},\"portfolio\":\"tabu,genetic\"}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 422, "{v:?}");
    let body = format!("{{\"catalog\":{catalog_id},\"threads\":0}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 400, "{v:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn resource_bounds_are_refused_with_a_stable_lint_code() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 8, 13);

    // Each oversubscription is a 422 `invalid_parameter` carrying the
    // machine-readable MUBE015 lint code (PROTOCOL.md).
    let cases = [
        format!("{{\"catalog\":{catalog_id},\"threads\":100}}"),
        format!("{{\"catalog\":{catalog_id},\"restarts\":100}}"),
        // 5 members × 64 restarts = 320 total, over the 256 member cap
        // even though both factors are individually in bounds.
        format!("{{\"catalog\":{catalog_id},\"restarts\":64,\"portfolio\":\"tabu,tabu,tabu,tabu,tabu\"}}"),
    ];
    for body in &cases {
        let (status, v) = request(addr, "POST", "/sessions", body);
        assert_eq!(status, 422, "{body}: {v:?}");
        let err = v.get("error").expect("error object");
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("invalid_parameter"),
            "{v:?}"
        );
        let lint = err
            .get("lint")
            .and_then(Json::as_array)
            .expect("lint codes");
        assert!(lint.iter().any(|c| c.as_str() == Some("MUBE015")), "{v:?}");
    }

    // In-bounds values still work: nothing was rejected spuriously.
    let body = format!("{{\"catalog\":{catalog_id},\"threads\":2,\"restarts\":2}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{v:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn solve_honours_time_budget_and_reports_timed_out() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 10, 17);
    let session = create_session(addr, catalog_id, 7);

    // A zero budget fires the deadline before the first check, but the
    // anytime guarantee still yields a full, feasible solution.
    let (status, v) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/solve"),
        "{\"time_budget_ms\":0}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("timed_out").and_then(Json::as_bool), Some(true));
    let solution = v.get("solution").expect("solution");
    assert!(
        !solution
            .get("sources")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "deadline-cut solve must still select sources"
    );
    assert_eq!(
        solution.get("timed_out").and_then(Json::as_bool),
        Some(true),
        "the solution itself carries the flag too"
    );

    // An ample budget completes normally.
    let (status, v) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/solve"),
        "{\"time_budget_ms\":60000}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("timed_out").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("iteration").and_then(Json::as_u64), Some(2));

    // Garbage budgets are a 400 before any work happens.
    let (status, v) = request(
        addr,
        "POST",
        &format!("/sessions/{session}/solve"),
        "{\"time_budget_ms\":\"soon\"}",
    );
    assert_eq!(status, 400, "{v:?}");

    // The metrics ledger separates cut solves from completed ones.
    let stats = handle.stats();
    assert_eq!(stats.solves_run, 2);
    assert_eq!(stats.solves_timed_out, 1);
    let (status, m) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(m.get("solves_timed_out").and_then(Json::as_u64), Some(1));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn sessions_serialize_but_do_not_block_each_other() {
    // Two clients hammer the SAME session while a third uses its own:
    // same-session solves must serialize (iterations strictly increase,
    // no duplicates), and the sibling session must still make progress.
    let (handle, join) = spawn(4);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 10, 5);
    let shared = create_session(addr, catalog_id, 1);
    let solo = create_session(addr, catalog_id, 2);

    let iterations = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut workers = Vec::new();
    for _ in 0..2 {
        let iterations = Arc::clone(&iterations);
        workers.push(std::thread::spawn(move || {
            for _ in 0..3 {
                let (status, v) = request(addr, "POST", &format!("/sessions/{shared}/solve"), "");
                assert_eq!(status, 200, "{v:?}");
                let it = v.get("iteration").and_then(Json::as_u64).unwrap();
                iterations.lock().unwrap().push(it);
            }
        }));
    }
    workers.push(std::thread::spawn(move || {
        for _ in 0..2 {
            let (status, v) = request(addr, "POST", &format!("/sessions/{solo}/solve"), "");
            assert_eq!(status, 200, "{v:?}");
        }
    }));
    for w in workers {
        w.join().expect("client thread");
    }

    // 6 solves on the shared session: iteration numbers are exactly 1..=6
    // in some order — proof the mutex serialized them without loss.
    let mut seen = iterations.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn prune_block_reduces_the_session_universe() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 24, 2007);

    // Prune to 10 relevance survivors, deduplicating LSH near-duplicates.
    let body = format!(
        "{{\"catalog\":{catalog_id},\"seed\":7,\"max_sources\":4,\"theta\":0.3,\
         \"prune\":{{\"top_k\":10,\"dedup\":true}}}}"
    );
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{v:?}");
    let pruned = v.get("pruned").expect("201 echoes the prune stats");
    assert_eq!(
        pruned.get("catalog_sources").and_then(Json::as_u64),
        Some(24)
    );
    assert_eq!(pruned.get("survivors").and_then(Json::as_u64), Some(10));
    let clusters = pruned.get("clusters").and_then(Json::as_u64).unwrap();
    let kept = pruned.get("kept").and_then(Json::as_u64).unwrap();
    assert!(clusters <= 10 && kept <= 10, "{v:?}");
    let session = v.get("session").and_then(Json::as_u64).unwrap();

    // The pruned session still solves end to end.
    let (status, sol) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
    assert_eq!(status, 200, "{sol:?}");
    let selected = sol
        .get("solution")
        .and_then(|s| s.get("sources"))
        .and_then(Json::as_array)
        .expect("solution sources");
    assert!(!selected.is_empty() && selected.len() <= 4);

    // Pinned names survive pruning even with a tiny top_k.
    let body = format!(
        "{{\"catalog\":{catalog_id},\"seed\":7,\"max_sources\":4,\"theta\":0.3,\
         \"pins\":[\"site0021\"],\"prune\":{{\"top_k\":2,\"dedup\":true}}}}"
    );
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "pinned source must survive pruning: {v:?}");

    // A malformed block is a 400, an unknown pinned name a 422.
    let body = format!("{{\"catalog\":{catalog_id},\"prune\":7}}");
    let (status, _) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 400);
    let body =
        format!("{{\"catalog\":{catalog_id},\"pins\":[\"ghost\"],\"prune\":{{\"top_k\":5}}}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 422, "{v:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn slowloris_is_cut_off_while_healthy_clients_proceed() {
    let mut config = test_config(2);
    config.request_deadline = Duration::from_secs(1);
    let (handle, join) = Server::spawn(config).expect("bind test server");
    let addr = handle.addr();

    // A slowloris peer: dribbles a partial request line, then stalls. The
    // total-request deadline must cut it off even though every individual
    // byte arrived "recently".
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    slow.write_all(b"GET /healthz HT").unwrap();
    let started = std::time::Instant::now();

    // Meanwhile a healthy client is not starved.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let mut raw = String::new();
    slow.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw:?}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "slowloris must be cut off near the deadline, not eventually"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn header_flood_answers_431() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..70 {
        head.push_str(&format!("x-flood-{i}: y\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw:?}");
    assert!(raw.contains("headers_too_large"), "{raw:?}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn overload_is_shed_with_503_and_counted() {
    let mut config = test_config(1);
    config.queue_high_water = 1;
    config.request_deadline = Duration::from_secs(2);
    let (handle, join) = Server::spawn(config).expect("bind test server");
    let addr = handle.addr();

    // Occupy the single worker and the one queue slot with held-open
    // connections that never complete a request.
    let hold = |n: usize| -> Vec<TcpStream> {
        (0..n)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"GET /metrics HT").unwrap();
                s
            })
            .collect()
    };
    let mut holders: Vec<TcpStream> = hold(2);

    // Past the high-water mark, bursts are shed by the acceptor itself —
    // immediately, since no worker is free to write these responses. The
    // acceptor closes without reading our request, so tolerate a reset
    // after the response bytes.
    let lossy_request = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&raw).into_owned()
    };
    let mut shed = None;
    let probe_deadline = std::time::Instant::now() + Duration::from_secs(20);
    while std::time::Instant::now() < probe_deadline {
        let raw = lossy_request("/healthz");
        if raw.starts_with("HTTP/1.1 503 ") {
            shed = Some(raw);
            break;
        }
        // A non-shed probe means the overload collapsed — the holders can
        // expire at the request deadline (and a queued probe blocks long
        // enough to eat that whole window under machine load) — so re-arm
        // it before the next attempt. Surplus holders are themselves shed
        // or held, either of which keeps the queue past the mark.
        std::thread::sleep(Duration::from_millis(20));
        holders.extend(hold(2));
    }
    let raw = shed.expect("no request was shed past the high-water mark");
    assert!(raw.contains("retry-after: 1\r\n"), "{raw:?}");
    assert!(raw.contains("overloaded"), "{raw:?}");

    // Release the holders; once a worker frees up, /metrics must report
    // the shed count.
    drop(holders);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let raw = lossy_request("/metrics");
        if raw.starts_with("HTTP/1.1 200 ") {
            let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
            let v = Json::parse(body).expect("metrics JSON");
            assert!(
                v.get("requests_shed").and_then(Json::as_u64) >= Some(1),
                "{body}"
            );
            break;
        }
        assert!(std::time::Instant::now() < deadline, "metrics never served");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The `error.code` and `error.message` of an error body.
fn error_of(v: &Json) -> (Option<&str>, Option<&str>) {
    let e = v.get("error");
    (
        e.and_then(|e| e.get("code")).and_then(Json::as_str),
        e.and_then(|e| e.get("message")).and_then(Json::as_str),
    )
}

#[test]
fn unknown_solver_is_refused_and_every_solver_honours_the_cap() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 12, 5);

    let body = format!("{{\"catalog\":{catalog_id},\"solver\":\"bogus\"}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 422, "{v:?}");
    assert_eq!(error_of(&v).0, Some("invalid_parameter"), "{v:?}");

    // The server's per-solve cap (800 in `test_config`) bounds every
    // single solver, not only tabu; `anneal` is the portfolio-spec alias.
    for (name, canonical) in [
        ("tabu", "tabu"),
        ("sls", "sls"),
        ("anneal", "annealing"),
        ("pso", "pso"),
    ] {
        let body = format!(
            "{{\"catalog\":{catalog_id},\"solver\":\"{name}\",\"max_sources\":4,\"beta\":1}}"
        );
        let (status, v) = request(addr, "POST", "/sessions", &body);
        assert_eq!(status, 201, "{name}: {v:?}");
        assert_eq!(v.get("solver").and_then(Json::as_str), Some(canonical));
        let session = v.get("session").and_then(Json::as_u64).expect("session id");
        let (status, v) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
        assert_eq!(status, 200, "{name}: {v:?}");
        let evaluations = v
            .get("solution")
            .and_then(|s| s.get("evaluations"))
            .and_then(Json::as_u64)
            .expect("evaluations");
        assert!(evaluations <= 800, "{name} spent {evaluations} > 800");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn feedback_on_an_unknown_source_names_the_source() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 8, 3);
    let session = create_session(addr, catalog_id, 1);

    for op in ["pin", "unpin"] {
        let body = format!("{{\"actions\":[{{\"op\":\"{op}\",\"source\":\"ghost\"}}]}}");
        let (status, v) = request(
            addr,
            "POST",
            &format!("/sessions/{session}/feedback"),
            &body,
        );
        assert_eq!(status, 422, "{op}: {v:?}");
        assert_eq!(
            error_of(&v),
            (Some("unknown_name"), Some("unknown source `ghost`")),
            "{op}"
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn a_named_solver_is_refused_alongside_a_portfolio() {
    let (handle, join) = spawn(2);
    let addr = handle.addr();
    let catalog_id = upload_catalog(addr, 8, 9);

    for extra in [
        r#""threads":2"#,
        r#""restarts":2"#,
        r#""portfolio":"tabu,sls""#,
    ] {
        let body = format!("{{\"catalog\":{catalog_id},\"solver\":\"sls\",{extra}}}");
        let (status, v) = request(addr, "POST", "/sessions", &body);
        assert_eq!(status, 422, "{body}: {v:?}");
        assert_eq!(error_of(&v).0, Some("invalid_parameter"), "{body}");
    }
    assert_eq!(handle.stats().sessions_created, 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A three-source catalog small enough to name its sources in the table
/// below.
const TINY_CATALOG: &str = "source alpha\n  attr title\n  attr author\n\
                            source beta\n  attr title\n  attr author name\n\
                            source gamma\n  attr book title\n  attr writer\n";

/// Every request field, sent with a JSON type it cannot hold, is a 400
/// `bad_request` naming the field, and nothing is created or journaled.
#[test]
fn every_mistyped_field_is_a_400_naming_it() {
    let dir = std::env::temp_dir().join(format!("mube-mistyped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, join) = Server::spawn(ServeConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config(2)
    })
    .expect("bind test server");
    let addr = handle.addr();

    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(TINY_CATALOG);
    j.end_obj();
    let (status, v) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{v:?}");
    let catalog = v.get("catalog").and_then(Json::as_u64).unwrap();
    // A valid body; each row below appends one member, and the last of
    // duplicate keys wins.
    let base = format!(
        "{{\"catalog\":{catalog},\"max_sources\":2,\"theta\":0.3,\"beta\":1,\
         \"pins\":[\"alpha\"],\"weights\":{{\"coverage\":0.3}},\"seed\":7,\
         \"continuity\":true,\"prune\":{{\"top_k\":3,\"keywords\":[\"title\"],\"dedup\":false}}"
    );
    let (status, v) = request(addr, "POST", "/sessions", &format!("{base}}}"));
    assert_eq!(status, 201, "{v:?}");
    let session = v.get("session").and_then(Json::as_u64).unwrap();
    let (status, v) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
    assert_eq!(status, 200, "{v:?}");

    let solve = format!("/sessions/{session}/solve");
    let execute = format!("/sessions/{session}/execute");
    let feedback = format!("/sessions/{session}/feedback");
    let create = |member: &str| format!("{base},{member}}}");
    let action = |member: &str| format!("{{\"actions\":[{{{member}}}]}}");
    let cases: Vec<(&str, String, &str)> = vec![
        ("/catalogs", r#"{"catalog":7}"#.into(), "`catalog`"),
        ("/catalogs", "{}".into(), "`catalog`"),
        ("/sessions", "[]".into(), "request body"),
        ("/sessions", "{}".into(), "`catalog`"),
        ("/sessions", r#"{"catalog":"0"}"#.into(), "`catalog`"),
        ("/sessions", create(r#""max_sources":-1"#), "`max_sources`"),
        ("/sessions", create(r#""theta":"0.3""#), "`theta`"),
        ("/sessions", create(r#""beta":1.5"#), "`beta`"),
        ("/sessions", create(r#""pins":"alpha""#), "`pins`"),
        ("/sessions", create(r#""pins":[7]"#), "`pins[0]`"),
        ("/sessions", create(r#""weights":[]"#), "`weights`"),
        (
            "/sessions",
            create(r#""weights":{"coverage":"x"}"#),
            "`weights.coverage`",
        ),
        ("/sessions", create(r#""seed":"7""#), "`seed`"),
        ("/sessions", create(r#""solver":7"#), "`solver`"),
        ("/sessions", create(r#""threads":0"#), "`threads`"),
        ("/sessions", create(r#""restarts":"2""#), "`restarts`"),
        (
            "/sessions",
            create(r#""portfolio":["tabu"]"#),
            "`portfolio`",
        ),
        ("/sessions", create(r#""continuity":"yes""#), "`continuity`"),
        ("/sessions", create(r#""prune":7"#), "`prune`"),
        (
            "/sessions",
            create(r#""prune":{"top_k":0}"#),
            "`prune.top_k`",
        ),
        (
            "/sessions",
            create(r#""prune":{"keywords":"title"}"#),
            "`prune.keywords`",
        ),
        (
            "/sessions",
            create(r#""prune":{"keywords":[1]}"#),
            "`prune.keywords[0]`",
        ),
        (
            "/sessions",
            create(r#""prune":{"dedup":1}"#),
            "`prune.dedup`",
        ),
        (
            &solve,
            r#"{"time_budget_ms":"soon"}"#.into(),
            "`time_budget_ms`",
        ),
        (&execute, r#"{"query":[0,9]}"#.into(), "`query`"),
        (
            &execute,
            r#"{"query":{"start":"0"}}"#.into(),
            "`query.start`",
        ),
        (&execute, r#"{"query":{"end":-9}}"#.into(), "`query.end`"),
        (&execute, r#"{"fault_seed":"3"}"#.into(), "`fault_seed`"),
        (&execute, r#"{"faults":0.3}"#.into(), "`faults`"),
        (&feedback, "{}".into(), "`actions`"),
        (&feedback, r#"{"actions":{}}"#.into(), "`actions`"),
        (&feedback, r#"{"actions":[7]}"#.into(), "`actions[0]`"),
        (&feedback, action(r#""op":7"#), "`actions[0].op`"),
        (
            &feedback,
            action(r#""op":"pin","source":7"#),
            "`pin` action field `source`",
        ),
        (
            &feedback,
            action(r#""op":"unpin""#),
            "`unpin` action field `source`",
        ),
        (
            &feedback,
            action(r#""op":"adopt_ga","index":"0""#),
            "`adopt_ga` action field `index`",
        ),
        (
            &feedback,
            action(r#""op":"require_ga","attrs":{}"#),
            "`require_ga` action field `attrs`",
        ),
        (
            &feedback,
            action(r#""op":"require_ga","attrs":["title"]"#),
            "`require_ga` action field `attrs[0]`",
        ),
        (
            &feedback,
            action(r#""op":"require_ga","attrs":[{"source":1,"attr":"title"}]"#),
            "`require_ga` action field `attrs[0].source`",
        ),
        (
            &feedback,
            action(r#""op":"require_ga","attrs":[{"source":"alpha"}]"#),
            "`require_ga` action field `attrs[0].attr`",
        ),
        (
            &feedback,
            action(r#""op":"weight","qef":7,"value":0.3"#),
            "`weight` action field `qef`",
        ),
        (
            &feedback,
            action(r#""op":"weight","qef":"coverage","value":"0.3""#),
            "`weight` action field `value`",
        ),
        (
            &feedback,
            action(r#""op":"theta","value":true"#),
            "`theta` action field `value`",
        ),
        (
            &feedback,
            action(r#""op":"beta","value":-1"#),
            "`beta` action field `value`",
        ),
        (
            &feedback,
            action(r#""op":"max_sources","value":"2""#),
            "`max_sources` action field `value`",
        ),
    ];

    let lsn = |v: &Json| v.get("lsn").and_then(Json::as_u64);
    let (_, before) = request(addr, "GET", "/healthz", "");
    let created = handle.stats().sessions_created;
    for (path, body, field) in &cases {
        let (status, v) = request(addr, "POST", path, body);
        assert_eq!(status, 400, "{path} {body}: {v:?}");
        let (code, message) = error_of(&v);
        assert_eq!(code, Some("bad_request"), "{path} {body}: {v:?}");
        let message = message.unwrap_or_default();
        assert!(
            message.contains(field),
            "{path} {body}: {message:?} should name {field}"
        );
    }
    let (_, after) = request(addr, "GET", "/healthz", "");
    assert_eq!(lsn(&after), lsn(&before), "a refused request was journaled");
    assert_eq!(handle.stats().sessions_created, created);
    assert_eq!(handle.stats().catalogs_created, 1);

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A feedback batch is all or nothing: when its second action is refused,
/// the first one (a pin) must not stay in force — not in the live session,
/// and not after a restart replays the journal.
#[test]
fn a_refused_feedback_batch_changes_nothing() {
    let dir = std::env::temp_dir().join(format!("mube-refused-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..test_config(2)
    };
    let (handle, join) = Server::spawn(config()).expect("bind test server");
    let addr = handle.addr();
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(TINY_CATALOG);
    j.end_obj();
    let (status, v) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{v:?}");
    let catalog = v.get("catalog").and_then(Json::as_u64).unwrap();
    let body = format!("{{\"catalog\":{catalog},\"max_sources\":2,\"theta\":0.3,\"beta\":1}}");
    let (status, v) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 201, "{v:?}");
    let session = v.get("session").and_then(Json::as_u64).unwrap();
    let feedback = format!("/sessions/{session}/feedback");
    let (status, v) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
    assert_eq!(status, 200, "{v:?}");

    let (status, v) = request(
        addr,
        "POST",
        &feedback,
        r#"{"actions":[{"op":"pin","source":"alpha"},{"op":"adopt_ga","index":999}]}"#,
    );
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(error_of(&v).0, Some("stale_ga_index"));
    let action = v.get("error").and_then(|e| e.get("action"));
    assert_eq!(action.and_then(Json::as_u64), Some(1), "{v:?}");

    let pinned = |addr: SocketAddr| {
        let (status, v) = request(addr, "POST", &feedback, r#"{"actions":[]}"#);
        assert_eq!(status, 200, "{v:?}");
        let pins = v.get("constraints").and_then(|c| c.get("pinned"));
        pins.and_then(Json::as_array).map(<[Json]>::len)
    };
    assert_eq!(pinned(addr), Some(0), "the refused batch left its pin");
    handle.shutdown();
    join.join().unwrap().unwrap();

    let (handle, join) = Server::spawn(config()).expect("restart on the same data dir");
    assert_eq!(
        pinned(handle.addr()),
        Some(0),
        "replay differs from the live session"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Catalogs the parser refuses are a 4xx that creates nothing: a
/// non-finite characteristic (422 naming the line), a signature claiming
/// 2^40 bitmaps, a cardinality past `u64`, and a body that is not UTF-8.
#[test]
fn bad_catalog_uploads_are_refused_and_create_nothing() {
    let (handle, join) = spawn(1);
    let addr = handle.addr();
    let upload = |catalog: &str| {
        let mut j = mube_core::jsonw::JsonBuf::new();
        j.begin_obj();
        j.key("catalog").str_value(catalog);
        j.end_obj();
        request(addr, "POST", "/catalogs", &j.finish())
    };
    for bad in [
        "characteristic mttf NaN",
        "characteristic mttf inf",
        "characteristic latency -infinity",
        "signature 1099511627776 32 ab 1 2 3",
        "cardinality 18446744073709551616",
    ] {
        let (status, v) = upload(&format!("source a\n  attr title\n  {bad}\n"));
        assert_eq!(status, 422, "{bad}: {v:?}");
        let (code, message) = error_of(&v);
        assert_eq!(code, Some("invalid_parameter"), "{bad}");
        assert!(
            message.is_some_and(|m| m.contains("catalog line 3")),
            "{bad}: {v:?}"
        );
    }
    // A finite negative value is a normalization question, not a parse
    // error.
    let (status, v) = upload("source a\n  attr title\n  characteristic mttf -3\n");
    assert_eq!(status, 201, "{v:?}");

    // Invalid UTF-8 inside the JSON string of the body.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = b"{\"catalog\":\"source a\\n  attr \xff\xfe\\n\"}";
    let head = format!(
        "POST /catalogs HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("\"bad_request\""), "{raw}");
    assert_eq!(handle.stats().catalogs_created, 1);

    handle.shutdown();
    join.join().unwrap().unwrap();
}
