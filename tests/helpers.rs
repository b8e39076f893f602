//! Shared fixtures for the cross-crate integration tests.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::catalog;
use mube_core::constraints::Constraints;
use mube_core::problem::Problem;
use mube_core::qefs::paper_default_qefs;
use mube_core::session::Session;
use mube_match::similarity::JaccardNGram;
use mube_match::ClusterMatcher;
use mube_opt::{
    ParticleSwarm, Portfolio, SimulatedAnnealing, StochasticLocalSearch, SubsetSolver, TabuSearch,
};
use mube_serve::{FsyncPolicy, Json, ServeConfig, Server, ServerHandle};
use mube_synth::{generate, SynthConfig, SynthUniverse};

/// A generated universe, the matcher over it, and the generator's output.
pub struct Fixture {
    /// The synthetic universe with ground truth.
    pub synth: SynthUniverse,
    /// The clustering matcher.
    pub matcher: Arc<ClusterMatcher>,
}

impl Fixture {
    /// Generates a small fixture (fast enough for CI).
    pub fn new(num_sources: usize, seed: u64) -> Self {
        let synth = generate(&SynthConfig::small(num_sources), seed);
        let matcher = Arc::new(ClusterMatcher::new(
            Arc::clone(&synth.universe),
            JaccardNGram::trigram(),
        ));
        Fixture { synth, matcher }
    }

    /// Builds a problem with the paper's default QEFs.
    pub fn problem(&self, constraints: Constraints) -> Problem {
        Problem::new(
            Arc::clone(&self.synth.universe),
            Arc::clone(&self.matcher) as Arc<dyn mube_core::MatchOperator>,
            paper_default_qefs("mttf"),
            constraints,
        )
        .expect("fixture constraints must be valid")
    }

    /// Builds a session with a CI-sized solver budget.
    pub fn session(&self, constraints: Constraints, seed: u64) -> Session {
        Session::new(self.problem(constraints), Box::new(ci_tabu()), seed)
    }
}

/// A solver budget small enough for CI but big enough to find good
/// solutions on small fixtures.
pub fn ci_tabu() -> TabuSearch {
    TabuSearch {
        max_evaluations: 1_200,
        max_iterations: 200,
        ..TabuSearch::default()
    }
}

/// A CI-budgeted portfolio: `copies` rounds of tabu/SLS/annealing/PSO
/// (so `4 * copies` members) spread over `threads` OS threads. The
/// determinism contract does not depend on budgets, so tests stress the
/// portfolio cheaply through this instead of the 20k-evaluation defaults.
pub fn ci_portfolio(copies: usize, threads: usize) -> Portfolio {
    let mut members: Vec<Box<dyn SubsetSolver>> = Vec::new();
    for _ in 0..copies.max(1) {
        members.push(Box::new(TabuSearch {
            max_evaluations: 300,
            max_iterations: 60,
            ..TabuSearch::default()
        }));
        members.push(Box::new(StochasticLocalSearch {
            max_evaluations: 300,
            ..Default::default()
        }));
        members.push(Box::new(SimulatedAnnealing {
            max_evaluations: 300,
            ..Default::default()
        }));
        members.push(Box::new(ParticleSwarm {
            max_evaluations: 300,
            ..Default::default()
        }));
    }
    Portfolio::new(members).threads(threads)
}

/// A fresh data directory under the system temp dir, named after the
/// suite, the process and `tag`. Dropping it removes the directory when
/// the test passed; a panicking test keeps it as evidence.
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `mube-{suite}-{pid}-{tag}`, emptying any leftover first.
    pub fn new(suite: &str, tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mube-{suite}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test data dir");
        TestDir(dir)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A running test server and the thread serving it.
pub type Spawned = (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>);

/// A leader config: journals to `dir`, serves replication on an ephemeral
/// port, ticks heartbeats fast enough for test-speed digest checks.
pub fn leader_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_solve_evaluations: 600,
        data_dir: Some(dir.display().to_string()),
        fsync: FsyncPolicy::Always,
        repl_addr: Some("127.0.0.1:0".to_string()),
        heartbeat_interval: Duration::from_millis(100),
        read_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    }
}

/// A follower of `leader`: same journal discipline, short read timeout so
/// the replication client cycles quickly in tests.
pub fn follower_config(dir: &Path, leader: SocketAddr) -> ServeConfig {
    ServeConfig {
        threads: 2,
        max_solve_evaluations: 600,
        data_dir: Some(dir.display().to_string()),
        fsync: FsyncPolicy::Always,
        follow: Some(leader.to_string()),
        heartbeat_interval: Duration::from_millis(100),
        read_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    }
}

/// Starts a server on `config`.
pub fn spawn(config: ServeConfig) -> Spawned {
    Server::spawn(config).expect("bind test server")
}

/// One HTTP request over a fresh connection; returns the status and the
/// parsed JSON body.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
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
    let parsed = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}"));
    (status, parsed)
}

/// The catalog text of a small generated Books universe.
pub fn catalog_text(sources: usize, seed: u64) -> String {
    catalog::to_text(&generate(&SynthConfig::small(sources), seed).universe)
}

/// Uploads a generated catalog; returns its id.
pub fn upload_catalog(addr: SocketAddr, sources: usize, seed: u64) -> u64 {
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&catalog_text(sources, seed));
    j.end_obj();
    let (status, body) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{body:?}");
    body.get("catalog").and_then(Json::as_u64).expect("id")
}

/// `GET /healthz`, which must answer 200.
pub fn healthz(addr: SocketAddr) -> Json {
    let (status, v) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{v:?}");
    v
}

/// Polls until `pred(healthz)` holds or the deadline passes (then panics
/// with the last body).
pub fn wait_healthz(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = Json::Obj(Vec::new());
    while Instant::now() < deadline {
        last = healthz(addr);
        if pred(&last) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}; last healthz: {last:?}");
}

/// The `error.code` of an error body, or `""`.
pub fn err_code(v: &Json) -> &str {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("")
}
