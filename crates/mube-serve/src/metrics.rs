//! Server observability: request/solve counters and latency histograms.
//!
//! One [`Metrics`] lives for the server's lifetime; handlers record into it
//! and `GET /metrics` (or a test) takes a consistent [`ServerStats`]
//! snapshot. Buckets are fixed log-scale (powers of two of microseconds),
//! so histograms are tiny, mergeable, and never allocate on the hot path.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use mube_core::jsonw::JsonBuf;

use crate::persist::JournalStats;
use crate::repl::ReplStats;

/// Background-scrubber status, filled in by the server (the scrubber
/// owns these numbers). Present whenever a journal is configured, even
/// before the first scrub completes.
#[derive(Debug, Clone, Default)]
pub struct ScrubStats {
    /// Completed scrub passes.
    pub runs: u64,
    /// Passes that found corruption or a memory/disk digest mismatch.
    pub failures: u64,
    /// LSN covered by the last completed pass.
    pub last_lsn: u64,
    /// What the last failed pass found (`None` while healthy).
    pub last_error: Option<String>,
}

/// Number of log-scale buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is unbounded above
/// (≈ 2^19 µs ≈ 0.5 s and beyond).
pub const BUCKETS: usize = 20;

/// A fixed log-scale latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub counts: [u64; BUCKETS],
    /// Total observations.
    pub total: u64,
    /// Sum of all observed durations, in microseconds.
    pub sum_micros: u64,
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let bucket = if micros == 0 {
            0
        } else {
            (63 - u64::leading_zeros(micros) as usize).min(BUCKETS - 1)
        };
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }

    fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.key("total").uint_value(self.total);
        j.key("sum_micros").uint_value(self.sum_micros);
        j.key("buckets_micros_pow2").begin_arr();
        for &c in &self.counts {
            j.uint_value(c);
        }
        j.end_arr();
        j.end_obj();
    }
}

/// Everything the server counts, behind one lock (handlers touch it a few
/// times per request; contention is negligible next to a solve).
#[derive(Debug, Default)]
struct Inner {
    requests: BTreeMap<(String, u16), u64>,
    catalogs_created: u64,
    sessions_created: u64,
    sessions_evicted: u64,
    solves_run: u64,
    solves_timed_out: u64,
    requests_shed: u64,
    executions_run: u64,
    exec_fetch_attempts: u64,
    exec_fetch_failures: u64,
    exec_sources_failed: u64,
    exec_sources_degraded: u64,
    request_hist: Histogram,
    solve_hist: Histogram,
    exec_hist: Histogram,
}

/// Shared metrics sink.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

/// A consistent copy of the counters, for `/metrics` and tests.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// `(endpoint, status) → count`, endpoint being the normalized route
    /// (e.g. `POST /sessions/{id}/solve`).
    pub requests: BTreeMap<(String, u16), u64>,
    /// Catalogs uploaded.
    pub catalogs_created: u64,
    /// Sessions created.
    pub sessions_created: u64,
    /// Sessions evicted by the idle policy.
    pub sessions_evicted: u64,
    /// Solve iterations run.
    pub solves_run: u64,
    /// Solves cut short by a deadline (answered with the best incumbent,
    /// flagged `timed_out`).
    pub solves_timed_out: u64,
    /// Connections shed by admission control (503 + Retry-After before a
    /// worker ever saw them).
    pub requests_shed: u64,
    /// Query executions run (`POST /sessions/{id}/execute`).
    pub executions_run: u64,
    /// Fetch attempts across all executions (retries included).
    pub exec_fetch_attempts: u64,
    /// Fetch attempts that failed (timeouts, unavailability, partials).
    pub exec_fetch_failures: u64,
    /// Sources that exhausted retries and contributed nothing.
    pub exec_sources_failed: u64,
    /// Sources that only contributed salvaged partial data.
    pub exec_sources_degraded: u64,
    /// Sessions alive at snapshot time (filled in by the server).
    pub sessions_live: u64,
    /// Pool workers lost to job panics and respawned (filled in by the
    /// server; the pool owns that number).
    pub worker_panics: u64,
    /// Portfolio member jobs lost to panics, process-wide (filled in by
    /// the server from `mube_opt::member_panics_total`).
    pub member_panics: u64,
    /// Journal counters, when the server persists sessions (filled in by
    /// the server; the journal owns these numbers).
    pub journal: Option<JournalStats>,
    /// Replication role/lag counters, when replication is configured
    /// (filled in by the server; the replication layer owns these).
    pub repl: Option<ReplStats>,
    /// Background-scrubber status, when a journal is configured (filled
    /// in by the server; the scrubber owns these).
    pub scrub: Option<ScrubStats>,
    /// Whether the node has fenced itself read-only (a failed scrub
    /// found disk disagreeing with served state).
    pub read_only: bool,
    /// Whole-request latency histogram.
    pub request_hist: Histogram,
    /// Solver-only latency histogram.
    pub solve_hist: Histogram,
    /// Execution-only (simulated makespan excluded) latency histogram.
    pub exec_hist: Histogram,
}

impl Metrics {
    /// A zeroed sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics lock poisoned")
    }

    /// Records one finished request.
    pub fn record_request(&self, endpoint: &str, status: u16, elapsed: Duration) {
        let mut m = self.locked();
        *m.requests
            .entry((endpoint.to_string(), status))
            .or_insert(0) += 1;
        m.request_hist.record(elapsed);
    }

    /// Records one finished solve and whether a deadline cut it short.
    pub fn record_solve(&self, elapsed: Duration, timed_out: bool) {
        let mut m = self.locked();
        m.solves_run += 1;
        if timed_out {
            m.solves_timed_out += 1;
        }
        m.solve_hist.record(elapsed);
    }

    /// Records one finished query execution and its health tallies:
    /// fetch attempts/failures from the execution's health registry, plus
    /// how many sources ended the run failed or degraded.
    pub fn record_execution(
        &self,
        fetch_attempts: u64,
        fetch_failures: u64,
        sources_failed: u64,
        sources_degraded: u64,
        elapsed: Duration,
    ) {
        let mut m = self.locked();
        m.executions_run += 1;
        m.exec_fetch_attempts += fetch_attempts;
        m.exec_fetch_failures += fetch_failures;
        m.exec_sources_failed += sources_failed;
        m.exec_sources_degraded += sources_degraded;
        m.exec_hist.record(elapsed);
    }

    /// Counts a catalog upload.
    pub fn catalog_created(&self) {
        self.locked().catalogs_created += 1;
    }

    /// Counts a session creation.
    pub fn session_created(&self) {
        self.locked().sessions_created += 1;
    }

    /// Counts idle-policy evictions.
    pub fn sessions_evicted(&self, n: u64) {
        self.locked().sessions_evicted += n;
    }

    /// Counts a connection shed by admission control.
    pub fn record_shed(&self) {
        self.locked().requests_shed += 1;
    }

    /// A consistent snapshot; `sessions_live`, `worker_panics`,
    /// `member_panics`, `journal`, and `repl` are supplied by the caller
    /// (the store, pool, solver layer, journal, and replication layer own
    /// those numbers).
    // Each argument is a distinct subsystem's self-reported state; a
    // params struct would just re-spell this signature with extra steps.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        sessions_live: u64,
        worker_panics: u64,
        member_panics: u64,
        journal: Option<JournalStats>,
        repl: Option<ReplStats>,
        scrub: Option<ScrubStats>,
        read_only: bool,
    ) -> ServerStats {
        let m = self.locked();
        ServerStats {
            requests: m.requests.clone(),
            catalogs_created: m.catalogs_created,
            sessions_created: m.sessions_created,
            sessions_evicted: m.sessions_evicted,
            solves_run: m.solves_run,
            solves_timed_out: m.solves_timed_out,
            requests_shed: m.requests_shed,
            executions_run: m.executions_run,
            exec_fetch_attempts: m.exec_fetch_attempts,
            exec_fetch_failures: m.exec_fetch_failures,
            exec_sources_failed: m.exec_sources_failed,
            exec_sources_degraded: m.exec_sources_degraded,
            sessions_live,
            worker_panics,
            member_panics,
            journal,
            repl,
            scrub,
            read_only,
            request_hist: m.request_hist.clone(),
            solve_hist: m.solve_hist.clone(),
            exec_hist: m.exec_hist.clone(),
        }
    }
}

impl ServerStats {
    /// Total requests across endpoints and statuses.
    pub fn total_requests(&self) -> u64 {
        self.requests.values().sum()
    }

    /// Requests counted for one endpoint across statuses.
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.requests
            .iter()
            .filter(|((e, _), _)| e == endpoint)
            .map(|(_, c)| c)
            .sum()
    }

    /// Renders the `/metrics` JSON document.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("requests").begin_arr();
        for ((endpoint, status), count) in &self.requests {
            j.begin_obj();
            j.key("endpoint").str_value(endpoint);
            j.key("status").uint_value(u64::from(*status));
            j.key("count").uint_value(*count);
            j.end_obj();
        }
        j.end_arr();
        j.key("catalogs_created").uint_value(self.catalogs_created);
        j.key("sessions_created").uint_value(self.sessions_created);
        j.key("sessions_evicted").uint_value(self.sessions_evicted);
        j.key("sessions_live").uint_value(self.sessions_live);
        j.key("solves_run").uint_value(self.solves_run);
        j.key("solves_timed_out").uint_value(self.solves_timed_out);
        j.key("worker_panics").uint_value(self.worker_panics);
        j.key("member_panics").uint_value(self.member_panics);
        j.key("requests_shed").uint_value(self.requests_shed);
        match &self.journal {
            Some(s) => {
                j.key("journal").begin_obj();
                j.key("appends").uint_value(s.appends);
                j.key("snapshots").uint_value(s.snapshots);
                j.key("live_events").uint_value(s.live_events);
                j.key("quarantined_bytes").uint_value(s.quarantined_bytes);
                j.key("quarantine_files").uint_value(s.quarantine_files);
                j.end_obj();
            }
            None => {
                j.key("journal").null_value();
            }
        }
        match &self.repl {
            Some(r) => {
                j.key("repl").begin_obj();
                j.key("role").str_value(r.role);
                j.key("last_lsn").uint_value(r.last_lsn);
                j.key("followers").uint_value(r.followers);
                j.key("acked_lsn").uint_value(r.acked_lsn);
                j.key("lag").uint_value(r.lag);
                match r.ack_age_ms {
                    Some(ms) => j.key("ack_age_ms").uint_value(ms),
                    None => j.key("ack_age_ms").null_value(),
                };
                j.key("frames_shipped").uint_value(r.frames_shipped);
                j.key("heartbeats").uint_value(r.heartbeats);
                j.key("resets").uint_value(r.resets);
                match &r.leader {
                    Some(addr) => j.key("leader").str_value(addr),
                    None => j.key("leader").null_value(),
                };
                j.key("verified_lsn").uint_value(r.verified_lsn);
                j.key("digest_failures").uint_value(r.digest_failures);
                j.key("diverged").bool_value(r.diverged);
                match r.last_contact_ms {
                    Some(ms) => j.key("last_contact_ms").uint_value(ms),
                    None => j.key("last_contact_ms").null_value(),
                };
                j.end_obj();
            }
            None => {
                j.key("repl").null_value();
            }
        }
        match &self.scrub {
            Some(s) => {
                j.key("scrub").begin_obj();
                j.key("runs").uint_value(s.runs);
                j.key("failures").uint_value(s.failures);
                j.key("last_lsn").uint_value(s.last_lsn);
                match &s.last_error {
                    Some(e) => j.key("last_error").str_value(e),
                    None => j.key("last_error").null_value(),
                };
                j.end_obj();
            }
            None => {
                j.key("scrub").null_value();
            }
        }
        j.key("read_only").bool_value(self.read_only);
        j.key("exec").begin_obj();
        j.key("executions_run").uint_value(self.executions_run);
        j.key("fetch_attempts").uint_value(self.exec_fetch_attempts);
        j.key("fetch_failures").uint_value(self.exec_fetch_failures);
        j.key("sources_failed").uint_value(self.exec_sources_failed);
        j.key("sources_degraded")
            .uint_value(self.exec_sources_degraded);
        j.end_obj();
        j.key("request_latency");
        self.request_hist.write_json(&mut j);
        j.key("solve_latency");
        self.solve_hist.write_json(&mut j);
        j.key("exec_latency");
        self.exec_hist.write_json(&mut j);
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_scale() {
        let mut h = Histogram::default();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(2)); // bucket 1
        h.record(Duration::from_micros(3)); // bucket 1
        h.record(Duration::from_micros(1024)); // bucket 10
        h.record(Duration::from_secs(3600)); // clamped to last bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[10], 1);
        assert_eq!(h.counts[BUCKETS - 1], 1);
        assert_eq!(h.total, 6);
    }

    #[test]
    fn histogram_mean() {
        // The mean is the exported `sum_micros` over `total`.
        let mut h = Histogram::default();
        assert_eq!((h.sum_micros, h.total), (0, 0));
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(30));
        assert_eq!((h.sum_micros, h.total), (40, 2));
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.record_request("GET /healthz", 200, Duration::from_micros(5));
        m.record_request("GET /healthz", 200, Duration::from_micros(7));
        m.record_request("POST /sessions", 422, Duration::from_micros(9));
        m.record_solve(Duration::from_millis(2), false);
        m.record_solve(Duration::from_millis(1), true);
        m.catalog_created();
        m.session_created();
        m.sessions_evicted(3);
        m.record_execution(9, 4, 2, 1, Duration::from_millis(1));
        m.record_shed();
        let s = m.snapshot(
            4,
            2,
            5,
            Some(JournalStats::default()),
            None,
            Some(ScrubStats::default()),
            false,
        );
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.requests_for("GET /healthz"), 2);
        assert_eq!(s.requests[&("POST /sessions".to_string(), 422)], 1);
        assert_eq!(s.solves_run, 2);
        assert_eq!(s.solves_timed_out, 1);
        assert_eq!(s.requests_shed, 1);
        assert_eq!(s.member_panics, 5);
        assert!(s.journal.is_some());
        assert!(s.scrub.is_some());
        assert!(!s.read_only);
        assert_eq!(s.sessions_evicted, 3);
        assert_eq!(s.sessions_live, 4);
        assert_eq!(s.worker_panics, 2);
        assert_eq!(s.executions_run, 1);
        assert_eq!(s.exec_fetch_attempts, 9);
        assert_eq!(s.exec_fetch_failures, 4);
        assert_eq!(s.exec_sources_failed, 2);
        assert_eq!(s.exec_sources_degraded, 1);
        assert_eq!(s.request_hist.total, 3);
        assert_eq!(s.solve_hist.total, 2);
        assert_eq!(s.exec_hist.total, 1);
    }

    #[test]
    fn stats_json_renders() {
        let m = Metrics::new();
        m.record_request("GET /metrics", 200, Duration::from_micros(3));
        m.record_execution(5, 1, 1, 0, Duration::from_micros(40));
        let json = m.snapshot(1, 0, 0, None, None, None, false).to_json();
        assert!(json.contains("\"endpoint\":\"GET /metrics\""), "{json}");
        assert!(json.contains("\"sessions_live\":1"), "{json}");
        assert!(json.contains("\"worker_panics\":0"), "{json}");
        assert!(json.contains("\"requests_shed\":0"), "{json}");
        assert!(json.contains("\"repl\":null"), "{json}");
        assert!(json.contains("\"scrub\":null"), "{json}");
        assert!(json.contains("\"read_only\":false"), "{json}");
        assert!(
            json.contains("\"exec\":{\"executions_run\":1,\"fetch_attempts\":5"),
            "{json}"
        );
        assert!(json.contains("\"exec_latency\""), "{json}");
        assert!(json.contains("\"buckets_micros_pow2\""), "{json}");
    }

    #[test]
    fn scrub_block_renders_status_and_fences_read_only() {
        let m = Metrics::new();
        let scrub = ScrubStats {
            runs: 7,
            failures: 1,
            last_lsn: 42,
            last_error: Some("snapshot.wal: CRC mismatch at byte 9".to_string()),
        };
        let json = m
            .snapshot(
                0,
                0,
                0,
                Some(JournalStats::default()),
                None,
                Some(scrub),
                true,
            )
            .to_json();
        assert!(
            json.contains("\"scrub\":{\"runs\":7,\"failures\":1,\"last_lsn\":42"),
            "{json}"
        );
        assert!(
            json.contains("\"last_error\":\"snapshot.wal: CRC mismatch"),
            "{json}"
        );
        assert!(json.contains("\"read_only\":true"), "{json}");
        assert!(json.contains("\"quarantine_files\":0"), "{json}");
    }
}
