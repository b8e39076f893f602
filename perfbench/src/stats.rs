//! The harness's own arithmetic: order statistics, the tail-percentile
//! rule, the work fingerprint, and `/metrics` deltas. Unit-tested below
//! (`cargo test --manifest-path perfbench/Cargo.toml`).

use mube_serve::Json;

/// Median; the mean of the two middle values for an even count. `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentiles the report may quote, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, for `n` samples; `None` when even the median lacks ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64 over the fields of the work one op did. Two runs did the
/// same work exactly when their fingerprints are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float in by its exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string in, length-prefixed so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}

/// Per-slot expected fingerprints. An op repeats one of a fixed set of
/// slots; the first execution of a slot fixes its fingerprint and every
/// later execution must reproduce it.
#[derive(Debug)]
pub struct SlotCheck {
    expected: Vec<Option<Fingerprint>>,
}

impl SlotCheck {
    /// A check over `slots` slots, none run yet.
    pub fn new(slots: usize) -> SlotCheck {
        SlotCheck {
            expected: vec![None; slots],
        }
    }

    /// Records `fp` for `slot`; `false` when it differs from the slot's
    /// first fingerprint.
    pub fn check(&mut self, slot: usize, fp: Fingerprint) -> bool {
        match self.expected[slot] {
            Some(first) => first == fp,
            None => {
                self.expected[slot] = Some(fp);
                true
            }
        }
    }

    /// The run's fingerprint: every slot's fingerprint in slot order, or
    /// `None` while some slot has not run yet.
    pub fn combined(&self) -> Option<Fingerprint> {
        let mut fp = Fingerprint::default();
        for slot in &self.expected {
            fp.u64(slot.as_ref()?.0);
        }
        Some(fp)
    }
}

/// The counters of one `/metrics` document the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnap {
    /// `request_latency.total`: requests answered.
    pub requests: u64,
    /// `request_latency.sum_micros`: server-side time spent on them.
    pub request_micros: u64,
    /// Requests answered with a status outside 2xx.
    pub non_2xx: u64,
    /// `solve_latency.total`.
    pub solves: u64,
    /// `solve_latency.sum_micros`.
    pub solve_micros: u64,
    /// `solves_timed_out`.
    pub solves_timed_out: u64,
    /// `journal.appends` (0 without a journal).
    pub journal_appends: u64,
    /// `journal.snapshots`.
    pub journal_snapshots: u64,
    /// `repl.frames_shipped` (0 without replication).
    pub frames_shipped: u64,
}

impl MetricsSnap {
    /// Reads a `/metrics` document.
    pub fn parse(doc: &str) -> Result<MetricsSnap, String> {
        let j = Json::parse(doc).map_err(|e| format!("metrics: {e}"))?;
        let num = |path: &[&str]| -> u64 {
            let mut v = Some(&j);
            for key in path {
                v = v.and_then(|x| x.get(key));
            }
            v.and_then(Json::as_u64).unwrap_or(0)
        };
        let non_2xx = j
            .get("requests")
            .and_then(Json::as_array)
            .ok_or("metrics: no `requests` list")?
            .iter()
            .filter(|r| {
                r.get("status")
                    .and_then(Json::as_u64)
                    .is_some_and(|s| !(200..300).contains(&s))
            })
            .filter_map(|r| r.get("count").and_then(Json::as_u64))
            .sum();
        Ok(MetricsSnap {
            requests: num(&["request_latency", "total"]),
            request_micros: num(&["request_latency", "sum_micros"]),
            non_2xx,
            solves: num(&["solve_latency", "total"]),
            solve_micros: num(&["solve_latency", "sum_micros"]),
            solves_timed_out: num(&["solves_timed_out"]),
            journal_appends: num(&["journal", "appends"]),
            journal_snapshots: num(&["journal", "snapshots"]),
            frames_shipped: num(&["repl", "frames_shipped"]),
        })
    }

    /// What happened between `before` and `self` (counters only grow).
    pub fn since(&self, before: &MetricsSnap) -> MetricsSnap {
        MetricsSnap {
            requests: self.requests - before.requests,
            request_micros: self.request_micros - before.request_micros,
            non_2xx: self.non_2xx - before.non_2xx,
            solves: self.solves - before.solves,
            solve_micros: self.solve_micros - before.solve_micros,
            solves_timed_out: self.solves_timed_out - before.solves_timed_out,
            journal_appends: self.journal_appends - before.journal_appends,
            journal_snapshots: self.journal_snapshots - before.journal_snapshots,
            frames_shipped: self.frames_shipped - before.frames_shipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fingerprints_separate_fields() {
        let mut a = Fingerprint::default();
        a.str("ab").str("c");
        let mut b = Fingerprint::default();
        b.str("a").str("bc");
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.f64(0.5);
        let mut d = Fingerprint::default();
        d.f64(0.5 + f64::EPSILON);
        assert_ne!(c, d);
    }

    #[test]
    fn slot_check_flags_a_changed_repeat() {
        let mut s = SlotCheck::new(2);
        assert!(s.check(1, Fingerprint(7)));
        assert_eq!(s.combined(), None, "slot 0 has not run");
        assert!(s.check(0, Fingerprint(3)));
        assert!(s.check(1, Fingerprint(7)));
        assert!(!s.check(1, Fingerprint(8)));
        let mut t = SlotCheck::new(2);
        assert!(t.check(0, Fingerprint(3)));
        assert!(t.check(1, Fingerprint(7)));
        assert_eq!(s.combined(), t.combined());
    }

    #[test]
    fn metrics_delta_from_documents() {
        let before = r#"{"requests":[{"endpoint":"GET /healthz","status":200,"count":2}],
            "solves_timed_out":0,"journal":null,"repl":null,
            "request_latency":{"total":2,"sum_micros":40,"buckets_micros_pow2":[]},
            "solve_latency":{"total":0,"sum_micros":0,"buckets_micros_pow2":[]}}"#;
        let after = r#"{"requests":[{"endpoint":"GET /healthz","status":200,"count":2},
              {"endpoint":"POST /sessions/{id}/solve","status":200,"count":1},
              {"endpoint":"POST /sessions","status":404,"count":1}],
            "solves_timed_out":0,
            "journal":{"appends":5,"snapshots":1},
            "repl":{"frames_shipped":4},
            "request_latency":{"total":4,"sum_micros":1540,"buckets_micros_pow2":[]},
            "solve_latency":{"total":1,"sum_micros":1200,"buckets_micros_pow2":[]}}"#;
        let a = MetricsSnap::parse(before).unwrap();
        let b = MetricsSnap::parse(after).unwrap();
        let d = b.since(&a);
        assert_eq!(d.requests, 2);
        assert_eq!(d.request_micros, 1500);
        assert_eq!(d.non_2xx, 1);
        assert_eq!(d.solves, 1);
        assert_eq!(d.solve_micros, 1200);
        assert_eq!(d.journal_appends, 5);
        assert_eq!(d.journal_snapshots, 1);
        assert_eq!(d.frames_shipped, 4);
        assert!(MetricsSnap::parse("{}").is_err());
    }
}
