//! `mube-perfbench`: the repository's benchmark of the µBE feedback loop.
//!
//! Drives an in-process `mube-serve` over loopback HTTP from one client
//! thread (a closed loop: the next request leaves when the previous reply
//! is in) and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! env MALLOC_ARENA_MAX=1 cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run reporting per-layer metrics (see `layers.rs`). `perfbench/README.md`
//! explains the workloads and why the gated numbers are steady.

mod client;
mod inputs;
mod layers;
mod node;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{median, percentile, quartiles, tail_percentile, Fingerprint, SlotCheck};
use trace::Tracer;
use workload::{Bench, Kind, OpResult, LSN_PER_OP};

/// Expected work fingerprints, `<workload> <seed> <hex>` per line: a run
/// of a listed seed whose fingerprint differs counts every op as failed.
const EXPECTED: &str = include_str!("../expected.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run measured.
pub struct Run {
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed: an error reply, a failed check, or a fingerprint
    /// differing from an earlier run of the same slot.
    pub failed: u64,
    /// Client-observed latency of each successful op, in ms.
    pub op_ms: Vec<f64>,
    /// Successful ops that were traced (trace mode) — parallel to `op_ms`.
    pub op_traced: Vec<bool>,
    /// The first successful op of each slot (what the replay reproduces,
    /// and what `quality_mean` averages).
    pub first_ops: BTreeMap<usize, OpResult>,
    /// Cold set-up times, in s.
    pub setup_s: Vec<f64>,
    /// Follower catch-up times, in s.
    pub catchup_s: Vec<f64>,
    /// Per-slot fingerprints.
    pub slots: SlotCheck,
    /// Run-level facts folded into the fingerprint (journal positions).
    pub extra: Fingerprint,
    /// Process CPU time spent inside ops, in ms.
    pub cpu_ms: f64,
    /// Input generation (and journal pre-writing), in s.
    pub input_s: f64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload interactive|catalog_onboard|durable_feedback \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let base = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &base);
    let _ = std::fs::remove_dir_all(&base);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, base: &std::path::Path) -> Result<String, String> {
    std::fs::create_dir_all(base).map_err(|e| format!("mkdir {}: {e}", base.display()))?;
    let t0 = Instant::now();
    let mut bench = Bench::prepare(args.kind, args.seed, base)?;
    let input_s = t0.elapsed().as_secs_f64();
    let rss_note = reset_peak_rss();
    let mut run = Run {
        attempted: 0,
        failed: 0,
        op_ms: Vec::new(),
        op_traced: Vec::new(),
        first_ops: BTreeMap::new(),
        setup_s: Vec::new(),
        catchup_s: Vec::new(),
        slots: SlotCheck::new(bench.slots()),
        extra: Fingerprint::default(),
        cpu_ms: 0.0,
        input_s,
        notes: rss_note.into_iter().collect(),
    };
    let mut tracer = Tracer::new(false);
    op_loop(args, &mut bench, &mut run, &mut tracer)?;

    let expected = expected_fingerprint(args.kind, args.seed);
    let fingerprint = run.slots.combined().map(|fp| {
        let mut all = Fingerprint::default();
        all.u64(fp.0).u64(run.extra.0);
        all
    });
    let mut correct = run.failed == 0 && fingerprint.is_some();
    match (expected, fingerprint) {
        (Some(want), Some(got)) if want != got.0 => {
            run.notes.push(format!(
                "fingerprint {:016x} differs from the expected {want:016x} for this seed",
                got.0
            ));
            run.failed = run.attempted;
            correct = false;
        }
        (Some(_), Some(_)) => run
            .notes
            .push("fingerprint matches the expected one".to_string()),
        _ => {}
    }

    let mut out = String::new();
    let _ = writeln!(out, "workload: {} seed: {}", args.kind.name(), args.seed);
    let _ = writeln!(out, "input_gen_s: {:.4} (not part of setup_s)", run.input_s);
    let _ = writeln!(
        out,
        "fingerprint: {}",
        fingerprint.map_or_else(|| "incomplete".to_string(), |f| format!("{:016x}", f.0))
    );
    for n in &run.notes {
        let _ = writeln!(out, "note: {n}");
    }
    let metrics = if args.trace {
        let (metrics, replay_ok) = layers::report(args, &mut bench, &run, &tracer, base, &mut out)?;
        correct &= replay_ok;
        metrics
    } else {
        end_to_end(&run, &mut out)
    };
    let mut line = String::new();
    let _ = write!(
        line,
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{"#,
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A run whose every op failed has no samples; keep the line JSON.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    line.push_str("}}");
    Ok(format!("{out}{line}"))
}

/// Runs ops for `args.seconds`, interleaving extra cold set-ups, then
/// checks the deployment's final state and stops it.
fn op_loop(
    args: &Args,
    bench: &mut Bench,
    run: &mut Run,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (mut dep, times) = bench.cold_setup()?;
    record_setup(run, times);
    let setup_tip = dep.tip.clone();
    if let Some((lsn, digest)) = &setup_tip {
        run.extra.u64(*lsn).str(digest).u64(LSN_PER_OP);
    }
    let window = Duration::from_secs(args.seconds);
    let extra = extra_setups(window, run.setup_s[0]);
    let mut extra_done = 0;
    let start = Instant::now();
    // Time spent in extra set-ups: it does not count against the window,
    // so the ops get the whole window whatever set-up costs.
    let mut extra_spent = Duration::ZERO;
    let mut index = 0u64;
    let mut ok_ops = 0u64;
    let mut errors = 0;
    while index == 0 || start.elapsed() - extra_spent < window {
        if bench.wants_fresh(index) {
            bench.teardown(dep)?;
            let (d, times) = bench.cold_setup()?;
            record_setup(run, times);
            dep = d;
        }
        // Trace mode alternates traced and untraced ops, so both see the
        // same host states and their difference is the tracing overhead.
        tracer.set_enabled(args.trace && index % 2 == 1);
        tracer.op = index;
        run.attempted += 1;
        let cpu0 = cpu_ms();
        let t0 = Instant::now();
        let result = bench.op(&dep, index, tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        run.cpu_ms += cpu_ms() - cpu0;
        match result {
            Ok(r) if run.slots.check(r.slot, r.fingerprint) => {
                ok_ops += 1;
                run.op_ms.push(ms);
                run.op_traced.push(tracer.enabled());
                run.first_ops.entry(r.slot).or_insert(r);
            }
            Ok(r) => {
                run.failed += 1;
                run.notes
                    .push(format!("op {index}: slot {} did different work", r.slot));
            }
            Err(e) => {
                run.failed += 1;
                errors += 1;
                if errors <= 3 {
                    run.notes.push(format!("op {index} failed: {e}"));
                }
            }
        }
        index += 1;
        #[allow(clippy::cast_precision_loss)]
        let due = extra_done < extra
            && (start.elapsed() - extra_spent).as_secs_f64()
                >= window.as_secs_f64() * (extra_done + 1) as f64 / (extra + 1) as f64;
        if due {
            extra_done += 1;
            extra_spent += extra_setup(bench, run)?;
        }
    }
    // A window too short for the ops to reach every due point.
    for _ in extra_done..extra {
        extra_setup(bench, run)?;
    }
    tracer.set_enabled(false);
    if let (Some(follower), Some((lsn0, digest0))) = (&dep.follower, &setup_tip) {
        let leader_tip = dep.leader.lsn_digest()?;
        node::wait_caught_up(follower, &leader_tip)?;
        let follower_tip = follower.lsn_digest()?;
        run.notes.push(format!(
            "journal: set-up lsn {lsn0} digest {digest0}; end leader lsn {} digest {}, \
             follower lsn {} digest {}",
            leader_tip.0, leader_tip.1, follower_tip.0, follower_tip.1
        ));
        if leader_tip != follower_tip {
            run.failed += 1;
            run.notes
                .push("follower diverged from the leader".to_string());
        }
        if run.failed == 0
            && (leader_tip.0 - lsn0 != LSN_PER_OP * ok_ops || &leader_tip.1 != digest0)
        {
            run.failed += 1;
            run.notes
                .push("journal did not return to the set-up state after the ops".to_string());
        }
    }
    run.notes.push(format!(
        "timers: watchdog, heartbeats, scrubber and idle eviction pinned off; \
         {} cold set-ups measured",
        run.setup_s.len()
    ));
    bench.teardown(dep)
}

/// Extra cold set-ups to measure, spread evenly over the run's ops: as
/// many as fit in [`SETUP_SHARE`] of the window, at least
/// [`MIN_EXTRA_SETUPS`] and at most [`MAX_EXTRA_SETUPS`]. `setup_s` is their
/// median with the first, so no workload's set-up is a single interval.
fn extra_setups(window: Duration, first_s: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let fit = (window.as_secs_f64() * SETUP_SHARE / first_s.max(1e-6)) as usize;
    fit.clamp(MIN_EXTRA_SETUPS, MAX_EXTRA_SETUPS)
}

/// Share of the window that short extra cold set-ups may add to the run.
const SETUP_SHARE: f64 = 0.1;
/// Extra cold set-ups per run, at least: with the first, `setup_s` is a
/// median of five even when one set-up takes seconds.
const MIN_EXTRA_SETUPS: usize = 4;
/// Cap on extra cold set-ups per run.
const MAX_EXTRA_SETUPS: usize = 20;

/// One extra cold set-up beside the running deployment; returns its cost.
fn extra_setup(bench: &mut Bench, run: &mut Run) -> Result<Duration, String> {
    let t0 = Instant::now();
    let (spare, times) = bench.cold_setup()?;
    record_setup(run, times);
    bench.teardown(spare)?;
    Ok(t0.elapsed())
}

fn record_setup(run: &mut Run, t: workload::SetupTimes) {
    run.setup_s.push(t.total_s);
    run.catchup_s.push(t.catchup_s);
}

/// The gated metrics, plus the ungated lines printed beside them.
fn end_to_end(run: &Run, out: &mut String) -> Vec<layers::Metric> {
    let n = run.op_ms.len();
    // Each slot's solves once, so the value is fixed per seed however
    // many ops of each slot fit in the run.
    let qualities: Vec<f64> = run
        .first_ops
        .values()
        .flat_map(|op| op.solves.iter().map(|s| s.quality))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let quality_mean = qualities.iter().sum::<f64>() / qualities.len().max(1) as f64;
    let _ = writeln!(
        out,
        "ops: {n} ok of {} attempted, {} failed",
        run.attempted, run.failed
    );
    #[allow(clippy::cast_precision_loss)]
    let _ = writeln!(
        out,
        "cpu_ms_per_op: {:.3} (process CPU inside ops / ops; not gated)",
        run.cpu_ms / n.max(1) as f64
    );
    let _ = writeln!(
        out,
        "throughput: {:.3} ops/s (not gated: whole-run wall clock swings on this host)",
        n as f64 / (run.op_ms.iter().sum::<f64>() / 1e3).max(1e-9)
    );
    if let Some([q1, q2, q3]) = quartiles(&run.op_ms) {
        let _ = writeln!(out, "op_ms quartiles: {q1:.3} {q2:.3} {q3:.3}");
    }
    let _ = writeln!(
        out,
        "op_ms_p90: {:.3} (not gated: single-sample tails swing on this host)",
        percentile(&run.op_ms, 90.0)
    );
    if let Some(p) = tail_percentile(n).filter(|p| *p != 90.0) {
        let _ = writeln!(
            out,
            "op_ms_p{p}: {:.3} (highest percentile with >=10 samples beyond it; n = {n})",
            percentile(&run.op_ms, p)
        );
    }
    let _ = writeln!(
        out,
        "setup samples: {} (median {:.4} s)",
        run.setup_s.len(),
        median(&run.setup_s)
    );
    vec![
        ("setup_s".to_string(), median(&run.setup_s), "s"),
        ("op_ms_p50".to_string(), median(&run.op_ms), "ms"),
        ("quality_mean".to_string(), quality_mean, "Q"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
    ]
}

fn expected_fingerprint(kind: Kind, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let mut w = line.split_whitespace();
        let (k, s, fp) = (w.next()?, w.next()?, w.next()?);
        (k == kind.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(fp, 16).ok())
            .flatten()
    })
}

/// Resets the peak resident set to the current one, so `peak_rss_mb`
/// covers set-up and ops, not input generation. Returns a note if the
/// kernel refuses.
fn reset_peak_rss() -> Option<String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .err()
        .map(|e| format!("could not reset the peak RSS after input generation: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process, in ms (`/proc/self/stat`,
/// 100 ticks per second).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}
