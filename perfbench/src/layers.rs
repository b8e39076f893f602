//! The traced run's per-layer report.
//!
//! Three sources feed it, all recorded from the benchmark's own code
//! around calls into the layers' public functions:
//!
//! * the client-side request spans of the traced ops (`trace.rs`);
//! * an in-process replay of the same ops through `catalog::from_text`,
//!   `SimilarityCache::build`, `mube_scale::{top_k, block}` and a
//!   `Problem`/`Session` whose matcher and QEFs are timing wrappers —
//!   checked to reproduce the HTTP run's qualities and evaluation counts
//!   exactly, so its breakdown describes the same work;
//! * for the durable workload, `Journal::{open_with, append}` on a copy of
//!   the pre-written journal, and the same write against a leader with and
//!   without its follower.
//!
//! A layer's self time is its span minus the spans nested in it. The spans
//! are written to `.perfbench/trace-<workload>-<seed>.json` when the run
//! ends.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::jsonw::JsonBuf;
use mube_core::qefs::{data_only_qefs, paper_default_qefs};
use mube_core::{
    catalog, Constraints, DeltaClass, DeltaEval, DeltaMove, EvalContext, EvalInput, MatchOperator,
    MatchOutcome, MubeError, Problem, Qef, Session, Solution, SourceId, Universe, WeightedQefs,
};
use mube_match::{ClusterMatcher, JaccardNGram, SimilarityCache};
use mube_opt::TabuSearch;
use mube_scale::{block, top_k, LshConfig, RelevanceQuery, ScoringTable, UniverseStream};
use mube_serve::{Event, Journal, Json, SolutionRecord, DEFAULT_QUARANTINE_KEEP};

use crate::node::{JOURNAL_FSYNC, SNAPSHOT_EVERY};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Bench, Kind, OpResult, SessionPlan, THETA};
use crate::{Args, Run};

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Replays per slot: enough solves for steady per-call figures.
fn replays_per_slot(kind: Kind) -> usize {
    match kind {
        Kind::Interactive => 3,
        Kind::CatalogOnboard => 1,
        Kind::DurableFeedback => 3,
    }
}

/// Alternating writes used to measure the replication ack.
const ACK_WRITES: usize = 30;

/// Calls and time through one wrapped boundary.
#[derive(Debug, Default)]
struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Counter {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // ordering: statistics only; read after the solve that wrote them.
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        // ordering: statistics only, as above.
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn get(&self) -> (u64, u64) {
        // ordering: statistics only; the solve that wrote them has returned.
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// Times Algorithm 1.
struct TimedMatcher {
    inner: ClusterMatcher,
    counter: Arc<Counter>,
}

impl MatchOperator for TimedMatcher {
    fn match_sources(
        &self,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        constraints: &Constraints,
    ) -> MatchOutcome {
        self.counter
            .time(|| self.inner.match_sources(universe, sources, constraints))
    }
}

/// Times one QEF, keeping its delta class so the evaluation path — and
/// every score — stays exactly the unwrapped one.
struct TimedQef {
    inner: Arc<dyn Qef>,
    counter: Arc<Counter>,
}

impl Qef for TimedQef {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, ctx: &EvalContext, input: &EvalInput<'_>) -> f64 {
        self.counter.time(|| self.inner.evaluate(ctx, input))
    }

    fn delta_class(&self) -> DeltaClass {
        self.inner.delta_class()
    }
}

/// One replay span. Aggregated hot boundaries (matcher, QEFs) are one
/// span per solve carrying a call count.
#[derive(Debug, Clone)]
struct Span {
    slot: usize,
    name: String,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
    calls: u64,
}

/// The solutions one replayed op produced.
struct ReplayedOp {
    slot: usize,
    solutions: Vec<Solution>,
    /// Each solution's source names, sorted.
    names: Vec<Vec<String>>,
}

/// Everything the replay measured.
#[derive(Default)]
struct Replay {
    spans: Vec<Span>,
    parse_ms: Vec<f64>,
    build_ms: Vec<f64>,
    distinct_names: Vec<f64>,
    pairs: Vec<f64>,
    topk_ms: Vec<f64>,
    lsh_ms: Vec<f64>,
    survivors: Vec<f64>,
    clusters: Vec<f64>,
    tabu_self_ms: Vec<f64>,
    explain_ms: Vec<f64>,
    full_us: Vec<f64>,
    delta_us: Vec<f64>,
    evaluations: u64,
    distinct_evaluations: u64,
    match_calls: u64,
    match_ns: u64,
    qef: BTreeMap<String, (u64, u64)>,
    /// Per replayed op: layer → self time in ms, for the layers the op
    /// itself runs (set-up-only layers excluded).
    op_layers: Vec<(usize, BTreeMap<&'static str, f64>)>,
    /// Replayed ops, for the journal replay and the check.
    solutions: Vec<ReplayedOp>,
    ops: u64,
}

impl Replay {
    fn span(
        &mut self,
        slot: usize,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        epoch: Instant,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            slot,
            name: name.to_string(),
            parent,
            start: start - epoch,
            dur: start.elapsed(),
            calls,
        });
        self.spans.len() - 1
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Applies one feedback body the way the server's handler does.
fn apply_feedback(session: &mut Session, body: &str) -> Result<(), String> {
    let j = Json::parse(body).map_err(|e| format!("feedback body: {e}"))?;
    let actions = j
        .get("actions")
        .and_then(Json::as_array)
        .ok_or("no actions")?;
    for a in actions {
        let s = |k: &str| a.get(k).and_then(Json::as_str).ok_or(format!("no {k}"));
        let f = |k: &str| a.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
        let u = |k: &str| a.get(k).and_then(Json::as_usize).ok_or(format!("no {k}"));
        let r: Result<(), MubeError> = match a.get("op").and_then(Json::as_str) {
            Some("pin") => session.pin_source_by_name(s("source")?),
            Some("unpin") => session.unpin_source_by_name(s("source")?),
            Some("weight") => session.set_weight(s("qef")?, f("value")?),
            Some("theta") => session.set_theta(f("value")?),
            Some("max_sources") => session.set_max_sources(u("value")?),
            Some("adopt_ga") => session.adopt_ga(u("index")?),
            other => return Err(format!("replay does not know feedback {other:?}")),
        };
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replays op slot `slot` in-process, exactly as the server runs it.
fn replay_op(bench: &Bench, slot: usize, r: &mut Replay, epoch: Instant) -> Result<(), String> {
    let kind = bench.kind;
    let cat = bench.catalog(slot);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let op_t0 = Instant::now();
    let op_span = r.span(slot, "op", None, op_t0, epoch, 1);

    let t = Instant::now();
    let universe = Arc::new(catalog::from_text(&cat.text).map_err(|e| e.to_string())?);
    r.parse_ms.push(ms(t.elapsed()));
    r.span(slot, "catalog.parse", Some(op_span), t, epoch, 1);
    let t = Instant::now();
    let cache = Arc::new(SimilarityCache::build(&universe, &JaccardNGram::trigram()));
    r.build_ms.push(ms(t.elapsed()));
    r.span(slot, "simcache.build", Some(op_span), t, epoch, 1);
    let names = cache.distinct_names() as f64;
    r.distinct_names.push(names);
    let mut pairs = names * (names - 1.0) / 2.0;
    // Only onboarding uploads inside the op; elsewhere this is set-up.
    if kind == Kind::CatalogOnboard {
        layers.insert("catalog.parse", *r.parse_ms.last().expect("pushed"));
        layers.insert("simcache.build", *r.build_ms.last().expect("pushed"));
    }

    let mut solutions = Vec::new();
    let mut names = Vec::new();
    for plan in bench.sessions(slot) {
        let (working, cache) = match plan.prune {
            Some((k, keywords)) => {
                let (working, cache) =
                    replay_prune(&universe, k, keywords, slot, op_span, r, &mut layers, epoch)?;
                let n = cache.distinct_names() as f64;
                pairs += n * (n - 1.0) / 2.0;
                (working, cache)
            }
            None => (Arc::clone(&universe), Arc::clone(&cache)),
        };
        for sol in replay_session(
            bench,
            &plan,
            &working,
            cache,
            slot,
            op_span,
            r,
            &mut layers,
            epoch,
        )? {
            let mut v: Vec<String> = sol
                .sources
                .iter()
                .filter_map(|id| working.get(*id).map(|x| x.name().to_string()))
                .collect();
            v.sort();
            names.push(v);
            solutions.push(sol);
        }
    }
    r.pairs.push(pairs);
    r.spans[op_span].dur = op_t0.elapsed();
    r.op_layers.push((slot, layers));
    r.solutions.push(ReplayedOp {
        slot,
        solutions,
        names,
    });
    r.ops += 1;
    Ok(())
}

/// The `prune` block as the server applies it: relevance top-k, LSH
/// blocking, keep each cluster's best-scoring member, and a fresh
/// similarity cache over the survivors.
#[allow(clippy::too_many_arguments)]
fn replay_prune(
    universe: &Universe,
    k: usize,
    keywords: &[&str],
    slot: usize,
    op_span: usize,
    r: &mut Replay,
    layers: &mut BTreeMap<&'static str, f64>,
    epoch: Instant,
) -> Result<(Arc<Universe>, Arc<SimilarityCache>), String> {
    let query = RelevanceQuery {
        keywords: keywords.iter().map(|w| (*w).to_string()).collect(),
        prefer_characteristics: vec!["mttf".to_string()],
    };
    let t = Instant::now();
    let survivors = top_k(
        &UniverseStream::new(universe),
        &query,
        &ScoringTable::default(),
        k,
        &[],
    );
    let topk = ms(t.elapsed());
    r.topk_ms.push(topk);
    r.span(slot, "prune.topk", Some(op_span), t, epoch, 1);
    let scores: Vec<f64> = survivors.iter().map(|s| s.score).collect();
    let records: Vec<mube_scale::SourceRecord> = survivors.into_iter().map(|s| s.record).collect();
    let t = Instant::now();
    let blocks = block(&records, &LshConfig::default());
    let lsh = ms(t.elapsed());
    r.lsh_ms.push(lsh);
    r.span(slot, "prune.lsh", Some(op_span), t, epoch, 1);
    r.survivors.push(records.len() as f64);
    r.clusters.push(blocks.clusters.len() as f64);
    let mut kept: Vec<usize> = blocks
        .clusters
        .iter()
        .map(|members| {
            let mut best = members[0];
            for &m in members {
                if scores[m] > scores[best] {
                    best = m;
                }
            }
            best
        })
        .collect();
    kept.sort_unstable();
    let mut b = Universe::builder();
    for &p in &kept {
        b.add_source(records[p].clone().into_spec());
    }
    let working = Arc::new(b.build().map_err(|e| e.to_string())?);
    let t = Instant::now();
    let cache = Arc::new(SimilarityCache::build(&working, &JaccardNGram::trigram()));
    let build = ms(t.elapsed());
    r.build_ms.push(build);
    r.span(slot, "simcache.build", Some(op_span), t, epoch, 1);
    *layers.entry("simcache.build").or_default() += build;
    *layers.entry("prune.topk").or_default() += topk;
    *layers.entry("prune.lsh").or_default() += lsh;
    Ok((working, cache))
}

/// One session: the server's problem (same QEFs, constraints, matcher
/// cache and tabu cap) with timing wrappers, driven through the plan's
/// feedback steps. Returns its solutions.
#[allow(clippy::too_many_arguments)]
fn replay_session(
    bench: &Bench,
    plan: &SessionPlan,
    working: &Arc<Universe>,
    cache: Arc<SimilarityCache>,
    slot: usize,
    op_span: usize,
    r: &mut Replay,
    layers: &mut BTreeMap<&'static str, f64>,
    epoch: Instant,
) -> Result<Vec<Solution>, String> {
    let kind = bench.kind;
    let match_counter = Arc::new(Counter::default());
    let base = if working
        .sources()
        .any(|s| s.characteristic("mttf").is_some())
    {
        paper_default_qefs("mttf")
    } else {
        data_only_qefs()
    };
    let mut qef_counters: Vec<(String, Arc<Counter>)> = Vec::new();
    let entries: Vec<(Arc<dyn Qef>, f64)> = base
        .iter()
        .map(|(q, w)| {
            let counter = Arc::new(Counter::default());
            qef_counters.push((q.name().to_string(), Arc::clone(&counter)));
            (
                Arc::new(TimedQef {
                    inner: Arc::clone(q),
                    counter,
                }) as Arc<dyn Qef>,
                w,
            )
        })
        .collect();
    let qefs = WeightedQefs::new(entries).map_err(|e| e.to_string())?;
    let matcher = Arc::new(TimedMatcher {
        inner: ClusterMatcher::with_cache(working, cache),
        counter: Arc::clone(&match_counter),
    });
    let constraints = Constraints::with_max_sources(plan.max_sources).theta(THETA);
    let problem =
        Problem::new(Arc::clone(working), matcher, qefs, constraints).map_err(|e| e.to_string())?;
    let solver = TabuSearch {
        max_evaluations: kind.max_solve_evaluations(),
        ..TabuSearch::default()
    };
    let mut session = Session::new(problem, Box::new(solver), plan.seed);
    let qef_total = |cs: &[(String, Arc<Counter>)]| {
        cs.iter()
            .map(|(_, c)| c.get())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let mut solutions = Vec::new();
    for step in &plan.steps {
        if !step.body.is_empty() {
            apply_feedback(&mut session, &step.body)?;
        }
        if !step.solve {
            continue;
        }
        let distinct0 = session.problem().distinct_evaluations();
        let (m0, q0) = (match_counter.get(), qef_total(&qef_counters));
        let per_qef0: Vec<(u64, u64)> = qef_counters.iter().map(|(_, c)| c.get()).collect();
        let t = Instant::now();
        let sol = session.run().map_err(|e| e.to_string())?.clone();
        let solve = t.elapsed();
        let (m1, q1) = (match_counter.get(), qef_total(&qef_counters));
        let solve_span = r.span(slot, "solve", Some(op_span), t, epoch, 1);
        let match_ns = m1.1 - m0.1;
        let qef_ns = q1.1 - q0.1;
        r.spans.push(Span {
            slot,
            name: "match".to_string(),
            parent: Some(solve_span),
            start: t - epoch,
            dur: Duration::from_nanos(match_ns),
            calls: m1.0 - m0.0,
        });
        for ((name, c), (c0, n0)) in qef_counters.iter().zip(&per_qef0) {
            let (c1, n1) = c.get();
            r.spans.push(Span {
                slot,
                name: format!("qef.{name}"),
                parent: Some(solve_span),
                start: t - epoch,
                dur: Duration::from_nanos(n1 - n0),
                calls: c1 - c0,
            });
            let e = r.qef.entry(name.clone()).or_default();
            e.0 += c1 - c0;
            e.1 += n1 - n0;
        }
        r.match_calls += m1.0 - m0.0;
        r.match_ns += match_ns;
        let tabu_self = ms(solve) - (match_ns + qef_ns) as f64 / 1e6;
        r.tabu_self_ms.push(tabu_self);
        *layers.entry("match").or_default() += match_ns as f64 / 1e6;
        *layers.entry("qef").or_default() += qef_ns as f64 / 1e6;
        *layers.entry("tabu.self").or_default() += tabu_self;
        r.evaluations += sol.evaluations;
        r.distinct_evaluations += (session.problem().distinct_evaluations() - distinct0) as u64;

        if kind == Kind::Interactive {
            let t = Instant::now();
            std::hint::black_box(mube_core::explain(session.problem(), &sol));
            let e = ms(t.elapsed());
            r.span(slot, "explain", Some(op_span), t, epoch, 1);
            r.explain_ms.push(e);
            *layers.entry("explain").or_default() += e;
        }
        let t = Instant::now();
        micro_samples(session.problem(), &sol, r);
        r.span(slot, "micro_samples", Some(op_span), t, epoch, 1);
        solutions.push(sol);
    }
    Ok(solutions)
}

/// Full-path and delta-path costs around one solution: the solution and
/// its drop-one neighbours through `Problem::evaluate`, and drop/re-add
/// moves through `DeltaEval`.
fn micro_samples(problem: &Problem, sol: &Solution, r: &mut Replay) {
    let selected: Vec<SourceId> = sol.sources.iter().copied().collect();
    let mut candidates = vec![sol.sources.clone()];
    for s in selected.iter().take(8) {
        let mut c = sol.sources.clone();
        c.remove(s);
        candidates.push(c);
    }
    for c in &candidates {
        let t = Instant::now();
        std::hint::black_box(problem.evaluate(c));
        r.full_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut delta = DeltaEval::with_selection(problem, &sol.sources);
    for &s in selected.iter().take(8) {
        for mv in [DeltaMove::Drop(s), DeltaMove::Add(s)] {
            let t = Instant::now();
            delta.apply(mv);
            std::hint::black_box(delta.score());
            r.delta_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// `Journal::{open_with, append}` on a copy of the pre-written journal,
/// appending the records the replayed ops would journal.
struct JournalLayer {
    open_s: Vec<f64>,
    append_us: Vec<f64>,
    bytes_per_op: f64,
    /// Append time per op, in ms.
    per_op_ms: f64,
}

fn journal_layer(
    bench: &Bench,
    replay: &Replay,
    dir: &Path,
) -> Result<Option<JournalLayer>, String> {
    let Some((template, catalog)) = bench.template_leader() else {
        return Ok(None);
    };
    crate::node::copy_dir(template, dir)?;
    let open = || {
        Journal::open_with(dir, JOURNAL_FSYNC, SNAPSHOT_EVERY, DEFAULT_QUARANTINE_KEEP)
            .map_err(|e| format!("journal open: {e}"))
    };
    let mut open_s = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let (j, _, _) = open()?;
        open_s.push(t.elapsed().as_secs_f64());
        drop(j);
    }
    let (journal, _, _) = open()?;
    let mut append_us = Vec::new();
    let mut bytes = 0usize;
    let mut ops = 0usize;
    let mut total = Duration::ZERO;
    // Session ids far above any the pre-written journal uses.
    let mut session = 1_000_000u64;
    for op in &replay.solutions {
        let mut events = Vec::new();
        let mut sols = op.solutions.iter();
        for plan in bench.sessions(op.slot) {
            session += 1;
            events.push(Event::SessionCreate {
                id: session,
                catalog_id: catalog,
                body: plan.create_body(catalog),
            });
            for step in &plan.steps {
                events.push(Event::Feedback {
                    session,
                    body: step.body.clone(),
                });
                if step.solve {
                    let sol = sols.next().ok_or("replay has fewer solves than the plan")?;
                    events.push(Event::Solve {
                        session,
                        solution: SolutionRecord::from_solution(sol),
                    });
                }
            }
            events.push(Event::SessionDelete { session });
        }
        for e in events {
            let t = Instant::now();
            let (_, frame) = journal
                .append_frame(e)
                .map_err(|e| format!("append: {e}"))?;
            let d = t.elapsed();
            total += d;
            append_us.push(d.as_secs_f64() * 1e6);
            bytes += frame.len();
        }
        ops += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = ops.max(1) as f64;
    Ok(Some(JournalLayer {
        open_s,
        append_us,
        bytes_per_op: bytes as f64 / n,
        per_op_ms: ms(total) / n,
    }))
}

/// Write latency with the follower minus without: the same feedback write
/// alternated between a replicated pair and a solo leader.
fn repl_ack_ms(bench: &mut Bench) -> Result<Option<f64>, String> {
    if bench.kind != Kind::DurableFeedback {
        return Ok(None);
    }
    let (pair, _) = bench.cold_setup()?;
    let solo = bench.solo_leader()?;
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let plan = bench.sessions(0).swap_remove(0);
    let body = plan.steps[1].body.clone();
    let sids: Vec<u64> = [&pair, &solo]
        .iter()
        .map(|d| {
            let r = d
                .leader
                .ok("POST", "/sessions", &plan.create_body(d.catalog))?;
            r.json()?
                .get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| "no session id".to_string())
        })
        .collect::<Result<_, String>>()?;
    for _ in 0..ACK_WRITES {
        for (i, d) in [&pair, &solo].iter().enumerate() {
            let t = Instant::now();
            d.leader
                .ok("POST", &format!("/sessions/{}/feedback", sids[i]), &body)?;
            lat[i].push(ms(t.elapsed()));
        }
    }
    bench.teardown(pair)?;
    bench.teardown(solo)?;
    Ok(Some(median(&lat[0]) - median(&lat[1])))
}

/// Builds the per-layer metrics of a traced run and writes its spans.
/// Returns the metrics and whether the replay reproduced the HTTP run.
pub fn report(
    args: &Args,
    bench: &mut Bench,
    run: &Run,
    tracer: &Tracer,
    base: &Path,
    out: &mut String,
) -> Result<(Vec<Metric>, bool), String> {
    let epoch = Instant::now();
    let mut replay = Replay::default();
    for &slot in run.first_ops.keys() {
        for _ in 0..replays_per_slot(bench.kind) {
            replay_op(bench, slot, &mut replay, epoch)?;
        }
    }
    let matches = replay_matches(&run.first_ops, &replay);
    let journal = journal_layer(bench, &replay, &base.join("trace-journal"))?;
    let ack = repl_ack_ms(bench)?;

    // HTTP spans, traced ops only.
    let reqs = &tracer.requests;
    let handler: Vec<f64> = reqs.iter().map(|q| q.handler_us as f64 / 1e3).collect();
    let transport: Vec<f64> = reqs
        .iter()
        .map(|q| ms(q.client) - q.handler_us as f64 / 1e3)
        .collect();
    // The server's JSON reader on each request body, timed here rather
    // than inside the op so it does not inflate the traced op times.
    let mut parse_by_req = Vec::with_capacity(reqs.len());
    for q in reqs {
        let t = Instant::now();
        if !q.body.is_empty() {
            std::hint::black_box(Json::parse(&q.body).map_err(|e| format!("request body: {e}"))?);
        }
        parse_by_req.push(t.elapsed());
    }
    let parse: Vec<f64> = reqs
        .iter()
        .zip(&parse_by_req)
        .filter(|(q, _)| !q.body.is_empty())
        .map(|(_, d)| ms(*d))
        .collect();
    let traced: Vec<f64> = run
        .op_ms
        .iter()
        .zip(&run.op_traced)
        .filter(|(_, t)| **t)
        .map(|(m, _)| *m)
        .collect();
    let untraced: Vec<f64> = run
        .op_ms
        .iter()
        .zip(&run.op_traced)
        .filter(|(_, t)| !**t)
        .map(|(m, _)| *m)
        .collect();
    let sum = |f: &dyn Fn(&crate::trace::RequestSpan) -> u64| reqs.iter().map(f).sum::<u64>();
    let appends = sum(&|q| q.appends);
    let snapshots = sum(&|q| q.snapshots);
    let frames = sum(&|q| q.frames);
    let failed = reqs
        .iter()
        .filter(|q| !(200..300).contains(&q.status))
        .count();

    // Self time per layer per op: HTTP spans for the front door, the
    // replay of the same slot for the layers behind it.
    let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (q, parse) in reqs.iter().zip(&parse_by_req) {
        let e = per_op.entry(q.op).or_default();
        *e.entry("serve.transport").or_default() += ms(q.client) - q.handler_us as f64 / 1e3;
        *e.entry("serve.json_parse").or_default() += ms(*parse);
    }
    let slot_layers: BTreeMap<usize, &BTreeMap<&'static str, f64>> =
        replay.op_layers.iter().map(|(s, l)| (*s, l)).collect();
    let mut accounted = Vec::new();
    let mut layer_totals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (op, layers) in &mut per_op {
        if let Some(l) = slot_layers.get(&bench.slot(*op)) {
            for (k, v) in l.iter() {
                layers.insert(k, *v);
            }
        }
        if let Some(j) = &journal {
            layers.insert("journal.append", j.per_op_ms);
        }
        if let Some(a) = ack {
            #[allow(clippy::cast_precision_loss)]
            let writes = crate::workload::LSN_PER_OP as f64;
            layers.insert("repl.ack", a * writes);
        }
        accounted.push(layers.values().sum::<f64>());
        for (k, v) in layers.iter() {
            layer_totals.entry(k).or_default().push(*v);
        }
    }
    let op_p50_traced = median(&traced);
    let share = median(&accounted) / op_p50_traced;
    let overhead = op_p50_traced - median(&untraced);

    let _ = writeln!(
        out,
        "traced ops: {} of {} (alternate ops traced)",
        traced.len(),
        run.op_ms.len()
    );
    let _ = writeln!(
        out,
        "op_ms_p50 untraced {:.3}, traced {:.3}; tracing overhead {:.3} ms",
        median(&untraced),
        op_p50_traced,
        overhead
    );
    let _ = writeln!(
        out,
        "replay reproduces the HTTP run exactly: {matches} ({} ops replayed)",
        replay.ops
    );
    for (k, v) in &layer_totals {
        let _ = writeln!(
            out,
            "  layer {k:<18} self {:>10.3} ms/op (median)",
            median(v)
        );
    }
    let _ = writeln!(
        out,
        "layers account for {:.1}% of traced op_ms_p50",
        share * 100.0
    );

    let div = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let qef_us = |name: &str| replay.qef.get(name).map_or(0.0, |(c, n)| div(*n, *c) / 1e3);
    let z = |v: f64| if v.is_finite() { v } else { 0.0 };
    #[allow(clippy::cast_precision_loss)]
    let per_replayed_op = |v: u64| v as f64 / replay.ops.max(1) as f64;
    let metrics: Vec<Metric> = vec![
        ("serve.handler_ms_p50".into(), z(median(&handler)), "ms"),
        ("serve.transport_ms_p50".into(), z(median(&transport)), "ms"),
        ("serve.json_parse_ms_p50".into(), z(median(&parse)), "ms"),
        ("serve.requests".into(), reqs.len() as f64, "count"),
        ("serve.failed".into(), failed as f64, "count"),
        (
            "journal.append_us_p50".into(),
            journal.as_ref().map_or(0.0, |j| median(&j.append_us)),
            "us",
        ),
        ("journal.appends".into(), appends as f64, "count"),
        ("journal.snapshots".into(), snapshots as f64, "count"),
        (
            "journal.bytes_per_op".into(),
            journal.as_ref().map_or(0.0, |j| j.bytes_per_op),
            "bytes",
        ),
        (
            "journal.replay_s".into(),
            journal.as_ref().map_or(0.0, |j| median(&j.open_s)),
            "s",
        ),
        ("repl.ack_ms_p50".into(), ack.unwrap_or(0.0), "ms"),
        ("repl.frames_shipped".into(), frames as f64, "count"),
        ("repl.catchup_s".into(), median(&run.catchup_s), "s"),
        (
            "catalog.parse_ms_p50".into(),
            z(median(&replay.parse_ms)),
            "ms",
        ),
        (
            "simcache.build_ms_p50".into(),
            z(median(&replay.build_ms)),
            "ms",
        ),
        (
            "simcache.distinct_names".into(),
            z(median(&replay.distinct_names)),
            "count",
        ),
        ("ngram.pairs".into(), z(median(&replay.pairs)), "count"),
        ("prune.topk_ms_p50".into(), z(median(&replay.topk_ms)), "ms"),
        ("prune.lsh_ms_p50".into(), z(median(&replay.lsh_ms)), "ms"),
        (
            "prune.survivors".into(),
            z(median(&replay.survivors)),
            "count",
        ),
        (
            "prune.clusters".into(),
            z(median(&replay.clusters)),
            "count",
        ),
        (
            "match.calls".into(),
            per_replayed_op(replay.match_calls),
            "count",
        ),
        (
            "match.us_per_call".into(),
            div(replay.match_ns, replay.match_calls) / 1e3,
            "us",
        ),
        (
            "memo.hit_ratio".into(),
            1.0 - div(replay.distinct_evaluations, replay.evaluations),
            "ratio",
        ),
        (
            "objective.full_us_p50".into(),
            z(median(&replay.full_us)),
            "us",
        ),
        (
            "delta.move_us_p50".into(),
            z(median(&replay.delta_us)),
            "us",
        ),
        ("qef.matching.us_per_call".into(), qef_us("matching"), "us"),
        (
            "qef.cardinality.us_per_call".into(),
            qef_us("cardinality"),
            "us",
        ),
        ("qef.coverage.us_per_call".into(), qef_us("coverage"), "us"),
        (
            "qef.redundancy.us_per_call".into(),
            qef_us("redundancy"),
            "us",
        ),
        ("qef.mttf.us_per_call".into(), qef_us("mttf"), "us"),
        (
            "tabu.evaluations".into(),
            per_replayed_op(replay.evaluations),
            "count",
        ),
        (
            "tabu.self_ms_p50".into(),
            z(median(&replay.tabu_self_ms)),
            "ms",
        ),
        ("explain.ms_p50".into(), z(median(&replay.explain_ms)), "ms"),
        (
            "cpu_ms_per_op".into(),
            run.cpu_ms / run.attempted.max(1) as f64,
            "ms",
        ),
        ("op_ms_p90".into(), z(percentile(&untraced, 90.0)), "ms"),
        ("trace.layer_share".into(), z(share), "ratio"),
        ("trace.overhead_ms".into(), z(overhead), "ms"),
    ];
    let path =
        Path::new(".perfbench").join(format!("trace-{}-{}.json", args.kind.name(), args.seed));
    write_spans(&path, tracer, &parse_by_req, &replay, &layer_totals)?;
    let _ = writeln!(out, "spans: {}", path.display());
    Ok((metrics, matches))
}

/// The replay must reproduce, solve by solve, the qualities (bit for bit),
/// evaluation counts and source sets of the HTTP run's first op of each
/// slot.
fn replay_matches(first_ops: &BTreeMap<usize, OpResult>, replay: &Replay) -> bool {
    replay.solutions.iter().all(|op| {
        let Some(http) = first_ops.get(&op.slot) else {
            return false;
        };
        http.solves.len() == op.solutions.len()
            && http
                .solves
                .iter()
                .zip(op.solutions.iter().zip(&op.names))
                .all(|(h, (s, names))| {
                    h.evaluations == s.evaluations
                        && h.quality.to_bits() == s.quality.to_bits()
                        && &h.sources == names
                })
    })
}

fn write_spans(
    path: &Path,
    tracer: &Tracer,
    parse: &[Duration],
    replay: &Replay,
    layers: &BTreeMap<&'static str, Vec<f64>>,
) -> Result<(), String> {
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("requests").begin_arr();
    for (q, parse) in tracer.requests.iter().zip(parse) {
        j.begin_obj();
        j.key("op").uint_value(q.op);
        j.key("endpoint").str_value(&q.endpoint);
        j.key("start_us").uint_value(us(q.start));
        j.key("client_us").uint_value(us(q.client));
        j.key("handler_us").uint_value(q.handler_us);
        j.key("solve_us").uint_value(q.solve_us);
        j.key("json_parse_us").uint_value(us(*parse));
        j.key("status").uint_value(u64::from(q.status));
        j.end_obj();
    }
    j.end_arr();
    j.key("replay").begin_arr();
    for (i, s) in replay.spans.iter().enumerate() {
        j.begin_obj();
        j.key("id").uint_value(i as u64);
        j.key("slot").uint_value(s.slot as u64);
        j.key("name").str_value(&s.name);
        match s.parent {
            Some(p) => j.key("parent").uint_value(p as u64),
            None => j.key("parent").null_value(),
        };
        j.key("start_us").uint_value(us(s.start));
        j.key("dur_us").uint_value(us(s.dur));
        j.key("calls").uint_value(s.calls);
        j.end_obj();
    }
    j.end_arr();
    j.key("layer_self_ms_per_op_p50").begin_obj();
    for (k, v) in layers {
        j.key(k).num_value(median(v));
    }
    j.end_obj();
    j.end_obj();
    std::fs::write(path, j.finish() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}
