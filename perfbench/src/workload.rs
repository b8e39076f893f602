//! The three workloads: inputs, cold set-up, and one op each.
//!
//! Every op does the same work on every run: sessions are created fresh
//! and deleted at the end of the op, solves are single-threaded tabu
//! searches at a fixed evaluation cap with a fixed seed, and no timer
//! (watchdog, heartbeat, scrubber, idle eviction) can fire inside a run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mube_core::jsonw::JsonBuf;
use mube_serve::Json;

use crate::client::Reply;
use crate::inputs::{self, mix, Catalog, ONBOARD_POOL};
use crate::node::{self, wait_caught_up, Node, Role};
use crate::stats::Fingerprint;
use crate::trace::Tracer;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The §6 loop on the paper-scale Books catalog, journal off.
    Interactive,
    /// New users uploading large catalogs and running pruned sessions.
    CatalogOnboard,
    /// Journaled, semi-sync replicated feedback writes on a small catalog.
    DurableFeedback,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "interactive" => Some(Kind::Interactive),
            "catalog_onboard" => Some(Kind::CatalogOnboard),
            "durable_feedback" => Some(Kind::DurableFeedback),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Interactive => "interactive",
            Kind::CatalogOnboard => "catalog_onboard",
            Kind::DurableFeedback => "durable_feedback",
        }
    }

    /// The server's per-solve evaluation cap (tabu honours it exactly).
    pub fn max_solve_evaluations(self) -> u64 {
        match self {
            Kind::Interactive => 350,
            Kind::CatalogOnboard => 300,
            // Under one tabu iteration: the write path, not the solver,
            // is what this workload measures.
            Kind::DurableFeedback => 25,
        }
    }
}

/// `max_sources` (the paper's `m`) per workload, and its interactive
/// feedback value.
const M_INTERACTIVE: usize = 12;
const M_INTERACTIVE_FEEDBACK: usize = 9;
const M_ONBOARD: usize = 10;
/// Small, so Algorithm 1 is cheap on the durable workload: with `m` = 6
/// its cost per call differed 2x between seeds' catalogs and made up a
/// third of the op; at 3 the write path dominates for every seed.
const M_DURABLE: usize = 3;
/// Matching thresholds: the starting `θ` (the replay builds the same
/// constraints) and the interactive feedback one.
pub const THETA: f64 = 0.5;
const THETA_FEEDBACK: f64 = 0.6;
/// Relevance survivors kept by the onboarding `prune` block.
const PRUNE_TOP_K: usize = 120;
/// Users in one interactive op, each running the whole feedback cycle
/// from a different pin and seed: what one search trajectory happens to
/// cost varies by about 15 % on one catalog, and every op (one sample)
/// averages six, so the op's cost hardly depends on the seed.
const INTERACTIVE_SESSIONS: u64 = 6;
/// Sessions in one durable op, each pinning a different source under a
/// different seed: every op (one sample) is the same fixed cycle, and a
/// run's qualities average over several problems.
const DURABLE_SESSIONS: u64 = 4;
/// Sessions journaled into the durable workload's pre-written journal.
const TEMPLATE_SESSIONS: u64 = 40;
/// Journal records one durable op appends: per session create, pin,
/// re-weight, solve, unpin, delete.
pub const LSN_PER_OP: u64 = 6 * DURABLE_SESSIONS;

/// One solve response, checked.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Objective evaluations the solve spent.
    pub evaluations: u64,
    /// `Q(S)` of the returned solution.
    pub quality: f64,
    /// Selected source names, sorted.
    pub sources: Vec<String>,
}

/// What one op did.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Which of the workload's repeating op slots ran.
    pub slot: usize,
    /// The op's work fingerprint.
    pub fingerprint: Fingerprint,
    /// Its solves, in order.
    pub solves: Vec<SolveRecord>,
}

/// A ready deployment: the serving node, its follower, the catalog ops
/// run against, and the directory holding their journals.
pub struct Deployment {
    /// The node clients talk to.
    pub leader: Node,
    /// The semi-sync follower (durable workload only).
    pub follower: Option<Node>,
    /// Catalog id the ops use (interactive and durable).
    pub catalog: u64,
    /// `(lsn, digest)` once ready (durable workload only).
    pub tip: Option<(u64, String)>,
    /// Journal directories to remove at teardown.
    dir: Option<PathBuf>,
}

/// Timings of one cold set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Cold start to ready.
    pub total_s: f64,
    /// Follower bind to caught up.
    pub catchup_s: f64,
}

/// A workload with its generated inputs.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    seed: u64,
    /// The catalogs the workload uploads.
    catalogs: Vec<Catalog>,
    /// Scratch directory for journals.
    base: PathBuf,
    /// Pre-written `(leader, follower)` journals (durable workload).
    template: Option<(PathBuf, PathBuf)>,
    /// Catalog id inside the pre-written journal.
    template_catalog: u64,
    /// Durable workload: the source each pre-written session pins, then
    /// the source each op session pins (see [`Bench::choose_pins`]).
    pins: Vec<String>,
    setups: u64,
}

impl Bench {
    /// Generates the inputs — and, for the durable workload, writes the
    /// journal its set-ups restart from. Nothing here is timed as set-up.
    pub fn prepare(kind: Kind, seed: u64, base: &Path) -> Result<Bench, String> {
        let catalogs = match kind {
            Kind::Interactive => vec![inputs::paper_books(inputs::PAPER_CATALOG_SEED)],
            Kind::CatalogOnboard => inputs::onboard_pool(seed),
            Kind::DurableFeedback => vec![inputs::small_books(seed)],
        };
        let mut bench = Bench {
            kind,
            seed,
            catalogs,
            base: base.to_path_buf(),
            template: None,
            template_catalog: 0,
            pins: Vec::new(),
            setups: 0,
        };
        if kind == Kind::DurableFeedback {
            bench.pins = bench.choose_pins()?;
            bench.write_template()?;
        }
        Ok(bench)
    }

    fn cfg(&self, role: &Role) -> mube_serve::ServeConfig {
        node::config(self.kind.max_solve_evaluations(), role)
    }

    /// Durable workload: for each pre-written session, then each op
    /// session, the first source — from a seed-derived position on, in
    /// catalog order — on whose pin that session's exact requests succeed,
    /// tried on a scratch in-memory node. A small `m` and a tabu budget
    /// under one iteration leave some pins without a feasible solution, so
    /// without this some seeds would fail; with it none does, and the
    /// choice is part of input generation, fixed per seed.
    fn choose_pins(&self) -> Result<Vec<String>, String> {
        let node = Node::start(self.cfg(&Role::Memory))?;
        let cat = &self.catalogs[0];
        let catalog = json_u64(&node.ok("POST", "/catalogs", &cat.body)?, "catalog")?;
        let mut pins = Vec::new();
        for s in 0..TEMPLATE_SESSIONS + DURABLE_SESSIONS {
            let salt = if s < TEMPLATE_SESSIONS {
                200 + s
            } else {
                4 + 16 * (s - TEMPLATE_SESSIONS)
            };
            let pick = mix(self.seed, salt);
            let mut chosen = None;
            for j in 0..cat.names.len() as u64 {
                let pin = cat.name(pick + j);
                let plan = if s < TEMPLATE_SESSIONS {
                    self.template_plan(s, pin)
                } else {
                    self.durable_plan(s - TEMPLATE_SESSIONS, pin)
                };
                if plan_runs(&node, catalog, &plan)? {
                    chosen = Some(pin.to_string());
                    break;
                }
            }
            pins.push(chosen.ok_or_else(|| format!("no source can be pinned in session {s}"))?);
        }
        node.stop()?;
        Ok(pins)
    }

    /// Pre-written session `i`: pin + solve, then (phase two of
    /// [`Bench::write_template`]) re-weight + solve.
    fn template_plan(&self, i: u64, pin: &str) -> SessionPlan {
        SessionPlan {
            max_sources: M_DURABLE,
            seed: mix(self.seed, 100 + i),
            prune: None,
            steps: vec![
                Step {
                    body: pin_action(pin),
                    solve: true,
                    m: M_DURABLE,
                    pinned: Some(pin.to_string()),
                },
                Step {
                    body: weight_action("coverage", 0.3),
                    solve: true,
                    m: M_DURABLE,
                    pinned: Some(pin.to_string()),
                },
            ],
        }
    }

    /// Session `k` of a durable op: create, pin, re-weight + solve, unpin,
    /// delete — six journaled records, one of them a low-budget solve.
    fn durable_plan(&self, k: u64, pin: &str) -> SessionPlan {
        SessionPlan {
            max_sources: M_DURABLE,
            seed: mix(self.seed, 5 + 16 * k),
            prune: None,
            steps: vec![
                Step {
                    body: pin_action(pin),
                    solve: false,
                    m: M_DURABLE,
                    pinned: Some(pin.to_string()),
                },
                Step {
                    body: weight_action("coverage", 0.35),
                    solve: true,
                    m: M_DURABLE,
                    pinned: Some(pin.to_string()),
                },
                Step {
                    body: unpin_action(pin),
                    solve: false,
                    m: M_DURABLE,
                    pinned: None,
                },
            ],
        }
    }

    /// The durable workload's starting state. Phase one journals a catalog
    /// and [`TEMPLATE_SESSIONS`] sessions (feedback + solve each) on a
    /// replicated pair; phase two adds a feedback + solve per session on
    /// the leader alone, so a restarted follower has frames to catch up.
    fn write_template(&mut self) -> Result<(), String> {
        let ldir = self.base.join("template/leader");
        let fdir = self.base.join("template/follower");
        let leader = Node::start(self.cfg(&Role::Leader {
            dir: ldir.clone(),
            repl: true,
        }))?;
        let follower = Node::start(self.cfg(&Role::Follower {
            dir: fdir.clone(),
            leader: leader.repl_addr().ok_or("leader has no replication port")?,
        }))?;
        let cat = &self.catalogs[0];
        let catalog = json_u64(&leader.ok("POST", "/catalogs", &cat.body)?, "catalog")?;
        let plans: Vec<SessionPlan> = (0..TEMPLATE_SESSIONS)
            .map(|i| self.template_plan(i, &self.pins[i as usize]))
            .collect();
        let mut sessions = Vec::new();
        for plan in &plans {
            let sid = json_u64(
                &leader.ok("POST", "/sessions", &plan.create_body(catalog))?,
                "session",
            )?;
            let pin = &plan.steps[0].body;
            leader.ok("POST", &format!("/sessions/{sid}/feedback"), pin)?;
            leader.ok("POST", &format!("/sessions/{sid}/solve"), "")?;
            sessions.push(sid);
        }
        wait_caught_up(&follower, &leader.lsn_digest()?)?;
        follower.stop()?;
        leader.stop()?;
        let leader = Node::start(self.cfg(&Role::Leader {
            dir: ldir.clone(),
            repl: false,
        }))?;
        for (sid, plan) in sessions.into_iter().zip(&plans) {
            leader.ok(
                "POST",
                &format!("/sessions/{sid}/feedback"),
                &plan.steps[1].body,
            )?;
            leader.ok("POST", &format!("/sessions/{sid}/solve"), "")?;
        }
        leader.stop()?;
        self.template = Some((ldir, fdir));
        self.template_catalog = catalog;
        Ok(())
    }

    /// One cold set-up: start to ready, as a user waits for it.
    pub fn cold_setup(&mut self) -> Result<(Deployment, SetupTimes), String> {
        self.setups += 1;
        match self.kind {
            Kind::Interactive => {
                let t0 = Instant::now();
                let leader = Node::start(self.cfg(&Role::Memory))?;
                let catalog = json_u64(
                    &leader.ok("POST", "/catalogs", &self.catalogs[0].body)?,
                    "catalog",
                )?;
                let times = SetupTimes {
                    total_s: t0.elapsed().as_secs_f64(),
                    catchup_s: 0.0,
                };
                Ok((Deployment::memory(leader, catalog), times))
            }
            Kind::CatalogOnboard => {
                let t0 = Instant::now();
                let leader = Node::start(self.cfg(&Role::Memory))?;
                leader.ok("GET", "/healthz", "")?;
                let times = SetupTimes {
                    total_s: t0.elapsed().as_secs_f64(),
                    catchup_s: 0.0,
                };
                Ok((Deployment::memory(leader, 0), times))
            }
            Kind::DurableFeedback => {
                let (tl, tf) = self.template.clone().ok_or("no template journal")?;
                let dir = self.base.join(format!("pair-{}", self.setups));
                let (ldir, fdir) = (dir.join("leader"), dir.join("follower"));
                node::copy_dir(&tl, &ldir)?;
                node::copy_dir(&tf, &fdir)?;
                let t0 = Instant::now();
                let leader = Node::start(self.cfg(&Role::Leader {
                    dir: ldir,
                    repl: true,
                }))?;
                let t1 = Instant::now();
                let follower = Node::start(self.cfg(&Role::Follower {
                    dir: fdir,
                    leader: leader.repl_addr().ok_or("leader has no replication port")?,
                }))?;
                let tip = leader.lsn_digest()?;
                wait_caught_up(&follower, &tip)?;
                let times = SetupTimes {
                    total_s: t0.elapsed().as_secs_f64(),
                    catchup_s: t1.elapsed().as_secs_f64(),
                };
                Ok((
                    Deployment {
                        leader,
                        follower: Some(follower),
                        catalog: self.template_catalog,
                        tip: Some(tip),
                        dir: Some(dir),
                    },
                    times,
                ))
            }
        }
    }

    /// Whether op `index` needs a fresh deployment first: an onboarding
    /// server takes [`ONBOARD_POOL`] distinct catalogs, then is replaced
    /// (catalogs cannot be deleted, and this keeps memory flat).
    pub fn wants_fresh(&self, index: u64) -> bool {
        self.kind == Kind::CatalogOnboard && index > 0 && index.is_multiple_of(ONBOARD_POOL as u64)
    }

    /// How many op slots the workload cycles through.
    pub fn slots(&self) -> usize {
        match self.kind {
            Kind::CatalogOnboard => ONBOARD_POOL,
            Kind::Interactive | Kind::DurableFeedback => 1,
        }
    }

    /// The op slot op `index` runs: onboarding cycles through its catalog
    /// pool; the other workloads repeat one fixed cycle.
    pub fn slot(&self, index: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let slot = (index % self.slots() as u64) as usize;
        slot
    }

    /// Runs op `index`: (onboarding: upload a distinct catalog,) then for
    /// each of the op's sessions create it, apply each feedback step and
    /// solve, check the solution (interactive: and explain it), and delete
    /// the session.
    pub fn op(&self, dep: &Deployment, index: u64, t: &mut Tracer) -> Result<OpResult, String> {
        let slot = self.slot(index);
        let node = &dep.leader;
        let mut out = OpResult::new(slot);
        let catalog = if self.kind == Kind::CatalogOnboard {
            let cat = self.catalog(slot);
            let up = t.ok(node, "POST", "/catalogs", &cat.body)?.json()?;
            if field(&up, "sources")? != cat.names.len() as u64 {
                return Err("upload lost sources".to_string());
            }
            out.fingerprint.u64(field(&up, "distinct_names")?);
            field(&up, "catalog")?
        } else {
            dep.catalog
        };
        for plan in self.sessions(slot) {
            let created = t
                .ok(node, "POST", "/sessions", &plan.create_body(catalog))?
                .json()?;
            let sid = field(&created, "session")?;
            if let Some(pruned) = created.get("pruned") {
                for k in ["survivors", "clusters", "kept"] {
                    out.fingerprint.u64(field(pruned, k)?);
                }
            }
            for step in &plan.steps {
                if !step.body.is_empty() {
                    t.ok(
                        node,
                        "POST",
                        &format!("/sessions/{sid}/feedback"),
                        &step.body,
                    )?;
                }
                if !step.solve {
                    continue;
                }
                let reply = t.ok(node, "POST", &format!("/sessions/{sid}/solve"), "")?;
                out.push(check_solve(&reply, step.m, step.pinned.as_deref())?);
                if self.kind == Kind::Interactive {
                    let ex = t
                        .ok(node, "GET", &format!("/sessions/{sid}/explain"), "")?
                        .json()?;
                    let n = ex
                        .get("contributions")
                        .and_then(Json::as_array)
                        .map_or(0, <[Json]>::len);
                    if n != out.solves.last().map_or(0, |s| s.sources.len()) {
                        return Err(format!("explain has {n} contributions"));
                    }
                    out.fingerprint.u64(n as u64);
                }
            }
            t.ok(node, "DELETE", &format!("/sessions/{sid}"), "")?;
        }
        Ok(out)
    }

    /// The sessions one op of slot `slot` runs, in order: how each is
    /// created and its feedback steps.
    pub fn sessions(&self, slot: usize) -> Vec<SessionPlan> {
        match self.kind {
            Kind::Interactive => (0..INTERACTIVE_SESSIONS)
                .map(|k| SessionPlan {
                    max_sources: M_INTERACTIVE,
                    seed: mix(self.seed, 2 + 16 * k),
                    prune: None,
                    steps: interactive_cycle(self.catalogs[0].name(mix(self.seed, 1 + 16 * k))),
                })
                .collect(),
            Kind::CatalogOnboard => vec![SessionPlan {
                max_sources: M_ONBOARD,
                seed: mix(self.seed, 3),
                prune: Some((PRUNE_TOP_K, self.catalog(slot).keywords)),
                steps: vec![Step {
                    body: String::new(),
                    solve: true,
                    m: M_ONBOARD,
                    pinned: None,
                }],
            }],
            Kind::DurableFeedback => (0..DURABLE_SESSIONS)
                .map(|k| {
                    let pin = &self.pins[(TEMPLATE_SESSIONS + k) as usize];
                    self.durable_plan(k, pin)
                })
                .collect(),
        }
    }

    /// The catalog op slot `slot` works on.
    pub fn catalog(&self, slot: usize) -> &Catalog {
        &self.catalogs[if self.kind == Kind::CatalogOnboard {
            slot
        } else {
            0
        }]
    }

    /// A leader without a follower, on a copy of the pre-written journal
    /// (durable workload): the baseline the replication ack is measured
    /// against.
    pub fn solo_leader(&mut self) -> Result<Deployment, String> {
        let (tl, _) = self.template.clone().ok_or("no template journal")?;
        self.setups += 1;
        let dir = self.base.join(format!("solo-{}", self.setups));
        node::copy_dir(&tl, &dir)?;
        let leader = Node::start(self.cfg(&Role::Leader {
            dir: dir.clone(),
            repl: false,
        }))?;
        Ok(Deployment {
            leader,
            follower: None,
            catalog: self.template_catalog,
            tip: None,
            dir: Some(dir),
        })
    }

    /// The pre-written leader journal and the catalog id inside it
    /// (durable workload).
    pub fn template_leader(&self) -> Option<(&Path, u64)> {
        self.template
            .as_ref()
            .map(|(l, _)| (l.as_path(), self.template_catalog))
    }

    /// Stops a deployment and removes its journals.
    pub fn teardown(&self, dep: Deployment) -> Result<(), String> {
        if let Some(f) = dep.follower {
            f.stop()?;
        }
        dep.leader.stop()?;
        if let Some(dir) = dep.dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("rm {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

impl Deployment {
    fn memory(leader: Node, catalog: u64) -> Deployment {
        Deployment {
            leader,
            follower: None,
            catalog,
            tip: None,
            dir: None,
        }
    }
}

impl OpResult {
    fn new(slot: usize) -> OpResult {
        OpResult {
            slot,
            fingerprint: Fingerprint::default(),
            solves: Vec::new(),
        }
    }

    fn push(&mut self, s: SolveRecord) {
        self.fingerprint.u64(s.evaluations).f64(s.quality);
        for name in &s.sources {
            self.fingerprint.str(name);
        }
        self.solves.push(s);
    }
}

/// One session of an op: how it is created, then its feedback steps.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// `max_sources`.
    pub max_sources: usize,
    /// Session seed.
    pub seed: u64,
    /// `prune.top_k` and keywords, when the session is pruned.
    pub prune: Option<(usize, &'static [&'static str])>,
    /// The feedback applied before each solve, in order.
    pub steps: Vec<Step>,
}

impl SessionPlan {
    /// The `POST /sessions` body over `catalog`.
    pub fn create_body(&self, catalog: u64) -> String {
        session_body(catalog, self.max_sources, self.seed, self.prune)
    }
}

/// One feedback step: the feedback body (empty: none), then, if `solve`
/// is set, a solve whose result must respect `m` and the pin.
#[derive(Debug, Clone)]
pub struct Step {
    /// `POST /sessions/{id}/feedback` body; empty means no feedback.
    pub body: String,
    /// Whether a solve follows the feedback.
    pub solve: bool,
    /// `max_sources` in force for the following solve.
    pub m: usize,
    /// Source pinned for the following solve.
    pub pinned: Option<String>,
}

/// Pin, unpin, re-weight, `θ`, `m`, adopt a GA: every feedback kind of §6,
/// so one cycle both keeps (weights) and clears (pins, `θ`) the memo.
fn interactive_cycle(pin: &str) -> Vec<Step> {
    let m = M_INTERACTIVE;
    let action = |op: &str, field: &str, value: &str| {
        format!(r#"{{"actions":[{{"op":"{op}","{field}":{value}}}]}}"#)
    };
    vec![
        Step {
            body: pin_action(pin),
            solve: true,
            m,
            pinned: Some(pin.to_string()),
        },
        Step {
            body: unpin_action(pin),
            solve: true,
            m,
            pinned: None,
        },
        Step {
            body: weight_action("coverage", 0.35),
            solve: true,
            m,
            pinned: None,
        },
        Step {
            body: action("theta", "value", &THETA_FEEDBACK.to_string()),
            solve: true,
            m,
            pinned: None,
        },
        Step {
            body: action("max_sources", "value", &M_INTERACTIVE_FEEDBACK.to_string()),
            solve: true,
            m: M_INTERACTIVE_FEEDBACK,
            pinned: None,
        },
        Step {
            body: action("adopt_ga", "index", "0"),
            solve: true,
            m: M_INTERACTIVE_FEEDBACK,
            pinned: None,
        },
    ]
}

fn json_str(s: &str) -> String {
    let mut j = JsonBuf::new();
    j.str_value(s);
    j.finish()
}

fn pin_action(source: &str) -> String {
    format!(
        r#"{{"actions":[{{"op":"pin","source":{}}}]}}"#,
        json_str(source)
    )
}

fn unpin_action(source: &str) -> String {
    format!(
        r#"{{"actions":[{{"op":"unpin","source":{}}}]}}"#,
        json_str(source)
    )
}

fn weight_action(qef: &str, value: f64) -> String {
    format!(r#"{{"actions":[{{"op":"weight","qef":"{qef}","value":{value}}}]}}"#)
}

/// `POST /sessions` body: single-threaded tabu (the default solver).
fn session_body(
    catalog: u64,
    max_sources: usize,
    seed: u64,
    prune: Option<(usize, &[&str])>,
) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("catalog").uint_value(catalog);
    j.key("max_sources").uint_value(max_sources as u64);
    j.key("theta").num_value(THETA);
    j.key("seed").uint_value(seed);
    if let Some((k, keywords)) = prune {
        j.key("prune").begin_obj();
        j.key("top_k").uint_value(k as u64);
        j.key("keywords").begin_arr();
        for w in keywords {
            j.str_value(w);
        }
        j.end_arr();
        j.key("dedup").bool_value(true);
        j.end_obj();
    }
    j.end_obj();
    j.finish()
}

/// Whether `plan` runs on `node` without an error reply or a failed solve
/// check. The session is deleted either way.
fn plan_runs(node: &Node, catalog: u64, plan: &SessionPlan) -> Result<bool, String> {
    let sid = json_u64(
        &node.ok("POST", "/sessions", &plan.create_body(catalog))?,
        "session",
    )?;
    let mut ok = true;
    for step in &plan.steps {
        if !step.body.is_empty() {
            node.ok("POST", &format!("/sessions/{sid}/feedback"), &step.body)?;
        }
        if step.solve {
            let reply = node.call("POST", &format!("/sessions/{sid}/solve"), "")?;
            if !reply.ok() || check_solve(&reply, step.m, step.pinned.as_deref()).is_err() {
                ok = false;
                break;
            }
        }
    }
    node.ok("DELETE", &format!("/sessions/{sid}"), "")?;
    Ok(ok)
}

fn field(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks `{key}`"))
}

fn json_u64(reply: &Reply, key: &str) -> Result<u64, String> {
    reply
        .json()?
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks `{key}`: {}", reply.body))
}

/// Checks one solve response: not cut short, `|S| ≤ m`, the pin honoured,
/// `Q(S)` in `[0, 1]`.
pub fn check_solve(reply: &Reply, m: usize, pinned: Option<&str>) -> Result<SolveRecord, String> {
    let j = reply.json()?;
    let sol = j.get("solution").ok_or("solve response lacks `solution`")?;
    if j.get("timed_out").and_then(Json::as_bool) != Some(false) {
        return Err("solve timed out".to_string());
    }
    let quality = sol
        .get("quality")
        .and_then(Json::as_f64)
        .ok_or("solution lacks `quality`")?;
    let evaluations = sol
        .get("evaluations")
        .and_then(Json::as_u64)
        .ok_or("solution lacks `evaluations`")?;
    let mut sources: Vec<String> = sol
        .get("sources")
        .and_then(Json::as_array)
        .ok_or("solution lacks `sources`")?
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    sources.sort();
    if sources.is_empty() || sources.len() > m {
        return Err(format!("{} sources selected, m = {m}", sources.len()));
    }
    if let Some(p) = pinned {
        if !sources.iter().any(|s| s == p) {
            return Err(format!("pinned source {p} not selected"));
        }
    }
    if !(0.0..=1.0).contains(&quality) {
        return Err(format!("quality {quality} outside [0, 1]"));
    }
    Ok(SolveRecord {
        evaluations,
        quality,
        sources,
    })
}
