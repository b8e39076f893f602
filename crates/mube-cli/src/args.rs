//! Argument parsing from one declarative table (no external crates).
//!
//! `COMMANDS` lists every subcommand with its positional slot, its flags
//! and its description. One scanner walks argv against a row, small typed
//! getters build the [`Command`], and [`usage`] renders the help text from
//! the same rows, so the parser and the help cannot disagree.

use std::str::FromStr;
use std::time::Duration;

use mube_serve::FsyncPolicy;
use mube_synth::DomainKind;

use crate::commands::CliError;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mube gen`.
    Gen {
        /// Number of sources.
        sources: usize,
        /// Generator seed.
        seed: u64,
        /// Schema domain.
        domain: DomainKind,
        /// Use the paper's cardinalities/pools instead of test scale.
        paper_scale: bool,
        /// Output file.
        out: String,
    },
    /// `mube validate`.
    Validate {
        /// Catalog file.
        file: String,
    },
    /// `mube match`.
    Match {
        /// Catalog file.
        file: String,
        /// Matching threshold θ.
        theta: f64,
        /// Restrict to these source names (all if empty).
        sources: Vec<String>,
    },
    /// `mube solve`.
    Solve {
        /// Catalog file.
        file: String,
        /// Maximum sources `m`.
        max: usize,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Solver seed.
        seed: u64,
        /// Which solver to use.
        solver: String,
        /// OS threads for the portfolio (1 = sequential; results never
        /// depend on this).
        threads: usize,
        /// Portfolio member spec (`tabu,sls,anneal[,pso]`); `None` unless
        /// portfolio mode was requested.
        portfolio: Option<String>,
        /// How many times the portfolio spec is repeated (independent seed
        /// streams per copy).
        restarts: usize,
        /// Wall-clock budget in milliseconds; the solve stops at the
        /// deadline and reports the best incumbent found (anytime
        /// semantics). `None` runs to the evaluation budget.
        time_budget_ms: Option<u64>,
        /// Source names to pin (source constraints).
        pins: Vec<String>,
        /// `(qef, weight)` overrides.
        weights: Vec<(String, f64)>,
        /// Print the leave-one-out explanation.
        explain: bool,
        /// Emit the solution as machine-readable JSON instead of text.
        json: bool,
    },
    /// `mube lint`.
    Lint {
        /// Catalog file.
        file: String,
        /// Maximum sources `m` (defaults to the universe size).
        max: Option<usize>,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Source names to pin (source constraints).
        pins: Vec<String>,
        /// `(qef, weight)` overrides.
        weights: Vec<(String, f64)>,
        /// Warn (MUBE017) when the catalog exceeds this many sources,
        /// since a flat solve without a pruning front end will be slow.
        scale_threshold: Option<usize>,
        /// Treat warnings as failures.
        deny_warnings: bool,
        /// Emit the findings as JSON instead of text.
        json: bool,
    },
    /// `mube scale-solve`.
    ScaleSolve {
        /// Sources in the synthetic streaming universe.
        sources: usize,
        /// Wall-clock budget in milliseconds for the whole pipeline
        /// (anytime semantics); `None` runs to the evaluation budgets.
        budget_ms: Option<u64>,
        /// Schema domain.
        domain: DomainKind,
        /// Maximum sources `m` in the final solution.
        max: usize,
        /// Matching threshold θ (both levels).
        theta: f64,
        /// Minimum GA size β (both levels).
        beta: usize,
        /// Relevance survivors kept by the pruning front end.
        top_k: usize,
        /// Generator + solver seed.
        seed: u64,
        /// Relevance keywords matched against source/attribute names.
        keywords: Vec<String>,
        /// Source names that must survive pruning and be selected.
        pins: Vec<String>,
        /// Which solver to use.
        solver: String,
        /// OS threads for the portfolio (results never depend on this).
        threads: usize,
        /// Portfolio member spec; `None` unless portfolio mode was
        /// requested.
        portfolio: Option<String>,
        /// Portfolio restart copies.
        restarts: usize,
        /// Emit the pipeline report as deterministic JSON.
        json: bool,
    },
    /// `mube exec`.
    Exec {
        /// Number of sources to generate.
        sources: usize,
        /// Generator + solver seed.
        seed: u64,
        /// Schema domain.
        domain: DomainKind,
        /// Maximum sources `m`.
        max: usize,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Which solver to use.
        solver: String,
        /// Fault spec (`rate=0.3`, `auto[:SCALE]`, or profile fields);
        /// `None` executes fault-free.
        faults: Option<String>,
        /// Seed for fault draws and retry jitter.
        fault_seed: u64,
        /// Query tuple range `LO..HI`.
        query: (u64, u64),
        /// Emit the execution report as deterministic JSON.
        json: bool,
        /// After a faulty run, re-probe and re-solve around failing
        /// sources.
        resolve: bool,
    },
    /// `mube lint-src`.
    LintSrc {
        /// Workspace root to scan (its `crates/` tree is walked).
        root: String,
        /// Treat warnings as failures (errors always fail).
        deny: bool,
        /// Emit the findings as JSON instead of text.
        json: bool,
        /// Allowlist file (`CODE path-prefix` lines); defaults to
        /// `ROOT/lint-src.allow` when that file exists.
        allowlist: Option<String>,
    },
    /// `mube serve`.
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads.
        threads: usize,
        /// Durable session journal directory (`None` = in-memory only).
        data_dir: Option<String>,
        /// Journal fsync policy (`always`, `interval[:MS]`, or `never`).
        fsync: mube_serve::FsyncPolicy,
        /// Leader address to follow (`host:port` of its replication
        /// port); makes this node a read-only replica.
        follow: Option<String>,
        /// Replication listen address for followers to connect to.
        repl_addr: Option<String>,
        /// Semi-sync: mutating requests only succeed once a follower has
        /// durably applied their event.
        repl_sync: bool,
        /// Auto-promote after this long without leader contact
        /// (`None` = manual promotion only).
        promote_timeout: Option<std::time::Duration>,
        /// Background-scrub cadence (`None` = server default; zero
        /// disables scrubbing).
        scrub_interval: Option<std::time::Duration>,
        /// Quarantine retention cap (`None` = server default).
        quarantine_keep: Option<u64>,
    },
    /// `mube promote` — ask a follower to become the leader.
    Promote {
        /// The follower's HTTP address (`host:port`).
        addr: String,
    },
    /// `mube resync` — rebuild a (diverged) follower from its leader.
    Resync {
        /// The follower's HTTP address (`host:port`).
        addr: String,
    },
    /// `mube fsck` — offline data-dir integrity check and repair.
    Fsck {
        /// The data directory to check.
        dir: String,
        /// Quarantine corrupt ranges, salvage past them, and rebuild a
        /// clean snapshot.
        repair: bool,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// `mube help`.
    Help,
}

/// How a flag takes its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// Present or absent; takes no value.
    Switch,
    /// An optional value; the last occurrence wins.
    Value,
    /// A value the command cannot run without.
    Required,
    /// A value that may be repeated; every occurrence is kept.
    Repeat,
}

/// One flag of a subcommand.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    arity: Arity,
    /// What the value looks like in the usage text.
    placeholder: &'static str,
    /// Smallest accepted integer value, checked by the scanner.
    min: Option<u64>,
}

impl Flag {
    const fn new(name: &'static str, arity: Arity, placeholder: &'static str) -> Self {
        Flag {
            name,
            arity,
            placeholder,
            min: None,
        }
    }

    const fn switch(name: &'static str) -> Self {
        Self::new(name, Arity::Switch, "")
    }

    const fn value(name: &'static str, placeholder: &'static str) -> Self {
        Self::new(name, Arity::Value, placeholder)
    }

    const fn at_least(self, min: u64) -> Self {
        Flag {
            min: Some(min),
            ..self
        }
    }

    fn invalid(&self, value: &str) -> CliError {
        bad(format!(
            "{} expects {}, got `{value}`",
            self.name, self.placeholder
        ))
    }

    /// The flag as the usage line shows it.
    fn synopsis(&self) -> String {
        let (name, placeholder) = (self.name, self.placeholder);
        match self.arity {
            Arity::Switch => format!("[{name}]"),
            Arity::Value => format!("[{name} {placeholder}]"),
            Arity::Required => format!("{name} {placeholder}"),
            Arity::Repeat => format!("[{name} {placeholder}]..."),
        }
    }
}

/// A subcommand's single positional slot.
#[derive(Debug, Clone, Copy)]
enum Slot {
    None,
    Required(&'static str),
    Optional(&'static str),
}

/// One row of the table: a subcommand.
struct Spec {
    name: &'static str,
    slot: Slot,
    /// Flag groups; a group several subcommands share is declared once.
    flags: &'static [&'static [Flag]],
    /// The paragraph `mube help` prints for the subcommand.
    about: &'static str,
}

impl Spec {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|flag| flag.name == name)
    }
}

const SOURCES: Flag = Flag::value("--sources", "N").at_least(1);
const SEED: Flag = Flag::value("--seed", "S");
const DOMAIN: Flag = Flag::value("--domain", "books|airfares|movies|music");
const JSON: Flag = Flag::switch("--json");
const ADDR: Flag = Flag::value("--addr", "HOST:PORT");
const THREADS: Flag = Flag::value("--threads", "N").at_least(1);
const MAX: Flag = Flag::value("--max", "M").at_least(1);
const THETA: Flag = Flag::value("--theta", "T");
const BETA: Flag = Flag::value("--beta", "B");
const PIN: Flag = Flag::new("--pin", Arity::Repeat, "NAME");
const SOLVER: Flag = Flag::value("--solver", "tabu|sls|annealing|pso");

/// The user's constraints (§1) besides `--max`, whose bound differs:
/// `solve` needs at least one source, while `lint --max 0` is how MUBE010
/// is reported.
const CONSTRAINTS: &[Flag] = &[
    THETA,
    BETA,
    PIN,
    Flag::new("--weight", Arity::Repeat, "QEF=W"),
];

/// The solver choice; `--threads`/`--restarts` imply the default
/// portfolio (see [`Args::solvers`]).
const SOLVERS: &[Flag] = &[
    SOLVER,
    THREADS,
    Flag::value("--portfolio", "tabu,sls,anneal[,pso]"),
    Flag::value("--restarts", "R").at_least(1),
];

/// Every subcommand, in the order `mube help` lists them.
static COMMANDS: &[Spec] = &[
    Spec {
        name: "gen",
        slot: Slot::None,
        flags: &[&[
            SOURCES,
            SEED,
            DOMAIN,
            Flag::switch("--paper-scale"),
            Flag::new("--out", Arity::Required, "FILE"),
        ]],
        about: "Generate a synthetic catalog (60 books sources at test scale by default; \
                --paper-scale for the paper's cardinalities)",
    },
    Spec {
        name: "validate",
        slot: Slot::Required("FILE"),
        flags: &[],
        about: "Parse a catalog and print per-source statistics",
    },
    Spec {
        name: "match",
        slot: Slot::Required("FILE"),
        flags: &[&[THETA, Flag::value("--sources", "a,b,c")]],
        about: "Run schema matching over all sources, or the --sources named (no selection)",
    },
    Spec {
        name: "solve",
        slot: Slot::Required("FILE"),
        flags: &[
            &[MAX],
            CONSTRAINTS,
            SOLVERS,
            &[
                SEED,
                Flag::value("--time-budget", "MS"),
                Flag::switch("--explain"),
                JSON,
            ],
        ],
        about: "Select at most --max sources and mediate a schema; --time-budget MS stops at \
                the deadline and reports the best solution found so far (anytime); --json \
                and --explain exclude each other",
    },
    Spec {
        name: "scale-solve",
        slot: Slot::None,
        flags: &[
            &[
                SOURCES,
                Flag::value("--budget", "MS"),
                DOMAIN,
                MAX,
                THETA,
                BETA,
                Flag::value("--top-k", "K").at_least(1),
                SEED,
                Flag::new("--keyword", Arity::Repeat, "W"),
                PIN,
            ],
            SOLVERS,
            &[JSON],
        ],
        about: "Stream a synthetic universe (100,000 sources by default) and solve it \
                hierarchically: relevance pruning keeps --top-k survivors, MinHash/LSH \
                blocking condenses them into clusters, a coarse solve picks cluster \
                families, and a fine solve over the expanded winners emits a validated \
                solution; --budget MS bounds the whole pipeline",
    },
    Spec {
        name: "lint",
        slot: Slot::Required("FILE"),
        flags: &[
            &[Flag { min: None, ..MAX }],
            CONSTRAINTS,
            &[
                Flag::value("--scale-threshold", "N"),
                Flag::switch("--deny-warnings"),
                JSON,
            ],
        ],
        about: "Statically audit a catalog + constraints before solving; exits 2 when \
                MUBE0xx errors (or, with --deny-warnings, any finding) are reported; \
                --scale-threshold N warns (MUBE017) on catalogs too large for a flat solve",
    },
    Spec {
        name: "lint-src",
        slot: Slot::Optional("ROOT"),
        flags: &[&[
            Flag::switch("--deny"),
            JSON,
            Flag::value("--allowlist", "FILE"),
        ]],
        about: "Scan the workspace's own Rust sources under ROOT/crates (default `.`) for \
                project invariants — wall-clock in solver code, bare unwrap, unjustified \
                Relaxed orderings (MUBE1xx codes); exits 2 on errors (or, with --deny, any \
                finding); `ROOT/lint-src.allow` grants path-level waivers",
    },
    Spec {
        name: "exec",
        slot: Slot::None,
        flags: &[&[
            SOURCES,
            SEED,
            DOMAIN,
            MAX,
            THETA,
            BETA,
            SOLVER,
            Flag::value("--faults", "SPEC"),
            Flag::value("--fault-seed", "S"),
            Flag::value("--query", "LO..HI"),
            JSON,
            Flag::switch("--resolve"),
        ]],
        about: "Generate, solve, then execute a query over the selected sources — optionally \
                injecting faults (--faults rate=0.3, auto[:SCALE], or per-kind rates such \
                as unavailable=0.2,timeout=0.1); prints the degradation \
                report, and with --resolve re-probes and re-solves around failing sources \
                (--json and --resolve exclude each other)",
    },
    Spec {
        name: "serve",
        slot: Slot::None,
        flags: &[&[
            ADDR,
            THREADS,
            Flag::value("--data-dir", "DIR"),
            Flag::value("--fsync", "always|interval[:MS]|never"),
            Flag::value("--repl-addr", "HOST:PORT"),
            Flag::value("--follow", "HOST:PORT"),
            Flag::switch("--repl-sync"),
            Flag::value("--promote-timeout", "MS").at_least(1),
            Flag::value("--scrub-interval", "MS"),
            Flag::value("--quarantine-keep", "K"),
        ]],
        about: "Run the HTTP/JSON session server (default 127.0.0.1:7207; see PROTOCOL.md \
                for endpoints); --data-dir journals sessions durably and replays them on \
                restart; --repl-addr ships the journal to followers, --follow runs a \
                read-only replica of a leader (--repl-sync gates mutating responses on \
                follower acks, --promote-timeout auto-promotes after MS without leader \
                contact); --scrub-interval MS re-verifies the journal on disk against \
                served state in the background (0 disables), --quarantine-keep K caps \
                retained quarantine files",
    },
    Spec {
        name: "promote",
        slot: Slot::Optional("HOST:PORT"),
        flags: &[&[ADDR]],
        about: "Ask the follower at HOST:PORT (or --addr) to become the leader (checked: \
                refuses when its state diverged from the leader's)",
    },
    Spec {
        name: "resync",
        slot: Slot::Optional("HOST:PORT"),
        flags: &[&[ADDR]],
        about: "Ask the follower at HOST:PORT (or --addr), diverged or not, to archive its \
                journal and take a fresh full copy from its leader",
    },
    Spec {
        name: "fsck",
        slot: Slot::Required("DIR"),
        flags: &[&[Flag::switch("--repair"), JSON]],
        about: "Check a --data-dir journal offline: CRCs, LSN order, snapshot/tail overlap, \
                replay digest; --repair truncates torn tails, salvages readable records \
                past corruption, and rebuilds a clean snapshot (evidence is quarantined); \
                exits 2 when the directory is not clean",
    },
    Spec {
        name: "help",
        slot: Slot::None,
        flags: &[],
        about: "Show this message",
    },
];

fn bad(detail: impl Into<String>) -> CliError {
    CliError::Usage(detail.into())
}

/// A command line scanned against one table row.
struct Args<'a> {
    spec: &'static Spec,
    positional: Option<&'a str>,
    /// Flags in argv order with their values (`""` for a switch).
    given: Vec<(&'static str, &'a str)>,
}

/// Walks `argv` against `spec`: every flag must be declared and get its
/// value, bounded values must reach their bound, and any other token not
/// starting with `-` fills the single positional slot.
fn scan<'a>(spec: &'static Spec, argv: &[&'a str]) -> Result<Args<'a>, CliError> {
    let mut args = Args {
        spec,
        positional: None,
        given: Vec::new(),
    };
    let mut tokens = argv.iter().copied();
    while let Some(token) = tokens.next() {
        if let Some(flag) = spec.flag(token) {
            let value = match flag.arity {
                Arity::Switch => "",
                _ => tokens
                    .next()
                    .ok_or_else(|| bad(format!("{token} needs a value")))?,
            };
            if let Some(min) = flag.min {
                if value.parse::<u64>().map_err(|_| flag.invalid(value))? < min {
                    return Err(bad(format!("{token} must be at least {min}")));
                }
            }
            args.given.push((flag.name, value));
        } else if token.starts_with('-') {
            return Err(bad(format!("unknown flag `{token}` for {}", spec.name)));
        } else if matches!(spec.slot, Slot::None) || args.positional.is_some() {
            return Err(bad(format!("unexpected argument `{token}`")));
        } else {
            args.positional = Some(token);
        }
    }
    if let (Slot::Required(what), None) = (spec.slot, args.positional) {
        return Err(bad(format!("{} requires {what}", spec.name)));
    }
    if let Some(flag) = spec
        .flags()
        .find(|flag| flag.arity == Arity::Required && !args.has(flag.name))
    {
        return Err(bad(format!("{} requires {}", spec.name, flag.synopsis())));
    }
    Ok(args)
}

impl<'a> Args<'a> {
    /// Every value given for `name`, in argv order.
    fn all(&self, name: &'static str) -> impl Iterator<Item = &'a str> + '_ {
        assert!(
            self.spec.flag(name).is_some(),
            "`{}` reads {name}, which its table row does not declare",
            self.spec.name
        );
        self.given
            .iter()
            .filter(move |(given, _)| *given == name)
            .map(|&(_, value)| value)
    }

    fn has(&self, name: &'static str) -> bool {
        self.all(name).next().is_some()
    }

    fn last(&self, name: &'static str) -> Option<&'a str> {
        self.all(name).last()
    }

    fn text(&self, name: &'static str) -> Option<String> {
        self.last(name).map(str::to_string)
    }

    fn list(&self, name: &'static str) -> Vec<String> {
        self.all(name).map(str::to_string).collect()
    }

    /// The last value of `name` parsed as `T`, if the flag was given.
    fn opt<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, CliError> {
        self.last(name)
            .map(|value| {
                value.parse().map_err(|_| {
                    let flag = self.spec.flag(name).expect("all() checked the flag");
                    flag.invalid(value)
                })
            })
            .transpose()
    }

    fn get<T: FromStr>(&self, name: &'static str, default: T) -> Result<T, CliError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The positional slot; present whenever the row requires it.
    fn slot(&self) -> String {
        self.positional.unwrap_or_default().to_string()
    }

    fn exclusive(&self, a: &'static str, b: &'static str) -> Result<(), CliError> {
        if self.has(a) && self.has(b) {
            return Err(bad(format!("{a} and {b} are mutually exclusive")));
        }
        Ok(())
    }

    fn domain(&self) -> Result<DomainKind, CliError> {
        match self.last("--domain").unwrap_or("books") {
            "books" => Ok(DomainKind::Books),
            "airfares" => Ok(DomainKind::Airfares),
            "movies" => Ok(DomainKind::Movies),
            "music" => Ok(DomainKind::MusicRecords),
            other => Err(bad(format!("unknown domain `{other}`"))),
        }
    }

    fn solver(&self) -> Result<String, CliError> {
        let name = self.last("--solver").unwrap_or("tabu");
        let solver = mube_opt::solver_by_name(name, mube_opt::DEFAULT_MAX_EVALUATIONS)
            .ok_or_else(|| bad(format!("unknown solver `{name}`")))?;
        Ok(solver.name().to_string())
    }

    /// The [`SOLVERS`] group: `(solver, threads, portfolio, restarts)`.
    fn solvers(&self) -> Result<(String, usize, Option<String>, usize), CliError> {
        let solver = self.solver()?;
        let threads: Option<usize> = self.opt("--threads")?;
        let restarts = self.get("--restarts", 1)?;
        let mut portfolio = self.text("--portfolio");
        if let Some(spec) = &portfolio {
            mube_opt::parse_portfolio_spec(spec).map_err(bad)?;
        }
        // Even `--threads 1` engages the portfolio, so thread counts can
        // be compared on otherwise identical runs; it gets the full member
        // mix so the threads have work to spread.
        if portfolio.is_none() && (threads.is_some() || restarts > 1) {
            portfolio = Some("tabu,sls,anneal,pso".to_string());
        }
        Ok((solver, threads.unwrap_or(1), portfolio, restarts))
    }

    fn weights(&self) -> Result<Vec<(String, f64)>, CliError> {
        self.all("--weight")
            .map(|spec| {
                spec.split_once('=')
                    .and_then(|(name, weight)| Some((name.to_string(), weight.parse().ok()?)))
                    .ok_or_else(|| bad("--weight needs QEF=W"))
            })
            .collect()
    }

    fn query(&self) -> Result<(u64, u64), CliError> {
        let Some(spec) = self.last("--query") else {
            return Ok((0, u64::MAX));
        };
        let range = spec
            .split_once("..")
            .and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)));
        match range {
            Some((lo, hi)) if lo <= hi => Ok((lo, hi)),
            Some(_) => Err(bad("--query range must have LO ≤ HI")),
            None => Err(bad("--query needs LO..HI")),
        }
    }
}

/// Parses the argument vector (without the program name).
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Command, CliError> {
    let argv: Vec<&str> = argv.iter().map(AsRef::as_ref).collect();
    let name = match argv.first() {
        None | Some(&("--help" | "-h")) => "help",
        Some(name) => name,
    };
    let spec = COMMANDS
        .iter()
        .find(|spec| spec.name == name)
        .ok_or_else(|| bad(format!("unknown command `{name}`")))?;
    build(&scan(spec, argv.get(1..).unwrap_or_default())?)
}

/// Builds the [`Command`] for a scanned row. Given only a row's required
/// arguments no check here fails, so every getter a row uses runs; the
/// table test relies on that to catch a getter reading an undeclared flag.
fn build(a: &Args) -> Result<Command, CliError> {
    Ok(match a.spec.name {
        "gen" => Command::Gen {
            sources: a.get("--sources", 60)?,
            seed: a.get("--seed", 2007)?,
            domain: a.domain()?,
            paper_scale: a.has("--paper-scale"),
            out: a.text("--out").unwrap_or_default(),
        },
        "validate" => Command::Validate { file: a.slot() },
        "match" => Command::Match {
            file: a.slot(),
            theta: a.get("--theta", 0.75)?,
            sources: a
                .last("--sources")
                .unwrap_or_default()
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
        },
        "solve" => {
            let (solver, threads, portfolio, restarts) = a.solvers()?;
            a.exclusive("--json", "--explain")?;
            Command::Solve {
                file: a.slot(),
                max: a.get("--max", 10)?,
                theta: a.get("--theta", 0.75)?,
                beta: a.get("--beta", 2)?,
                seed: a.get("--seed", 42)?,
                solver,
                threads,
                portfolio,
                restarts,
                time_budget_ms: a.opt("--time-budget")?,
                pins: a.list("--pin"),
                weights: a.weights()?,
                explain: a.has("--explain"),
                json: a.has("--json"),
            }
        }
        "lint" => Command::Lint {
            file: a.slot(),
            max: a.opt("--max")?,
            theta: a.get("--theta", 0.75)?,
            beta: a.get("--beta", 2)?,
            pins: a.list("--pin"),
            weights: a.weights()?,
            scale_threshold: a.opt("--scale-threshold")?,
            deny_warnings: a.has("--deny-warnings"),
            json: a.has("--json"),
        },
        "scale-solve" => {
            let (solver, threads, portfolio, restarts) = a.solvers()?;
            Command::ScaleSolve {
                sources: a.get("--sources", 100_000)?,
                budget_ms: a.opt("--budget")?,
                domain: a.domain()?,
                max: a.get("--max", 10)?,
                theta: a.get("--theta", 0.75)?,
                beta: a.get("--beta", 2)?,
                top_k: a.get("--top-k", 1_500)?,
                seed: a.get("--seed", 2007)?,
                keywords: a.list("--keyword"),
                pins: a.list("--pin"),
                solver,
                threads,
                portfolio,
                restarts,
                json: a.has("--json"),
            }
        }
        "exec" => {
            a.exclusive("--json", "--resolve")?;
            Command::Exec {
                sources: a.get("--sources", 40)?,
                seed: a.get("--seed", 2007)?,
                domain: a.domain()?,
                max: a.get("--max", 8)?,
                theta: a.get("--theta", 0.75)?,
                beta: a.get("--beta", 2)?,
                solver: a.solver()?,
                faults: a.text("--faults"),
                fault_seed: a.get("--fault-seed", 1)?,
                query: a.query()?,
                json: a.has("--json"),
                resolve: a.has("--resolve"),
            }
        }
        "lint-src" => Command::LintSrc {
            root: a.positional.unwrap_or(".").to_string(),
            deny: a.has("--deny"),
            json: a.has("--json"),
            allowlist: a.text("--allowlist"),
        },
        "serve" => {
            let journal = [
                "--follow",
                "--repl-addr",
                "--scrub-interval",
                "--quarantine-keep",
            ];
            let journal_flag = journal.into_iter().find(|flag| a.has(flag));
            if let (Some(flag), false) = (journal_flag, a.has("--data-dir")) {
                return Err(bad(format!("{flag} requires --data-dir")));
            }
            if a.has("--promote-timeout") && !a.has("--follow") {
                return Err(bad("--promote-timeout requires --follow"));
            }
            Command::Serve {
                addr: a.text("--addr").unwrap_or_else(|| "127.0.0.1:7207".into()),
                threads: a.get("--threads", 4)?,
                data_dir: a.text("--data-dir"),
                fsync: a
                    .last("--fsync")
                    .map_or(Ok(FsyncPolicy::default()), FsyncPolicy::parse)
                    .map_err(bad)?,
                follow: a.text("--follow"),
                repl_addr: a.text("--repl-addr"),
                repl_sync: a.has("--repl-sync"),
                promote_timeout: a.opt("--promote-timeout")?.map(Duration::from_millis),
                scrub_interval: a.opt("--scrub-interval")?.map(Duration::from_millis),
                quarantine_keep: a.opt("--quarantine-keep")?,
            }
        }
        name @ ("promote" | "resync") => {
            let addr = a
                .positional
                .or(a.last("--addr"))
                .ok_or_else(|| bad(format!("{name} needs the follower's address")))?
                .to_string();
            if name == "promote" {
                Command::Promote { addr }
            } else {
                Command::Resync { addr }
            }
        }
        "fsck" => Command::Fsck {
            dir: a.slot(),
            repair: a.has("--repair"),
            json: a.has("--json"),
        },
        "help" => Command::Help,
        other => unreachable!("table row `{other}` has no builder"),
    })
}

/// Lines of the help text stop before this column.
const WIDTH: usize = 78;

/// Appends `head` and then `words`, each after one space, starting a new
/// line indented to the width of `head` where a word would pass [`WIDTH`].
fn wrap<W: AsRef<str>>(out: &mut String, head: &str, words: impl IntoIterator<Item = W>) {
    let indent = head.chars().count();
    let mut column = indent;
    out.push_str(head);
    for word in words {
        let word = word.as_ref();
        let width = 1 + word.chars().count();
        if column > indent && column + width > WIDTH {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
            column = indent;
        }
        out.push(' ');
        out.push_str(word);
        column += width;
    }
    out.push('\n');
}

/// The help text (what `mube help` prints), rendered from `COMMANDS`.
pub fn usage() -> String {
    let mut out = String::from(
        "mube — user-guided source selection and schema mediation (µBE, ICDE 2007)\n\nUSAGE:\n",
    );
    for spec in COMMANDS {
        let slot = match spec.slot {
            Slot::None => None,
            Slot::Required(what) => Some(what.to_string()),
            Slot::Optional(what) => Some(format!("[{what}]")),
        };
        let words = slot.into_iter().chain(spec.flags().map(Flag::synopsis));
        wrap(&mut out, &format!("    mube {}", spec.name), words);
    }
    out.push_str("\nCOMMANDS:\n");
    for spec in COMMANDS {
        let head = format!("    {:<12}", spec.name);
        wrap(&mut out, &head, spec.about.split_whitespace());
    }
    out.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, CliError> {
        parse(args)
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn gen_defaults_and_flags() {
        let c = p(&["gen", "--out", "x.cat"]).unwrap();
        assert_eq!(
            c,
            Command::Gen {
                sources: 60,
                seed: 2007,
                domain: DomainKind::Books,
                paper_scale: false,
                out: "x.cat".into()
            }
        );
        let c = p(&[
            "gen",
            "--sources",
            "10",
            "--seed",
            "5",
            "--domain",
            "movies",
            "--paper-scale",
            "--out",
            "m.cat",
        ])
        .unwrap();
        assert!(matches!(
            c,
            Command::Gen {
                sources: 10,
                seed: 5,
                domain: DomainKind::Movies,
                paper_scale: true,
                ..
            }
        ));
    }

    #[test]
    fn gen_requires_out() {
        assert!(p(&["gen", "--sources", "3"]).is_err());
        assert!(p(&["gen", "--sources"]).is_err());
        assert!(p(&["gen", "--domain", "poetry", "--out", "x"]).is_err());
    }

    #[test]
    fn validate_takes_exactly_one_file() {
        assert_eq!(
            p(&["validate", "a.cat"]).unwrap(),
            Command::Validate {
                file: "a.cat".into()
            }
        );
        assert!(p(&["validate"]).is_err());
        assert!(p(&["validate", "a", "b"]).is_err());
    }

    #[test]
    fn match_parses_sources_list() {
        let c = p(&["match", "a.cat", "--theta", "0.5", "--sources", "x, y,z"]).unwrap();
        assert_eq!(
            c,
            Command::Match {
                file: "a.cat".into(),
                theta: 0.5,
                sources: vec!["x".into(), "y".into(), "z".into()]
            }
        );
    }

    #[test]
    fn solve_full_flags() {
        let c = p(&[
            "solve",
            "a.cat",
            "--max",
            "5",
            "--theta",
            "0.4",
            "--beta",
            "3",
            "--seed",
            "9",
            "--solver",
            "annealing",
            "--pin",
            "s1",
            "--pin",
            "s2",
            "--weight",
            "coverage=0.4",
            "--explain",
        ])
        .unwrap();
        match c {
            Command::Solve {
                max,
                theta,
                beta,
                seed,
                solver,
                pins,
                weights,
                explain,
                ..
            } => {
                assert_eq!(max, 5);
                assert_eq!(theta, 0.4);
                assert_eq!(beta, 3);
                assert_eq!(seed, 9);
                assert_eq!(solver, "annealing");
                assert_eq!(pins, vec!["s1", "s2"]);
                assert_eq!(weights, vec![("coverage".to_string(), 0.4)]);
                assert!(explain);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_defaults_and_flags() {
        let c = p(&["lint", "a.cat"]).unwrap();
        assert_eq!(
            c,
            Command::Lint {
                file: "a.cat".into(),
                max: None,
                theta: 0.75,
                beta: 2,
                pins: vec![],
                weights: vec![],
                scale_threshold: None,
                deny_warnings: false,
                json: false,
            }
        );
        let c = p(&[
            "lint",
            "a.cat",
            "--max",
            "4",
            "--theta",
            "0.5",
            "--beta",
            "3",
            "--pin",
            "s1",
            "--weight",
            "coverage=0.4",
            "--deny-warnings",
            "--json",
        ])
        .unwrap();
        match c {
            Command::Lint {
                max,
                theta,
                beta,
                pins,
                weights,
                deny_warnings,
                json,
                ..
            } => {
                assert_eq!(max, Some(4));
                assert_eq!(theta, 0.5);
                assert_eq!(beta, 3);
                assert_eq!(pins, vec!["s1"]);
                assert_eq!(weights, vec![("coverage".to_string(), 0.4)]);
                assert!(deny_warnings && json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_rejects_bad_input() {
        assert!(p(&["lint"]).is_err());
        assert!(p(&["lint", "a.cat", "--max", "many"]).is_err());
        assert!(p(&["lint", "a.cat", "--warn-deny"]).is_err());
        assert!(p(&["lint", "a.cat", "--weight", "coverage"]).is_err());
        assert!(p(&["lint", "a.cat", "--scale-threshold", "huge"]).is_err());
    }

    #[test]
    fn lint_scale_threshold_flag() {
        match p(&["lint", "a.cat", "--scale-threshold", "5000"]).unwrap() {
            Command::Lint {
                scale_threshold, ..
            } => assert_eq!(scale_threshold, Some(5000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_solve_defaults_and_flags() {
        match p(&["scale-solve"]).unwrap() {
            Command::ScaleSolve {
                sources,
                budget_ms,
                max,
                theta,
                beta,
                top_k,
                seed,
                keywords,
                pins,
                solver,
                portfolio,
                json,
                ..
            } => {
                assert_eq!(sources, 100_000);
                assert_eq!(budget_ms, None);
                assert_eq!(max, 10);
                assert_eq!(theta, 0.75);
                assert_eq!(beta, 2);
                assert_eq!(top_k, 1_500);
                assert_eq!(seed, 2007);
                assert!(keywords.is_empty() && pins.is_empty());
                assert_eq!(solver, "tabu");
                assert_eq!(portfolio, None);
                assert!(!json);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "scale-solve",
            "--sources",
            "100000",
            "--budget",
            "60000",
            "--domain",
            "movies",
            "--max",
            "6",
            "--theta",
            "0.4",
            "--beta",
            "3",
            "--top-k",
            "800",
            "--seed",
            "9",
            "--keyword",
            "title",
            "--keyword",
            "director",
            "--pin",
            "site0042",
            "--threads",
            "4",
            "--json",
        ])
        .unwrap()
        {
            Command::ScaleSolve {
                sources,
                budget_ms,
                domain,
                max,
                theta,
                beta,
                top_k,
                seed,
                keywords,
                pins,
                threads,
                portfolio,
                json,
                ..
            } => {
                assert_eq!(sources, 100_000);
                assert_eq!(budget_ms, Some(60_000));
                assert_eq!(domain, DomainKind::Movies);
                assert_eq!(max, 6);
                assert_eq!(theta, 0.4);
                assert_eq!(beta, 3);
                assert_eq!(top_k, 800);
                assert_eq!(seed, 9);
                assert_eq!(keywords, vec!["title", "director"]);
                assert_eq!(pins, vec!["site0042"]);
                assert_eq!(threads, 4);
                // --threads engages the default portfolio mix.
                assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal,pso"));
                assert!(json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_solve_rejects_bad_input() {
        assert!(p(&["scale-solve", "--sources", "0"]).is_err());
        assert!(p(&["scale-solve", "--top-k", "0"]).is_err());
        assert!(p(&["scale-solve", "--budget", "soon"]).is_err());
        assert!(p(&["scale-solve", "--solver", "oracle"]).is_err());
        assert!(p(&["scale-solve", "--threads", "0"]).is_err());
        assert!(p(&["scale-solve", "--out", "x"]).is_err());
    }

    #[test]
    fn solve_rejects_bad_input() {
        assert!(p(&["solve"]).is_err());
        assert!(p(&["solve", "a.cat", "--solver", "gradient-descent"]).is_err());
        assert!(p(&["solve", "a.cat", "--weight", "coverage"]).is_err());
        assert!(p(&["solve", "a.cat", "--max", "many"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
    }

    #[test]
    fn solve_portfolio_flags() {
        // Plain solve: no portfolio.
        match p(&["solve", "a.cat"]).unwrap() {
            Command::Solve {
                threads,
                portfolio,
                restarts,
                ..
            } => {
                assert_eq!(threads, 1);
                assert_eq!(portfolio, None);
                assert_eq!(restarts, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --threads alone engages the default portfolio, even at 1 thread.
        for t in ["1", "8"] {
            match p(&["solve", "a.cat", "--threads", t]).unwrap() {
                Command::Solve {
                    threads, portfolio, ..
                } => {
                    assert_eq!(threads, t.parse::<usize>().unwrap());
                    assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal,pso"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match p(&[
            "solve",
            "a.cat",
            "--threads",
            "4",
            "--portfolio",
            "tabu,sls,anneal",
            "--restarts",
            "2",
        ])
        .unwrap()
        {
            Command::Solve {
                threads,
                portfolio,
                restarts,
                ..
            } => {
                assert_eq!(threads, 4);
                assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal"));
                assert_eq!(restarts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["solve", "a.cat", "--threads", "0"]).is_err());
        assert!(p(&["solve", "a.cat", "--restarts", "0"]).is_err());
        assert!(p(&["solve", "a.cat", "--portfolio", "tabu,genetic"]).is_err());
        assert!(p(&["solve", "a.cat", "--portfolio", ""]).is_err());
    }

    #[test]
    fn solve_json_flag() {
        match p(&["solve", "a.cat", "--json"]).unwrap() {
            Command::Solve { json, explain, .. } => {
                assert!(json);
                assert!(!explain);
            }
            other => panic!("unexpected {other:?}"),
        }
        // JSON output and the text explanation cannot be combined.
        assert!(p(&["solve", "a.cat", "--json", "--explain"]).is_err());
    }

    #[test]
    fn exec_defaults_and_flags() {
        match p(&["exec"]).unwrap() {
            Command::Exec {
                sources,
                seed,
                max,
                faults,
                fault_seed,
                query,
                json,
                resolve,
                ..
            } => {
                assert_eq!(sources, 40);
                assert_eq!(seed, 2007);
                assert_eq!(max, 8);
                assert_eq!(faults, None);
                assert_eq!(fault_seed, 1);
                assert_eq!(query, (0, u64::MAX));
                assert!(!json && !resolve);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "exec",
            "--sources",
            "30",
            "--faults",
            "rate=0.3",
            "--fault-seed",
            "9",
            "--query",
            "100..5000",
            "--json",
        ])
        .unwrap()
        {
            Command::Exec {
                sources,
                faults,
                fault_seed,
                query,
                json,
                ..
            } => {
                assert_eq!(sources, 30);
                assert_eq!(faults.as_deref(), Some("rate=0.3"));
                assert_eq!(fault_seed, 9);
                assert_eq!(query, (100, 5000));
                assert!(json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exec_rejects_bad_input() {
        assert!(p(&["exec", "--query", "backwards"]).is_err());
        assert!(p(&["exec", "--query", "9..3"]).is_err());
        assert!(p(&["exec", "--solver", "oracle"]).is_err());
        assert!(p(&["exec", "--json", "--resolve"]).is_err());
        assert!(p(&["exec", "--fault-seed", "soon"]).is_err());
    }

    #[test]
    fn lint_src_defaults_and_flags() {
        assert_eq!(
            p(&["lint-src"]).unwrap(),
            Command::LintSrc {
                root: ".".into(),
                deny: false,
                json: false,
                allowlist: None,
            }
        );
        assert_eq!(
            p(&[
                "lint-src",
                "/repo",
                "--deny",
                "--json",
                "--allowlist",
                "custom.allow"
            ])
            .unwrap(),
            Command::LintSrc {
                root: "/repo".into(),
                deny: true,
                json: true,
                allowlist: Some("custom.allow".into()),
            }
        );
        // One positional root at most; unknown flags rejected.
        assert!(p(&["lint-src", "a", "b"]).is_err());
        assert!(p(&["lint-src", "--deny-warnings"]).is_err());
        assert!(p(&["lint-src", "--allowlist"]).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            p(&["serve"]).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7207".into(),
                threads: 4,
                data_dir: None,
                fsync: mube_serve::FsyncPolicy::default(),
                follow: None,
                repl_addr: None,
                repl_sync: false,
                promote_timeout: None,
                scrub_interval: None,
                quarantine_keep: None,
            }
        );
        assert_eq!(
            p(&["serve", "--addr", "0.0.0.0:8080", "--threads", "8"]).unwrap(),
            Command::Serve {
                addr: "0.0.0.0:8080".into(),
                threads: 8,
                data_dir: None,
                fsync: mube_serve::FsyncPolicy::default(),
                follow: None,
                repl_addr: None,
                repl_sync: false,
                promote_timeout: None,
                scrub_interval: None,
                quarantine_keep: None,
            }
        );
        assert!(p(&["serve", "--threads", "0"]).is_err());
        assert!(p(&["serve", "--port", "80"]).is_err());
    }

    #[test]
    fn serve_persistence_flags() {
        let cmd = p(&["serve", "--data-dir", "/tmp/mube", "--fsync", "always"]).unwrap();
        match cmd {
            Command::Serve {
                data_dir, fsync, ..
            } => {
                assert_eq!(data_dir.as_deref(), Some("/tmp/mube"));
                assert_eq!(fsync, mube_serve::FsyncPolicy::Always);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&["serve", "--fsync", "interval:50"]).unwrap() {
            Command::Serve { fsync, .. } => assert_eq!(
                fsync,
                mube_serve::FsyncPolicy::Interval(std::time::Duration::from_millis(50))
            ),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["serve", "--fsync", "sometimes"]).is_err());
        assert!(p(&["serve", "--data-dir"]).is_err());
    }

    #[test]
    fn serve_replication_flags() {
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/f",
            "--follow",
            "127.0.0.1:9000",
            "--repl-sync",
            "--promote-timeout",
            "1500",
        ])
        .unwrap()
        {
            Command::Serve {
                follow,
                repl_sync,
                promote_timeout,
                ..
            } => {
                assert_eq!(follow.as_deref(), Some("127.0.0.1:9000"));
                assert!(repl_sync);
                assert_eq!(
                    promote_timeout,
                    Some(std::time::Duration::from_millis(1500))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/l",
            "--repl-addr",
            "127.0.0.1:0",
        ])
        .unwrap()
        {
            Command::Serve { repl_addr, .. } => {
                assert_eq!(repl_addr.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Replication without a journal has nothing to ship or replay.
        assert!(p(&["serve", "--follow", "x:1"]).is_err());
        assert!(p(&["serve", "--repl-addr", "x:1"]).is_err());
        // Auto-promotion is a follower concept.
        assert!(p(&["serve", "--data-dir", "/tmp/l", "--promote-timeout", "500"]).is_err());
        assert!(p(&[
            "serve",
            "--data-dir",
            "/tmp/f",
            "--follow",
            "x:1",
            "--promote-timeout",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn serve_integrity_flags() {
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/s",
            "--scrub-interval",
            "250",
            "--quarantine-keep",
            "3",
        ])
        .unwrap()
        {
            Command::Serve {
                scrub_interval,
                quarantine_keep,
                ..
            } => {
                assert_eq!(scrub_interval, Some(std::time::Duration::from_millis(250)));
                assert_eq!(quarantine_keep, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero disables the scrubber rather than erroring.
        match p(&["serve", "--data-dir", "/tmp/s", "--scrub-interval", "0"]).unwrap() {
            Command::Serve { scrub_interval, .. } => {
                assert_eq!(scrub_interval, Some(std::time::Duration::ZERO));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Integrity flags act on a journal; without one they are a typo.
        assert!(p(&["serve", "--scrub-interval", "250"]).is_err());
        assert!(p(&["serve", "--quarantine-keep", "3"]).is_err());
        assert!(p(&["serve", "--data-dir", "/tmp/s", "--quarantine-keep", "x"]).is_err());
    }

    #[test]
    fn fsck_parses_dir_and_flags() {
        assert_eq!(
            p(&["fsck", "/tmp/data"]).unwrap(),
            Command::Fsck {
                dir: "/tmp/data".into(),
                repair: false,
                json: false,
            }
        );
        assert_eq!(
            p(&["fsck", "/tmp/data", "--repair", "--json"]).unwrap(),
            Command::Fsck {
                dir: "/tmp/data".into(),
                repair: true,
                json: true,
            }
        );
        assert!(p(&["fsck"]).is_err());
        assert!(p(&["fsck", "/tmp/data", "--bogus"]).is_err());
    }

    #[test]
    fn resync_parses_addr() {
        assert_eq!(
            p(&["resync", "127.0.0.1:7208"]).unwrap(),
            Command::Resync {
                addr: "127.0.0.1:7208".into()
            }
        );
        assert_eq!(
            p(&["resync", "--addr", "10.0.0.2:80"]).unwrap(),
            Command::Resync {
                addr: "10.0.0.2:80".into()
            }
        );
        assert!(p(&["resync"]).is_err());
        assert!(p(&["resync", "--bogus", "x"]).is_err());
    }

    #[test]
    fn promote_parses_addr() {
        assert_eq!(
            p(&["promote", "127.0.0.1:7207"]).unwrap(),
            Command::Promote {
                addr: "127.0.0.1:7207".into()
            }
        );
        assert_eq!(
            p(&["promote", "--addr", "10.0.0.2:80"]).unwrap(),
            Command::Promote {
                addr: "10.0.0.2:80".into()
            }
        );
        assert!(p(&["promote"]).is_err());
        assert!(p(&["promote", "--bogus", "x"]).is_err());
    }

    #[test]
    fn solve_time_budget_flag() {
        match p(&["solve", "cat.catalog", "--time-budget", "250"]).unwrap() {
            Command::Solve { time_budget_ms, .. } => assert_eq!(time_budget_ms, Some(250)),
            other => panic!("unexpected {other:?}"),
        }
        match p(&["solve", "cat.catalog"]).unwrap() {
            Command::Solve { time_budget_ms, .. } => assert_eq!(time_budget_ms, None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["solve", "cat.catalog", "--time-budget", "soon"]).is_err());
        assert!(p(&["solve", "cat.catalog", "--time-budget"]).is_err());
    }

    #[test]
    fn zero_sizes_are_usage_errors() {
        for argv in [
            &["gen", "--sources", "0", "--out", "x.cat"][..],
            &["exec", "--sources", "0"],
            &["scale-solve", "--max", "0"],
            &["exec", "--max", "0"],
            &["solve", "a.cat", "--max", "0"],
        ] {
            let flag = argv.iter().find(|a| a.starts_with("--")).expect("a flag");
            assert_eq!(
                p(argv),
                Err(CliError::Usage(format!("{flag} must be at least 1"))),
                "{argv:?}"
            );
        }
        // `lint --max 0` stays legal: it is how MUBE010 is reported.
        assert!(matches!(
            p(&["lint", "a.cat", "--max", "0"]),
            Ok(Command::Lint { max: Some(0), .. })
        ));
    }

    #[test]
    fn positional_may_come_after_flags() {
        assert_eq!(
            p(&["match", "--theta", "0.5", "a.cat"]).unwrap(),
            Command::Match {
                file: "a.cat".into(),
                theta: 0.5,
                sources: vec![]
            }
        );
        match p(&["solve", "--max", "3", "--json", "a.cat", "--seed", "4"]).unwrap() {
            Command::Solve {
                file,
                max,
                seed,
                json,
                ..
            } => assert_eq!((file.as_str(), max, seed, json), ("a.cat", 3, 4, true)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            p(&["lint", "--deny-warnings", "a.cat"]).unwrap(),
            Command::Lint { file, deny_warnings: true, .. } if file == "a.cat"
        ));
        assert!(matches!(
            p(&["lint-src", "--deny", "/repo"]).unwrap(),
            Command::LintSrc { root, deny: true, .. } if root == "/repo"
        ));
        // A flag value is never the positional, even when it looks like one.
        assert!(matches!(
            p(&["match", "a.cat", "--theta", "-1"]).unwrap(),
            Command::Match { theta, .. } if theta == -1.0
        ));
        // Anything else starting with `-` is a flag, and one slot is all
        // there is.
        assert!(matches!(p(&["lint-src", "-x"]), Err(CliError::Usage(_))));
        assert!(matches!(p(&["match", "a", "b"]), Err(CliError::Usage(_))));
        assert!(matches!(
            p(&["promote", "--addr", "h:1", "h:2", "h:3"]),
            Err(CliError::Usage(_))
        ));
    }

    /// The help text of one row: its usage line(s) in the USAGE section.
    fn usage_entry(help: &str, name: &str) -> String {
        let start = help
            .find(&format!("    mube {name}\n"))
            .or_else(|| help.find(&format!("    mube {name} ")))
            .unwrap_or_else(|| panic!("help does not list `mube {name}`"));
        let rest = &help[start + 4..];
        let end = rest
            .find("\n    mube ")
            .or_else(|| rest.find("\n\n"))
            .unwrap_or(rest.len());
        rest[..end].to_string()
    }

    #[test]
    fn table_help_and_scanner_agree() {
        let help = usage();
        for spec in COMMANDS {
            let entry = usage_entry(&help, spec.name);
            assert!(
                help.contains(&format!("\n    {:<12} ", spec.name)),
                "{help}"
            );
            // The smallest valid command line builds, and with it every
            // getter runs: one reading an undeclared flag panics.
            let mut argv = vec![spec.name];
            if !matches!(spec.slot, Slot::None) {
                argv.push("x");
            }
            for flag in spec.flags().filter(|f| f.arity == Arity::Required) {
                argv.extend([flag.name, "x"]);
            }
            if let Err(e) = p(&argv) {
                panic!("{argv:?}: {e}");
            }
            for flag in spec.flags() {
                assert!(entry.contains(&flag.synopsis()), "{entry}");
                if flag.arity != Arity::Switch {
                    assert!(
                        matches!(p(&[spec.name, flag.name]), Err(CliError::Usage(_))),
                        "{} {} without a value",
                        spec.name,
                        flag.name
                    );
                }
            }
            assert!(
                matches!(p(&[spec.name, "--bogus"]), Err(CliError::Usage(_))),
                "{} --bogus",
                spec.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_flag_panics() {
        let spec = COMMANDS
            .iter()
            .find(|s| s.name == "fsck")
            .expect("fsck row");
        let args = scan(spec, &["/tmp/d"]).expect("scans");
        args.has("--max");
    }
}
