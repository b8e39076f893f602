//! Command implementations. Each returns the text to print, so the
//! commands are unit-testable without capturing stdout.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use mube_audit::Analyzer;
use mube_core::catalog;
use mube_core::constraints::Constraints;
use mube_core::diag::{DiagCode, Diagnostic};
use mube_core::matchop::{MatchOperator, MatchOutcome};
use mube_core::problem::Problem;
use mube_core::qefs::{default_qefs, paper_default_qefs};
use mube_core::source::Universe;
use mube_core::{explain, MubeError, SourceId};
use mube_match::similarity::JaccardNGram;
use mube_match::ClusterMatcher;
use mube_opt::{CancelToken, SolverChoice, Start, DEFAULT_MAX_EVALUATIONS};
use mube_synth::{generate, DomainKind, SynthConfig};

use crate::args::Command;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; print usage.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Engine error (bad catalog, conflicting constraints, ...).
    Engine(MubeError),
    /// `mube lint` found problems; carries the rendered report. The binary
    /// prints it to stdout and exits with a distinct code.
    Lint(String),
}

impl PartialEq for CliError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CliError::Usage(a), CliError::Usage(b)) => a == b,
            (CliError::Engine(a), CliError::Engine(b)) => a == b,
            (CliError::Io(a), CliError::Io(b)) => a.kind() == b.kind(),
            (CliError::Lint(a), CliError::Lint(b)) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(detail) => write!(f, "usage error: {detail}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Lint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<MubeError> for CliError {
    fn from(e: MubeError) -> Self {
        CliError::Engine(e)
    }
}

/// Executes a parsed command and returns its output text.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(crate::usage()),
        Command::Gen {
            sources,
            seed,
            domain,
            paper_scale,
            out,
        } => {
            let mut config = if paper_scale {
                SynthConfig::paper(sources)
            } else {
                SynthConfig::small(sources)
            };
            config.schema.domain = domain;
            let synth = generate(&config, seed);
            let text = catalog::to_text(&synth.universe);
            std::fs::write(&out, &text)?;
            Ok(format!(
                "wrote {} sources ({} attributes, {} tuples) to {out}",
                synth.universe.len(),
                synth.universe.total_attrs(),
                synth.universe.total_cardinality(),
            ))
        }
        Command::Validate { file } => {
            let universe = load(&file)?;
            let mut out = String::new();
            writeln!(
                out,
                "{}: {} sources, {} attributes, {} total tuples",
                file,
                universe.len(),
                universe.total_attrs(),
                universe.total_cardinality()
            )
            .expect("string write");
            let cooperating = universe.sources().filter(|s| s.cooperates()).count();
            writeln!(out, "cooperating (signature + cardinality): {cooperating}")
                .expect("string write");
            for source in universe.sources() {
                writeln!(
                    out,
                    "  {} — {} attrs, {} tuples{}",
                    source.name(),
                    source.schema().len(),
                    source.cardinality(),
                    if source.cooperates() {
                        ""
                    } else {
                        " (no signature)"
                    }
                )
                .expect("string write");
            }
            Ok(out)
        }
        Command::Match {
            file,
            theta,
            sources,
        } => {
            let universe = Arc::new(load(&file)?);
            let selected = if sources.is_empty() {
                universe.source_ids().collect()
            } else {
                resolve_sources(&universe, &sources)?
            };
            let matcher = ClusterMatcher::new(Arc::clone(&universe), JaccardNGram::trigram());
            let constraints = Constraints::with_max_sources(universe.len()).theta(theta);
            constraints.validate(&universe)?;
            match matcher.match_sources(&universe, &selected, &constraints) {
                MatchOutcome::Matched { schema, quality } => Ok(format!(
                    "matching quality F1 = {quality:.4}, {} GAs over {} sources:\n{}",
                    schema.len(),
                    selected.len(),
                    schema.display(&universe)
                )),
                MatchOutcome::Infeasible => Err(CliError::Engine(MubeError::ConstraintConflict {
                    detail: "no matching satisfies the threshold on these sources".into(),
                })),
            }
        }
        Command::Solve {
            file,
            max,
            theta,
            beta,
            seed,
            solver,
            threads,
            portfolio,
            restarts,
            time_budget_ms,
            pins,
            weights,
            explain: want_explain,
            json,
        } => {
            let universe = Arc::new(load(&file)?);
            let mut constraints = Constraints::with_max_sources(max).theta(theta).beta(beta);
            constraints.required_sources = resolve_sources(&universe, &pins)?;
            let mut qefs = default_qefs(&universe);
            for (name, weight) in &weights {
                qefs = qefs.reweighted(name, *weight)?;
            }
            let matcher: Arc<dyn MatchOperator> = Arc::new(ClusterMatcher::new(
                Arc::clone(&universe),
                JaccardNGram::trigram(),
            ));
            let problem = Problem::new(Arc::clone(&universe), matcher, qefs, constraints)?;
            let solver = SolverChoice {
                solver,
                portfolio,
                restarts,
                threads,
            }
            .build(DEFAULT_MAX_EVALUATIONS)
            .map_err(CliError::Usage)?;
            let cancel = match time_budget_ms {
                Some(ms) => CancelToken::after(std::time::Duration::from_millis(ms)),
                None => CancelToken::none(),
            };
            let solution = problem.solve_with(solver.as_ref(), seed, Start::Cold, &cancel)?;
            if json {
                return Ok(solution.to_json(&universe));
            }
            let mut out = String::new();
            if solution.timed_out {
                writeln!(
                    out,
                    "(time budget hit: best solution found within {}ms)",
                    time_budget_ms.unwrap_or(0)
                )
                .expect("string write");
            }
            write!(out, "{}", solution.display(&universe)).expect("string write");
            if want_explain {
                writeln!(out, "Why each source (leave-one-out ΔQ):").expect("string write");
                let explanation = explain::explain(&problem, &solution);
                write!(out, "{}", explanation.display(&universe)).expect("string write");
            }
            Ok(out)
        }
        Command::Exec {
            sources,
            seed,
            domain,
            max,
            theta,
            beta,
            solver,
            faults,
            fault_seed,
            query,
            json,
            resolve,
        } => exec_command(
            sources,
            seed,
            domain,
            max,
            theta,
            beta,
            &solver,
            faults.as_deref(),
            fault_seed,
            query,
            json,
            resolve,
        ),
        Command::Serve {
            addr,
            threads,
            data_dir,
            fsync,
            follow,
            repl_addr,
            repl_sync,
            promote_timeout,
            scrub_interval,
            quarantine_keep,
        } => {
            let defaults = mube_serve::ServeConfig::default();
            let config = mube_serve::ServeConfig {
                addr,
                threads,
                data_dir,
                fsync,
                follow,
                repl_addr,
                repl_sync,
                promote_timeout: promote_timeout.unwrap_or(std::time::Duration::ZERO),
                scrub_interval: scrub_interval.unwrap_or(defaults.scrub_interval),
                quarantine_keep: quarantine_keep.unwrap_or(defaults.quarantine_keep),
                ..defaults
            };
            let server = mube_serve::Server::bind(config)?;
            let bound = server.local_addr()?;
            // Print the resolved address before blocking so scripts binding
            // port 0 can pick it up. The first line's shape is a contract
            // (tests parse it); replication details go on a second line.
            println!("mube-serve listening on http://{bound} ({threads} worker threads)");
            if let Some(repl) = server.repl_addr() {
                println!("mube-serve replication on {repl}");
            }
            server.run()?;
            Ok(String::new())
        }
        Command::Promote { addr } => promote_command(&addr),
        Command::Resync { addr } => resync_command(&addr),
        Command::Fsck { dir, repair, json } => fsck_command(&dir, repair, json),
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
            solver,
            threads,
            portfolio,
            restarts,
            json,
        } => {
            use mube_scale::{scale_solve, ScaleOptions, SynthStream};
            use mube_synth::StreamingUniverse;

            let mut config = SynthConfig::scale(sources);
            config.schema.domain = domain;
            let stream = SynthStream::new(StreamingUniverse::new(config, seed));

            let mut opts = ScaleOptions::new(max);
            opts.top_k = top_k;
            opts.theta = theta;
            opts.beta = beta;
            opts.seed = seed;
            opts.pins = pins;
            opts.query.keywords = keywords;
            opts.query.prefer_characteristics = vec!["mttf".to_string()];
            // Blocking is byte-deterministic in the thread count, so the
            // portfolio's --threads safely accelerates the sketches too.
            opts.lsh_threads = threads;

            let solver = SolverChoice {
                solver,
                portfolio,
                restarts,
                threads,
            }
            .build(DEFAULT_MAX_EVALUATIONS)
            .map_err(CliError::Usage)?;
            let cancel = match budget_ms {
                Some(ms) => CancelToken::after(std::time::Duration::from_millis(ms)),
                None => CancelToken::none(),
            };
            let report = scale_solve(&stream, &opts, solver.as_ref(), &cancel)?;

            if json {
                let clusters: Vec<String> = report
                    .selected_clusters
                    .iter()
                    .map(|c| format!("\"{c}\""))
                    .collect();
                return Ok(format!(
                    "{{\"catalog_sources\":{},\"survivors\":{},\"clusters\":{},\
                     \"selected_clusters\":[{}],\"expanded\":{},\"coarse_quality\":{:.6},\
                     \"solution\":{}}}",
                    report.catalog_sources,
                    report.survivors,
                    report.clusters,
                    clusters.join(","),
                    report.expanded,
                    report.coarse_quality,
                    report.solution.to_json(&report.universe),
                ));
            }
            let mut out = String::new();
            writeln!(
                out,
                "scale-solve: {} sources → {} survivors → {} clusters",
                report.catalog_sources, report.survivors, report.clusters
            )
            .expect("string write");
            writeln!(
                out,
                "coarse: selected {} cluster{} (objective {:.4}): {}",
                report.selected_clusters.len(),
                if report.selected_clusters.len() == 1 {
                    ""
                } else {
                    "s"
                },
                report.coarse_quality,
                report.selected_clusters.join(", "),
            )
            .expect("string write");
            writeln!(out, "fine: expanded {} member sources", report.expanded)
                .expect("string write");
            if report.solution.timed_out {
                writeln!(
                    out,
                    "(time budget hit: best solution found within {}ms)",
                    budget_ms.unwrap_or(0)
                )
                .expect("string write");
            }
            write!(out, "{}", report.solution.display(&report.universe)).expect("string write");
            Ok(out)
        }
        Command::Lint {
            file,
            max,
            theta,
            beta,
            pins,
            weights,
            scale_threshold,
            deny_warnings,
            json,
        } => {
            let universe = load(&file)?;
            let mut constraints =
                Constraints::with_max_sources(max.unwrap_or_else(|| universe.len()))
                    .theta(theta)
                    .beta(beta);

            // Names that fail to resolve never become ids the analyzer
            // could inspect, so synthesize their diagnostics here.
            let mut unresolved: Vec<Diagnostic> = Vec::new();
            for pin in &pins {
                match universe.source_by_name(pin) {
                    Some(s) => {
                        constraints.required_sources.insert(s.id());
                    }
                    None => unresolved.push(Diagnostic::new(
                        DiagCode::UnknownRequiredSource,
                        format!("pinned source `{pin}` is not in the catalog"),
                    )),
                }
            }
            let qefs = default_qefs(&universe);
            for (name, _) in &weights {
                if !qefs.iter().any(|(q, _)| q.name() == name) {
                    unresolved.push(Diagnostic::new(
                        DiagCode::InvalidQefWeight,
                        format!("`{name}` does not name a QEF in this problem"),
                    ));
                }
            }

            let measure = JaccardNGram::trigram();
            let mut analyzer = Analyzer::new(&universe)
                .constraints(&constraints)
                .raw_weights(&weights)
                .similarity(&measure);
            if let Some(threshold) = scale_threshold {
                analyzer = analyzer.scale_threshold(threshold);
            }
            let mut report = analyzer.run();
            for diagnostic in unresolved {
                report.push(diagnostic);
            }

            let rendered = if json {
                report.to_json(&universe)
            } else {
                report.display(&universe)
            };
            let failed = report.has_errors() || (deny_warnings && !report.is_clean());
            if failed {
                Err(CliError::Lint(rendered))
            } else {
                Ok(rendered)
            }
        }
        Command::LintSrc {
            root,
            deny,
            json,
            allowlist,
        } => {
            use mube_check::lint;

            let root_path = std::path::Path::new(&root);
            // An explicit --allowlist must exist; the conventional
            // ROOT/lint-src.allow is picked up only when present.
            let allow_path = match allowlist {
                Some(p) => Some(std::path::PathBuf::from(p)),
                None => {
                    let conventional = root_path.join("lint-src.allow");
                    conventional.exists().then_some(conventional)
                }
            };
            let allow = match &allow_path {
                Some(p) => {
                    let text = std::fs::read_to_string(p)?;
                    lint::parse_allowlist(&text)
                        .map_err(|e| CliError::Usage(format!("{}: {e}", p.display())))?
                }
                None => Vec::new(),
            };
            let findings = lint::lint_workspace(root_path, &allow)?;
            let rendered = if json {
                lint::to_json(&findings)
            } else {
                lint::render(&findings)
            };
            let failed = findings.iter().any(|f| f.severity == lint::Severity::Error)
                || (deny && !findings.is_empty());
            if failed {
                Err(CliError::Lint(rendered))
            } else {
                Ok(rendered)
            }
        }
    }
}

/// POSTs an empty body to an admin path on a running server and returns
/// `(status, body)`. A tiny hand-rolled HTTP client (the workspace takes
/// no dependencies) with connect/read/write timeouts throughout.
fn admin_post(addr: &str, path: &str) -> Result<(u16, String), CliError> {
    use std::io::{Read as _, Write as _};
    use std::net::{TcpStream, ToSocketAddrs};
    use std::time::Duration;

    let target = addr
        .to_socket_addrs()
        .map_err(CliError::Io)?
        .next()
        .ok_or_else(|| CliError::Usage(format!("`{addr}` resolves to no address")))?;
    // deadline: every socket operation below is bounded.
    let stream =
        TcpStream::connect_timeout(&target, Duration::from_secs(5)).map_err(CliError::Io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(CliError::Io)?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(CliError::Io)?;
    let mut stream = stream;
    stream
        .write_all(
            format!("POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(CliError::Io)?;
    let mut response = String::new();
    // deadline: bounded by the read timeout above; the server closes
    // after one response.
    stream.read_to_string(&mut response).map_err(CliError::Io)?;
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CliError::Usage(format!("`{addr}` returned a non-HTTP response")))?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// `mube promote`: POST `/admin/promote` to a follower and relay the
/// response.
fn promote_command(addr: &str) -> Result<String, CliError> {
    let (status, body) = admin_post(addr, "/admin/promote")?;
    if status == 200 {
        Ok(format!("promoted: {body}\n"))
    } else {
        Err(CliError::Usage(format!(
            "promotion refused (HTTP {status}): {body}"
        )))
    }
}

/// `mube resync`: POST `/admin/resync` to a follower and relay the
/// response — the anti-entropy road back for a quarantined replica.
fn resync_command(addr: &str) -> Result<String, CliError> {
    let (status, body) = admin_post(addr, "/admin/resync")?;
    if status == 200 {
        Ok(format!("resyncing: {body}\n"))
    } else {
        Err(CliError::Usage(format!(
            "resync refused (HTTP {status}): {body}"
        )))
    }
}

/// `mube fsck`: offline integrity check (and `--repair`) of a data dir.
/// Exits nonzero when the directory is not clean, so scripts can gate a
/// restart on it.
fn fsck_command(dir: &str, repair: bool, json: bool) -> Result<String, CliError> {
    let opts = mube_serve::FsckOptions {
        repair,
        ..mube_serve::FsckOptions::default()
    };
    let report = mube_serve::fsck(std::path::Path::new(dir), &opts).map_err(CliError::Io)?;
    let rendered = if json {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render()
    };
    if report.clean {
        Ok(rendered)
    } else {
        Err(CliError::Lint(rendered))
    }
}

/// `mube exec`: generate a universe, solve, execute a query over the
/// selection (optionally through a fault injector), report the
/// degradation, and — with `--resolve` — close the feedback loop by
/// re-probing and re-solving around the failing sources.
#[allow(clippy::too_many_arguments)] // one per `Command::Exec` field
fn exec_command(
    sources: usize,
    seed: u64,
    domain: DomainKind,
    max: usize,
    theta: f64,
    beta: usize,
    solver: &str,
    faults: Option<&str>,
    fault_seed: u64,
    query: (u64, u64),
    json: bool,
    resolve: bool,
) -> Result<String, CliError> {
    use mube_exec::{
        fault, probe_characteristics, BreakerConfig, Clock, Executor, HealthRegistry, Query,
        RetryPolicy, VirtualClock, WindowBackend,
    };

    let mut config = SynthConfig::small(sources);
    config.schema.domain = domain;
    let synth = generate(&config, seed);
    let universe = Arc::clone(&synth.universe);

    let solve = |universe: &Arc<Universe>, characteristic: &str| -> Result<_, CliError> {
        let constraints = Constraints::with_max_sources(max).theta(theta).beta(beta);
        let qefs = paper_default_qefs(characteristic);
        let matcher: Arc<dyn MatchOperator> = Arc::new(ClusterMatcher::new(
            Arc::clone(universe),
            JaccardNGram::trigram(),
        ));
        let problem = Problem::new(Arc::clone(universe), matcher, qefs, constraints)?;
        let solver = SolverChoice::new(Some(solver), None, None, 1)
            .and_then(|choice| choice.build(DEFAULT_MAX_EVALUATIONS))
            .map_err(CliError::Usage)?;
        Ok(problem.solve(solver.as_ref(), seed)?)
    };
    let solution = solve(&universe, "mttf")?;

    let backend: Box<dyn mube_exec::DataSourceBackend> = match faults {
        None => Box::new(WindowBackend::new(&synth)),
        Some(spec) => Box::new(fault::injector_from_spec(
            WindowBackend::new(&synth),
            &universe,
            spec,
            fault_seed,
        )?),
    };
    let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(
        BreakerConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let executor = Executor::new(Arc::clone(&universe), backend)
        .with_policy(RetryPolicy::default().with_jitter_seed(fault_seed))
        .with_registry(Arc::clone(&registry))
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let report = executor.execute(&solution.sources, &Query::range(query.0, query.1));

    if json {
        return Ok(report.to_json(&universe));
    }

    let name = |s: SourceId| {
        universe
            .get(s)
            .map_or_else(|| s.to_string(), |src| src.name().to_string())
    };
    let mut out = String::new();
    writeln!(
        out,
        "solved: {} sources (quality {:.4}), query [{}, {})",
        solution.sources.len(),
        solution.quality,
        query.0,
        query.1
    )
    .expect("string write");
    writeln!(
        out,
        "answer: {} distinct tuples ({} fetched, {} duplicates) \
         makespan {:.1} ms, total work {:.1} ms",
        report.distinct(),
        report.fetched,
        report.duplicates(),
        report.makespan.as_secs_f64() * 1000.0,
        report.total_cost.as_secs_f64() * 1000.0,
    )
    .expect("string write");
    for f in &report.per_source {
        writeln!(
            out,
            "  {} — {} tuples ({} novel), {} attempt{}, {:.1} ms",
            name(f.source),
            f.fetched,
            f.novel,
            f.attempts,
            if f.attempts == 1 { "" } else { "s" },
            f.cost.as_secs_f64() * 1000.0,
        )
        .expect("string write");
    }
    let degradation = &report.degradation;
    if degradation.is_clean() {
        writeln!(out, "degradation: none (all sources answered cleanly)").expect("string write");
    } else {
        writeln!(
            out,
            "degradation: {} failed, {} degraded; forfeited {} tuples \
             ({:.1}% of selected cardinality), {:.1}% estimated coverage",
            degradation.failed.len(),
            degradation.degraded.len(),
            degradation.lost_cardinality,
            degradation.lost_cardinality_fraction * 100.0,
            degradation.lost_coverage_fraction * 100.0,
        )
        .expect("string write");
        for f in &degradation.failed {
            writeln!(
                out,
                "  FAILED {} — {} after {} attempt{}",
                name(f.source),
                f.error,
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
            )
            .expect("string write");
        }
        for d in &degradation.degraded {
            writeln!(
                out,
                "  DEGRADED {} — kept {} tuples from a {} failure",
                name(d.source),
                d.kept,
                d.error,
            )
            .expect("string write");
        }
    }

    if resolve {
        // The feedback loop: re-probe every source through the same
        // (possibly faulty) backend, then re-solve scoring the *measured*
        // availability instead of the advertised MTTF.
        let refreshed = Arc::new(probe_characteristics(
            &universe,
            executor.backend(),
            mube_exec::probe::DEFAULT_PROBES,
        )?);
        let resolved = solve(&refreshed, "availability")?;
        let dropped: Vec<_> = solution
            .sources
            .difference(&resolved.sources)
            .map(|&s| name(s))
            .collect();
        let added: Vec<_> = resolved
            .sources
            .difference(&solution.sources)
            .map(|&s| name(s))
            .collect();
        writeln!(
            out,
            "re-solve on measured availability: {} sources (quality {:.4})",
            resolved.sources.len(),
            resolved.quality,
        )
        .expect("string write");
        writeln!(
            out,
            "  dropped: {}",
            if dropped.is_empty() {
                "(none)".to_string()
            } else {
                dropped.join(", ")
            }
        )
        .expect("string write");
        writeln!(
            out,
            "  added:   {}",
            if added.is_empty() {
                "(none)".to_string()
            } else {
                added.join(", ")
            }
        )
        .expect("string write");
    }
    Ok(out)
}

fn load(file: &str) -> Result<Universe, CliError> {
    let text = std::fs::read_to_string(file)?;
    Ok(catalog::from_text(&text)?)
}

/// Maps source names to ids; an unknown name is an engine error.
fn resolve_sources(universe: &Universe, names: &[String]) -> Result<BTreeSet<SourceId>, CliError> {
    names
        .iter()
        .map(|name| {
            universe
                .source_by_name(name)
                .map(mube_core::Source::id)
                .ok_or_else(|| {
                    CliError::Engine(MubeError::UnknownSourceName { name: name.clone() })
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mube-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn gen_catalog(name: &str, n: usize) -> String {
        let path = tmp(name);
        let cmd = parse(&["gen", "--sources", &n.to_string(), "--out", &path]).unwrap();
        run(cmd).unwrap();
        path
    }

    #[test]
    fn fsck_reports_clean_and_flags_corruption() {
        let clean = tmp("fsck-clean-dir");
        std::fs::create_dir_all(&clean).expect("fsck dir");
        let out = run(parse(&["fsck", &clean]).unwrap()).unwrap();
        assert!(out.contains("status: clean"), "{out}");

        let bad = tmp("fsck-bad-dir");
        std::fs::create_dir_all(&bad).expect("fsck dir");
        std::fs::write(
            std::path::Path::new(&bad).join("journal.wal"),
            b"this is not a WAL frame",
        )
        .expect("write corrupt journal");
        match run(parse(&["fsck", &bad, "--json"]).unwrap()) {
            Err(CliError::Lint(json)) => {
                assert!(json.contains("\"clean\":false"), "{json}");
                assert!(json.contains("journal.wal"), "{json}");
            }
            other => panic!("expected fsck to fail on corruption, got {other:?}"),
        }
    }

    #[test]
    fn gen_then_validate_roundtrips() {
        let path = gen_catalog("roundtrip.cat", 12);
        let report = run(parse(&["validate", &path]).unwrap()).unwrap();
        assert!(report.contains("12 sources"));
        assert!(report.contains("cooperating (signature + cardinality): 12"));
    }

    #[test]
    fn match_reports_gas() {
        let path = gen_catalog("match.cat", 10);
        let report = run(parse(&["match", &path, "--theta", "0.75"]).unwrap()).unwrap();
        assert!(report.contains("matching quality F1"));
        assert!(report.contains("GA0"));
    }

    #[test]
    fn match_rejects_theta_outside_unit_interval() {
        let path = gen_catalog("match-theta.cat", 6);
        for theta in ["NaN", "5", "inf", "-1"] {
            let err = run(parse(&["match", &path, "--theta", theta]).unwrap()).unwrap_err();
            assert!(
                matches!(err, CliError::Engine(MubeError::InvalidParameter { .. })),
                "theta {theta}: {err:?}"
            );
        }
    }

    #[test]
    fn solve_selects_and_pins() {
        let path = gen_catalog("solve.cat", 15);
        let report = run(parse(&[
            "solve", &path, "--max", "4", "--pin", "site0003", "--seed", "7",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("Overall quality"));
        assert!(report.contains("site0003"));
    }

    #[test]
    fn solve_with_explain_and_weights() {
        let path = gen_catalog("explain.cat", 10);
        let report = run(parse(&[
            "solve",
            &path,
            "--max",
            "3",
            "--weight",
            "coverage=0.5",
            "--explain",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("leave-one-out"));
        assert!(report.contains("ΔQ"));
    }

    #[test]
    fn solve_json_is_machine_readable() {
        let path = gen_catalog("solve-json.cat", 10);
        let out =
            run(parse(&["solve", &path, "--max", "3", "--seed", "7", "--json"]).unwrap()).unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(out.contains("\"quality\":"), "{out}");
        assert!(out.contains("\"qefs\":"), "{out}");
        assert!(out.contains("\"schema\":"), "{out}");
        assert!(!out.contains("Overall quality"), "{out}");
        // Same seed, same document: the JSON output is deterministic.
        let again =
            run(parse(&["solve", &path, "--max", "3", "--seed", "7", "--json"]).unwrap()).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn solve_portfolio_json_is_thread_count_invariant() {
        let path = gen_catalog("solve-portfolio.cat", 12);
        let solve = |threads: &str| {
            run(parse(&[
                "solve",
                &path,
                "--max",
                "4",
                "--seed",
                "7",
                "--threads",
                threads,
                "--json",
            ])
            .unwrap())
            .unwrap()
        };
        let one = solve("1");
        let eight = solve("8");
        assert!(one.starts_with('{') && one.ends_with('}'), "{one}");
        // Determinism contract: thread count only affects scheduling, so
        // the rendered solution is byte-identical.
        assert_eq!(one, eight);
    }

    #[test]
    fn solve_with_explicit_portfolio_and_restarts() {
        let path = gen_catalog("solve-members.cat", 10);
        let report = run(parse(&[
            "solve",
            &path,
            "--max",
            "3",
            "--seed",
            "3",
            "--portfolio",
            "tabu,sls",
            "--restarts",
            "2",
            "--threads",
            "2",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("Overall quality"), "{report}");
    }

    #[test]
    fn solve_rejects_unknown_pin_and_weight() {
        let path = gen_catalog("errs.cat", 5);
        assert!(run(parse(&["solve", &path, "--pin", "ghost"]).unwrap()).is_err());
        assert!(run(parse(&["solve", &path, "--weight", "karma=0.5"]).unwrap()).is_err());
    }

    /// Path to the committed known-infeasible fixture, resolved relative
    /// to the workspace root.
    fn infeasible_fixture() -> String {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/infeasible.catalog"
        )
        .to_string()
    }

    #[test]
    fn scale_solve_end_to_end_text_and_json() {
        let argv = [
            "scale-solve",
            "--sources",
            "300",
            "--top-k",
            "60",
            "--max",
            "4",
            "--theta",
            "0.3",
            "--seed",
            "7",
        ];
        let text = run(parse(&argv).unwrap()).unwrap();
        assert!(text.contains("scale-solve: 300 sources"), "{text}");
        assert!(text.contains("clusters"), "{text}");
        assert!(text.contains("Overall quality"), "{text}");

        let mut json_argv: Vec<&str> = argv.to_vec();
        json_argv.push("--json");
        let json = run(parse(&json_argv).unwrap()).unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"catalog_sources\":300"), "{json}");
        assert!(json.contains("\"selected_clusters\":["), "{json}");
        assert!(json.contains("\"solution\":{"), "{json}");
        // Same seed, same document.
        let again = run(parse(&json_argv).unwrap()).unwrap();
        assert_eq!(json, again);
    }

    #[test]
    fn scale_solve_pins_are_selected() {
        let report = run(parse(&[
            "scale-solve",
            "--sources",
            "300",
            "--top-k",
            "40",
            "--max",
            "4",
            "--theta",
            "0.3",
            "--pin",
            "site0242",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("site0242"), "{report}");
    }

    #[test]
    fn scale_solve_budget_is_anytime() {
        // A 0ms budget is already expired when the solves start; the
        // anytime guarantee still yields a feasible solution.
        let report = run(parse(&[
            "scale-solve",
            "--sources",
            "200",
            "--top-k",
            "40",
            "--max",
            "4",
            "--theta",
            "0.3",
            "--budget",
            "0",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("time budget hit"), "{report}");
        assert!(report.contains("Overall quality"), "{report}");
    }

    #[test]
    fn scale_solve_rejects_unknown_pin() {
        let err = run(parse(&[
            "scale-solve",
            "--sources",
            "50",
            "--top-k",
            "20",
            "--theta",
            "0.3",
            "--pin",
            "ghost",
        ])
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Engine(_)), "{err:?}");
    }

    #[test]
    fn lint_scale_threshold_warns_unpruned() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/unpruned.catalog"
        )
        .to_string();
        // Without a threshold the catalog lints clean...
        let report = run(parse(&["lint", &path]).unwrap()).unwrap();
        assert!(report.contains("no problems found"), "{report}");
        // ...above the threshold MUBE017 fires as a warning...
        let report = run(parse(&["lint", &path, "--scale-threshold", "8"]).unwrap()).unwrap();
        assert!(report.contains("warning[MUBE017]"), "{report}");
        assert!(report.contains("scale-solve"), "{report}");
        assert!(report.contains("0 errors"), "{report}");
        // ...and --deny-warnings promotes it to a failure.
        assert!(
            run(parse(&["lint", &path, "--scale-threshold", "8", "--deny-warnings"]).unwrap())
                .is_err()
        );
    }

    #[test]
    fn lint_clean_catalog_passes() {
        let path = gen_catalog("lint-clean.cat", 10);
        let report = run(parse(&["lint", &path]).unwrap()).unwrap();
        assert!(report.contains("no problems found"), "{report}");
    }

    #[test]
    fn lint_fixture_fails_under_deny_warnings() {
        let path = infeasible_fixture();
        // Warnings alone pass by default...
        let report = run(parse(&["lint", &path]).unwrap()).unwrap();
        assert!(report.contains("warning[MUBE011]"), "{report}");
        assert!(report.contains("warning[MUBE012]"), "{report}");
        assert!(report.contains("warning[MUBE013]"), "{report}");
        assert!(report.contains("warning[MUBE004]"), "{report}");
        assert!(report.contains("warning[MUBE014]"), "{report}");
        assert!(report.contains("0 errors"), "{report}");
        // ...and fail under --deny-warnings.
        let err = run(parse(&["lint", &path, "--deny-warnings"]).unwrap()).unwrap_err();
        match err {
            CliError::Lint(report) => assert!(report.contains("MUBE011"), "{report}"),
            other => panic!("expected lint failure, got {other:?}"),
        }
    }

    #[test]
    fn lint_fixture_flags_near_duplicate_names() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/neardup.catalog"
        )
        .to_string();
        let report = run(parse(&["lint", &path]).unwrap()).unwrap();
        assert!(report.contains("warning[MUBE016]"), "{report}");
        assert!(report.contains("moviedb"), "{report}");
        assert!(report.contains("0 errors"), "{report}");
        assert!(run(parse(&["lint", &path, "--deny-warnings"]).unwrap()).is_err());
    }

    #[test]
    fn lint_errors_fail_without_deny_warnings() {
        let path = gen_catalog("lint-err.cat", 5);
        let err = run(parse(&["lint", &path, "--max", "0"]).unwrap()).unwrap_err();
        match err {
            CliError::Lint(report) => assert!(report.contains("error[MUBE010]"), "{report}"),
            other => panic!("expected lint failure, got {other:?}"),
        }
    }

    #[test]
    fn lint_reports_unresolved_names() {
        let path = gen_catalog("lint-names.cat", 5);
        let err = run(parse(&["lint", &path, "--pin", "ghost", "--weight", "karma=1.0"]).unwrap())
            .unwrap_err();
        match err {
            CliError::Lint(report) => {
                assert!(report.contains("pinned source `ghost`"), "{report}");
                assert!(report.contains("`karma` does not name a QEF"), "{report}");
            }
            other => panic!("expected lint failure, got {other:?}"),
        }
    }

    #[test]
    fn solve_names_an_unknown_pinned_source() {
        let path = gen_catalog("solve-ghost.cat", 8);
        let err = run(parse(&["solve", &path, "--pin", "ghost"]).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "unknown source `ghost`");
    }

    #[test]
    fn lint_json_output() {
        let path = infeasible_fixture();
        let err = run(parse(&["lint", &path, "--deny-warnings", "--json"]).unwrap()).unwrap_err();
        match err {
            CliError::Lint(json) => {
                assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
                assert!(json.contains("\"code\":\"MUBE013\""), "{json}");
                assert!(json.contains("\"severity\":\"warning\""), "{json}");
                assert!(json.contains("\"archive\""), "{json}");
            }
            other => panic!("expected lint failure, got {other:?}"),
        }
        // Clean catalogs produce an empty JSON array.
        let clean = gen_catalog("lint-json-clean.cat", 8);
        let out = run(parse(&["lint", &clean, "--json"]).unwrap()).unwrap();
        assert_eq!(out, "[]");
    }

    #[test]
    fn exec_clean_run_reports_no_degradation() {
        let out =
            run(parse(&["exec", "--sources", "15", "--max", "4", "--seed", "7"]).unwrap()).unwrap();
        assert!(out.contains("solved: 4 sources"), "{out}");
        assert!(out.contains("degradation: none"), "{out}");
        assert!(out.contains("distinct tuples"), "{out}");
    }

    #[test]
    fn exec_faulty_run_degrades_and_is_deterministic() {
        let args = [
            "exec",
            "--sources",
            "15",
            "--max",
            "5",
            "--seed",
            "7",
            "--faults",
            "rate=0.4",
            "--fault-seed",
            "3",
            "--json",
        ];
        let a = run(parse(&args).unwrap()).unwrap();
        assert!(a.starts_with('{') && a.ends_with('}'), "{a}");
        assert!(a.contains("\"clean\":false"), "{a}");
        assert!(a.contains("\"error\":\"unavailable\""), "{a}");
        // Byte-identical across runs with the same seeds.
        let b = run(parse(&args).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exec_resolve_reports_reselection() {
        let out = run(parse(&[
            "exec",
            "--sources",
            "15",
            "--max",
            "5",
            "--seed",
            "7",
            "--faults",
            "rate=0.4",
            "--fault-seed",
            "3",
            "--resolve",
        ])
        .unwrap())
        .unwrap();
        assert!(out.contains("re-solve on measured availability"), "{out}");
        assert!(out.contains("dropped:"), "{out}");
    }

    #[test]
    fn exec_rejects_bad_fault_spec() {
        let err = run(parse(&["exec", "--faults", "chaos=yes"]).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Engine(_)), "{err:?}");
    }

    #[test]
    fn validate_missing_file_is_io_error() {
        let err = run(parse(&["validate", "/nonexistent/x.cat"]).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn match_on_named_subset() {
        let path = gen_catalog("subset.cat", 10);
        let report = run(parse(&[
            "match",
            &path,
            "--theta",
            "0.75",
            "--sources",
            "site0000,site0001",
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("over 2 sources"));
    }

    #[test]
    fn gen_other_domains() {
        let path = tmp("movies.cat");
        let report = run(parse(&[
            "gen",
            "--sources",
            "8",
            "--domain",
            "movies",
            "--out",
            &path,
        ])
        .unwrap())
        .unwrap();
        assert!(report.contains("wrote 8 sources"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("movie") || text.contains("film") || text.contains("genre"));
    }

    #[test]
    fn help_prints_usage() {
        let text = run(Command::Help).unwrap();
        assert!(text.contains("USAGE"));
    }
}
