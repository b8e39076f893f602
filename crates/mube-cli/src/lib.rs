//! # mube-cli — the `mube` command-line tool
//!
//! A thin, dependency-free command-line front end over the `µBE` engine,
//! working on plain-text source catalogs (see `mube_core::catalog`):
//!
//! ```text
//! mube gen --sources 60 --out books.catalog          # synthesize a catalog
//! mube validate books.catalog                        # parse + stats
//! mube match books.catalog --theta 0.5               # mediate all sources
//! mube solve books.catalog --max 8 --pin site0003 \
//!            --weight coverage=0.4 --explain         # select + mediate
//! ```
//!
//! The library half holds the argument parsing and command implementations
//! (all returning `Result<String, CliError>` so they are unit-testable);
//! `main.rs` only dispatches. One table in [`args`] declares every
//! subcommand's positional slot, flags and description: the parser scans
//! argv against it and [`usage`] (what `mube help` prints) is rendered from
//! it.

pub mod args;
pub mod commands;

pub use args::{parse, usage, Command};
pub use commands::{run, CliError};
