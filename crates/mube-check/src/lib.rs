//! mube-check: correctness tooling for the mube workspace.
//!
//! Two halves, one goal — keep the solver's answer trustworthy as the
//! concurrent machinery grows:
//!
//! 1. **A bounded concurrency model checker** ([`engine`], [`sync`],
//!    [`thread`]): loom-style schedule exploration over instrumented
//!    `Mutex`/atomic/thread shims, with concrete models of the workspace's
//!    concurrency-critical kernels in [`models`] (circuit breaker, store
//!    eviction) plus a WAL crash-point explorer. `cargo test -p mube-check`
//!    is the exhaustive `check-model` CI gate.
//! 2. **A source-invariant linter** ([`lint`]): token-level scanning of the
//!    workspace's own Rust code for project rules the compiler can't
//!    enforce, surfaced as stable `MUBE1xx` codes via `mube lint-src`.
//!
//! The shims pass through to `std` outside an exploration, so a model body
//! is ordinary Rust that can also run un-checked (see
//! `tests/differential.rs`).

pub mod engine;
pub mod lint;
pub mod models;
pub mod sync;
pub mod thread;

pub use engine::{Explorer, Failure, Report};
