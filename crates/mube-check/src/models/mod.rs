//! Concrete models of the workspace's concurrency-critical kernels.
//!
//! Each module holds a small, faithful model of one production kernel plus
//! (where the interesting bug is historical or hypothetical) a *buggy
//! variant* proving the explorer can actually see the race. The unit tests
//! in each module are the CI `check-model` gate: they run the explorer
//! exhaustively and call [`crate::engine::Report::assert_ok`].
//!
//! Models intentionally mirror the production code's structure and even its
//! `Ordering` arguments, so a reader can diff model against kernel
//! line-by-line. The checker executes everything sequentially consistent;
//! the orderings are documentation here.
//!
//! To add a model: write a `fn run(...)` closure body over [`crate::sync`]
//! and [`crate::thread`] primitives, assert the kernel's invariant inside
//! it, and add a test that explores it with a preemption bound of 2 (raise
//! only with cause — state space grows fast).

pub mod breaker;
pub mod store_evict;
pub mod wal_crash;
