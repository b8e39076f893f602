//! `mube-serve` — a multi-threaded HTTP/JSON server for the `µBE` §6
//! feedback loop.
//!
//! The paper's workflow is a dialogue: solve, inspect, pin a source or
//! adopt a GA, re-solve. This crate puts that dialogue behind a small
//! HTTP/1.1 API so front ends and scripts can drive it:
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /catalogs` | upload a catalog (text format) |
//! | `POST /sessions` | start a session over a catalog |
//! | `POST /sessions/{id}/solve` | run one iteration |
//! | `POST /sessions/{id}/feedback` | pin/unpin, adopt GAs, re-weight, retune `m`/`θ`/`β` |
//! | `GET /sessions/{id}/explain` | leave-one-out contributions |
//! | `GET /sessions/{id}/lint` | `mube-audit` diagnostics for the session |
//! | `DELETE /sessions/{id}` | drop a session |
//! | `GET /metrics` | counters + latency histograms + replication stats |
//! | `GET /healthz` | liveness, drain state, role, applied LSN + digest |
//! | `POST /admin/promote` | checked failover: promote a follower to leader |
//! | `POST /admin/resync` | un-quarantine a diverged follower via full resync |
//!
//! With a journal (`data_dir`) the server can also replicate: a leader
//! (`repl_addr`) ships committed journal frames to followers (`follow`),
//! which apply them through the same replay handlers crash recovery
//! uses and serve read-only traffic — see [`repl`] and `PROTOCOL.md`
//! ("Replication & failover").
//!
//! Everything is hand-rolled on `std` (the workspace takes no external
//! dependencies): the HTTP parser in [`http`], the JSON reader in [`json`]
//! (the writer lives in `mube_core::jsonw`), a [`pool::WorkerPool`] for
//! concurrency, and the [`store::Store`] keeping per-session mutexes so
//! same-session requests serialize while sessions run in parallel.
//! Sessions over one catalog share a single
//! [`mube_match::SimilarityCache`], so re-solves never recompute name
//! similarities. See `PROTOCOL.md` at the repo root for the full wire
//! reference.

pub mod frame;
pub mod fsck;
pub mod http;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod repl;
pub mod server;
pub mod store;

pub use fsck::{fsck, FsckFile, FsckOptions, FsckReport};
pub use json::{Json, JsonError};
pub use metrics::{Histogram, Metrics, ScrubStats, ServerStats, BUCKETS};
pub use persist::{
    Event, FsyncPolicy, Journal, JournalStats, RecoveryReport, ScrubReport, SolutionRecord,
    DEFAULT_QUARANTINE_KEEP,
};
pub use pool::WorkerPool;
pub use repl::ReplStats;
pub use server::{ServeConfig, Server, ServerHandle};
pub use store::{CatalogEntry, SessionEntry, Store, StoreError};
