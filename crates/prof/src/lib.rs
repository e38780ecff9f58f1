//! `em-prof`: offline analysis of `em-obs` JSONL traces.
//!
//! Where `em-obs` records what a run did, this crate answers what that
//! recording *means*: where the time and memory went, what the training
//! loop converged to, and whether a new run regressed against a baseline.
//! Four layers, each usable on its own:
//!
//! * [`reader`] — parse a `--metrics-out` JSONL file back into typed
//!   [`em_obs::Event`]s, with line-numbered errors.
//! * [`tree`] / [`flame`] — rebuild the span tree and aggregate it into
//!   flamegraph-style rows (calls, total/self wall time, heap deltas).
//! * [`manifest`] — boil a whole trace down to one [`manifest::RunManifest`]:
//!   seed, wall time, peak heap, optimizer steps, per-epoch training
//!   telemetry, pseudo-label quality, and final/best F1.
//! * [`ops`] — attribute tape-profiler `op_stats` events to their owning
//!   phase: per-(phase, op) call counts, forward/backward wall time,
//!   element counts, and allocated bytes.
//! * [`mod@diff`] / [`report`] — compare two manifests under configurable
//!   [`diff::Thresholds`] (the perf-regression gate `scripts/ci.sh` runs),
//!   and render TTY reports plus the machine-readable `BENCH_report.json`.
//! * [`canonical`] — the timing-stripped canonical form of a trace, and
//!   the byte-exact equivalence check behind the `--threads N` vs
//!   `--threads 1` determinism gate (`promptem report --diff --canonical`).
//! * [`stream`] / [`live`] — tail a trace while it is being written
//!   (partial-last-line tolerant) and fold it into the `promptem top`
//!   dashboard frame.
//! * [`history`] — the append-only `BENCH_history.jsonl` ledger of
//!   distilled runs, with a rolling-median trend gate
//!   (`promptem history --gate`).
//!
//! The CLI front ends are `promptem report`, `promptem top`, and
//! `promptem history` (see `crates/cli`).

#![warn(missing_docs)]

pub mod canonical;
pub mod diff;
pub mod flame;
pub mod history;
pub mod live;
pub mod manifest;
pub mod ops;
pub mod reader;
pub mod report;
pub mod stream;
pub mod tree;

pub use canonical::{canonical_lines, first_divergence, Divergence};
pub use diff::{diff, DiffReport, Thresholds};
pub use flame::FlameRow;
pub use history::HistoryEntry;
pub use live::LiveState;
pub use manifest::RunManifest;
pub use ops::OpRow;
pub use reader::{load_trace, parse_trace};
pub use stream::TraceStream;
pub use tree::SpanTree;
