//! `em-obs`: the observability substrate for the PromptEM reproduction.
//!
//! Zero dependencies. Three pieces:
//!
//! * **Spans** — [`span()`] returns an RAII guard; dropping it emits a
//!   `span_close` event with wall-clock and heap deltas. Spans nest per
//!   thread and every event carries the innermost span id.
//! * **Metrics** — [`metrics`] is a registry of counters, gauges, and
//!   log-bucket histograms addressable by name + labels.
//! * **Sinks** — events go nowhere by default (the disabled path costs a
//!   couple of relaxed atomic loads), to stderr filtered by the
//!   `PROMPTEM_LOG` level, and/or to a JSONL trace file with the schema
//!   documented in [`event`]. Tests use [`capture`] to collect events
//!   in-memory per thread.
//!
//! Typical wiring (the CLI and bench harness do this):
//!
//! ```no_run
//! em_obs::init_from_env();                 // PROMPTEM_LOG=info cargo run ...
//! em_obs::set_run_seed(42);
//! em_obs::init_jsonl(std::path::Path::new("trace.jsonl")).unwrap();
//! {
//!     let _span = em_obs::span("pipeline");
//!     em_obs::info("starting");
//! }
//! em_obs::shutdown();
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod event;
pub mod heartbeat;
pub mod level;
pub mod metrics;
pub mod names;
pub mod sink;
pub mod span;

pub use event::{Event, EventKind};
pub use heartbeat::{heartbeat, progress_every, set_progress_every, Heartbeat};
pub use level::{parse_filter, Level};
pub use sink::capture;
pub use span::SpanGuard;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static SEQ: AtomicU64 = AtomicU64::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// True when at least one sink (or a capture on this thread) is live.
/// Hot-path code gates timing and event construction on this.
#[inline]
pub fn enabled() -> bool {
    sink::any_active()
}

/// Record the run seed; every subsequent event carries it.
pub fn set_run_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
}

/// The run seed events are stamped with.
pub fn run_seed() -> u64 {
    SEED.load(Ordering::Relaxed)
}

/// Enable the stderr sink from the `PROMPTEM_LOG` environment variable
/// (`off`/`error`/`warn`/`info`/`debug`/`trace`; unset leaves the sink
/// off). A malformed value falls back to `warn` and reports itself there.
pub fn init_from_env() {
    match std::env::var("PROMPTEM_LOG") {
        Err(_) => {}
        Ok(raw) => match level::parse_filter(&raw, None) {
            Ok(filter) => sink::set_stderr_level(filter),
            Err(err) => {
                sink::set_stderr_level(Some(Level::Warn));
                warn(format!("PROMPTEM_LOG: {err}"));
            }
        },
    }
}

/// Enable the stderr sink at an explicit level (`None` disables it).
pub fn init_stderr(level: Option<Level>) {
    sink::set_stderr_level(level);
}

/// Open `path` as a JSONL trace sink (truncating any existing file).
pub fn init_jsonl(path: &Path) -> std::io::Result<()> {
    sink::open_jsonl(path)
}

/// Flush and close the JSONL sink, first sampling every registered metric
/// into the trace as `metric` events so the file is self-contained. Safe
/// to call multiple times; the stderr sink (if any) stays active.
pub fn shutdown() {
    flush_metrics();
    sink::close_jsonl();
}

/// Emit one `metric` event per registered metric (sorted by name). Called
/// by [`shutdown`]; also usable mid-run for periodic snapshots.
pub fn flush_metrics() {
    if !enabled() {
        return;
    }
    for s in metrics::samples() {
        let (p50, p95, p99) = match s.percentiles {
            Some((a, b, c)) => (Some(a), Some(b), Some(c)),
            None => (None, None, None),
        };
        emit(EventKind::Metric {
            name: s.name,
            kind: s.kind.to_string(),
            value: s.value,
            count: s.count,
            p50,
            p95,
            p99,
        });
    }
}

/// Emit one event to every active sink. Cheap no-op when nothing listens.
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let event = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed) + 1,
        seed: run_seed(),
        t_us: start_instant().elapsed().as_micros() as u64,
        span: span::current(),
        kind,
    };
    sink::dispatch(&event);
}

/// Open a span named `name`; it closes (emitting timing and heap deltas)
/// when the returned guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name, None)
}

/// Like [`span()`], with a free-form detail label (dataset name, method id).
pub fn span_with(name: &'static str, detail: impl Into<String>) -> SpanGuard {
    SpanGuard::open(name, Some(detail.into()))
}

/// Emit an `epoch_summary` event (one finished training epoch).
#[allow(clippy::too_many_arguments)]
pub fn epoch_summary(
    epoch: u64,
    train_loss: f64,
    valid_f1: Option<f64>,
    threshold: Option<f64>,
    examples: u64,
    batches: u64,
    wall_us: u64,
) {
    emit(EventKind::EpochSummary {
        epoch,
        train_loss,
        valid_f1,
        threshold,
        examples,
        batches,
        wall_us,
    });
}

/// Emit an `unc_hist` event: a histogram of MC-Dropout uncertainty scores
/// binned linearly into `bins` buckets over the observed `[min, max]`.
pub fn unc_hist(source: &'static str, values: &[f64], bins: usize) {
    if !enabled() || bins == 0 {
        return;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
        sum += v;
    }
    if values.is_empty() {
        lo = 0.0;
        hi = 0.0;
    }
    let mean = if values.is_empty() {
        0.0
    } else {
        sum / values.len() as f64
    };
    let width = hi - lo;
    let mut counts = vec![0u64; bins];
    for &v in values {
        let idx = if width > 0.0 {
            (((v - lo) / width) * bins as f64) as usize
        } else {
            0
        };
        counts[idx.min(bins - 1)] += 1;
    }
    emit(EventKind::UncHist {
        source: source.into(),
        lo,
        hi,
        mean,
        counts,
    });
}

/// Emit a `pseudo_select` event (pseudo-labels moved into the train set).
pub fn pseudo_select(count: u64, tpr: Option<f64>, tnr: Option<f64>) {
    emit(EventKind::PseudoSelect { count, tpr, tnr });
}

/// Emit a `prune` event (dynamic data pruning dropped examples).
pub fn prune(dropped: u64, passes: u64) {
    emit(EventKind::Prune { dropped, passes });
}

/// Emit a `pretrain_step` event (one MLM optimizer step).
pub fn pretrain_step(step: u64, mlm_loss: f64) {
    emit(EventKind::PretrainStep { step, mlm_loss });
}

/// Emit a `block` event (candidate pairs produced by blocking).
pub fn block(candidates: u64) {
    emit(EventKind::Block { candidates });
}

/// Emit a `ckpt_save` event (a checkpoint was durably written).
pub fn ckpt_save(step: u64, bytes: u64, kept: u64) {
    emit(EventKind::CkptSave { step, bytes, kept });
}

/// Emit a `ckpt_restore` event (a run resumed from a checkpoint). The
/// counters record the already-done work this process skips; `em-prof`
/// adds them to its manifest so resumed and uninterrupted runs compare
/// equal.
pub fn ckpt_restore(step: u64, pretrain_steps: u64, epochs: u64, batches: u64) {
    emit(EventKind::CkptRestore {
        step,
        pretrain_steps,
        epochs,
        batches,
    });
}

/// Emit a `recovered_batch` event (a non-finite batch loss was skipped).
pub fn recovered_batch(phase: &'static str, step: u64, consecutive: u64) {
    emit(EventKind::RecoveredBatch {
        phase: phase.into(),
        step,
        consecutive,
    });
}

/// Emit an `io_retry` event (transient I/O failure, bounded retry).
pub fn io_retry(op: impl Into<String>, attempt: u64, delay_ms: u64) {
    emit(EventKind::IoRetry {
        op: op.into(),
        attempt,
        delay_ms,
        gave_up: false,
    });
}

/// Emit the terminal `io_retry` event: the bounded retry is exhausted and
/// the error goes back to the caller. `attempt` is the total attempts made.
pub fn io_retry_gave_up(op: impl Into<String>, attempt: u64) {
    emit(EventKind::IoRetry {
        op: op.into(),
        attempt,
        delay_ms: 0,
        gave_up: true,
    });
}

/// Emit a `request` event: one serve request reached a terminal outcome.
pub fn request(id: impl Into<String>, pairs: u64, queue: u64, wall_us: u64, outcome: &str) {
    emit(EventKind::Request {
        id: id.into(),
        pairs,
        queue,
        wall_us,
        outcome: outcome.into(),
    });
}

/// Emit a `reject` event: admission control shed a serve request.
pub fn reject(id: impl Into<String>, reason: &str, retry_after_ms: u64) {
    emit(EventKind::Reject {
        id: id.into(),
        reason: reason.into(),
        retry_after_ms,
    });
}

/// Emit a `worker_restart` event: the serve supervisor replaced a worker.
pub fn worker_restart(worker: u64, restarts: u64, backoff_ms: u64, reason: &str) {
    emit(EventKind::WorkerRestart {
        worker,
        restarts,
        backoff_ms,
        reason: reason.into(),
    });
}

/// Emit a `drain` event: a graceful serve drain completed.
pub fn drain(completed: u64, rejected: u64, failed: u64, restarts: u64) {
    emit(EventKind::Drain {
        completed,
        rejected,
        failed,
        restarts,
    });
}

/// Emit an `op_stats` event (aggregated tape-op counters for one op,
/// flushed at a stage boundary). Emit inside the owning span so the
/// totals nest under their phase.
#[allow(clippy::too_many_arguments)]
pub fn op_stats(
    op: &'static str,
    fwd_calls: u64,
    fwd_us: u64,
    bwd_calls: u64,
    bwd_us: u64,
    elems: u64,
    bytes: u64,
) {
    emit(EventKind::OpStats {
        op: op.into(),
        fwd_calls,
        fwd_us,
        bwd_calls,
        bwd_us,
        elems,
        bytes,
    });
}

/// Emit a `non_finite` event (the tape sanitizer caught a NaN/Inf buffer).
pub fn non_finite(op: impl Into<String>, node: u64, stage: &'static str, bad: u64, total: u64) {
    emit(EventKind::NonFinite {
        op: op.into(),
        node,
        stage: stage.into(),
        bad,
        total,
    });
}

/// Emit an `audit` event (graph-audit summary at loss construction).
pub fn audit(nodes: u64, dead: u64, detached: u64, unused: u64) {
    emit(EventKind::Audit {
        nodes,
        dead,
        detached,
        unused,
    });
}

/// Schema version of the `run_meta` event (bump when its fields change).
pub const RUN_META_SCHEMA: u64 = 1;

/// Emit a `run_meta` event — the run's identity card. The CLI calls this
/// right after resolving the config, before any other event, so it lands
/// as the first trace line. `build` is derived from the compile profile.
pub fn run_meta(seed: u64, config: impl Into<String>, git_sha: Option<String>) {
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    emit(EventKind::RunMeta {
        seed,
        config: config.into(),
        git_sha,
        build: build.into(),
        schema: RUN_META_SCHEMA,
    });
}

/// Best-effort git commit SHA of the checkout containing the working
/// directory: walks up to a `.git/HEAD`, dereferencing one level of
/// `ref:` indirection. No subprocess, no dependency; `None` outside a
/// checkout or on any read failure.
pub fn detect_git_sha() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            let sha = match contents.strip_prefix("ref: ") {
                Some(refname) => {
                    std::fs::read_to_string(dir.join(".git").join(refname.trim())).ok()?
                }
                None => contents.to_string(),
            };
            let sha = sha.trim();
            let looks_like_sha = sha.len() >= 7 && sha.chars().all(|c| c.is_ascii_hexdigit());
            return looks_like_sha.then(|| sha.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// A monotonic stopwatch — the sanctioned clock for the whole workspace.
///
/// The `em-lint` `clock` rule forbids raw `Instant::now`/`SystemTime`
/// outside `em-obs` and `em-bench` so every time source stays greppable in
/// one place (wall-clock reads sneaking into training logic are how
/// nondeterministic behavior and flaky wall-clock tests get in).
/// Code that needs a duration takes a `Stopwatch` instead.
#[derive(Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start a stopwatch now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Stopwatch(Instant::now())
    }

    /// A stopwatch only when telemetry is active — hot paths use this so
    /// the disabled path stays free of clock reads.
    pub fn if_enabled() -> Option<Self> {
        enabled().then(Self::new)
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Elapsed microseconds.
    pub fn micros(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// Emit a free-form message at the given level.
pub fn message(level: Level, text: impl Into<String>) {
    emit(EventKind::Message {
        level,
        text: text.into(),
    });
}

/// Emit an error-level message.
pub fn error(text: impl Into<String>) {
    message(Level::Error, text);
}

/// Emit a warn-level message.
pub fn warn(text: impl Into<String>) {
    message(Level::Warn, text);
}

/// Emit an info-level message.
pub fn info(text: impl Into<String>) {
    message(Level::Info, text);
}

/// Emit a debug-level message.
pub fn debug(text: impl Into<String>) {
    message(Level::Debug, text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_a_noop() {
        // This thread has no capture; global sinks are off unless another
        // test enabled one, so only assert the capture-side behavior.
        let before = SEQ.load(Ordering::Relaxed);
        if !enabled() {
            emit(EventKind::Block { candidates: 1 });
            assert_eq!(
                SEQ.load(Ordering::Relaxed),
                before,
                "disabled emit must not tick seq"
            );
        }
    }

    #[test]
    fn typed_helpers_produce_the_right_kinds() {
        let ((), events) = capture(|| {
            epoch_summary(3, 0.5, None, None, 64, 4, 1000);
            pseudo_select(4, Some(1.0), None);
            prune(2, 10);
            pretrain_step(9, 2.5);
            block(100);
            unc_hist("pseudo_uncertainty", &[0.1, 0.2, 0.3], 4);
            info("msg");
        });
        let tags: Vec<&str> = events.iter().map(|e| e.kind.type_tag()).collect();
        assert_eq!(
            tags,
            [
                names::EV_EPOCH_SUMMARY,
                names::EV_PSEUDO_SELECT,
                names::EV_PRUNE,
                names::EV_PRETRAIN_STEP,
                names::EV_BLOCK,
                names::EV_UNC_HIST,
                names::EV_MESSAGE,
            ]
        );
    }

    #[test]
    fn unc_hist_bins_cover_the_value_range() {
        let ((), events) = capture(|| {
            unc_hist("pseudo_uncertainty", &[0.0, 0.05, 0.1, 0.1, 0.4], 4);
            unc_hist("mc_el2n", &[], 4);
            unc_hist("constant", &[0.5, 0.5], 4);
        });
        match &events[0].kind {
            EventKind::UncHist {
                lo,
                hi,
                mean,
                counts,
                ..
            } => {
                assert_eq!(*lo, 0.0);
                assert_eq!(*hi, 0.4);
                assert!((mean - 0.13).abs() < 1e-12);
                assert_eq!(counts.iter().sum::<u64>(), 5);
                assert_eq!(counts[3], 1, "max value lands in the last bin");
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &events[1].kind {
            EventKind::UncHist { counts, .. } => {
                assert_eq!(counts.iter().sum::<u64>(), 0);
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &events[2].kind {
            EventKind::UncHist { lo, hi, counts, .. } => {
                assert_eq!((*lo, *hi), (0.5, 0.5));
                assert_eq!(counts[0], 2, "zero-width range collapses to bin 0");
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn flush_metrics_emits_metric_events() {
        metrics::counter("test_flush_metrics_counter", &[]).add(2);
        let ((), events) = capture(flush_metrics);
        let found = events.iter().any(|e| {
            matches!(
                &e.kind,
                EventKind::Metric { name, kind, value, .. }
                    if name == "test_flush_metrics_counter" && kind == "counter" && *value >= 2.0
            )
        });
        assert!(found, "metric event for the seeded counter is missing");
    }

    #[test]
    fn seq_is_monotonic_across_helpers() {
        let ((), events) = capture(|| {
            for i in 0..32 {
                block(i);
            }
        });
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
