//! The registry of JSONL event types, span names and op names.
//!
//! Every `"type"` tag written into a trace and every span name opened by
//! the workspace lives here, so the schema is greppable in one place and
//! `em-prof` / `em-lint` can enumerate it. The `em-lint` `event_name`
//! rule rejects ad-hoc event-tag string literals anywhere else in library
//! code; span names are not string-matched (several are ordinary words),
//! but call sites are expected to use these consts.
//!
//! Each event kind is one row of the schema table below: its variant,
//! tag const and tag, its default [`Level`], and its fields in wire order
//! (see `event_schema!` in [`crate::event`] for the row grammar). Adding
//! a kind means adding a row here and a `render_human` arm in
//! [`crate::event`]; the compiler asks for the arm.

use crate::level::Level;

// Default levels: recoveries (a skipped batch, an I/O retry, a shed
// request, a lost worker) are `Warn`, not business as usual; pipeline
// milestones are `Info`; high-volume diagnostics are `Debug`.
crate::event::event_schema! {
    /// A span began.
    SpanOpen = EV_SPAN_OPEN "span_open", Debug {
        /// Span id (process-wide unique).
        id: u64,
        /// Parent span id, if nested.
        parent: Option<u64>,
        /// Static span name (`"pretrain"`, `"teacher"`, ...).
        name: String,
        /// Optional free-form label, e.g. `"PromptEM/REL-HETER"`.
        detail: Option<String>,
    }
    /// A span ended.
    SpanClose = EV_SPAN_CLOSE "span_close", Debug {
        /// Span id matching the open event.
        id: u64,
        /// Static span name (repeated for grep-ability).
        name: String,
        /// Wall-clock duration in microseconds.
        wall_us: u64 [volatile],
        /// Live-heap delta across the span, in bytes (signed; 0 unless the
        /// counting allocator is installed).
        heap_delta: i64 [volatile],
        /// Process peak heap at close, in bytes.
        heap_peak: u64 [volatile],
    }
    /// One training epoch finished.
    EpochSummary = EV_EPOCH_SUMMARY "epoch_summary", Info {
        /// 0-based epoch index.
        epoch: u64,
        /// Mean batch loss of the epoch.
        train_loss: f64,
        /// Validation F1 (percent) at the calibrated threshold, when
        /// validation ran this epoch.
        valid_f1: Option<f64>,
        /// The calibrated decision threshold, when validation ran.
        threshold: Option<f64>,
        /// Training examples seen this epoch (post balancing/pruning).
        examples: u64,
        /// Optimizer steps (batches) taken this epoch.
        batches: u64,
        /// Wall-clock duration of the epoch in microseconds.
        wall_us: u64 [volatile],
    }
    /// Pseudo-labels were selected (paper §4.2). Their quality is only
    /// known when gold labels were supplied for auditing (Table 5).
    PseudoSelect = EV_PSEUDO_SELECT "pseudo_select", Info {
        /// Pseudo-labels moved from D_U into D_L.
        count: u64,
        /// True-positive rate against audit labels.
        tpr: Option<f64>,
        /// True-negative rate against audit labels.
        tnr: Option<f64>,
    }
    /// Dynamic data pruning fired (paper §4.3).
    Prune = EV_PRUNE "prune", Info {
        /// Training examples removed by this pruning event.
        dropped: u64,
        /// MC-Dropout passes used to score them (MC-EL2N).
        passes: u64,
    }
    /// One MLM pretraining optimizer step.
    PretrainStep = EV_PRETRAIN_STEP "pretrain_step", Debug {
        /// 0-based optimizer step.
        step: u64,
        /// The step's masked-LM loss.
        mlm_loss: f64,
    }
    /// A blocking query batch completed.
    Block = EV_BLOCK "block", Debug {
        /// Candidate pairs produced.
        candidates: u64,
    }
    /// The tape sanitizer found a non-finite value or gradient during
    /// backward (`PROMPTEM_SANITIZE=1`).
    NonFinite = EV_NON_FINITE "non_finite", Error {
        /// Name of the tape op that produced the poisoned buffer.
        op: String,
        /// Tape node index (stable within one tape).
        node: u64,
        /// Which buffer is poisoned: `"value"` or `"grad"`.
        stage: String,
        /// Number of NaN/Inf elements.
        bad: u64,
        /// Total elements in the buffer.
        total: u64,
    }
    /// A graph audit ran over a recorded tape at loss construction.
    /// Routine at `Debug`; an audit with findings is raised to `Warn`.
    Audit = EV_AUDIT "audit", Debug {
        /// Total recorded tape nodes.
        nodes: u64,
        /// Nodes computed but unreachable from the loss.
        dead: u64,
        /// On-tape parameter leaves with no gradient path from the loss.
        detached: u64,
        /// Unfrozen store parameters that never entered the tape.
        unused: u64,
    }
    /// Free-form log line, filtered at its own level.
    Message = EV_MESSAGE "message", Info {
        /// Severity.
        level: Level,
        /// The message.
        text: String,
    }
    /// A histogram of MC-Dropout uncertainty scores (paper §4.2/§4.3).
    UncHist = EV_UNC_HIST "unc_hist", Debug {
        /// Which uncertainty scorer produced the values, e.g.
        /// `"pseudo_uncertainty"`.
        source: String,
        /// Smallest observed value (left edge of bin 0).
        lo: f64,
        /// Largest observed value (right edge of the last bin).
        hi: f64,
        /// Mean of the observed values.
        mean: f64,
        /// Observation counts per linear bin across `[lo, hi]`; the total
        /// observation count is their sum.
        counts: Vec<u64>,
    }
    /// One registry metric sampled into the trace (emitted at shutdown so
    /// traces are self-contained).
    Metric = EV_METRIC "metric", Debug {
        /// Metric name with labels folded in, e.g.
        /// `nn_optimizer_steps{opt="adamw"}`.
        name: String,
        /// `"counter"`, `"gauge"`, or `"histogram"`.
        kind: String,
        /// Counter total, gauge value, or histogram mean.
        value: f64,
        /// Histogram observation count.
        count: Option<u64> [volatile],
        /// Estimated 50th percentile (histograms only).
        p50: Option<f64> [volatile],
        /// Estimated 95th percentile (histograms only).
        p95: Option<f64> [volatile],
        /// Estimated 99th percentile (histograms only).
        p99: Option<f64> [volatile],
    }
    /// A training checkpoint was durably written (atomic temp → fsync →
    /// rename).
    CkptSave = EV_CKPT_SAVE "ckpt_save", Debug {
        /// Monotone tag: optimizer step (pretrain) or round (self-train).
        step: u64,
        /// Encoded checkpoint size in bytes.
        bytes: u64 [volatile],
        /// Checkpoint files kept on disk after rotation.
        kept: u64,
    }
    /// A run resumed from a checkpoint. The counters record the work the
    /// resumed process *skips*, so a manifest built from its trace matches
    /// an uninterrupted same-seed run (`em-prof` adds them back in).
    CkptRestore = EV_CKPT_RESTORE "ckpt_restore", Info {
        /// The checkpoint tag resumed from.
        step: u64,
        /// Pretrain optimizer steps already taken before the checkpoint.
        pretrain_steps: u64,
        /// Epoch summaries the dead process had already emitted.
        epochs: u64,
        /// Batches accounted in those epoch summaries.
        batches: u64,
    }
    /// A non-finite batch loss was detected and the batch skipped instead
    /// of aborting the run.
    RecoveredBatch = EV_RECOVERED_BATCH "recovered_batch", Warn {
        /// Which training phase recovered (`"pretrain"`, `"finetune"`).
        phase: String,
        /// The phase's batch/step counter at the failure.
        step: u64,
        /// Consecutive bad batches including this one.
        consecutive: u64,
    }
    /// A transient I/O failure triggered a bounded retry with deterministic
    /// backoff.
    IoRetry = EV_IO_RETRY "io_retry", Warn {
        /// The retried operation, e.g. `"ckpt_write"`.
        op: String,
        /// The attempt that just failed (1-based).
        attempt: u64,
        /// Backoff applied before the next attempt, in milliseconds (0 on
        /// the terminal event).
        delay_ms: u64,
        /// True when the retry budget is exhausted and the caller gets the
        /// error — the trace-visible alternative to failing silently.
        gave_up: bool,
    }
    /// Aggregated tape-op counters flushed at a stage boundary, one event
    /// per op name with nonzero activity since the previous flush. The
    /// enclosing `span` field attributes the totals to their phase.
    OpStats = EV_OP_STATS "op_stats", Debug {
        /// Tape op name from [`ALL_OP_NAMES`].
        op: String,
        /// Forward recordings of this op since the last flush.
        fwd_calls: u64,
        /// Wall time of those forward recordings, in microseconds.
        fwd_us: u64 [volatile],
        /// Backward visits of this op since the last flush.
        bwd_calls: u64,
        /// Wall time of those backward visits, in microseconds.
        bwd_us: u64 [volatile],
        /// Output elements produced by the forward recordings.
        elems: u64,
        /// Net heap bytes allocated across the forward recordings (0
        /// without the counting allocator).
        bytes: u64 [volatile],
    }
    /// A periodic trainer heartbeat, emitted every `--progress-every`
    /// ticks; see [`crate::heartbeat::Heartbeat`].
    Progress = EV_PROGRESS "progress", Debug {
        /// Training phase name, e.g. `"pretrain"`, `"tune"`, `"mc_dropout"`.
        phase: String,
        /// Ticks (batches/steps/passes) completed so far.
        done: u64,
        /// Expected total ticks; 0 when unknown.
        total: u64,
        /// Examples processed so far.
        examples: u64,
        /// Examples per second since the heartbeat started.
        ex_per_sec: f64 [volatile],
        /// Mean loss over the ticks since the previous beat; `None` when
        /// the phase has no loss.
        loss: Option<f64>,
        /// Projected microseconds to completion; `None` when `total` is
        /// unknown or the rate is zero.
        eta_us: Option<u64> [volatile],
        /// Cumulative autodiff tape nodes recorded process-wide.
        tape_nodes: u64,
        /// Process peak heap bytes (0 without the counting allocator).
        heap_peak: u64 [volatile],
    }
    /// The run's identity card, emitted once as the first trace line so
    /// every trace (and the bench-history entries distilled from it) is
    /// self-describing.
    RunMeta = EV_RUN_META "run_meta", Info {
        /// The run seed (repeated from the envelope for grep-ability).
        seed: u64 as "run_seed",
        /// FNV-1a 64 fingerprint of the resolved config, as hex.
        config: String,
        /// Git commit SHA of the working tree, read from `.git/HEAD` when
        /// the process runs inside a checkout.
        git_sha: Option<String>,
        /// Build profile: `"debug"` or `"release"`.
        build: String,
        /// Schema version of this event (see [`crate::RUN_META_SCHEMA`]).
        schema: u64,
    }
    /// One serve request reached a terminal outcome.
    Request = EV_REQUEST "request", Debug {
        /// Client-chosen request id.
        id: String,
        /// Match pairs carried by the request.
        pairs: u64,
        /// Mailbox depth observed at admission.
        queue: u64,
        /// Microseconds from admission to the reply being written.
        wall_us: u64,
        /// Terminal outcome: `"ok"`, `"deadline_exceeded"`, `"failed"`, or
        /// `"bad_request"`.
        outcome: String,
    }
    /// Admission control shed a serve request instead of queuing it
    /// unboundedly.
    Reject = EV_REJECT "reject", Warn {
        /// Client-chosen request id.
        id: String,
        /// Why the request was shed: `"queue_full"`, `"draining"`,
        /// `"duplicate_id"`, ...
        reason: String,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    }
    /// The serve supervisor replaced a dead or wedged worker actor.
    WorkerRestart = EV_WORKER_RESTART "worker_restart", Warn {
        /// Worker slot index.
        worker: u64,
        /// Consecutive restarts of this slot including this one.
        restarts: u64,
        /// Bounded exponential backoff slept before respawning, in
        /// milliseconds.
        backoff_ms: u64,
        /// What the supervisor detected: `"panic"` or `"wedged"`.
        reason: String,
    }
    /// A graceful serve drain completed: terminal request tallies at the
    /// moment the service stopped answering.
    Drain = EV_DRAIN "drain", Info {
        /// Requests answered with a match decision.
        completed: u64,
        /// Requests shed by admission control.
        rejected: u64,
        /// Requests answered with a typed failure (deadline, worker loss).
        failed: u64,
        /// Worker restarts over the process lifetime.
        restarts: u64,
    }
}

/// One CLI `match` invocation (detail: dataset name).
pub const SPAN_MATCH: &str = "match";
/// MLM pretraining over the serialized corpus.
pub const SPAN_PRETRAIN: &str = "pretrain";
/// Dataset encoding (tokenize + serialize).
pub const SPAN_ENCODE: &str = "encode";
/// Prompt-model tuning (teacher/student epochs live inside).
pub const SPAN_TUNE: &str = "tune";
/// Template grid search inside tuning.
pub const SPAN_GRID_TEMPLATE: &str = "grid_template";
/// Lightweight Self-Training (paper Algorithm 1) outer span.
pub const SPAN_LST: &str = "lst";
/// One LST iteration.
pub const SPAN_LST_ITER: &str = "lst_iter";
/// Teacher training inside LST.
pub const SPAN_TEACHER: &str = "teacher";
/// Pseudo-label selection inside LST.
pub const SPAN_PSEUDO_SELECT: &str = "pseudo_select";
/// MC-Dropout scoring passes inside pseudo-label selection.
pub const SPAN_PSEUDO_SCORE: &str = "pseudo_score";
/// One stochastic MC-Dropout forward pass (detail: `pass <i>/<n>`). Child
/// of `pseudo_score`, so its wall time stops reading as pure self time.
pub const SPAN_PSEUDO_PASS: &str = "pseudo_pass";
/// Uncertainty estimation over the scoring passes.
pub const SPAN_PSEUDO_UNCERTAINTY: &str = "pseudo_uncertainty";
/// Threshold + sort that turns scores into selected pseudo-labels.
pub const SPAN_PSEUDO_RANK: &str = "pseudo_rank";
/// Student training inside LST.
pub const SPAN_STUDENT: &str = "student";
/// Candidate blocking over a dataset.
pub const SPAN_BLOCK: &str = "block";
/// One baseline matcher run (detail: matcher name).
pub const SPAN_BASELINE: &str = "baseline";
/// Baseline fit phase.
pub const SPAN_FIT: &str = "fit";
/// Baseline predict phase.
pub const SPAN_PREDICT: &str = "predict";
/// One bench-harness method run (detail: method/dataset).
pub const SPAN_METHOD: &str = "method";
/// One `promptem serve` process lifetime (detail: bound address).
pub const SPAN_SERVE: &str = "serve";
/// One coalesced serve forward — a micro-batch of match requests pushed
/// through the tape-free path (detail: `<requests> req / <pairs> pairs`).
pub const SPAN_SERVE_BATCH: &str = "serve_batch";

/// Every span name the workspace opens, in rough pipeline order.
pub const ALL_SPAN_NAMES: [&str; 21] = [
    SPAN_MATCH,
    SPAN_PRETRAIN,
    SPAN_ENCODE,
    SPAN_TUNE,
    SPAN_GRID_TEMPLATE,
    SPAN_LST,
    SPAN_LST_ITER,
    SPAN_TEACHER,
    SPAN_PSEUDO_SELECT,
    SPAN_PSEUDO_SCORE,
    SPAN_PSEUDO_PASS,
    SPAN_PSEUDO_UNCERTAINTY,
    SPAN_PSEUDO_RANK,
    SPAN_STUDENT,
    SPAN_BLOCK,
    SPAN_BASELINE,
    SPAN_FIT,
    SPAN_PREDICT,
    SPAN_METHOD,
    SPAN_SERVE,
    SPAN_SERVE_BATCH,
];

/// Every autodiff tape op name, in tape recording order. The index of an
/// op in this array is its slot in the op-profiler's accumulation table
/// (`em-nn` looks each op's slot up here by name), and the `em-lint`
/// `op_name` rule requires `op_stats` op strings to come from here.
pub const ALL_OP_NAMES: [&str; 27] = [
    "leaf",
    "matmul",
    "add",
    "add_row_broadcast",
    "sub",
    "mul",
    "scale",
    "add_const",
    "grad_reverse",
    "transpose",
    "tanh",
    "sigmoid",
    "gelu",
    "relu",
    "softmax_rows",
    "layer_norm",
    "gather_rows",
    "dropout",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "slice_cols",
    "mean_rows",
    "mean_all",
    "cross_entropy",
    "mse_loss",
    "nll_probs",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_snake_case() {
        for (i, a) in ALL_EVENT_TAGS.iter().enumerate() {
            assert!(
                a.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "tag {a} not snake_case"
            );
            for b in &ALL_EVENT_TAGS[i + 1..] {
                assert_ne!(a, b, "duplicate event tag");
            }
        }
    }

    #[test]
    fn readme_schema_table_lists_every_tag() {
        let readme = include_str!("../../../README.md");
        for tag in ALL_EVENT_TAGS {
            assert!(
                readme.contains(&format!("| `{tag}` |")),
                "README's Observability table has no `{tag}` row"
            );
        }
    }

    #[test]
    fn span_names_are_unique() {
        for (i, a) in ALL_SPAN_NAMES.iter().enumerate() {
            for b in &ALL_SPAN_NAMES[i + 1..] {
                assert_ne!(a, b, "duplicate span name");
            }
        }
    }

    #[test]
    fn op_names_are_unique_and_snake_case() {
        for (i, a) in ALL_OP_NAMES.iter().enumerate() {
            assert!(
                a.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "op name {a} not snake_case"
            );
            for b in &ALL_OP_NAMES[i + 1..] {
                assert_ne!(a, b, "duplicate op name");
            }
        }
    }
}
