//! Per-layer metrics of a traced pass: the library calls the benchmark
//! timed, plus what the program's own JSONL spans, events and op
//! profile say, read back with `em_prof`.

use crate::run::Pass;
use crate::spec::{Outcome, OPS, PHASES};
use crate::stats;
use em_obs::names;
use em_obs::{Event, EventKind};
use em_prof::SpanTree;

const MIB: f64 = 1024.0 * 1024.0;

/// Total seconds and count of closed spans called `name`.
fn span_secs(tree: &SpanTree, name: &str) -> (f64, usize) {
    tree.nodes()
        .iter()
        .filter(|n| n.closed && n.name == name)
        .fold((0.0, 0), |(s, c), n| (s + n.wall_us as f64 / 1e6, c + 1))
}

/// Fill every per-layer metric from `events` (the traced pass's trace)
/// and the pass itself. `overhead` is the traced-over-untraced change of
/// the workload's headline timing.
pub fn fill(events: &[Event], pass: &Pass, overhead: f64, out: &mut Outcome) -> Result<(), String> {
    let tree = SpanTree::build(events);
    let t = &pass.timers;

    // data, lm and the core calls the benchmark timed.
    out.set("data.build_s", t.build_s);
    let steps = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PretrainStep { .. }))
        .count();
    out.set("lm.pretrain_steps_per_s", steps as f64 / t.pretrain_s);
    out.set("core.pretrain_s", t.pretrain_s);
    out.set("core.encode_s", t.encode_s);
    out.set("core.tune_s", t.tune_s);
    out.set(
        "core.match_batch_us_per_pair",
        1e6 / pass.scoring.pairs_per_s,
    );

    // core, from the program's spans.
    out.set(
        "core.grid_template_s",
        span_secs(&tree, names::SPAN_GRID_TEMPLATE).0,
    );
    out.set("core.teacher_s", span_secs(&tree, names::SPAN_TEACHER).0);
    out.set("core.student_s", span_secs(&tree, names::SPAN_STUDENT).0);
    out.set(
        "core.pseudo_score_s",
        span_secs(&tree, names::SPAN_PSEUDO_SCORE).0,
    );
    let (pass_secs, passes) = span_secs(&tree, names::SPAN_PSEUDO_PASS);
    out.set("core.mc_passes", passes as f64);
    out.set("core.mc_pass_ms", pass_secs * 1e3 / passes.max(1) as f64);

    // core, useful outcomes over attempts (exact counts).
    let (selected, selections) = events.iter().fold((0u64, 0u64), |(s, n), e| match e.kind {
        EventKind::PseudoSelect { count, .. } => (s + count, n + 1),
        _ => (s, n),
    });
    let unlabeled = pass.trained.encoded.unlabeled.len() as f64;
    out.set(
        "core.pseudo_selected_frac",
        selected as f64 / (unlabeled * selections.max(1) as f64).max(1.0),
    );
    let student_pool = pass.trained.encoded.train.len() as f64
        + pass.trained.lst.pseudo_selected.iter().sum::<usize>() as f64;
    out.set(
        "core.pruned_frac",
        pass.trained.lst.pruned as f64 / student_pool.max(1.0),
    );

    out.set("core.test_f1", pass.trained.test_f1);

    // nn, from the op profile, folded into phases.
    let rows = em_prof::ops::aggregate(events, &tree);
    for (phase, spans) in PHASES {
        let in_phase: Vec<_> = rows
            .iter()
            .filter(|r| spans.contains(&r.phase.as_str()))
            .collect();
        for op in OPS {
            let (fwd_us, bwd_us, elems) = in_phase
                .iter()
                .filter(|r| r.op == op)
                .fold((0u64, 0u64, 0u64), |(f, b, e), r| {
                    (f + r.fwd_us, b + r.bwd_us, e + r.elems)
                });
            out.set(&format!("nn.{phase}.{op}.fwd_ms"), fwd_us as f64 / 1e3);
            if phase != "infer" {
                out.set(&format!("nn.{phase}.{op}.bwd_ms"), bwd_us as f64 / 1e3);
            }
            out.set(
                &format!("nn.{phase}.{op}.ns_per_elem"),
                fwd_us as f64 * 1e3 / elems.max(1) as f64,
            );
        }
        let bytes: u64 = in_phase.iter().map(|r| r.bytes).sum();
        let calls: u64 = in_phase.iter().map(|r| r.fwd_calls + r.bwd_calls).sum();
        out.set(&format!("nn.{phase}.alloc_mb"), bytes as f64 / MIB);
        out.set(&format!("nn.{phase}.op_calls"), calls as f64);
    }

    // serve, from the traced ladder.
    let run = pass
        .serve_runs
        .last()
        .ok_or("the traced pass served nothing")?;
    let mut server_ms = Vec::new();
    let mut queue = Vec::new();
    let mut pairs = 0u64;
    for e in events {
        if let EventKind::Request {
            id,
            pairs: p,
            queue: q,
            wall_us,
            ..
        } = &e.kind
        {
            pairs += p;
            queue.push(*q as f64);
            if id.starts_with(&run.reference_tag) {
                server_ms.push(*wall_us as f64 / 1e3);
            }
        }
    }
    let client_p50 = stats::median(
        &run.reference
            .iter()
            .map(|s| s.timing.latency_ms())
            .collect::<Vec<_>>(),
    )
    .ok_or("no reference-rate samples")?;
    let server_p50 = stats::median(&server_ms).ok_or("no traced requests at the reference rate")?;
    out.set("serve.server_p50_ms", server_p50);
    out.set(
        "serve.server_p99_ms",
        stats::tail_percentile(&server_ms, 99.0)
            .ok_or("too few traced reference-rate requests for a p99")?,
    );
    out.set("serve.wire_ms", client_p50 - server_p50);
    let (batch_secs, batches) = span_secs(&tree, names::SPAN_SERVE_BATCH);
    out.set(
        "serve.batch_pairs_mean",
        pairs as f64 / batches.max(1) as f64,
    );
    out.set("serve.batch_ms", batch_secs * 1e3 / batches.max(1) as f64);
    out.set("serve.queue_mean", stats::mean(&queue));
    let [admitted, rejected, failed, restarts] = run.counters;
    out.set("serve.admitted", admitted as f64);
    out.set("serve.rejected", rejected as f64);
    out.set("serve.failed", failed as f64);
    out.set("serve.restarts", restarts as f64);
    out.set(
        "serve.gen_lag_ms",
        stats::median(
            &run.reference
                .iter()
                .map(|s| s.timing.lag_ms())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );

    out.set("obs.trace_overhead_frac", overhead);
    out.set("obs.events", events.len() as f64);
    Ok(())
}
