//! One benchmark run: set-up, the timed section, and the post-section
//! scoring, serving and checks, untraced or traced.

use crate::bench::{self, Budget, Prepared, ServeRun, Timers, Trained, Workload};
use crate::layers;
use crate::spec::Outcome;
use crate::stats::{self, Fnv};
use em_obs::Stopwatch;
use std::path::{Path, PathBuf};

const MIB: f64 = 1024.0 * 1024.0;

/// `serve` set-ups run between consecutive ladder runs.
const SETUPS_PER_LADDER_RUN: usize = 2;

/// Where results, traces and stored fingerprints go: `out/` beside the
/// benchmark's manifest, inside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one pass measured.
pub struct Pass {
    /// Wall time of each set-up.
    pub setup_secs: Vec<f64>,
    /// Dataset-to-trained-matcher wall time of each training.
    pub train_secs: Vec<f64>,
    /// Peak heap over the timed section, bytes.
    pub peak_heap: usize,
    /// Library-call timers of the last set-up and training.
    pub timers: Timers,
    /// The matcher the pass trained (or served).
    pub trained: Trained,
    /// Bulk scoring of that matcher.
    pub scoring: bench::Scoring,
    /// Every ladder run, timed section or post-section.
    pub serve_runs: Vec<ServeRun>,
}

impl Pass {
    /// The decision fingerprint of the pass's matcher: its test
    /// predictions and one bulk-scoring pass.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for &p in &self.trained.test_predictions {
            h.write(&[u8::from(p)]);
        }
        h.write(&self.scoring.fingerprint.to_le_bytes());
        h.0
    }
}

/// Run set-up `setup_reps` times and the timed section for
/// `budget.seconds` (at least once), then score, and serve unless the
/// timed section already did or `serve_after` is off.
///
/// Set-ups are spread over the run, not all run first: a shared host
/// has slow stretches, and one of them should not decide `setup_s` or
/// `train_s` on its own. `serve` runs its set-ups between ladder runs;
/// `train` and `selftrain` run half of theirs after the timed section.
pub fn pass(
    w: Workload,
    seed: u64,
    budget: &Budget,
    setup_reps: usize,
    serve_after: bool,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut timers = Timers::default();
    let mut setup_secs = Vec::new();
    let mut train_secs = Vec::new();
    let mut set_up = |timers: &mut Timers, train_secs: &mut Vec<f64>| -> Prepared {
        let t = Stopwatch::new();
        let p = bench::setup(w, seed, budget, timers);
        setup_secs.push(t.secs());
        if let Some((_, secs)) = &p.trained {
            train_secs.push(*secs);
        }
        p
    };
    let setup_reps = setup_reps.max(1);
    let mut prepared = set_up(&mut timers, &mut train_secs);
    let mut setups = 1;
    let late = if prepared.trained.is_none() {
        let late = setup_reps / 2;
        while setups < setup_reps - late {
            drop(prepared);
            prepared = set_up(&mut timers, &mut train_secs);
            setups += 1;
        }
        late
    } else {
        0
    };

    let mut serve_runs = Vec::new();
    let mut peak_heap = 0;
    let mut trained = match prepared.trained {
        Some((mut trained, _)) => {
            let mut spent = 0.0;
            loop {
                em_obs::alloc::reset_peak();
                let t = Stopwatch::new();
                let tag = format!("s{}", serve_runs.len());
                serve_runs.push(serve_spanned(&mut trained, seed, &tag, out)?);
                let secs = t.secs();
                spent += secs;
                peak_heap = peak_heap.max(em_obs::alloc::peak_bytes());
                if setups < setup_reps {
                    for _ in 0..SETUPS_PER_LADDER_RUN.min(setup_reps - setups) {
                        drop(trained);
                        let (next, _) = set_up(&mut timers, &mut train_secs)
                            .trained
                            .ok_or("serve set-up trained no matcher")?;
                        trained = next;
                        setups += 1;
                    }
                } else if spent + secs > budget.seconds {
                    break trained;
                }
            }
        }
        None => {
            em_obs::alloc::reset_peak();
            let clock = Stopwatch::new();
            let mut prints = Vec::new();
            let trained = loop {
                let t = Stopwatch::new();
                let trained =
                    bench::train(&prepared.ds, prepared.backbone.clone(), budget, &mut timers);
                let secs = t.secs();
                train_secs.push(secs);
                prints.push(trained.test_predictions.clone());
                if clock.secs() + secs > budget.seconds {
                    break trained;
                }
            };
            peak_heap = em_obs::alloc::peak_bytes();
            out.op(prints.iter().all(|p| *p == prints[0]), || {
                "repeated trainings made different test decisions".into()
            });
            trained
        }
    };
    for _ in 0..late {
        set_up(&mut Timers::default(), &mut Vec::new());
    }
    out.ops(setup_secs.len() as u64, 0, String::new);

    let scoring = {
        let _span = em_obs::span(em_obs::names::SPAN_PREDICT);
        let s = bench::score(&mut trained, seed, out);
        em_nn::tape::flush_op_stats();
        s
    };
    if serve_runs.is_empty() && serve_after {
        serve_runs.push(serve_spanned(&mut trained, seed, "p", out)?);
    }
    Ok(Pass {
        setup_secs,
        train_secs,
        peak_heap,
        timers,
        trained,
        scoring,
        serve_runs,
    })
}

/// [`bench::serve`] inside a `serve` span, flushing the served batches'
/// op profile into it.
fn serve_spanned(
    trained: &mut Trained,
    seed: u64,
    tag: &str,
    out: &mut Outcome,
) -> Result<ServeRun, String> {
    let _span = em_obs::span(em_obs::names::SPAN_SERVE);
    let run = bench::serve(trained, seed, tag, out);
    em_nn::tape::flush_op_stats();
    run
}

/// Reference-rate p50 and p99 and the highest passing rate, as medians
/// over the pass's ladder runs.
fn serve_summary(runs: &[ServeRun]) -> Result<(f64, f64, f64), String> {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut max = Vec::new();
    for r in runs {
        let reference = r.rungs.first().ok_or("a ladder ran no rung")?;
        p50.push(reference.p50_ms);
        p99.push(
            reference
                .p99_ms
                .ok_or("too few reference-rate samples for a p99 with ten samples beyond it")?,
        );
        max.push(r.max_rps);
    }
    let m = |v: &[f64]| stats::median(v).ok_or("no ladder ran");
    Ok((m(&p50)?, m(&p99)?, m(&max)?))
}

/// Compare `print` with the fingerprint stored for this workload, seed
/// and budget by an earlier run in the same checkout, storing it when
/// there is none.
fn check_stored(
    w: Workload,
    seed: u64,
    budget: &Budget,
    print: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = out_dir().join("fingerprints");
    let path = dir.join(format!("{}-{seed}-{}", w.name(), budget.decision_tag()));
    let ours = format!("{print:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) => out.op(stored.trim() == ours, || {
            format!(
                "seed {seed} decided {ours}, an earlier run decided {}",
                stored.trim()
            )
        }),
        Err(_) => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            em_resilience::atomic_write(&path, ours.as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The untraced run: every end-to-end metric.
pub fn untraced(w: Workload, seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let p = pass(w, seed, budget, budget.setup_reps, true, &mut out)?;
    check_stored(w, seed, budget, p.fingerprint(), &mut out)?;
    let (p50, p99, max_rps) = serve_summary(&p.serve_runs)?;
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    out.set("setup_s", median(&p.setup_secs));
    out.set("train_s", stats::fastest(&p.train_secs).unwrap_or(f64::NAN));
    out.notes
        .push(("score_pairs_per_s", p.scoring.pairs_per_s, "pairs/s"));
    out.notes.push(("test_f1", p.trained.test_f1, "points"));
    let samples: usize = p.serve_runs.iter().map(|r| r.reference.len()).sum();
    out.notes
        .push(("serve_reference_samples", samples as f64, "count"));
    out.set("peak_heap_mb", p.peak_heap as f64 / MIB);
    out.set("serve_p50_ms", p50);
    out.set("serve_p99_ms", p99);
    out.set("serve_max_rps", max_rps);
    Ok(out)
}

/// The traced run: the timed section once untraced, then the whole run
/// again with the JSONL trace and the op profiler on; every per-layer
/// metric comes from that trace and the calls timed around it.
pub fn traced(w: Workload, seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let once = Budget {
        seconds: 0.0,
        ..budget.clone()
    };
    let base = pass(w, seed, &once, 1, false, &mut out)?;
    let headline = |p: &Pass| -> Result<f64, String> {
        match w {
            Workload::Serve => serve_summary(&p.serve_runs).map(|s| s.0),
            _ => stats::fastest(&p.train_secs).ok_or_else(|| "no training ran".into()),
        }
    };
    let untraced = headline(&base)?;
    let base_print = base.fingerprint();
    drop(base);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    em_obs::set_run_seed(seed);
    em_obs::init_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    em_nn::tape::set_op_profile(true);
    let traced = pass(w, seed, &once, 1, true, &mut out);
    em_nn::tape::set_op_profile(false);
    em_obs::shutdown();
    let traced = traced?;

    out.op(traced.fingerprint() == base_print, || {
        "the traced run decided differently from the untraced run".into()
    });
    check_stored(w, seed, budget, traced.fingerprint(), &mut out)?;
    let events = em_prof::load_trace(&path)?;
    let overhead = (headline(&traced)? - untraced) / untraced;
    layers::fill(&events, &traced, overhead, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::sync::Mutex;

    /// Runs share process-global state (pool threads, the trace sink,
    /// the op profiler, the heap peak), so they take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(w: Workload) {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let budget = Budget::tiny(w);
        let out = untraced(w, 7, &budget).unwrap();
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        let line = out.json(&spec::end_to_end()).unwrap();
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        for d in spec::end_to_end() {
            assert!(
                out.values[&d.name] > 0.0,
                "{} reads {}",
                d.name,
                out.values[&d.name]
            );
        }

        // The traced run re-runs the same seed, so it also checks the
        // decisions against the fingerprint stored above.
        let out = traced(w, 7, &budget).unwrap();
        assert_eq!(out.failed, 0, "{} traced: {:?}", w.name(), out.failures);
        out.json(&spec::per_layer()).unwrap();
        assert!(out.values["obs.events"] > 0.0);
        assert!(out.values["serve.server_p50_ms"] > 0.0);
        assert!(out.values["nn.pretrain.matmul.bwd_ms"] > 0.0);
        assert!(out.values["nn.infer.matmul.fwd_ms"] > 0.0);
    }

    #[test]
    fn train_runs_at_a_tiny_budget() {
        smoke(Workload::Train);
    }

    #[test]
    fn selftrain_runs_at_a_tiny_budget() {
        smoke(Workload::SelfTrain);
    }

    #[test]
    fn serve_runs_at_a_tiny_budget() {
        smoke(Workload::Serve);
    }
}
