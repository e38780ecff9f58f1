//! The three workloads, driven through the public library calls
//! (`em_data::synth::build`, `promptem::pipeline`, `match_batch`,
//! `em_serve::{Server, Client}`) and timed from outside at those calls.

use crate::load::{self, Answer, RungStats, Sample};
use crate::spec::Outcome;
use crate::stats::{self, Fnv};
use em_data::pair::GemDataset;
use em_data::synth::{build, BenchmarkId, Scale};
use em_lm::PretrainedLm;
use em_obs::Stopwatch;
use em_serve::{Client, MatchScorer, Request, Response, ScorerFactory, ServeCfg, Server};
use promptem::pipeline::{encode_with, pretrain_backbone, run_encoded_retained};
use promptem::{EncodedDataset, EncodedPair, LstReport, PairCodec, PromptEmConfig, TrainedMatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The serve latency limit: a ladder rung counts only if its p99 is
/// within this many milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// Offered rates, requests per second. The first is the reference rate
/// that `serve_p50_ms` and `serve_p99_ms` are measured at.
pub const LADDER: [f64; 4] = [400.0, 1600.0, 6400.0, 25600.0];

/// Pairs per `match_batch` call in bulk scoring.
const SCORE_CHUNK: usize = 32;

/// How long bulk scoring repeats its passes (at least three).
const SCORE_SECS: f64 = 3.0;

/// Pairs re-scored one at a time to check chunked scoring.
const SPOT_CHECKS: usize = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// REL-HETER quick, 500 pretrain steps, one thread: pretraining-bound.
    Train,
    /// SEMI-HOMO full on a setup-pretrained backbone, `nproc` threads:
    /// prompt-tuning and MC-dropout-bound.
    SelfTrain,
    /// A small REL-HETER matcher served on loopback under open-loop load.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Train, Workload::SelfTrain, Workload::Serve];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::SelfTrain => "selftrain",
            Workload::Serve => "serve",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn dataset(self) -> (BenchmarkId, Scale) {
        match self {
            Workload::Train | Workload::Serve => (BenchmarkId::RelHeter, Scale::Quick),
            Workload::SelfTrain => (BenchmarkId::SemiHomo, Scale::Full),
        }
    }
}

/// How much work a run does. [`Budget::standard`] is the benchmark;
/// tests shrink it.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Backbone pretraining steps.
    pub pretrain_steps: usize,
    /// Teacher and student epochs, when overriding the quick defaults.
    pub epochs: Option<usize>,
    /// Whether the template grid search runs.
    pub grid_template: bool,
    /// Pool threads for the workload's training and scoring.
    pub threads: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Time budget of the timed section: it repeats while another
    /// repeat is expected to fit, and runs at least once.
    pub seconds: f64,
}

impl Budget {
    /// The benchmark's budget for `w` with a `seconds` timed section.
    pub fn standard(w: Workload, seconds: f64) -> Budget {
        let nproc = crate::host::nproc();
        let common = Budget {
            pretrain_steps: 500,
            epochs: None,
            grid_template: true,
            threads: 1,
            setup_reps: 5,
            seconds,
        };
        match w {
            // A dataset build takes milliseconds; many repeats steady
            // the median.
            Workload::Train => Budget {
                setup_reps: 25,
                ..common
            },
            Workload::SelfTrain => Budget {
                pretrain_steps: 40,
                threads: nproc,
                setup_reps: 3,
                ..common
            },
            // Served cost depends on the model's shape, not its budget:
            // a short training leaves room for many set-ups.
            Workload::Serve => Budget {
                pretrain_steps: 20,
                epochs: Some(1),
                grid_template: false,
                setup_reps: 10,
                ..common
            },
        }
    }

    /// A seconds-scale budget that still runs every phase.
    #[cfg(test)]
    pub fn tiny(w: Workload) -> Budget {
        Budget {
            pretrain_steps: 4,
            epochs: Some(1),
            grid_template: w == Workload::Train,
            setup_reps: 2,
            seconds: 0.0,
            ..Budget::standard(w, 0.0)
        }
    }

    fn config(&self) -> PromptEmConfig {
        let mut cfg = PromptEmConfig::default();
        cfg.pretrain.max_steps = self.pretrain_steps;
        if let Some(e) = self.epochs {
            cfg.lst.teacher.epochs = e;
            cfg.lst.student.epochs = e;
        }
        cfg.grid_template = self.grid_template;
        cfg
    }

    /// A tag naming every setting that changes decisions, so stored
    /// fingerprints are only compared like for like.
    pub fn decision_tag(&self) -> String {
        let mut h = Fnv::default();
        h.write(format!("{:?}/{}", self.config(), self.threads).as_bytes());
        format!("{:016x}", h.0)
    }
}

/// Wall times taken at the public library calls.
#[derive(Debug, Clone, Default)]
pub struct Timers {
    /// `em_data::synth::build`.
    pub build_s: f64,
    /// `pretrain_backbone`.
    pub pretrain_s: f64,
    /// `encode_with`.
    pub encode_s: f64,
    /// `run_encoded_retained`.
    pub tune_s: f64,
}

/// A trained matcher and what the run learned about it.
pub struct Trained {
    /// The tuned matcher.
    pub matcher: TrainedMatcher,
    /// Request-pair encoder for serving.
    pub codec: PairCodec,
    /// The encoded dataset the matcher was tuned on.
    pub encoded: EncodedDataset,
    /// Test F1 in points.
    pub test_f1: f64,
    /// Binary test predictions.
    pub test_predictions: Vec<bool>,
    /// Self-training report.
    pub lst: LstReport,
    /// Record-index pairs of the valid, test and unlabeled splits: the
    /// pool served requests draw from.
    pub pool: Vec<(u32, u32)>,
}

/// What set-up leaves for the timed section.
pub struct Prepared {
    /// The generated dataset.
    pub ds: GemDataset,
    /// A pretrained backbone (`selftrain`).
    pub backbone: Option<Arc<PretrainedLm>>,
    /// A trained matcher (`serve`) and its dataset-to-matcher wall time.
    pub trained: Option<(Trained, f64)>,
}

/// Build the workload's inputs and prepare what its timed section needs.
pub fn setup(w: Workload, seed: u64, budget: &Budget, timers: &mut Timers) -> Prepared {
    em_pool::set_threads(budget.threads);
    let (id, scale) = w.dataset();
    let t = Stopwatch::new();
    let ds = build(id, scale, seed);
    timers.build_s = t.secs();
    match w {
        Workload::Train => Prepared {
            ds,
            backbone: None,
            trained: None,
        },
        Workload::SelfTrain => {
            let t = Stopwatch::new();
            let backbone = pretrain_backbone(&ds, &budget.config());
            timers.pretrain_s = t.secs();
            Prepared {
                ds,
                backbone: Some(backbone),
                trained: None,
            }
        }
        Workload::Serve => {
            let t = Stopwatch::new();
            let trained = train(&ds, None, budget, timers);
            let secs = t.secs();
            Prepared {
                ds,
                backbone: None,
                trained: Some((trained, secs)),
            }
        }
    }
}

/// From the dataset to a trained matcher, evaluated on the test split:
/// pretrain (unless a backbone is given), encode, tune.
pub fn train(
    ds: &GemDataset,
    backbone: Option<Arc<PretrainedLm>>,
    budget: &Budget,
    timers: &mut Timers,
) -> Trained {
    let cfg = budget.config();
    let backbone = backbone.unwrap_or_else(|| {
        let t = Stopwatch::new();
        let b = pretrain_backbone(ds, &cfg);
        timers.pretrain_s = t.secs();
        b
    });
    let t = Stopwatch::new();
    let encoded = encode_with(ds, &backbone, &cfg);
    let codec = PairCodec::build(ds, &backbone.tokenizer, &cfg.encode);
    timers.encode_s = t.secs();
    let t = Stopwatch::new();
    let run = run_encoded_retained(backbone, &encoded, &cfg);
    timers.tune_s = t.secs();
    Trained {
        matcher: run.matcher,
        codec,
        encoded,
        test_f1: run.result.scores.f1,
        test_predictions: run.result.test_predictions,
        lst: run.result.lst,
        pool: ds
            .valid
            .iter()
            .chain(&ds.test)
            .chain(&ds.unlabeled)
            .map(|p| (p.pair.left as u32, p.pair.right as u32))
            .collect(),
    }
}

/// Bulk scoring over the valid, test and unlabeled pairs.
pub struct Scoring {
    /// Throughput of the fastest pass, pairs per second.
    pub pairs_per_s: f64,
    /// Fingerprint of one pass's decisions.
    pub fingerprint: u64,
}

/// Every encoded pair the matcher can be asked about, in a fixed order.
pub fn bulk_pairs(encoded: &EncodedDataset) -> Vec<EncodedPair> {
    encoded
        .valid
        .iter()
        .chain(&encoded.test)
        .map(|e| e.pair.clone())
        .chain(encoded.unlabeled.iter().cloned())
        .collect()
}

/// Score every bulk pair in `SCORE_CHUNK`-pair `match_batch` calls,
/// repeating passes for `SCORE_SECS` (at least three). Checks
/// that every pass decides identically and that a seeded sample of
/// one-pair calls equals the chunked result.
pub fn score(trained: &mut Trained, seed: u64, out: &mut Outcome) -> Scoring {
    let pairs = bulk_pairs(&trained.encoded);
    let mut secs = Vec::new();
    let mut prints = Vec::new();
    let mut first = Vec::new();
    let clock = Stopwatch::new();
    while secs.len() < 3 || clock.secs() < SCORE_SECS {
        let t = Stopwatch::new();
        let mut decisions = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(SCORE_CHUNK) {
            decisions.extend(trained.matcher.match_batch(chunk));
        }
        secs.push(t.secs());
        let mut h = Fnv::default();
        for d in &decisions {
            h.decision(d.proba, d.is_match);
        }
        prints.push(h.0);
        if first.is_empty() {
            first = decisions;
        }
    }
    out.op(prints.iter().all(|&p| p == prints[0]), || {
        format!("bulk scoring passes disagree: {prints:x?}")
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0_11E);
    for _ in 0..SPOT_CHECKS.min(pairs.len()) {
        let i = rng.gen_range(0..pairs.len());
        let one = trained.matcher.match_batch(std::slice::from_ref(&pairs[i]));
        let same = one.len() == 1
            && one[0].proba.to_bits() == first[i].proba.to_bits()
            && one[0].is_match == first[i].is_match;
        out.op(same, || {
            format!("pair {i}: one-pair call {one:?} != chunked {:?}", first[i])
        });
    }
    Scoring {
        pairs_per_s: pairs.len() as f64 / stats::fastest(&secs).unwrap_or(f64::INFINITY),
        fingerprint: prints[0],
    }
}

struct Scorer {
    matcher: TrainedMatcher,
    codec: PairCodec,
}

impl MatchScorer for Scorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        let encoded = pairs
            .iter()
            .map(|&(l, r)| {
                self.codec
                    .encode(l as usize, r as usize)
                    .ok_or_else(|| format!("pair ({l},{r}) out of range"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self
            .matcher
            .match_batch(&encoded)
            .into_iter()
            .map(|d| (d.proba, d.is_match))
            .collect())
    }
}

/// One ladder run against a fresh server.
pub struct ServeRun {
    /// Every rung run, in ladder order; the first is the reference rate.
    pub rungs: Vec<RungStats>,
    /// The reference rung's samples.
    pub reference: Vec<Sample>,
    /// Highest rate whose rung, and every rung below it, met the limit
    /// (0 when the reference rate already failed).
    pub max_rps: f64,
    /// Id prefix of the reference rung's requests.
    pub reference_tag: String,
    /// Server counters at drain: admitted, rejected, failed, restarts.
    pub counters: [u64; 4],
}

/// Serve `trained` with the default `ServeCfg` on loopback, climb the
/// ladder until a rung misses the limit, then drain the server. Every
/// served decision is checked against offline `match_batch`.
pub fn serve(
    trained: &mut Trained,
    seed: u64,
    tag: &str,
    out: &mut Outcome,
) -> Result<ServeRun, String> {
    let offline = {
        let encoded: Vec<EncodedPair> = trained
            .pool
            .iter()
            .map(|&(l, r)| trained.codec.encode(l as usize, r as usize))
            .collect::<Option<_>>()
            .ok_or("a dataset pair is outside the codec's tables")?;
        let mut d = Vec::with_capacity(encoded.len());
        for chunk in encoded.chunks(SCORE_CHUNK) {
            d.extend(trained.matcher.match_batch(chunk));
        }
        d
    };
    let factory: ScorerFactory = {
        let matcher = trained.matcher.clone();
        let codec = trained.codec.clone();
        Arc::new(move || {
            Box::new(Scorer {
                matcher: matcher.clone(),
                codec: codec.clone(),
            })
        })
    };
    let server = Server::bind(ServeCfg::default(), factory).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let live = server.stats();
    let conns = crate::host::nproc();
    let clock = Stopwatch::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_12E);
    let pool = &trained.pool;
    let mut climb = || -> Result<(Vec<RungStats>, Vec<Sample>, f64), String> {
        let mut rungs = Vec::new();
        let mut reference = Vec::new();
        let mut max_rps = 0.0;
        for (i, &rate) in LADDER.iter().enumerate() {
            // The fewest samples that carry a p99 with ten beyond it.
            let draw: Vec<usize> = (0..stats::samples_for(99.0))
                .map(|_| rng.gen_range(0..pool.len()))
                .collect();
            let rung_tag = format!("{tag}r{i}");
            let samples = load::run_rung(&addr, pool, &draw, rate, conns, &rung_tag, clock)
                .map_err(|e| format!("rung {rate} req/s: {e}"))?;
            let mismatched = samples
                .iter()
                .filter(|s| match s.answer {
                    Answer::Matched { proba, is_match } => {
                        let want = offline[s.pair];
                        proba.to_bits() != want.proba.to_bits() || is_match != want.is_match
                    }
                    _ => false,
                })
                .count() as u64;
            out.ops(samples.len() as u64, mismatched, || {
                format!("{mismatched} served decisions differ from offline match_batch")
            });
            let st = RungStats::of(rate, &samples);
            eprintln!("{tag} {st}");
            if i == 0 {
                // At the reference rate nothing may be shed or fail.
                let bad = (st.requests - st.matched) as u64;
                out.ops(0, bad, || {
                    format!("{bad} reference-rate requests not matched")
                });
                reference = samples;
            } else {
                // Past it, shedding is how a rung fails; only genuine
                // failures count against the run.
                let bad = st.failed as u64;
                out.ops(0, bad, || format!("{bad} requests failed at {rate} req/s"));
            }
            let ok = st.meets(LATENCY_LIMIT_MS);
            rungs.push(st);
            if !ok {
                break;
            }
            max_rps = rate;
        }
        Ok((rungs, reference, max_rps))
    };
    let (rungs, reference, max_rps) = std::thread::scope(|s| {
        let handle = s.spawn(move || server.run());
        let climbed = climb();
        let drained = shutdown(&addr);
        let joined = match handle.join() {
            Ok(r) => r.map(|_| ()).map_err(|e| format!("serve: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        let r = climbed?;
        drained?;
        joined?;
        Ok::<_, String>(r)
    })?;
    let snap = live.snapshot();
    Ok(ServeRun {
        rungs,
        reference,
        max_rps,
        reference_tag: format!("{tag}r0."),
        counters: [snap.admitted, snap.rejected, snap.failed, snap.restarts],
    })
}

fn shutdown(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("shutdown connect: {e}"))?;
    match client.call(&Request::Shutdown {
        id: "perfbench-shutdown".into(),
    }) {
        Ok(Response::Drained { .. }) => Ok(()),
        Ok(other) => Err(format!("unexpected shutdown answer {other:?}")),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}
