//! Criterion microbenchmarks of the substrates: serialization, TF-IDF
//! summarization, tokenization, matmul kernels and their backward
//! products, embedding-gradient scatter, encoder forward, MC-Dropout
//! passes, MC-EL2N scoring and one RWR power-iteration step.

use criterion::{criterion_group, criterion_main, Criterion};
use em_data::serialize::serialize;
use em_data::summarize::TfIdf;
use em_data::synth::{build, BenchmarkId, Scale};
use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
use em_nn::{Matrix, Tape};
use std::hint::black_box;

fn bench_serialize(c: &mut Criterion) {
    let ds = build(BenchmarkId::SemiHeter, Scale::Quick, 1);
    let record = ds.left.records[0].clone();
    let format = ds.left.format;
    c.bench_function("serialize_semi_structured_record", |b| {
        b.iter(|| black_box(serialize(black_box(&record), format)))
    });
}

fn bench_summarize(c: &mut Criterion) {
    let ds = build(BenchmarkId::SemiTextW, Scale::Quick, 2);
    let texts: Vec<String> = ds
        .right
        .records
        .iter()
        .map(|r| serialize(r, ds.right.format))
        .collect();
    let tfidf = TfIdf::fit(texts.iter().map(|s| s.as_str()));
    let long = texts.iter().max_by_key(|t| t.len()).unwrap().clone();
    c.bench_function("tfidf_summarize_long_text", |b| {
        b.iter(|| black_box(tfidf.summarize(black_box(&long), 16)))
    });
}

fn tiny_lm() -> PretrainedLm {
    let corpus: Vec<String> = (0..40)
        .map(|i| format!("record {} with value {} and city {}", i, i * 7 % 13, i % 5))
        .collect();
    PretrainedLm::pretrain(
        &corpus,
        LmConfig::tiny,
        &PretrainCfg {
            max_steps: 30,
            ..Default::default()
        },
        3,
    )
}

fn bench_tokenize(c: &mut Criterion) {
    let lm = tiny_lm();
    let text = "record 17 with value 978067233 and city 4 plus unseen-token 412-555-0123";
    c.bench_function("tokenizer_encode", |b| {
        b.iter(|| black_box(lm.tokenizer.encode(black_box(text))))
    });
}

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::from_fn(48, 32, |r, cc| ((r * 31 + cc) as f32).sin());
    let bm = Matrix::from_fn(32, 32, |r, cc| ((r + cc * 7) as f32).cos());
    c.bench_function("matmul_48x32x32", |b| {
        b.iter(|| black_box(a.matmul(black_box(&bm))))
    });
}

/// The backward products at the shapes one `train` pretraining step
/// runs (tiny LM: d 32, FFN 64, REL-HETER quick vocabulary 2964, 16
/// sequences of about 40 tokens, about 96 masked rows): `da = g·bᵀ` is
/// `matmul_nt`, `db = aᵀ·g` is `matmul_tn`.
fn bench_backward_products(c: &mut Criterion) {
    let m = |r: usize, cc: usize, s: usize| {
        Matrix::from_fn(r, cc, |i, j| ((i * 31 + j * 7 + s) as f32).sin())
    };
    for (name, rows, d_in, d_out) in [
        ("seq40_32x32", 40, 32, 32),
        ("seq40_32x64", 40, 32, 64),
        ("tied_head_96x32x2964", 96, 32, 2964),
    ] {
        let (a, w, g) = (m(rows, d_in, 1), m(d_in, d_out, 2), m(rows, d_out, 3));
        c.bench_function(&format!("matmul_nt_{name}"), |b| {
            b.iter(|| black_box(g.matmul_nt(black_box(&w))))
        });
        c.bench_function(&format!("matmul_tn_{name}"), |b| {
            b.iter(|| black_box(a.matmul_tn(black_box(&g))))
        });
    }
}

/// One batch of token-embedding lookups and its backward: 16 sequences
/// of 40 ids gathered from a 2964×32 table whose gradient slot the tied
/// head has already filled, as in pretraining.
fn bench_gather_rows_backward(c: &mut Criterion) {
    let table = Matrix::from_fn(2964, 32, |i, j| ((i * 13 + j) as f32).cos());
    let seqs: Vec<Vec<usize>> = (0..16)
        .map(|s| (0..40).map(|t| (s * 97 + t * 31) % 2964).collect())
        .collect();
    c.bench_function("gather_rows_backward_2964x32_16x40", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let t = tape.constant(table.clone());
            let parts: Vec<_> = seqs.iter().map(|ids| tape.gather_rows(t, ids)).collect();
            // Recorded last, so backward reaches it first, like the head.
            let tied = tape.transpose(t);
            let head = tape.mean_all(tied);
            let stacked = tape.concat_rows(&parts);
            let lookups = tape.mean_all(stacked);
            let loss = tape.add(lookups, head);
            tape.backward(loss);
            black_box(tape.grad(t))
        })
    });
}

fn bench_encoder_forward(c: &mut Criterion) {
    let lm = tiny_lm();
    let ids: Vec<usize> = (0..40).map(|i| 8 + i % 30).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    c.bench_function("encoder_forward_seq40", |b| {
        b.iter(|| {
            let mut tape = Tape::inference();
            black_box(
                lm.encoder
                    .forward(&mut tape, &lm.store, black_box(&ids), &mut rng),
            );
        })
    });
}

fn bench_train_step(c: &mut Criterion) {
    let lm = tiny_lm();
    let mut store = lm.store.clone();
    let ids: Vec<usize> = (0..40).map(|i| 8 + i % 30).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut opt = em_nn::AdamW::new(1e-4);
    c.bench_function("encoder_train_step_seq40", |b| {
        b.iter(|| {
            store.zero_grads();
            let mut tape = Tape::new();
            let h = lm.encoder.forward(&mut tape, &store, &ids, &mut rng);
            let pooled = tape.slice_rows(h, 0, 1);
            let logits = lm.mlm.logits(&mut tape, &store, &lm.encoder, pooled);
            let loss = tape.cross_entropy(logits, &[9]);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        })
    });
}

fn bench_rwr_step(c: &mut Criterion) {
    use em_baselines::{MatchTask, Matcher, TDmatchBaseline};
    use promptem::pipeline::{encode_with, pretrain_backbone, PromptEmConfig};
    let ds = build(BenchmarkId::RelHeter, Scale::Quick, 5);
    let mut cfg = PromptEmConfig::default();
    cfg.pretrain.max_steps = 10;
    cfg.corpus.max_record_sentences = 50;
    cfg.corpus.relation_statements = 30;
    let backbone = pretrain_backbone(&ds, &cfg);
    let encoded = encode_with(&ds, &backbone, &cfg);
    c.bench_function("tdmatch_full_fit", |b| {
        b.iter(|| {
            let task = MatchTask {
                raw: &ds,
                encoded: &encoded,
                backbone: backbone.clone(),
            };
            let mut m = TDmatchBaseline::new();
            m.fit(&task);
            black_box(m.predict_test(&task))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serialize, bench_summarize, bench_tokenize, bench_matmul,
              bench_backward_products, bench_gather_rows_backward,
              bench_encoder_forward, bench_train_step, bench_rwr_step
}
criterion_main!(benches);
