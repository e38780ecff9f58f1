//! Table 4 — efficiency: training time and peak memory for the best
//! baseline of each category (SBERT, Rotom, TDmatch) vs PromptEM without
//! dynamic data pruning ("PromptEM-") and full PromptEM.
//!
//! Peak memory is measured with a counting global allocator (the paper
//! reports GPU/CPU memory; ours is process heap).
//!
//! Run: `cargo bench -p em-bench --bench table4_efficiency`

use em_bench::methods::{run_method, Bench, MethodId};
use em_bench::{experiment_seed, table};
use em_data::synth::{BenchmarkId, Scale};
use em_obs::alloc::{format_bytes, peak_bytes, reset_peak, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let scale = Scale::from_env();
    println!(
        "\nTable 4 — training time and peak heap ({scale:?} scale, seed {})\n",
        experiment_seed()
    );
    let methods = [
        MethodId::SBert,
        MethodId::Rotom,
        MethodId::TDmatch,
        MethodId::PromptEmNoDdp, // "PromptEM-"
        MethodId::PromptEm,
    ];
    let mut header = vec!["Dataset".to_string()];
    for m in methods {
        let label = if m == MethodId::PromptEmNoDdp {
            "PromptEM-"
        } else {
            m.name()
        };
        header.push(format!("{label} T."));
        header.push(format!("{label} M."));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let mut rows = Vec::new();
    let mut ddp_speedups = Vec::new();
    for id in BenchmarkId::ALL {
        let bench = Bench::prepare(id, scale);
        let mut row = vec![id.abbrev().to_string()];
        let mut t_noddp = 0.0f64;
        for method in methods {
            reset_peak();
            let r = run_method(method, &bench);
            let peak = peak_bytes();
            row.push(table::duration(r.fit_secs));
            row.push(format_bytes(peak));
            eprintln!(
                "[table4] {} / {}: {} ({}, F1 {:.1})",
                method.name(),
                id.abbrev(),
                table::duration(r.fit_secs),
                format_bytes(peak),
                r.scores.f1
            );
            if method == MethodId::PromptEmNoDdp {
                t_noddp = r.fit_secs;
            } else if method == MethodId::PromptEm && t_noddp > 0.0 {
                ddp_speedups.push(100.0 * (1.0 - r.fit_secs / t_noddp));
            }
        }
        rows.push(row);
    }
    println!("{}", table::render(&header_refs, &rows));
    let mean_speedup = ddp_speedups.iter().sum::<f64>() / ddp_speedups.len().max(1) as f64;
    println!("DDP training-time reduction vs PromptEM-: {mean_speedup:.1}% on average");
    println!("(paper: 26.1% on average).");
    println!("expected shape (paper Table 4): TDmatch is by far the slowest on the");
    println!("larger datasets; Rotom costs more than SBERT (two-stage); PromptEM <");
    println!("PromptEM- in time with equal memory.");
}
