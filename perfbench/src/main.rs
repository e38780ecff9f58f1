//! `perfbench` — the PromptEM benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|selftrain|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line
//! of stdout, the JSON result `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when an output check failed and 2
//! when the run could not finish. See `perfbench/README.md`.

#[global_allocator]
static ALLOC: em_obs::alloc::CountingAllocator = em_obs::alloc::CountingAllocator;

mod bench;
mod host;
#[cfg(test)]
mod json;
mod layers;
mod load;
mod run;
mod spec;
mod stats;

use bench::{Budget, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <train|selftrain|serve> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let identity = host::Identity::probe();
    let header = format!(
        "workload={} seed={} seconds={} trace={} {identity}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# perfbench {header}");
    let budget = Budget::standard(w, args.seconds);
    let result = if args.trace {
        run::traced(w, args.seed, &budget)
    } else {
        run::untraced(w, args.seed, &budget)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", w.name(), args.seed);
            return ExitCode::from(2);
        }
    };
    let defs = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    for d in &defs {
        if let Some(v) = outcome.values.get(&d.name) {
            println!("{:<40} {v:>14.4} {}", d.name, d.unit);
        }
    }
    for (name, v, unit) in &outcome.notes {
        println!("{name:<40} {v:>14.4} {unit} (not in the result line)");
    }
    println!(
        "{:<40} {:>14.4} ratio ({} of {} operations)",
        "fail_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let line = match outcome.json(&defs) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let record = run::out_dir().join(format!(
        "{}-{}-trace{}.txt",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!("{header}\n{line}\n");
    if let Err(e) = std::fs::create_dir_all(run::out_dir())
        .and_then(|()| em_resilience::atomic_write(&record, body.as_bytes()))
    {
        eprintln!("perfbench: {}: {e}", record.display());
    }
    println!("{line}");
    if outcome.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
