//! `promptem serve` — train once, then answer match requests over the
//! em-serve line protocol — and `promptem drive`, the concurrent load
//! driver CI uses to prove served decisions are byte-identical to the
//! offline `promptem match` run over the same pairs.

use crate::args::Args;
use crate::{announce_run, prepare_run};
use em_data::ingest;
use em_serve::{MatchScorer, Request, Response, ScorerFactory, ServeCfg, Server};
use promptem::{run_trained, PairCodec, TrainedMatcher};
use std::sync::Arc;

/// One worker's scorer: a snapshot of the trained matcher plus the pair
/// codec. `score` encodes request pairs exactly as the offline dataset
/// encoding does and runs one coalesced tape-free forward, so served
/// decisions are bit-identical to `promptem match` on the same pairs.
struct PipelineScorer {
    matcher: TrainedMatcher,
    codec: PairCodec,
}

impl MatchScorer for PipelineScorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        let mut encoded = Vec::with_capacity(pairs.len());
        for &(l, r) in pairs {
            let enc = self.codec.encode(l as usize, r as usize).ok_or_else(|| {
                let (nl, nr) = self.codec.sizes();
                format!("pair ({l},{r}) out of range for {nl} x {nr} tables")
            })?;
            encoded.push(enc);
        }
        Ok(self
            .matcher
            .match_batch(&encoded)
            .into_iter()
            .map(|d| (d.proba, d.is_match))
            .collect())
    }
}

/// Train the pipeline on the given tables/labels (same flags as
/// `match`), then serve match requests until a client drains us.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), String> {
    let (ds, cfg) = prepare_run(args)?;
    announce_run(&ds, &cfg);
    let (trained, codec) = {
        let _span = em_obs::span_with(em_obs::names::SPAN_MATCH, ds.name.clone());
        let out = run_trained(&ds, &cfg);
        em_nn::tape::flush_op_stats();
        out
    };
    println!("test scores: {}", trained.result.scores);

    let port: u16 = args.get_parse("port", 0u16)?;
    let serve_cfg = ServeCfg {
        addr: format!("127.0.0.1:{port}"),
        workers: args.get_parse("workers", 2usize)?,
        batch_max: args.get_parse("batch-max", 16usize)?,
        queue_cap: args.get_parse("queue-cap", 64usize)?,
        inflight_cap: args.get_parse("inflight-cap", 256usize)?,
        default_deadline_ms: match args.get_parse("deadline-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        wedge_ms: args.get_parse("wedge-ms", 2_000u64)?,
        ..Default::default()
    };
    let matcher = trained.matcher;
    let factory: ScorerFactory = Arc::new(move || {
        Box::new(PipelineScorer {
            matcher: matcher.clone(),
            codec: codec.clone(),
        })
    });
    let server = Server::bind(serve_cfg, factory).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    if let Some(path) = args.get("port-file") {
        em_resilience::atomic_write(std::path::Path::new(path), format!("{addr}\n").as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("serving on {addr}");
    let summary = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "drained: {} completed, {} rejected, {} failed, {} worker restarts",
        summary.completed, summary.rejected, summary.failed, summary.restarts
    );
    Ok(())
}

/// Drive every pair of a predictions CSV (`left,right,gold[,predicted]`)
/// through a running server and write the served decisions in the exact
/// `match --output` format, so `cmp` against the offline file proves
/// byte-identical serving.
pub(crate) fn cmd_drive(args: &Args) -> Result<(), String> {
    let addr = resolve_addr(args)?;
    let pairs_path = args.require("pairs")?;
    let body = std::fs::read_to_string(pairs_path).map_err(|e| format!("{pairs_path}: {e}"))?;
    let rows = parse_pair_rows(&body)?;
    if rows.is_empty() {
        return Err(format!("{pairs_path}: no pairs to drive"));
    }
    let connections: usize = args.get_parse("connections", 4usize)?;
    let pairs: Vec<(u32, u32)> = rows.iter().map(|&(l, r, _)| (l, r)).collect();
    let clock = em_obs::Stopwatch::new();
    let decisions =
        em_serve::drive_pairs(&addr, &pairs, connections).map_err(|e| format!("{addr}: {e}"))?;
    let secs = clock.secs();

    let mut out = String::from("left,right,gold,predicted\n");
    for (&(l, r, gold), &(_proba, decision)) in rows.iter().zip(&decisions) {
        out.push_str(&format!("{l},{r},{gold},{}\n", u8::from(decision)));
    }
    if let Some(out_path) = args.get("out") {
        em_resilience::atomic_write(std::path::Path::new(out_path), out.as_bytes())
            .map_err(|e| format!("{out_path}: {e}"))?;
        println!(
            "drove {} pairs in {:.1} ms ({:.0} pairs/s), wrote {out_path}",
            rows.len(),
            secs * 1e3,
            rows.len() as f64 / secs.max(1e-9)
        );
    } else {
        print!("{out}");
    }
    if args.switch("shutdown") {
        let mut client = em_serve::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        match client
            .call(&Request::Shutdown {
                id: "drive-shutdown".into(),
            })
            .map_err(|e| format!("{addr}: shutdown: {e}"))?
        {
            Response::Drained { completed, .. } => {
                println!("server drained after {completed} completed requests");
            }
            other => return Err(format!("unexpected shutdown answer: {other:?}")),
        }
    }
    Ok(())
}

/// `--addr` wins; otherwise read the address the server wrote with
/// `--port-file`.
fn resolve_addr(args: &Args) -> Result<String, String> {
    if let Some(addr) = args.get("addr") {
        return Ok(addr.to_string());
    }
    let path = args
        .get("port-file")
        .ok_or_else(|| "drive needs --addr or --port-file".to_string())?;
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let addr = body.trim();
    if addr.is_empty() {
        return Err(format!("{path}: empty port file"));
    }
    Ok(addr.to_string())
}

/// Parse `left,right,gold[,...]` rows (header optional); extra columns
/// — like the offline `predicted` — are ignored.
fn parse_pair_rows(body: &str) -> Result<Vec<(u32, u32, u8)>, String> {
    let rows = ingest::parse_csv(body).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (k, row) in rows.iter().enumerate() {
        if k == 0 && row.iter().any(|f| f.trim().parse::<u64>().is_err()) {
            continue; // header
        }
        if row.len() < 3 {
            return Err(format!("pairs row {} must have at least 3 fields", k + 1));
        }
        let parse = |i: usize, what: &str| -> Result<u32, String> {
            row[i]
                .trim()
                .parse()
                .map_err(|_| format!("bad {what} on pairs row {}", k + 1))
        };
        let gold = match row[2].trim() {
            "1" | "true" | "yes" => 1,
            _ => 0,
        };
        out.push((parse(0, "left index")?, parse(1, "right index")?, gold));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_rows_skip_header_and_extra_columns() {
        let rows = parse_pair_rows("left,right,gold,predicted\n3,4,1,0\n5,6,0,1\n").unwrap();
        assert_eq!(rows, vec![(3, 4, 1), (5, 6, 0)]);
    }

    #[test]
    fn short_pair_rows_are_rejected() {
        assert!(parse_pair_rows("1,2\n").is_err());
    }
}
