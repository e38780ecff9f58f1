//! Open-loop load over `em_serve::Client`.
//!
//! Request `k` of a rung is due at `start + k / rate`, whatever happened
//! to earlier requests. Requests are dealt round-robin to at most
//! `nproc` connections, one generator thread each. A thread writes every
//! request that is due, pipelining on its connection, and otherwise reads
//! the next response; when nothing is outstanding it sleeps until the
//! next due time. `Client` offers no split read and write halves, so a
//! read that blocks past a due time sends the request late: latency is
//! therefore counted from the due time, and the lateness is reported on
//! its own as the generator lag.

use crate::stats::{self, Timing};
use em_obs::Stopwatch;
use em_serve::{Client, Request, Response};
use std::collections::HashMap;
use std::io;
use std::time::Duration;

/// The terminal answer one request got.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A match result for the request's single pair.
    Matched {
        /// `P(match)` as served.
        proba: f32,
        /// The served binary decision.
        is_match: bool,
    },
    /// Shed by admission control.
    Rejected,
    /// Any other terminal answer (failed, deadline, malformed).
    Failed,
}

/// One request of a rung.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the pair list the rung drew from.
    pub pair: usize,
    /// Its clock readings.
    pub timing: Timing,
    /// Its terminal answer.
    pub answer: Answer,
}

/// A rung's summary.
#[derive(Debug, Clone)]
pub struct RungStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub requests: usize,
    /// Requests answered with a match.
    pub matched: usize,
    /// Requests shed.
    pub rejected: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Median due-time latency of the matched requests, ms.
    pub p50_ms: f64,
    /// Due-time p99 of the matched requests, ms, when there are enough.
    pub p99_ms: Option<f64>,
    /// The p99 the rung is judged by: a shed or failed request counts as
    /// missing any limit, so it enters as an infinite latency.
    pub verdict_p99_ms: Option<f64>,
    /// Median latency of the rung's last tenth, ms (shed or failed
    /// requests infinite): the growing-backlog probe.
    pub tail_decile_p50_ms: f64,
    /// Median generator lag, ms.
    pub lag_p50_ms: f64,
}

impl RungStats {
    /// Fold a rung's samples.
    pub fn of(rate: f64, samples: &[Sample]) -> RungStats {
        let matched: Vec<f64> = samples
            .iter()
            .filter(|s| matches!(s.answer, Answer::Matched { .. }))
            .map(|s| s.timing.latency_ms())
            .collect();
        let judged: Vec<f64> = samples
            .iter()
            .map(|s| match s.answer {
                Answer::Matched { .. } => s.timing.latency_ms(),
                Answer::Rejected | Answer::Failed => f64::INFINITY,
            })
            .collect();
        let lag: Vec<f64> = samples.iter().map(|s| s.timing.lag_ms()).collect();
        let tail = &judged[judged.len() - judged.len().div_ceil(10)..];
        let count = |f: fn(&Answer) -> bool| samples.iter().filter(|s| f(&s.answer)).count();
        RungStats {
            rate,
            requests: samples.len(),
            matched: matched.len(),
            rejected: count(|a| matches!(a, Answer::Rejected)),
            failed: count(|a| matches!(a, Answer::Failed)),
            p50_ms: stats::median(&matched).unwrap_or(f64::INFINITY),
            p99_ms: stats::tail_percentile(&matched, 99.0),
            verdict_p99_ms: stats::tail_percentile(&judged, 99.0),
            tail_decile_p50_ms: stats::median(tail).unwrap_or(f64::INFINITY),
            lag_p50_ms: stats::median(&lag).unwrap_or(0.0),
        }
    }

    /// The rung meets the limit: its p99, counting shed and failed
    /// requests as misses, is within `limit_ms`, and so is the median of
    /// its last tenth (no growing backlog).
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.verdict_p99_ms.is_some_and(|p| p <= limit_ms) && self.tail_decile_p50_ms <= limit_ms
    }
}

impl std::fmt::Display for RungStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6} req/s: {} requests, {} matched, {} rejected, {} failed; \
             p50 {:.2} ms, p99 {}, last-tenth p50 {:.2} ms, generator lag p50 {:.2} ms",
            self.rate,
            self.requests,
            self.matched,
            self.rejected,
            self.failed,
            self.p50_ms,
            self.p99_ms
                .map_or_else(|| "n/a".to_string(), |p| format!("{p:.2} ms")),
            self.tail_decile_p50_ms,
            self.lag_p50_ms,
        )
    }
}

/// Offer `requests` one-pair `match` requests at `rate` per second over
/// `conns` connections. Request `k` carries `pairs[draw[k]]`; ids are
/// `<tag>.<k>`. Times are read on `clock`.
pub fn run_rung(
    addr: &str,
    pairs: &[(u32, u32)],
    draw: &[usize],
    rate: f64,
    conns: usize,
    tag: &str,
    clock: Stopwatch,
) -> io::Result<Vec<Sample>> {
    let n = draw.len();
    let conns = conns.clamp(1, n.max(1));
    // A short lead lets every connection be open before the first due time.
    let start = clock.secs() + 0.02;
    let due = |k: usize| start + k as f64 / rate;
    let shares: Vec<io::Result<Vec<(usize, Timing, Answer)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let due = &due;
                s.spawn(move || -> io::Result<Vec<(usize, Timing, Answer)>> {
                    let mut client = Client::connect(addr)?;
                    let mine: Vec<usize> = (c..n).step_by(conns).collect();
                    let mut sent_at: HashMap<String, (usize, f64)> = HashMap::new();
                    let mut out = Vec::with_capacity(mine.len());
                    let mut next = 0;
                    while out.len() < mine.len() {
                        let now = clock.secs();
                        if next < mine.len() && due(mine[next]) <= now {
                            let k = mine[next];
                            let id = format!("{tag}.{k}");
                            client.send(&Request::Match {
                                id: id.clone(),
                                pairs: vec![pairs[draw[k]]],
                                deadline_ms: None,
                            })?;
                            sent_at.insert(id, (k, clock.secs()));
                            next += 1;
                        } else if !sent_at.is_empty() {
                            let resp = client.recv()?;
                            let done = clock.secs();
                            let (id, answer) = classify(resp);
                            let (k, sent) = sent_at.remove(&id).ok_or_else(|| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("answer for unknown request id {id:?}"),
                                )
                            })?;
                            out.push((
                                k,
                                Timing {
                                    due: due(k),
                                    sent,
                                    done,
                                },
                                answer,
                            ));
                        } else {
                            let wait = due(mine[next]) - now;
                            std::thread::sleep(Duration::from_secs_f64(wait.max(0.0)));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("generator thread panicked")))
            })
            .collect()
    });
    let mut samples: Vec<Option<Sample>> = vec![None; n];
    for share in shares {
        for (k, timing, answer) in share? {
            samples[k] = Some(Sample {
                pair: draw[k],
                timing,
                answer,
            });
        }
    }
    samples
        .into_iter()
        .map(|s| s.ok_or_else(|| io::Error::other("a request was never answered")))
        .collect()
}

fn classify(resp: Response) -> (String, Answer) {
    match resp {
        Response::Matched {
            id,
            proba,
            decision,
        } if proba.len() == 1 && decision.len() == 1 => (
            id,
            Answer::Matched {
                proba: proba[0],
                is_match: decision[0],
            },
        ),
        Response::Rejected { id, .. } => (id, Answer::Rejected),
        Response::Matched { id, .. }
        | Response::DeadlineExceeded { id }
        | Response::Duplicate { id }
        | Response::Failed { id, .. }
        | Response::BadRequest { id, .. }
        | Response::Pong { id }
        | Response::Stats { id, .. } => (id, Answer::Failed),
        Response::Drained { id, .. } => (id, Answer::Failed),
    }
}
