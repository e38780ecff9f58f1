//! Wire-latency regression tests over a live loopback server. The
//! scorers here cost nothing (or a fixed sleep), so a slow round trip
//! can only come from the socket: a line split over several writes, or
//! Nagle's algorithm holding a segment until the peer's delayed ACK
//! (up to ~40 ms on Linux). Each bound sits well below that stall.

use em_obs::Stopwatch;
use em_serve::protocol::{Request, Response};
use em_serve::{Client, MatchScorer, ScorerFactory, ServeCfg, Server};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Median request latency every probe must stay under.
const BOUND_MS: f64 = 10.0;

/// Answers every pair at once with a fixed score after `delay`.
struct FixedScorer {
    delay: Duration,
}

impl MatchScorer for FixedScorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        thread::sleep(self.delay);
        Ok(vec![(0.75, true); pairs.len()])
    }
}

fn start(delay: Duration) -> (Client, thread::JoinHandle<em_serve::DrainSummary>) {
    let factory: ScorerFactory = Arc::new(move || Box::new(FixedScorer { delay }));
    let cfg = ServeCfg {
        workers: 1,
        ..Default::default()
    };
    let server = Server::bind(cfg, factory).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (Client::connect(&addr).expect("connect"), handle)
}

fn shutdown(mut client: Client, server: thread::JoinHandle<em_serve::DrainSummary>) {
    let resp = client
        .call(&Request::Shutdown { id: "q".into() })
        .expect("shutdown");
    assert!(matches!(resp, Response::Drained { .. }), "{resp:?}");
    server.join().expect("server thread");
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn one_pair(id: String) -> Request {
    Request::Match {
        id,
        pairs: vec![(1, 2)],
        deadline_ms: None,
    }
}

/// Median latency of `n` sequential `call`s, after a short warm-up that
/// takes the connection out of the kernel's initial quick-ACK mode.
fn sequential_median_ms(client: &mut Client, n: usize, req: impl Fn(usize) -> Request) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n + 8 {
        let clock = Stopwatch::new();
        let resp = client.call(&req(i)).expect("call");
        let ms = clock.secs() * 1e3;
        assert!(
            matches!(resp, Response::Pong { .. } | Response::Matched { .. }),
            "{resp:?}"
        );
        if i >= 8 {
            samples.push(ms);
        }
    }
    let p50 = median_ms(samples);
    eprintln!("sequential round-trip median {p50:.3} ms");
    p50
}

#[test]
fn sequential_ping_round_trips_are_not_stalled() {
    let (mut client, server) = start(Duration::ZERO);
    let p50 = sequential_median_ms(&mut client, 40, |i| Request::Ping {
        id: format!("p{i}"),
    });
    assert!(p50 < BOUND_MS, "ping round-trip median {p50:.2} ms");
    shutdown(client, server);
}

#[test]
fn sequential_one_pair_match_round_trips_are_not_stalled() {
    let (mut client, server) = start(Duration::ZERO);
    let p50 = sequential_median_ms(&mut client, 40, |i| one_pair(format!("m{i}")));
    assert!(
        p50 < BOUND_MS,
        "one-pair match round-trip median {p50:.2} ms"
    );
    shutdown(client, server);
}

/// Each round pipelines a match whose scorer sleeps 25 ms and then
/// three pings, and times each ping from its send to its pong.
///
/// - The pings go out while the match is unacknowledged, and the server
///   has nothing to send before the match is scored. With Nagle on in
///   the client, they wait for the match's ACK.
/// - The server writes the second and third pongs while the first is
///   unacknowledged. With Nagle on in the server, they wait for the
///   client's delayed ACK.
///
/// Either stall puts most pings well over the bound.
#[test]
fn pipelined_responses_are_not_held_behind_unacked_ones() {
    const ROUNDS: usize = 24;
    const WARMUP: usize = 4;
    let (mut client, server) = start(Duration::from_millis(25));
    let mut samples = Vec::new();
    for round in 0..ROUNDS {
        client
            .send(&one_pair(format!("slow{round}")))
            .expect("send match");
        let mut sent = Vec::new();
        for k in 0..3 {
            client
                .send(&Request::Ping {
                    id: format!("p{round}.{k}"),
                })
                .expect("send ping");
            sent.push(Stopwatch::new());
        }
        for _ in 0..4 {
            match client.recv().expect("recv") {
                Response::Pong { id } => {
                    let k: usize = id
                        .rsplit('.')
                        .next()
                        .and_then(|k| k.parse().ok())
                        .expect("ping id");
                    if round >= WARMUP {
                        samples.push(sent[k].secs() * 1e3);
                    }
                }
                Response::Matched { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let p50 = median_ms(samples);
    eprintln!("pipelined ping median {p50:.3} ms");
    assert!(p50 < BOUND_MS, "pipelined ping median {p50:.2} ms");
    shutdown(client, server);
}
