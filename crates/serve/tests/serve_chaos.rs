//! Chaos tests over a live loopback server: a worker killed mid-batch
//! is restarted and every request is still answered exactly once; a
//! wedged worker is superseded without double answers; overload sheds
//! with typed rejections while every accepted request completes;
//! expired requests get `deadline_exceeded`, never silence; and an
//! overlong line is refused without taking the server down.

use em_serve::protocol::{Request, Response, MAX_LINE_BYTES};
use em_serve::{Client, MatchScorer, ScorerFactory, ServeCfg, Server};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The deterministic reference scorer: probability is a pure function
/// of the pair, so expected responses are computable in the test.
fn expected(l: u32, r: u32) -> (f32, bool) {
    let p = ((l.wrapping_mul(31).wrapping_add(r)) % 100) as f32 / 100.0;
    (p, p > 0.5)
}

struct EchoScorer;

impl MatchScorer for EchoScorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        Ok(pairs.iter().map(|&(l, r)| expected(l, r)).collect())
    }
}

/// Panics on its first `score` call; used for the first N instances the
/// factory hands out, after which replacements behave.
struct PanicScorer;

impl MatchScorer for PanicScorer {
    fn score(&mut self, _pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        panic!("chaos: injected worker crash")
    }
}

/// Sleeps before scoring (overload / wedge / deadline fodder).
struct SlowScorer(u64);

impl MatchScorer for SlowScorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        thread::sleep(Duration::from_millis(self.0));
        Ok(pairs.iter().map(|&(l, r)| expected(l, r)).collect())
    }
}

/// Factory whose first `crashes` scorers panic on first use.
fn crashy_factory(crashes: u64) -> ScorerFactory {
    let built = Arc::new(AtomicU64::new(0));
    Arc::new(move || {
        let n = built.fetch_add(1, Ordering::Relaxed);
        if n < crashes {
            Box::new(PanicScorer)
        } else {
            Box::new(EchoScorer)
        }
    })
}

fn start(
    cfg: ServeCfg,
    factory: ScorerFactory,
) -> (String, thread::JoinHandle<em_serve::DrainSummary>) {
    let server = Server::bind(cfg, factory).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Drive `n` match requests (ids `r0..`), collect every terminal
/// response by id, asserting no id is answered twice.
fn drive(client: &mut Client, n: u32, deadline_ms: Option<u64>) -> HashMap<String, Response> {
    for i in 0..n {
        client
            .send(&Request::Match {
                id: format!("r{i}"),
                pairs: vec![(i, i + 1), (i * 2, i)],
                deadline_ms,
            })
            .expect("send");
    }
    let mut got: HashMap<String, Response> = HashMap::new();
    for _ in 0..n {
        let resp = client.recv().expect("recv");
        let prev = got.insert(resp.id().to_string(), resp);
        assert!(prev.is_none(), "request answered twice: {prev:?}");
    }
    got
}

fn assert_matched(resp: &Response, i: u32) {
    let pairs = [(i, i + 1), (i * 2, i)];
    match resp {
        Response::Matched {
            proba, decision, ..
        } => {
            let want: Vec<(f32, bool)> = pairs.iter().map(|&(l, r)| expected(l, r)).collect();
            assert_eq!(proba, &want.iter().map(|w| w.0).collect::<Vec<_>>());
            assert_eq!(decision, &want.iter().map(|w| w.1).collect::<Vec<_>>());
        }
        other => panic!("r{i}: expected a match result, got {other:?}"),
    }
}

fn shutdown(client: &mut Client) -> u64 {
    match client
        .call(&Request::Shutdown { id: "q".into() })
        .expect("shutdown")
    {
        Response::Drained { completed, .. } => completed,
        other => panic!("expected Drained, got {other:?}"),
    }
}

#[test]
fn killed_worker_is_restarted_and_no_request_is_lost_or_doubled() {
    let cfg = ServeCfg {
        workers: 1,
        batch_max: 8,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        ..Default::default()
    };
    let (addr, server) = start(cfg, crashy_factory(1));
    let mut client = Client::connect(&addr).expect("connect");

    let got = drive(&mut client, 6, None);
    for i in 0..6 {
        assert_matched(&got[&format!("r{i}")], i);
    }
    let completed = shutdown(&mut client);
    assert_eq!(completed, 6);
    let summary = server.join().expect("server thread");
    assert!(
        summary.restarts >= 1,
        "the crash must be supervised: {summary:?}"
    );
    assert_eq!(summary.completed, 6);
    assert_eq!(summary.failed, 0);
}

#[test]
fn twice_lost_requests_fail_instead_of_replaying_forever() {
    let cfg = ServeCfg {
        workers: 1,
        batch_max: 8,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        ..Default::default()
    };
    // Every scorer the factory ever builds panics: first loss replays,
    // second loss must answer `failed` (at-most-once replay).
    let (addr, server) = start(cfg, crashy_factory(u64::MAX));
    let mut client = Client::connect(&addr).expect("connect");

    let got = drive(&mut client, 3, None);
    for i in 0..3 {
        match &got[&format!("r{i}")] {
            Response::Failed { reason, .. } => {
                assert!(reason.contains("twice"), "unexpected reason: {reason}");
            }
            other => panic!("r{i}: expected Failed after double loss, got {other:?}"),
        }
    }
    let _ = shutdown(&mut client);
    let summary = server.join().expect("server thread");
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.failed, 3);
    assert!(summary.restarts >= 2, "{summary:?}");
}

#[test]
fn wedged_worker_is_superseded_and_answers_exactly_once() {
    let cfg = ServeCfg {
        workers: 1,
        batch_max: 8,
        wedge_ms: 40,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        ..Default::default()
    };
    // First scorer wedges for far longer than wedge_ms, then finishes
    // and races the replacement; the CAS must keep replies single.
    let built = Arc::new(AtomicU64::new(0));
    let factory: ScorerFactory = Arc::new(move || {
        if built.fetch_add(1, Ordering::Relaxed) == 0 {
            Box::new(SlowScorer(400))
        } else {
            Box::new(EchoScorer)
        }
    });
    let (addr, server) = start(cfg, factory);
    let mut client = Client::connect(&addr).expect("connect");

    let got = drive(&mut client, 4, None);
    for i in 0..4 {
        assert_matched(&got[&format!("r{i}")], i);
    }
    // Give the detached wedged worker time to wake and lose the race
    // before draining, so the duplicate-suppression path actually runs.
    thread::sleep(Duration::from_millis(450));
    let _ = shutdown(&mut client);
    let summary = server.join().expect("server thread");
    assert!(
        summary.restarts >= 1,
        "wedge must trigger supervision: {summary:?}"
    );
    assert_eq!(summary.completed, 4);
}

#[test]
fn overload_sheds_typed_rejections_and_completes_the_rest() {
    let cfg = ServeCfg {
        workers: 1,
        batch_max: 1,
        queue_cap: 1,
        inflight_cap: 2,
        retry_after_ms: 7,
        ..Default::default()
    };
    let (addr, server) = start(cfg, Arc::new(|| Box::new(SlowScorer(30))));
    let mut client = Client::connect(&addr).expect("connect");

    let got = drive(&mut client, 10, None);
    let mut rejected = 0;
    let mut matched = 0;
    for i in 0..10 {
        match &got[&format!("r{i}")] {
            Response::Rejected { retry_after_ms, .. } => {
                assert_eq!(*retry_after_ms, 7);
                rejected += 1;
            }
            resp @ Response::Matched { .. } => {
                assert_matched(resp, i);
                matched += 1;
            }
            other => panic!("r{i}: unexpected {other:?}"),
        }
    }
    assert!(
        rejected >= 1,
        "a 10-deep burst over a 2-slot service must shed"
    );
    assert!(matched >= 1, "admitted requests must complete");
    let _ = shutdown(&mut client);
    let summary = server.join().expect("server thread");
    assert_eq!(summary.completed, matched);
    assert_eq!(summary.rejected, rejected);
}

#[test]
fn expired_requests_are_answered_deadline_exceeded_not_dropped() {
    let cfg = ServeCfg {
        workers: 1,
        batch_max: 1,
        ..Default::default()
    };
    let (addr, server) = start(cfg, Arc::new(|| Box::new(SlowScorer(60))));
    let mut client = Client::connect(&addr).expect("connect");

    client
        .send(&Request::Match {
            id: "head".into(),
            pairs: vec![(1, 2)],
            deadline_ms: None,
        })
        .expect("send");
    // Queued behind a 60ms forward with a 1ms budget: must expire.
    client
        .send(&Request::Match {
            id: "late".into(),
            pairs: vec![(3, 4)],
            deadline_ms: Some(1),
        })
        .expect("send");
    let mut got = HashMap::new();
    for _ in 0..2 {
        let resp = client.recv().expect("recv");
        got.insert(resp.id().to_string(), resp);
    }
    assert!(
        matches!(got["head"], Response::Matched { .. }),
        "{:?}",
        got["head"]
    );
    assert!(
        matches!(got["late"], Response::DeadlineExceeded { .. }),
        "{:?}",
        got["late"]
    );
    let _ = shutdown(&mut client);
    let summary = server.join().expect("server thread");
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 1, "expiry counts as a failed outcome");
}

#[test]
fn duplicate_ids_ping_stats_and_bad_lines_are_typed() {
    let (addr, server) = start(
        ServeCfg {
            workers: 1,
            ..Default::default()
        },
        Arc::new(|| Box::new(EchoScorer)),
    );
    let mut client = Client::connect(&addr).expect("connect");

    assert_eq!(
        client
            .call(&Request::Ping { id: "p".into() })
            .expect("ping"),
        Response::Pong { id: "p".into() }
    );
    let req = Request::Match {
        id: "dup".into(),
        pairs: vec![(1, 1)],
        deadline_ms: None,
    };
    assert!(matches!(
        client.call(&req).expect("first"),
        Response::Matched { .. }
    ));
    assert_eq!(
        client.call(&req).expect("second"),
        Response::Duplicate { id: "dup".into() }
    );
    match client
        .call(&Request::Stats { id: "s".into() })
        .expect("stats")
    {
        Response::Stats { body, .. } => {
            assert_eq!(body.admitted, 1);
            assert_eq!(body.completed, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let _ = shutdown(&mut client);
    let _ = server.join().expect("server thread");
}

#[test]
fn huge_line_is_refused_and_fresh_connections_are_still_served() {
    let cfg = ServeCfg {
        workers: 1,
        ..Default::default()
    };
    let server = Server::bind(cfg, Arc::new(|| Box::new(EchoScorer))).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let stats = server.stats();
    let handle = thread::spawn(move || server.run().expect("server run"));

    let mut huge = Client::connect(&addr).expect("connect");
    // The server stops reading one byte past the cap and closes, so the
    // tail of this send may fail; the refusal is already queued.
    let _ = huge.send(&Request::Ping {
        id: "x".repeat(MAX_LINE_BYTES + 4096),
    });
    match huge.recv().expect("refusal") {
        Response::BadRequest { reason, .. } => assert_eq!(reason, "line_too_long"),
        other => panic!("expected a line_too_long refusal, got {other:?}"),
    }
    assert!(
        huge.recv().is_err(),
        "the refused connection must be closed"
    );
    assert_eq!(stats.bad_lines.load(Ordering::Relaxed), 1);

    let mut fresh = Client::connect(&addr).expect("connect");
    assert_eq!(
        fresh.call(&Request::Ping { id: "p".into() }).expect("ping"),
        Response::Pong { id: "p".into() }
    );
    assert!(matches!(
        fresh
            .call(&Request::Match {
                id: "m".into(),
                pairs: vec![(3, 4)],
                deadline_ms: None,
            })
            .expect("match"),
        Response::Matched { .. }
    ));
    let _ = shutdown(&mut fresh);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.completed, 1);
}
