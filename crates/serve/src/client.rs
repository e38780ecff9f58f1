//! A small blocking client over the line protocol. The CLI's load
//! driver and the tests go through this type, keeping every raw socket
//! in the workspace inside `crates/serve` (the `net-use` lint enforces
//! exactly that).

use crate::protocol::{write_line, Request, Response};
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::TcpStream;
use std::time::Duration;

/// Give up on a pair after this many shed-and-retry rounds.
const DRIVE_ATTEMPTS: u64 = 2_000;

/// One connection to a running server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (`host:port`). The socket has Nagle's
    /// algorithm off, so a pipelined request never waits for the ACK of
    /// the one before it.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one request line. Pipelining is fine: responses may arrive
    /// in any order (match them up by id).
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_line(&mut self.stream, req.encode())
    }

    /// Block for the next response line. A server-side close is
    /// `UnexpectedEof`; an unparseable line is `InvalidData`.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return Response::parse(trimmed)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
        }
    }

    /// Send one request and block for one response. Only safe when
    /// nothing else is pipelined on this connection.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

/// Drive `pairs` through a running server with `connections` concurrent
/// clients (one pair per request, so the server's micro-batching — not
/// the client — does the coalescing). `rejected` answers are retried
/// after the server's `retry_after_ms` hint, under a fresh request id
/// each time (ids are single-use per connection). Results come back in
/// input order; any other non-match terminal answer is an error.
pub fn drive_pairs(
    addr: &str,
    pairs: &[(u32, u32)],
    connections: usize,
) -> std::io::Result<Vec<(f32, bool)>> {
    let conns = connections.clamp(1, pairs.len().max(1));
    let mut handles = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = addr.to_string();
        // Round-robin sharding keeps every connection busy to the end,
        // so concurrent load (and thus batching) is sustained.
        let share: Vec<(usize, (u32, u32))> = pairs
            .iter()
            .copied()
            .enumerate()
            .skip(c)
            .step_by(conns)
            .collect();
        handles.push(std::thread::spawn(move || drive_share(&addr, &share)));
    }
    let mut out: Vec<Option<(f32, bool)>> = vec![None; pairs.len()];
    for h in handles {
        let share = h
            .join()
            .map_err(|_| std::io::Error::other("driver connection thread panicked"))??;
        for (i, v) in share {
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|v| v.ok_or_else(|| std::io::Error::other("a pair was never answered")))
        .collect()
}

/// One connection's slice of the drive: sequential request/response
/// with shed-retry, tagged with the original input positions.
fn drive_share(
    addr: &str,
    share: &[(usize, (u32, u32))],
) -> std::io::Result<Vec<(usize, (f32, bool))>> {
    let mut client = Client::connect(addr)?;
    let mut out = Vec::with_capacity(share.len());
    for &(i, pair) in share {
        out.push((i, drive_one(&mut client, i, pair)?));
    }
    Ok(out)
}

fn drive_one(client: &mut Client, i: usize, pair: (u32, u32)) -> std::io::Result<(f32, bool)> {
    for attempt in 0..DRIVE_ATTEMPTS {
        let resp = client.call(&Request::Match {
            id: format!("d{i}a{attempt}"),
            pairs: vec![pair],
            deadline_ms: None,
        })?;
        match resp {
            Response::Matched {
                proba, decision, ..
            } if proba.len() == 1 && decision.len() == 1 => {
                return Ok((proba[0], decision[0]));
            }
            Response::Rejected { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1_000)));
            }
            other => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("pair {i}: unexpected terminal answer {other:?}"),
                ));
            }
        }
    }
    Err(std::io::Error::new(
        ErrorKind::TimedOut,
        format!("pair {i}: still shed after {DRIVE_ATTEMPTS} attempts"),
    ))
}
