//! The wire protocol: one flat JSON object per line, both directions.
//!
//! The schema is deliberately flat (scalars plus number arrays) so both
//! sides reuse `em_obs::event::parse_flat_object` — the exact parser the
//! trace tooling uses — instead of growing a second JSON dialect.
//!
//! Requests:
//!
//! ```json
//! {"op":"match","id":"r1","left":[0,2],"right":[1,3],"deadline_ms":500}
//! {"op":"ping","id":"p1"}
//! {"op":"stats","id":"s1"}
//! {"op":"shutdown","id":"q1"}
//! ```
//!
//! Responses carry the request `id` plus an `"ok"` flag; failures name a
//! typed `"error"` (`"rejected"`, `"deadline_exceeded"`, `"duplicate_id"`,
//! `"failed"`, `"bad_request"`). Parsing is total: torn or invalid lines
//! return `Err`, never panic.
//!
//! Framing: every line leaves the process as one [`write_line`] call on
//! a `TCP_NODELAY` socket, and the server refuses request lines longer
//! than [`MAX_LINE_BYTES`] with `bad_request` reason `line_too_long`.

use em_obs::event::{parse_flat_object, push_json_str, JsonVal};
use std::io::Write;

/// Longest request line (without its `'\n'`) the server reads; a longer
/// one is refused with `bad_request` reason `line_too_long` and the
/// connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Send one encoded line as a single `write_all` of the line plus its
/// `'\n'`. Writing the newline separately would put a 1-byte segment
/// behind the unacknowledged line, where Nagle's algorithm holds it
/// until the peer's delayed ACK (up to ~40 ms on Linux).
pub fn write_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score `(left, right)` record-index pairs against the served model.
    Match {
        /// Caller-chosen request id, echoed on the response. Ids must be
        /// unique per connection; reuse is answered with `duplicate_id`.
        id: String,
        /// Record index pairs `(left table, right table)`.
        pairs: Vec<(u32, u32)>,
        /// Optional per-request deadline in milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Request id, echoed back.
        id: String,
    },
    /// Counter snapshot.
    Stats {
        /// Request id, echoed back.
        id: String,
    },
    /// Graceful drain: stop admitting, finish in-flight work, then exit.
    Shutdown {
        /// Request id, echoed back on the final `Drained` response.
        id: String,
    },
}

/// Server counter snapshot carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests answered with a match result.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests answered `failed` or `deadline_exceeded`.
    pub failed: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Scores for every pair of the request, in request order.
    Matched {
        /// The request id.
        id: String,
        /// Match probability per pair.
        proba: Vec<f32>,
        /// Thresholded decision per pair.
        decision: Vec<bool>,
    },
    /// Shed by admission control; safe to retry after the hinted delay.
    Rejected {
        /// The request id.
        id: String,
        /// Why admission refused it (`queue_full`, `overloaded`,
        /// `draining`, or an injected fault).
        reason: String,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request's deadline passed before a worker could serve it.
    DeadlineExceeded {
        /// The request id.
        id: String,
    },
    /// A request id was reused on the same connection.
    Duplicate {
        /// The offending request id.
        id: String,
    },
    /// Terminal failure: the scorer errored, or the request was lost to
    /// a crashed worker twice (replays happen at most once).
    Failed {
        /// The request id.
        id: String,
        /// What went wrong.
        reason: String,
    },
    /// The request line did not parse or failed validation.
    BadRequest {
        /// The request id when one could be recovered, else empty.
        id: String,
        /// The parse or validation error.
        reason: String,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// The request id.
        id: String,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// The request id.
        id: String,
        /// Counter snapshot.
        body: StatsBody,
    },
    /// Final reply to [`Request::Shutdown`], sent once the mailbox and
    /// all in-flight work have drained.
    Drained {
        /// The request id.
        id: String,
        /// Total requests completed over the server's lifetime.
        completed: u64,
    },
}

fn push_u64_arr(out: &mut String, key: &str, vals: impl Iterator<Item = u64>) {
    out.push(',');
    push_json_str(out, key);
    out.push_str(":[");
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Typed field access over a parsed flat object.
struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    fn get(&self, key: &str) -> Option<&JsonVal> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(JsonVal::Str(s)) => Ok(s.clone()),
            other => Err(format!("field '{key}' must be a string, got {other:?}")),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(JsonVal::Num(n)) => Ok(*n as u64),
            other => Err(format!("field '{key}' must be a number, got {other:?}")),
        }
    }

    fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            Some(JsonVal::Num(n)) => Ok(Some(*n as u64)),
            Some(JsonVal::Null) | None => Ok(None),
            other => Err(format!(
                "field '{key}' must be a number or null, got {other:?}"
            )),
        }
    }

    fn arr_field(&self, key: &str) -> Result<&[f64], String> {
        match self.get(key) {
            Some(JsonVal::Arr(vs)) => Ok(vs),
            other => Err(format!("field '{key}' must be an array, got {other:?}")),
        }
    }
}

/// Best-effort id recovery from a line that may not fully parse, so a
/// `bad_request` reply can still name the request it answers.
pub fn line_id(line: &str) -> String {
    parse_flat_object(line)
        .ok()
        .and_then(|obj| {
            obj.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("id", JsonVal::Str(s)) => Some(s),
                _ => None,
            })
        })
        .unwrap_or_default()
}

impl Request {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"op\":");
        let (op, id) = match self {
            Request::Match { id, .. } => ("match", id),
            Request::Ping { id } => ("ping", id),
            Request::Stats { id } => ("stats", id),
            Request::Shutdown { id } => ("shutdown", id),
        };
        push_json_str(&mut out, op);
        out.push_str(",\"id\":");
        push_json_str(&mut out, id);
        if let Request::Match {
            pairs, deadline_ms, ..
        } = self
        {
            push_u64_arr(&mut out, "left", pairs.iter().map(|p| u64::from(p.0)));
            push_u64_arr(&mut out, "right", pairs.iter().map(|p| u64::from(p.1)));
            if let Some(d) = deadline_ms {
                out.push_str(&format!(",\"deadline_ms\":{d}"));
            }
        }
        out.push('}');
        out
    }

    /// Parse one request line. Total: every malformed input is an `Err`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let f = Fields(parse_flat_object(line)?);
        let op = f.str_field("op")?;
        let id = f.str_field("id")?;
        if id.is_empty() {
            return Err("empty request id".into());
        }
        match op.as_str() {
            "match" => {
                let left = f.arr_field("left")?;
                let right = f.arr_field("right")?;
                if left.len() != right.len() {
                    return Err(format!(
                        "left/right length mismatch: {} vs {}",
                        left.len(),
                        right.len()
                    ));
                }
                if left.is_empty() {
                    return Err("empty pair list".into());
                }
                let to_u32 = |v: f64, side: &str| -> Result<u32, String> {
                    if v < 0.0 || v > f64::from(u32::MAX) || v.fract() != 0.0 {
                        return Err(format!("bad {side} record index {v}"));
                    }
                    Ok(v as u32)
                };
                let pairs = left
                    .iter()
                    .zip(right)
                    .map(|(&l, &r)| Ok((to_u32(l, "left")?, to_u32(r, "right")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Request::Match {
                    id,
                    pairs,
                    deadline_ms: f.opt_u64_field("deadline_ms")?,
                })
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

impl Response {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::from("{\"id\":");
        match self {
            Response::Matched {
                id,
                proba,
                decision,
            } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":true,\"proba\":[");
                for (i, p) in proba.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    // f32 Display is the shortest decimal that round-trips
                    // to the same f32, so parse-back is bit-exact.
                    out.push_str(&format!("{p}"));
                }
                out.push(']');
                push_u64_arr(&mut out, "match", decision.iter().map(|&d| u64::from(d)));
            }
            Response::Rejected {
                id,
                reason,
                retry_after_ms,
            } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":false,\"error\":\"rejected\",\"reason\":");
                push_json_str(&mut out, reason);
                out.push_str(&format!(",\"retry_after_ms\":{retry_after_ms}"));
            }
            Response::DeadlineExceeded { id } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":false,\"error\":\"deadline_exceeded\"");
            }
            Response::Duplicate { id } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":false,\"error\":\"duplicate_id\"");
            }
            Response::Failed { id, reason } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":false,\"error\":\"failed\",\"reason\":");
                push_json_str(&mut out, reason);
            }
            Response::BadRequest { id, reason } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":false,\"error\":\"bad_request\",\"reason\":");
                push_json_str(&mut out, reason);
            }
            Response::Pong { id } => {
                push_json_str(&mut out, id);
                out.push_str(",\"ok\":true");
            }
            Response::Stats { id, body } => {
                push_json_str(&mut out, id);
                out.push_str(&format!(
                    ",\"ok\":true,\"admitted\":{},\"completed\":{},\"rejected\":{},\"failed\":{},\"restarts\":{}",
                    body.admitted, body.completed, body.rejected, body.failed, body.restarts
                ));
            }
            Response::Drained { id, completed } => {
                push_json_str(&mut out, id);
                out.push_str(&format!(",\"ok\":true,\"drained\":{completed}"));
            }
        }
        out.push('}');
        out
    }

    /// Parse one response line. Total: every malformed input is an `Err`.
    pub fn parse(line: &str) -> Result<Response, String> {
        let f = Fields(parse_flat_object(line)?);
        let id = f.str_field("id")?;
        let ok = match f.get("ok") {
            Some(JsonVal::Bool(b)) => *b,
            other => return Err(format!("field 'ok' must be a bool, got {other:?}")),
        };
        if ok {
            if f.get("proba").is_some() {
                let proba: Vec<f32> = f.arr_field("proba")?.iter().map(|&v| v as f32).collect();
                let decision: Vec<bool> = f.arr_field("match")?.iter().map(|&v| v != 0.0).collect();
                if proba.len() != decision.len() {
                    return Err("proba/match length mismatch".into());
                }
                return Ok(Response::Matched {
                    id,
                    proba,
                    decision,
                });
            }
            if f.get("admitted").is_some() {
                return Ok(Response::Stats {
                    id,
                    body: StatsBody {
                        admitted: f.u64_field("admitted")?,
                        completed: f.u64_field("completed")?,
                        rejected: f.u64_field("rejected")?,
                        failed: f.u64_field("failed")?,
                        restarts: f.u64_field("restarts")?,
                    },
                });
            }
            if f.get("drained").is_some() {
                return Ok(Response::Drained {
                    id,
                    completed: f.u64_field("drained")?,
                });
            }
            return Ok(Response::Pong { id });
        }
        match f.str_field("error")?.as_str() {
            "rejected" => Ok(Response::Rejected {
                id,
                reason: f.str_field("reason")?,
                retry_after_ms: f.u64_field("retry_after_ms")?,
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded { id }),
            "duplicate_id" => Ok(Response::Duplicate { id }),
            "failed" => Ok(Response::Failed {
                id,
                reason: f.str_field("reason")?,
            }),
            "bad_request" => Ok(Response::BadRequest {
                id,
                reason: f.str_field("reason")?,
            }),
            other => Err(format!("unknown error kind '{other}'")),
        }
    }

    /// The request id this response answers.
    pub fn id(&self) -> &str {
        match self {
            Response::Matched { id, .. }
            | Response::Rejected { id, .. }
            | Response::DeadlineExceeded { id }
            | Response::Duplicate { id }
            | Response::Failed { id, .. }
            | Response::BadRequest { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Drained { id, .. } => id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Match {
                id: "r-1".into(),
                pairs: vec![(0, 1), (7, 3)],
                deadline_ms: Some(250),
            },
            Request::Match {
                id: "r \"quoted\"\n".into(),
                pairs: vec![(u32::MAX, 0)],
                deadline_ms: None,
            },
            Request::Ping { id: "p".into() },
            Request::Stats { id: "s".into() },
            Request::Shutdown { id: "q".into() },
        ];
        for r in reqs {
            let line = r.encode();
            assert_eq!(Request::parse(&line).as_ref(), Ok(&r), "{line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Matched {
                id: "r-1".into(),
                proba: vec![0.25, 1.0, 1e-7],
                decision: vec![false, true, false],
            },
            Response::Rejected {
                id: "r-2".into(),
                reason: "queue_full".into(),
                retry_after_ms: 25,
            },
            Response::DeadlineExceeded { id: "r-3".into() },
            Response::Duplicate { id: "r-4".into() },
            Response::Failed {
                id: "r-5".into(),
                reason: "worker_lost".into(),
            },
            Response::BadRequest {
                id: String::new(),
                reason: "unknown op 'x'".into(),
            },
            Response::Pong { id: "p".into() },
            Response::Stats {
                id: "s".into(),
                body: StatsBody {
                    admitted: 10,
                    completed: 7,
                    rejected: 2,
                    failed: 1,
                    restarts: 3,
                },
            },
            Response::Drained {
                id: "q".into(),
                completed: 7,
            },
        ];
        for r in resps {
            let line = r.encode();
            assert_eq!(Response::parse(&line).as_ref(), Ok(&r), "{line}");
        }
    }

    #[test]
    fn invalid_lines_are_typed_errors() {
        for bad in [
            "",
            "{",
            "{}",
            "not json at all",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[1],\"right\":[1,2]}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[],\"right\":[]}",
            "{\"op\":\"match\",\"id\":\"\",\"left\":[1],\"right\":[2]}",
            "{\"op\":\"nope\",\"id\":\"x\"}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[1.5],\"right\":[2]}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[-1],\"right\":[2]}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        for bad in ["", "{}", "{\"id\":\"x\"}", "{\"id\":\"x\",\"ok\":false}"] {
            assert!(Response::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// Records the bytes of every `write` call it receives.
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_issues_one_write_per_line() {
        let mut log = WriteLog(Vec::new());
        let line = Response::Pong { id: "p".into() }.encode();
        write_line(&mut log, line.clone()).expect("in-memory write");
        assert_eq!(log.0, vec![format!("{line}\n").into_bytes()]);
    }

    #[test]
    fn line_id_recovers_when_possible() {
        assert_eq!(line_id("{\"op\":\"nope\",\"id\":\"x7\"}"), "x7");
        assert_eq!(line_id("garbage"), "");
    }
}
