//! Canonical trace form: the determinism contract of a run, with the
//! timing stripped out.
//!
//! Two runs of the same seed and config must produce the *same decisions*
//! — spans opened in the same order, the same optimizer steps, the same
//! pseudo-label selections, the same metrics counts — even though wall
//! times, throughputs, and heap peaks differ on every run. The `--threads`
//! bit-exactness gate needs exactly that split: a 4-thread scoring run is
//! required to be byte-identical to the 1-thread run *after* zeroing the
//! fields that merely measure time and memory.
//!
//! Canonicalization maps each typed [`Event`] to a copy with volatile
//! fields zeroed, re-encodes it with the standard writer, and compares the
//! resulting line sequences. Zeroed rather than removed, so canonical lines
//! still parse with [`Event::parse`] and line numbers match the original
//! trace one-to-one.
//!
//! The volatile set is declared in the event schema itself: every field
//! the table in `em_obs::names` marks `[volatile]` (timing, rate and heap
//! measurements — span and epoch wall times, `op_stats` wall times and
//! bytes, `progress` rate/ETA/heap, `ckpt_save` bytes, and the `metric`
//! count and percentiles) is zeroed by [`EventKind::zero_volatile`], plus
//! the envelope's `t_us`. One rule depends on the data and is written out
//! here: a histogram `metric` also zeroes its `value` (the mean of a
//! timing distribution), so only its name and kind survive.
//!
//! `op_stats` call counts and `elems` are global sums over a swap-drain
//! table, so they are invariant under worker interleaving; their wall
//! times and allocator bytes are not. `progress.tape_nodes` is
//! deliberately kept: scoring is tape-free on every thread count, so a
//! divergence there means a recording tape leaked into an inference path.

use em_obs::{Event, EventKind};

/// The canonical (volatile-fields-zeroed) copy of one event.
pub fn canonical_event(e: &Event) -> Event {
    let mut kind = e.kind.clone();
    kind.zero_volatile();
    if let EventKind::Metric { kind, value, .. } = &mut kind {
        if kind == "histogram" {
            *value = 0.0;
        }
    }
    Event {
        t_us: 0,
        kind,
        ..*e
    }
}

/// The canonical JSONL lines of a trace, one per event, in trace order.
pub fn canonical_lines(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| canonical_event(e).to_json())
        .collect()
}

/// The first place two canonicalized traces disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based event index of the first mismatch (== the shorter length
    /// when one trace is a strict prefix of the other).
    pub index: usize,
    /// Canonical line from the left trace, if it has one at `index`.
    pub left: Option<String>,
    /// Canonical line from the right trace, if it has one at `index`.
    pub right: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first divergence at event {}:", self.index)?;
        writeln!(
            f,
            "  left:  {}",
            self.left.as_deref().unwrap_or("<end of trace>")
        )?;
        write!(
            f,
            "  right: {}",
            self.right.as_deref().unwrap_or("<end of trace>")
        )
    }
}

/// Compare two traces in canonical form. `None` means the runs made
/// identical decisions; `Some` carries the first mismatching lines.
pub fn first_divergence(left: &[Event], right: &[Event]) -> Option<Divergence> {
    let la = canonical_lines(left);
    let lb = canonical_lines(right);
    for (i, (a, b)) in la.iter().zip(&lb).enumerate() {
        if a != b {
            return Some(Divergence {
                index: i,
                left: Some(a.clone()),
                right: Some(b.clone()),
            });
        }
    }
    if la.len() != lb.len() {
        let i = la.len().min(lb.len());
        return Some(Divergence {
            index: i,
            left: la.get(i).cloned(),
            right: lb.get(i).cloned(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, kind: EventKind) -> Event {
        Event {
            seq,
            seed: 7,
            t_us,
            span: None,
            kind,
        }
    }

    #[test]
    fn timing_differences_cancel_out() {
        let slow = ev(
            1,
            999,
            EventKind::SpanClose {
                id: 1,
                name: "pseudo_score".into(),
                wall_us: 2_000_000,
                heap_delta: 4096,
                heap_peak: 1 << 30,
            },
        );
        let fast = ev(
            1,
            5,
            EventKind::SpanClose {
                id: 1,
                name: "pseudo_score".into(),
                wall_us: 480_000,
                heap_delta: -64,
                heap_peak: 1 << 20,
            },
        );
        assert_eq!(first_divergence(&[slow], &[fast]), None);
    }

    #[test]
    fn decision_differences_do_not() {
        let a = ev(
            1,
            0,
            EventKind::PseudoSelect {
                count: 6,
                tpr: Some(1.0),
                tnr: Some(0.875),
            },
        );
        let b = ev(
            1,
            0,
            EventKind::PseudoSelect {
                count: 7,
                tpr: Some(1.0),
                tnr: Some(0.875),
            },
        );
        let d = first_divergence(&[a], &[b]).expect("count change must diverge");
        assert_eq!(d.index, 0);
        assert!(d.left.unwrap().contains("\"count\":6"));
    }

    #[test]
    fn op_stats_keep_counts_drop_times() {
        let mk = |fwd_us, bytes| {
            ev(
                3,
                0,
                EventKind::OpStats {
                    op: "matmul".into(),
                    fwd_calls: 118_700,
                    fwd_us,
                    bwd_calls: 0,
                    bwd_us: 0,
                    elems: 42,
                    bytes,
                },
            )
        };
        assert_eq!(first_divergence(&[mk(718_000, 10)], &[mk(5, 99)]), None);
        let a = ev(
            3,
            0,
            EventKind::OpStats {
                op: "matmul".into(),
                fwd_calls: 118_700,
                fwd_us: 0,
                bwd_calls: 0,
                bwd_us: 0,
                elems: 42,
                bytes: 0,
            },
        );
        let b = ev(
            3,
            0,
            EventKind::OpStats {
                op: "matmul".into(),
                fwd_calls: 118_701,
                fwd_us: 0,
                bwd_calls: 0,
                bwd_us: 0,
                elems: 42,
                bytes: 0,
            },
        );
        assert!(
            first_divergence(&[a], &[b]).is_some(),
            "call counts are semantic"
        );
    }

    #[test]
    fn histogram_metrics_reduce_to_identity() {
        let mk = |value, count| {
            ev(
                4,
                0,
                EventKind::Metric {
                    name: "lm_encoder_forward_secs".into(),
                    kind: "histogram".into(),
                    value,
                    count: Some(count),
                    p50: Some(value),
                    p95: Some(value * 2.0),
                    p99: Some(value * 3.0),
                },
            )
        };
        assert_eq!(first_divergence(&[mk(0.5, 10)], &[mk(0.125, 99)]), None);
        // Counter metrics keep their value.
        let c1 = ev(
            4,
            0,
            EventKind::Metric {
                name: "nn_optimizer_steps".into(),
                kind: "counter".into(),
                value: 412.0,
                count: None,
                p50: None,
                p95: None,
                p99: None,
            },
        );
        let mut c2 = c1.clone();
        c2.kind = EventKind::Metric {
            name: "nn_optimizer_steps".into(),
            kind: "counter".into(),
            value: 413.0,
            count: None,
            p50: None,
            p95: None,
            p99: None,
        };
        assert!(
            first_divergence(&[c1], &[c2]).is_some(),
            "counter totals are semantic"
        );
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = ev(1, 0, EventKind::Block { candidates: 3 });
        let b = ev(2, 0, EventKind::Block { candidates: 3 });
        let d = first_divergence(&[a.clone(), b], &[a]).expect("prefix must diverge");
        assert_eq!(d.index, 1);
        assert!(d.right.is_none());
    }

    #[test]
    fn canonical_lines_still_parse() {
        let e = ev(
            9,
            123,
            EventKind::Progress {
                phase: "mc_dropout".into(),
                done: 3,
                total: 10,
                examples: 300,
                ex_per_sec: 99.5,
                loss: None,
                eta_us: Some(77),
                tape_nodes: 0,
                heap_peak: 4096,
            },
        );
        let line = &canonical_lines(&[e])[0];
        let back = Event::parse(line).expect("canonical line must stay schema-valid");
        assert_eq!(back.t_us, 0);
    }
}
