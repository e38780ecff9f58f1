//! The typed event schema and its JSONL encoding.
//!
//! Every event is one JSON object per line. Common fields:
//!
//! | field  | type   | meaning                                             |
//! |--------|--------|-----------------------------------------------------|
//! | `seq`  | u64    | process-wide monotonic sequence number              |
//! | `seed` | u64    | the run seed (set via [`crate::set_run_seed`])      |
//! | `t_us` | u64    | microseconds since telemetry start                  |
//! | `span` | u64?   | id of the enclosing span, if any                    |
//! | `type` | string | the variant tag (see [`EventKind`])                 |
//!
//! The variants are declared once, as rows of the schema table in
//! [`crate::names`]; `event_schema!` turns that table into
//! [`EventKind`], the `EV_*` tag consts, the field encoder and parser,
//! and [`EventKind::zero_volatile`]. Each row lists its fields in wire
//! order, and each field's value type implements [`Field`]. Optional
//! fields encode as `null` when absent. The encoding is stable and
//! round-trips through [`Event::parse`], which the sink tests assert.

use crate::level::Level;
use std::fmt::Write as _;

pub use crate::names::EventKind;

/// One telemetry event, ready for a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-wide monotonic sequence number (1-based).
    pub seq: u64,
    /// The run seed, so traces from two runs are diffable.
    pub seed: u64,
    /// Microseconds since telemetry start.
    pub t_us: u64,
    /// Enclosing span id, when the event fired inside a span.
    pub span: Option<u64>,
    /// The payload.
    pub kind: EventKind,
}

/// Generate the event schema from one table. Each row reads
///
/// ```text
/// /// docs
/// Variant = EV_CONST "tag", DefaultLevel {
///     /// docs
///     field: Type,
///     timing_field: u64 [volatile],
///     renamed: u64 as "wire_key",
/// }
/// ```
///
/// and yields the `EventKind::Variant` struct variant, the `EV_CONST`
/// tag const, an `ALL_EVENT_TAGS` entry, and the variant's arms of
/// `type_tag`, the default level, the field encoder and parser, and
/// [`EventKind::zero_volatile`]. Fields are encoded in row order under
/// their own name unless `as` gives another wire key; `[volatile]` marks
/// a field that measures time, rate or memory rather than a decision.
macro_rules! event_schema {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@zero $field:ident) => {};
    (@zero $field:ident volatile) => { *$field = Default::default() };
    ($(
        $(#[$meta:meta])*
        $variant:ident = $konst:ident $tag:literal, $level:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty $([$vol:ident])? $(as $key:literal)?
            ),* $(,)?
        }
    )*) => {
        $(
            #[doc = concat!("`", $tag, "` — the tag of [`EventKind::", stringify!($variant), "`].")]
            pub const $konst: &str = $tag;
        )*

        /// Every event type tag, in schema order.
        pub const ALL_EVENT_TAGS: [&str; [$($konst),*].len()] = [$($konst),*];

        /// The event payload variants, one per `type` tag.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $(
                $(#[$meta])*
                $variant {
                    $(
                        $(#[$fmeta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl EventKind {
            /// The `type` tag used in the JSONL encoding.
            pub fn type_tag(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $konst,)*
                }
            }

            /// The severity the schema table gives this kind; see
            /// [`EventKind::level`] for the data-dependent overrides.
            pub(crate) fn default_level(&self) -> $crate::Level {
                match self {
                    $(EventKind::$variant { .. } => $crate::Level::$level,)*
                }
            }

            /// Zero every field the schema marks `[volatile]` (timing,
            /// rate and heap measurements), keeping the decisions. Numbers
            /// become 0 and optional values `None`.
            #[allow(unused_variables)]
            pub fn zero_volatile(&mut self) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        $($crate::event::event_schema!(@zero $field $($vol)?);)*
                    })*
                }
            }

            /// Append `,"key":value` for every field, in wire order.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        $($crate::event::push_field(
                            out,
                            $crate::event::event_schema!(@key $field $($key)?),
                            $field,
                        );)*
                    })*
                }
            }

            /// Read the fields of the kind tagged `tag` from a parsed line.
            pub(crate) fn read_fields(
                tag: &str,
                fields: &[(String, $crate::event::JsonVal)],
            ) -> Result<EventKind, String> {
                Ok(match tag {
                    $($konst => EventKind::$variant {
                        $($field: $crate::event::read_field(
                            fields,
                            $crate::event::event_schema!(@key $field $($key)?),
                        )?,)*
                    },)*
                    other => return Err(format!("unknown event type '{other}'")),
                })
            }
        }
    };
}
pub(crate) use event_schema;

/// A value type an event field can hold: how it is written into a JSONL
/// line and read back from the parsed line. Sibling flat-JSON formats
/// (`em-prof`'s bench history) use the same impls through [`push_field`]
/// and [`read_field`].
pub trait Field: Sized {
    /// Append the value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);
    /// Decode the value from its parsed JSON form.
    fn read_json(v: &JsonVal) -> Result<Self, String>;
}

fn expected<T>(what: &str, got: &JsonVal) -> Result<T, String> {
    Err(format!("is not {what}: {got:?}"))
}

/// Numbers are written with `Display` (for `f64`, the shortest form that
/// reads back to the same bits) and read back with an `as` cast.
macro_rules! number_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read_json(v: &JsonVal) -> Result<Self, String> {
                match v {
                    JsonVal::Num(n) => Ok(*n as $t),
                    other => expected("a number", other),
                }
            }
        }
    )*};
}
number_field!(u64, i64, f64);

impl Field for bool {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read_json(v: &JsonVal) -> Result<Self, String> {
        match v {
            JsonVal::Bool(b) => Ok(*b),
            other => expected("a bool", other),
        }
    }
}

impl Field for String {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn read_json(v: &JsonVal) -> Result<Self, String> {
        match v {
            JsonVal::Str(s) => Ok(s.clone()),
            other => expected("a string", other),
        }
    }
}

impl Field for Level {
    fn write_json(&self, out: &mut String) {
        push_json_str(out, self.name());
    }
    fn read_json(v: &JsonVal) -> Result<Self, String> {
        let name = String::read_json(v)?;
        Level::from_name(&name).ok_or_else(|| format!("is not a level: {name:?}"))
    }
}

impl Field for Vec<u64> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
    fn read_json(v: &JsonVal) -> Result<Self, String> {
        match v {
            JsonVal::Arr(vs) => Ok(vs.iter().map(|v| *v as u64).collect()),
            other => expected("an array", other),
        }
    }
}

/// `None` is written as `null`.
impl<T: Field> Field for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
    fn read_json(v: &JsonVal) -> Result<Self, String> {
        match v {
            JsonVal::Null => Ok(None),
            other => T::read_json(other).map(Some),
        }
    }
}

/// Append `,"key":value` to a flat JSON object under construction.
pub fn push_field<T: Field>(out: &mut String, key: &str, v: &T) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    v.write_json(out);
}

/// Read the first field named `key` from a parsed flat object.
pub fn read_field<T: Field>(fields: &[(String, JsonVal)], key: &str) -> Result<T, String> {
    let v = fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))?;
    T::read_json(v).map_err(|e| format!("field '{key}' {e}"))
}

/// Append `s` as a JSON string literal, escaping exactly what
/// [`parse_flat_object`] unescapes: `\" \\ \n \t \r` and the other
/// control characters as `\uXXXX`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl EventKind {
    /// The severity a stderr filter applies to this event: the schema
    /// table's default, except that a message carries its own level and
    /// an audit with findings is actionable.
    pub fn level(&self) -> Level {
        match self {
            EventKind::Message { level, .. } => *level,
            EventKind::Audit { dead, detached, .. } if *dead > 0 || *detached > 0 => Level::Warn,
            _ => self.default_level(),
        }
    }
}

impl Event {
    /// Encode as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"seq\":{},\"seed\":{},\"t_us\":{}",
            self.seq, self.seed, self.t_us
        );
        push_field(&mut s, "span", &self.span);
        let _ = write!(s, ",\"type\":\"{}\"", self.kind.type_tag());
        self.kind.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parse one JSONL line produced by [`Event::to_json`].
    pub fn parse(line: &str) -> Result<Event, String> {
        let fields = parse_flat_object(line)?;
        let tag: String = read_field(&fields, "type")?;
        Ok(Event {
            seq: read_field(&fields, "seq")?,
            seed: read_field(&fields, "seed")?,
            t_us: read_field(&fields, "t_us")?,
            span: read_field(&fields, "span")?,
            kind: EventKind::read_fields(&tag, &fields)?,
        })
    }

    /// A one-line human rendering for the stderr sink.
    pub fn render_human(&self) -> String {
        let prefix = format!(
            "[{:>5} {:>9.3}s]",
            self.kind.level(),
            self.t_us as f64 / 1e6
        );
        let body = match &self.kind {
            EventKind::SpanOpen {
                id,
                parent,
                name,
                detail,
            } => {
                let detail = detail
                    .as_deref()
                    .map(|d| format!(" ({d})"))
                    .unwrap_or_default();
                match parent {
                    Some(p) => format!("span {name}#{id} open{detail} (parent #{p})"),
                    None => format!("span {name}#{id} open{detail}"),
                }
            }
            EventKind::SpanClose {
                id,
                name,
                wall_us,
                heap_delta,
                ..
            } => format!(
                "span {name}#{id} close: {:.1}ms, heap {:+}B",
                *wall_us as f64 / 1e3,
                heap_delta
            ),
            EventKind::EpochSummary {
                epoch,
                train_loss,
                valid_f1,
                threshold,
                examples,
                batches,
                wall_us,
            } => {
                let mut s = format!("epoch {epoch}: loss {train_loss:.4}");
                if let Some(f1) = valid_f1 {
                    let _ = write!(s, ", valid F1 {f1:.1}");
                }
                if let Some(t) = threshold {
                    let _ = write!(s, ", threshold {t:.3}");
                }
                let _ = write!(
                    s,
                    " ({examples} ex / {batches} steps, {:.1}ms)",
                    *wall_us as f64 / 1e3
                );
                s
            }
            EventKind::PseudoSelect { count, tpr, tnr } => match (tpr, tnr) {
                (Some(tpr), Some(tnr)) => {
                    format!("pseudo-select: {count} labels (TPR {tpr:.2}, TNR {tnr:.2})")
                }
                _ => format!("pseudo-select: {count} labels"),
            },
            EventKind::Prune { dropped, passes } => {
                format!("prune: dropped {dropped} examples ({passes} MC passes)")
            }
            EventKind::PretrainStep { step, mlm_loss } => {
                format!("pretrain step {step}: mlm loss {mlm_loss:.4}")
            }
            EventKind::Block { candidates } => format!("blocking: {candidates} candidate pairs"),
            EventKind::NonFinite {
                op,
                node,
                stage,
                bad,
                total,
            } => format!("sanitizer: {bad}/{total} non-finite {stage} elements in {op}#{node}"),
            EventKind::Audit {
                nodes,
                dead,
                detached,
                unused,
            } => format!(
                "graph audit: {nodes} nodes, {dead} dead, {detached} detached params, {unused} unused params"
            ),
            EventKind::Message { text, .. } => text.clone(),
            EventKind::UncHist {
                source,
                lo,
                hi,
                mean,
                counts,
            } => {
                let n: u64 = counts.iter().sum();
                format!("uncertainty[{source}]: {n} scores in [{lo:.4}, {hi:.4}], mean {mean:.4}")
            }
            EventKind::Metric {
                name,
                kind,
                value,
                count,
                p50,
                p95,
                p99,
            } => {
                let mut s = format!("metric {name} ({kind}) = {value}");
                if let Some(n) = count {
                    let _ = write!(s, ", count {n}");
                }
                if let (Some(p50), Some(p95), Some(p99)) = (p50, p95, p99) {
                    let _ = write!(s, ", p50 {p50:.6} p95 {p95:.6} p99 {p99:.6}");
                }
                s
            }
            EventKind::CkptSave { step, bytes, kept } => {
                format!("checkpoint saved at step {step} ({bytes} bytes, {kept} kept)")
            }
            EventKind::CkptRestore {
                step,
                pretrain_steps,
                epochs,
                batches,
            } => format!(
                "resumed from checkpoint {step} (skipping {pretrain_steps} pretrain steps, {epochs} epochs / {batches} batches)"
            ),
            EventKind::RecoveredBatch {
                phase,
                step,
                consecutive,
            } => format!(
                "recovered batch: non-finite loss in {phase} at step {step} ({consecutive} consecutive), batch skipped"
            ),
            EventKind::IoRetry {
                op,
                attempt,
                delay_ms,
                gave_up,
            } => {
                if *gave_up {
                    format!("I/O retry: {op} gave up after {attempt} bounded attempts")
                } else {
                    format!("I/O retry: {op} attempt {attempt} failed, backing off {delay_ms}ms")
                }
            }
            EventKind::OpStats {
                op,
                fwd_calls,
                fwd_us,
                bwd_calls,
                bwd_us,
                elems,
                bytes,
            } => format!(
                "op {op}: fwd {fwd_calls}x {:.1}ms, bwd {bwd_calls}x {:.1}ms, {elems} elems, {bytes}B",
                *fwd_us as f64 / 1e3,
                *bwd_us as f64 / 1e3
            ),
            EventKind::Progress {
                phase,
                done,
                total,
                ex_per_sec,
                loss,
                eta_us,
                ..
            } => {
                let mut s = match total {
                    0 => format!("progress {phase}: {done} done"),
                    t => format!("progress {phase}: {done}/{t}"),
                };
                let _ = write!(s, ", {ex_per_sec:.0} ex/s");
                if let Some(l) = loss {
                    let _ = write!(s, ", loss {l:.4}");
                }
                if let Some(eta) = eta_us {
                    let _ = write!(s, ", eta {:.1}s", *eta as f64 / 1e6);
                }
                s
            }
            EventKind::RunMeta {
                seed,
                config,
                git_sha,
                build,
                ..
            } => format!(
                "run: seed {seed}, config {config}, git {}, {build} build",
                git_sha.as_deref().unwrap_or("unknown")
            ),
            EventKind::Request {
                id,
                pairs,
                wall_us,
                outcome,
                ..
            } => format!(
                "request {id}: {pairs} pairs, {outcome} in {:.1}ms",
                *wall_us as f64 / 1e3
            ),
            EventKind::Reject {
                id,
                reason,
                retry_after_ms,
            } => format!("shed request {id}: {reason}, retry after {retry_after_ms}ms"),
            EventKind::WorkerRestart {
                worker,
                restarts,
                backoff_ms,
                reason,
            } => format!(
                "worker {worker} restarted ({reason}, restart {restarts}, backoff {backoff_ms}ms)"
            ),
            EventKind::Drain {
                completed,
                rejected,
                failed,
                restarts,
            } => format!(
                "drained: {completed} completed, {rejected} rejected, {failed} failed, {restarts} worker restarts"
            ),
        };
        format!("{prefix} {body}")
    }
}

/// A parsed JSON value (the schema is flat: scalars, plus arrays of
/// numbers for histogram bins — objects never nest). Public so sibling
/// flat-JSON line formats (`em-prof`'s bench history) can reuse the
/// parser instead of growing their own.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A number (integers included; the schema stays under 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of numbers (histogram bucket counts).
    Arr(Vec<f64>),
}

/// Parse a flat JSON object (string/number/bool/null/number-array values)
/// into its key/value pairs in document order.
pub fn parse_flat_object(s: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = s.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next() != Some('{') {
        return Err(format!("expected '{{' in {s}"));
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') => {
                chars.next();
            }
            Some(_) => {}
            None => return Err(format!("unterminated object in {s}")),
        }
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key '{key}' in {s}"));
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some('"') => JsonVal::Str(parse_string(&mut chars)?),
            Some('t') => {
                expect_word(&mut chars, "true")?;
                JsonVal::Bool(true)
            }
            Some('f') => {
                expect_word(&mut chars, "false")?;
                JsonVal::Bool(false)
            }
            Some('n') => {
                expect_word(&mut chars, "null")?;
                JsonVal::Null
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                JsonVal::Num(parse_number(&mut chars, s)?)
            }
            Some('[') => {
                chars.next();
                let mut vals = Vec::new();
                loop {
                    skip_ws(&mut chars);
                    match chars.peek() {
                        Some(']') => {
                            chars.next();
                            break;
                        }
                        Some(',') => {
                            chars.next();
                        }
                        Some(c) if c.is_ascii_digit() || *c == '-' => {
                            vals.push(parse_number(&mut chars, s)?);
                        }
                        other => return Err(format!("unexpected array element {other:?} in {s}")),
                    }
                }
                JsonVal::Arr(vals)
            }
            other => return Err(format!("unexpected value start {other:?} in {s}")),
        };
        out.push((key, val));
        skip_ws(&mut chars);
    }
    Ok(out)
}

fn parse_number(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    context: &str,
) -> Result<f64, String> {
    let mut num = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || "+-.eE".contains(c) {
            num.push(c);
            chars.next();
        } else {
            break;
        }
    }
    num.parse()
        .map_err(|_| format!("bad number '{num}' in {context}"))
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect_word(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    word: &str,
) -> Result<(), String> {
    for expected in word.chars() {
        if chars.next() != Some(expected) {
            return Err(format!("expected literal '{word}'"));
        }
    }
    Ok(())
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: EventKind) {
        let e = Event {
            seq: 17,
            seed: 42,
            t_us: 123_456,
            span: Some(3),
            kind,
        };
        let line = e.to_json();
        let parsed = Event::parse(&line).unwrap_or_else(|err| panic!("{err}\nline: {line}"));
        assert_eq!(parsed, e, "round trip changed the event; line: {line}");
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(EventKind::SpanOpen {
            id: 9,
            parent: Some(2),
            name: "teacher".into(),
            detail: Some("PromptEM/REL-HETER \"quoted\"\n".into()),
        });
        round_trip(EventKind::SpanOpen {
            id: 1,
            parent: None,
            name: "pretrain".into(),
            detail: None,
        });
        round_trip(EventKind::SpanClose {
            id: 9,
            name: "teacher".into(),
            wall_us: 88_123,
            heap_delta: -4096,
            heap_peak: 1 << 30,
        });
        round_trip(EventKind::EpochSummary {
            epoch: 7,
            train_loss: 0.6931471824645996,
            valid_f1: Some(81.25),
            threshold: Some(0.4375),
            examples: 128,
            batches: 8,
            wall_us: 2_500_000,
        });
        round_trip(EventKind::EpochSummary {
            epoch: 0,
            train_loss: 1.5,
            valid_f1: None,
            threshold: None,
            examples: 0,
            batches: 0,
            wall_us: 0,
        });
        round_trip(EventKind::PseudoSelect {
            count: 6,
            tpr: Some(1.0),
            tnr: Some(0.875),
        });
        round_trip(EventKind::PseudoSelect {
            count: 0,
            tpr: None,
            tnr: None,
        });
        round_trip(EventKind::Prune {
            dropped: 12,
            passes: 10,
        });
        round_trip(EventKind::PretrainStep {
            step: 4999,
            mlm_loss: 2.25,
        });
        round_trip(EventKind::Block { candidates: 480 });
        round_trip(EventKind::NonFinite {
            op: "layer_norm".into(),
            node: 37,
            stage: "grad".into(),
            bad: 3,
            total: 96,
        });
        round_trip(EventKind::Audit {
            nodes: 512,
            dead: 2,
            detached: 1,
            unused: 0,
        });
        round_trip(EventKind::Message {
            level: Level::Warn,
            text: "tab\there \\ \"q\"".into(),
        });
        round_trip(EventKind::UncHist {
            source: "pseudo_uncertainty".into(),
            lo: 0.0,
            hi: 0.25,
            mean: 0.0625,
            counts: vec![4, 0, 9, 1],
        });
        round_trip(EventKind::UncHist {
            source: "mc_el2n".into(),
            lo: 0.0,
            hi: 0.0,
            mean: 0.0,
            counts: vec![],
        });
        round_trip(EventKind::Metric {
            name: "nn_optimizer_steps{opt=\"adamw\"}".into(),
            kind: "counter".into(),
            value: 412.0,
            count: None,
            p50: None,
            p95: None,
            p99: None,
        });
        round_trip(EventKind::Metric {
            name: "nn_tape_backward_secs".into(),
            kind: "histogram".into(),
            value: 0.125,
            count: Some(37),
            p50: Some(0.09375),
            p95: Some(0.375),
            p99: Some(0.75),
        });
        round_trip(EventKind::CkptSave {
            step: 250,
            bytes: 1_048_576,
            kept: 3,
        });
        round_trip(EventKind::CkptRestore {
            step: 250,
            pretrain_steps: 250,
            epochs: 12,
            batches: 96,
        });
        round_trip(EventKind::RecoveredBatch {
            phase: "pretrain".into(),
            step: 117,
            consecutive: 2,
        });
        round_trip(EventKind::IoRetry {
            op: "ckpt_write".into(),
            attempt: 1,
            delay_ms: 25,
            gave_up: false,
        });
        round_trip(EventKind::IoRetry {
            op: "ckpt_write".into(),
            attempt: 3,
            delay_ms: 0,
            gave_up: true,
        });
        round_trip(EventKind::OpStats {
            op: "matmul".into(),
            fwd_calls: 1200,
            fwd_us: 845_000,
            bwd_calls: 600,
            bwd_us: 512_000,
            elems: 9_830_400,
            bytes: 39_321_600,
        });
        round_trip(EventKind::Progress {
            phase: "pretrain".into(),
            done: 35,
            total: 40,
            examples: 560,
            ex_per_sec: 212.5,
            loss: Some(2.0625),
            eta_us: Some(420_000),
            tape_nodes: 91_000,
            heap_peak: 30_000_000,
        });
        round_trip(EventKind::Progress {
            phase: "mc_dropout".into(),
            done: 3,
            total: 0,
            examples: 0,
            ex_per_sec: 0.0,
            loss: None,
            eta_us: None,
            tape_nodes: 0,
            heap_peak: 0,
        });
        round_trip(EventKind::RunMeta {
            seed: 7,
            config: "9e1c7a5d00bf3321".into(),
            git_sha: Some("272a3fc0".into()),
            build: "release".into(),
            schema: 1,
        });
        round_trip(EventKind::RunMeta {
            seed: 0,
            config: "0".into(),
            git_sha: None,
            build: "debug".into(),
            schema: 1,
        });
        round_trip(EventKind::Request {
            id: "conn3-17".into(),
            pairs: 8,
            queue: 2,
            wall_us: 4_250,
            outcome: "ok".into(),
        });
        round_trip(EventKind::Reject {
            id: "conn1-4".into(),
            reason: "queue_full".into(),
            retry_after_ms: 25,
        });
        round_trip(EventKind::WorkerRestart {
            worker: 0,
            restarts: 2,
            backoff_ms: 10,
            reason: "panic".into(),
        });
        round_trip(EventKind::Drain {
            completed: 96,
            rejected: 7,
            failed: 1,
            restarts: 2,
        });
    }

    #[test]
    fn no_span_encodes_as_null() {
        let e = Event {
            seq: 1,
            seed: 0,
            t_us: 0,
            span: None,
            kind: EventKind::Block { candidates: 3 },
        };
        let line = e.to_json();
        assert!(line.contains("\"span\":null"), "{line}");
        assert_eq!(Event::parse(&line).unwrap(), e);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse("not json").is_err());
        assert!(Event::parse("{\"seq\":1}").is_err());
        assert!(
            Event::parse("{\"seq\":1,\"seed\":0,\"t_us\":0,\"span\":null,\"type\":\"nope\"}")
                .is_err()
        );
    }

    #[test]
    fn float_precision_survives() {
        let e = Event {
            seq: 1,
            seed: 2,
            t_us: 3,
            span: None,
            kind: EventKind::PretrainStep {
                step: 0,
                mlm_loss: 0.1 + 0.2,
            },
        };
        match Event::parse(&e.to_json()).unwrap().kind {
            EventKind::PretrainStep { mlm_loss, .. } => {
                assert_eq!(mlm_loss.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
