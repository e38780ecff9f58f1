//! Repo-invariant source lint, token edition.
//!
//! Rules run over the token stream of [`crate::lex`] (no rustc, no syn):
//! comments and string/char literals are single tokens with line spans,
//! `#[cfg(test)]` regions are tracked by brace depth across lines, and
//! every rule matches *token sequences* instead of line substrings — so
//! a call chain split across lines (`foo.\n    unwrap()`) is caught and
//! a pattern inside a raw string is not. Inline escapes:
//! `// lint:allow(<rule>)` on any line of the offending match, or on a
//! comment line directly above, suppresses that rule for the statement
//! that follows. Whole paths are allowlisted per rule where the
//! invariant is *about* the location (clocks belong in
//! `em-obs`/`em-bench`, `process::exit` in the CLI binary).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Token, TokenKind};

/// One lint rule. Every rule is an invariant the ROADMAP's determinism
/// and production goals depend on; see [`Rule::rationale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// No `.unwrap()` / `.expect(` in library (non-test) code.
    Unwrap,
    /// No `Instant::now` / `SystemTime` outside `em-obs` and `em-bench`.
    Clock,
    /// No unseeded RNG construction anywhere.
    Rng,
    /// No `process::exit` outside the CLI crate.
    Exit,
    /// No ad-hoc JSONL event-tag string literals outside the em-obs
    /// registry (`crates/obs/src/names.rs`).
    EventName,
    /// No raw `File::create` / `fs::write` in library code outside
    /// `crates/resilience`: a crash mid-write must never leave a torn
    /// file behind.
    AtomicIo,
    /// No ad-hoc string literals as `op_stats` op names: ops must be the
    /// `&'static str`s of `em_obs::names::ALL_OP_NAMES` so the profiler,
    /// the trace, and `promptem report` agree on op identity.
    OpName,
    /// Atomic read-modify-write calls must spell a literal `Ordering::`
    /// at the call site, and anything stronger than `Relaxed` needs a
    /// `// ordering:` justification comment.
    AtomicOrdering,
    /// No raw `thread::spawn` in library code: threads belong to the
    /// vendored pool/scheduler crates under `crates/compat/`.
    ThreadSpawn,
    /// Every `unsafe` block (and `unsafe impl`) carries a `// safety:`
    /// comment stating the invariant that makes it sound.
    UnsafeSafety,
    /// No `.lock().unwrap()` / `.lock().expect(` — poisoned-lock
    /// handling must be explicit (e.g. `PoisonError::into_inner`).
    LockUnwrap,
    /// No `std::net` sockets outside `crates/serve`: every wire byte in
    /// the workspace flows through the one crate whose protocol, fault
    /// injection, and drain semantics are tested.
    NetUse,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::Unwrap,
        Rule::Clock,
        Rule::Rng,
        Rule::Exit,
        Rule::EventName,
        Rule::AtomicIo,
        Rule::OpName,
        Rule::AtomicOrdering,
        Rule::ThreadSpawn,
        Rule::UnsafeSafety,
        Rule::LockUnwrap,
        Rule::NetUse,
    ];

    /// The four concurrency-correctness rules added for the parallel arc.
    pub const CONCURRENCY: [Rule; 4] = [
        Rule::AtomicOrdering,
        Rule::ThreadSpawn,
        Rule::UnsafeSafety,
        Rule::LockUnwrap,
    ];

    /// The rule's name — the token accepted by `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Clock => "clock",
            Rule::Rng => "rng",
            Rule::Exit => "exit",
            Rule::EventName => "event-name",
            Rule::AtomicIo => "atomic-io",
            Rule::OpName => "op-name",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::NetUse => "net-use",
        }
    }

    /// Why the rule exists (printed by `em-lint` on failure).
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::Unwrap => "library code must surface failures as a Result, not abort the process",
            Rule::Clock => {
                "wall-clock reads belong behind em_obs::Stopwatch so timing stays greppable \
                 and training logic stays deterministic"
            }
            Rule::Rng => {
                "unseeded RNG breaks run reproducibility; construct RNGs from an explicit seed"
            }
            Rule::Exit => "only the CLI may terminate the process; libraries return errors",
            Rule::EventName => {
                "JSONL event tags live in em_obs::names so producers, parsers, and \
                 analysis tools can never drift; use the EV_* consts"
            }
            Rule::AtomicIo => {
                "file writes must go through em_resilience::atomic_write (temp + fsync + \
                 rename) so a crash mid-write can never leave a torn file"
            }
            Rule::OpName => {
                "op_stats op names must be the em_obs::names::ALL_OP_NAMES consts, not ad-hoc \
                 literals, so trace attribution can never name an op the registry doesn't know"
            }
            Rule::AtomicOrdering => {
                "atomic call sites must spell their Ordering literally (no consts, no wrapper \
                 defaults) and justify anything stronger than Relaxed with an `// ordering:` \
                 comment — order bugs are invisible until a new platform or optimizer finds them"
            }
            Rule::ThreadSpawn => {
                "raw thread::spawn in library code bypasses the vendored pool/scheduler \
                 (crates/compat/) and makes runs unschedulable under em-sched model checking"
            }
            Rule::UnsafeSafety => {
                "every unsafe block must state the invariant that makes it sound in a \
                 `// safety:` comment, or the next refactor silently breaks it"
            }
            Rule::LockUnwrap => {
                ".lock().unwrap() turns one panicked thread into a process-wide cascade; \
                 handle PoisonError explicitly (into_inner or a typed error path)"
            }
            Rule::NetUse => {
                "raw std::net sockets bypass em-serve's admission control, failpoints, and \
                 drain semantics; all wire traffic goes through crates/serve"
            }
        }
    }

    /// Whether the rule still applies inside test code (`#[cfg(test)]`
    /// modules, `tests/`, `benches/`). Unwrapping in tests is idiomatic;
    /// clocks and unseeded RNG in tests are exactly how flaky tests and
    /// irreproducible failures get written, so those rules stay on — as
    /// does `unsafe-safety`, because unsound test code is still unsound.
    /// `atomic-ordering` is off in tests so model-checking tests can use
    /// the `em_sched` atomic shims, which model sequential consistency
    /// and deliberately take no `Ordering` argument.
    fn applies_to_test_code(self) -> bool {
        matches!(
            self,
            Rule::Clock | Rule::Rng | Rule::Exit | Rule::UnsafeSafety | Rule::NetUse
        )
    }

    /// Path-level allowlist: crates whose job is the forbidden thing,
    /// plus individual files with a documented reason.
    pub(crate) fn path_allowed(self, unix_rel: &str) -> bool {
        let allowed: &[&str] = match self {
            Rule::Clock => &["crates/obs/", "crates/bench/"],
            Rule::Exit => &["crates/cli/"],
            // cli_e2e.rs is a test-only module (`#[cfg(test)] mod cli_e2e;`
            // in main.rs) that lives in src/, so region tracking can't see
            // its test-ness from inside the file.
            Rule::Unwrap => &["crates/cli/src/cli_e2e.rs"],
            Rule::Rng => &[],
            // Tag literals are legitimate in exactly one place: the
            // registry that defines them.
            Rule::EventName => &["crates/obs/src/names.rs"],
            // The atomic writer itself, plus the test-only cli_e2e module
            // (same region-tracking blind spot as Unwrap above).
            Rule::AtomicIo => &["crates/resilience/", "crates/cli/src/cli_e2e.rs"],
            // Op names are defined in the registry; the tape profiler is
            // the one sanctioned emitter.
            Rule::OpName => &["crates/obs/src/names.rs", "crates/nn/src/tape.rs"],
            Rule::AtomicOrdering => &[],
            // Vendored concurrency substrates (the em-sched scheduler
            // today, the work-stealing pool next) own their raw threads.
            // `lint_repo` skips crates/compat entirely; the entry exists
            // so `lint_source` agrees when pointed at one of its files.
            // em-serve's worker actors, supervisor monitor, connection
            // readers, and load-driver connections *are* its job: the
            // pool shards data-parallel compute, but a service needs
            // long-lived blocking threads it can supervise and restart.
            Rule::ThreadSpawn => &["crates/compat/", "crates/serve/"],
            Rule::UnsafeSafety => &[],
            Rule::LockUnwrap => &[],
            // The one crate whose job is the network.
            Rule::NetUse => &["crates/serve/"],
        };
        allowed.iter().any(|prefix| unix_rel.starts_with(prefix))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One flagged match.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number of the first token of the match.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.snippet
        )
    }
}

/// Atomic read-modify-write method names distinctive enough to carry the
/// `atomic-ordering` rule without type information. `load`/`store`/`swap`
/// are deliberately absent: they collide with ubiquitous non-atomic
/// methods, so their discipline is enforced by the strong-ordering check
/// and code review instead.
const ATOMIC_RMW: [&str; 12] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// Ordering variants that demand an `// ordering:` justification.
const STRONG_ORDERINGS: [&str; 4] = ["SeqCst", "Acquire", "Release", "AcqRel"];

/// Everything the matchers need about one file, derived from its tokens
/// in a single structural pass.
struct FileCtx<'s> {
    /// The full token stream, comments included.
    tokens: Vec<Token<'s>>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    code: Vec<usize>,
    /// Per *token* (aligned with `tokens`): inside a `#[cfg(test)]`
    /// region, or between the attribute and its opening brace.
    in_test: Vec<bool>,
    /// Line → rules allowed by a `lint:allow(...)` comment on that line.
    line_allows: HashMap<usize, Vec<String>>,
    /// Carried escapes from comment-only lines: `(rule, first_tok,
    /// last_tok)` token-index windows covering the following statement.
    carried: Vec<(String, usize, usize)>,
    /// Lines carrying an `ordering:` justification comment.
    ordering_just: HashSet<usize>,
    /// Lines carrying a `safety:` justification comment.
    safety_just: HashSet<usize>,
    /// The raw source lines (for violation snippets).
    lines: Vec<&'s str>,
}

/// Extract `lint:allow(a, b)` rule names from one comment's text.
fn allows_in_comment(text: &str) -> Vec<String> {
    let Some(start) = text.find("lint:allow(") else {
        return Vec::new();
    };
    let rest = &text[start + "lint:allow(".len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|s| s.trim().to_string())
        .collect()
}

impl<'s> FileCtx<'s> {
    fn build(source: &'s str) -> FileCtx<'s> {
        let tokens = lex(source);
        let lines: Vec<&str> = source.lines().collect();
        let mut code = Vec::new();
        let mut in_test = vec![false; tokens.len()];
        let mut depth_at = vec![0i64; tokens.len()];
        let mut line_allows: HashMap<usize, Vec<String>> = HashMap::new();
        let mut ordering_just = HashSet::new();
        let mut safety_just = HashSet::new();

        // Comment pass: escapes and justification markers.
        for t in &tokens {
            if !t.is_comment() {
                continue;
            }
            for name in allows_in_comment(t.text) {
                line_allows.entry(t.line).or_default().push(name);
            }
            for l in t.line..=t.last_line() {
                if t.text.contains("ordering:") {
                    ordering_just.insert(l);
                }
                if t.text.contains("safety:") {
                    safety_just.insert(l);
                }
            }
        }

        // Structural pass: brace depth and #[cfg(test)] regions. The
        // pending attribute latches onto the next `{`; a `;` at the same
        // depth first (e.g. `#[cfg(test)] mod cli_e2e;`) cancels it.
        let mut depth = 0i64;
        let mut pending: Option<i64> = None;
        let mut region: Option<i64> = None;
        for (i, t) in tokens.iter().enumerate() {
            depth_at[i] = depth;
            in_test[i] = region.is_some() || pending.is_some();
            if t.is_comment() {
                continue;
            }
            code.push(i);
            match (t.kind, t.text) {
                (TokenKind::Punct, "#") if is_cfg_test_attr(&tokens, i) => {
                    pending = Some(depth);
                }
                (TokenKind::Punct, "{") => {
                    if pending.is_some() && region.is_none() {
                        region = Some(depth);
                        pending = None;
                        in_test[i] = true;
                    }
                    depth += 1;
                }
                (TokenKind::Punct, "}") => {
                    depth -= 1;
                    if region.is_some_and(|outside| depth <= outside) {
                        region = None;
                    }
                }
                (TokenKind::Punct, ";") if pending.is_some_and(|d| d == depth) => {
                    pending = None;
                }
                _ => {}
            }
        }

        // Carried-escape pass: a `lint:allow` on a comment-only line
        // covers the whole statement that starts on the next code line
        // (up to the first `;` at that statement's depth, or the closing
        // brace of its block) — so multi-line statements can keep the
        // escape above them.
        let mut code_lines: HashSet<usize> = HashSet::new();
        for &i in &code {
            for l in tokens[i].line..=tokens[i].last_line() {
                code_lines.insert(l);
            }
        }
        let mut carried = Vec::new();
        for (ci, t) in tokens.iter().enumerate() {
            if !t.is_comment() {
                continue;
            }
            let names = allows_in_comment(t.text);
            if names.is_empty() || (t.line..=t.last_line()).any(|l| code_lines.contains(&l)) {
                continue;
            }
            let Some(&first) = code.iter().find(|&&i| i > ci) else {
                continue;
            };
            let d0 = depth_at[first];
            let mut last = tokens.len() - 1;
            for &i in code.iter().filter(|&&i| i >= first) {
                let tk = &tokens[i];
                let ends = (tk.kind == TokenKind::Punct && tk.text == ";" && depth_at[i] == d0)
                    || (tk.kind == TokenKind::Punct && tk.text == "}" && depth_at[i] <= d0);
                if ends {
                    last = i;
                    break;
                }
            }
            for name in names {
                carried.push((name, first, last));
            }
        }

        FileCtx {
            tokens,
            code,
            in_test,
            line_allows,
            carried,
            ordering_just,
            safety_just,
            lines,
        }
    }

    /// The `k`th code token, if any.
    fn tok(&self, k: usize) -> Option<&Token<'s>> {
        self.code.get(k).map(|&i| &self.tokens[i])
    }

    fn ident(&self, k: usize) -> Option<&str> {
        self.tok(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
    }

    fn is_ident(&self, k: usize, name: &str) -> bool {
        self.ident(k) == Some(name)
    }

    fn is_punct(&self, k: usize, c: char) -> bool {
        self.tok(k)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text.starts_with(c))
    }

    /// `::` at code positions k, k+1.
    fn is_path_sep(&self, k: usize) -> bool {
        self.is_punct(k, ':') && self.is_punct(k + 1, ':')
    }

    fn str_content(&self, k: usize) -> Option<&str> {
        self.tok(k).and_then(|t| t.str_content())
    }

    fn line_text(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_string())
    }

    /// Is the match starting at code index `k` (ending at `k_end`,
    /// inclusive) suppressed by an escape?
    fn suppressed(&self, rule: Rule, k: usize, k_end: usize) -> bool {
        let (Some(first), Some(last)) = (self.tok(k), self.tok(k_end.max(k))) else {
            return false;
        };
        for l in first.line..=last.last_line() {
            if self
                .line_allows
                .get(&l)
                .is_some_and(|names| names.iter().any(|n| n == rule.name()))
            {
                return true;
            }
        }
        let tok_idx = self.code[k];
        self.carried
            .iter()
            .any(|(name, s, e)| name == rule.name() && *s <= tok_idx && tok_idx <= *e)
    }

    /// Has a justification comment (`marker` ∈ {ordering, safety}) on the
    /// same line as code token `k` or within the three lines above it.
    fn justified(&self, just: &HashSet<usize>, k: usize) -> bool {
        let Some(t) = self.tok(k) else { return false };
        (t.line.saturating_sub(3)..=t.line).any(|l| just.contains(&l))
    }
}

/// Detect `#[cfg(test)]`-style attributes starting at token index `i`
/// (which holds `#`): scans the bracket group for `cfg` and `test`
/// idents, so `#[cfg(test)]` and `#[cfg(all(test, feature = "x"))]`
/// both count.
fn is_cfg_test_attr(tokens: &[Token<'_>], i: usize) -> bool {
    let mut j = i + 1;
    while j < tokens.len() && tokens[j].is_comment() {
        j += 1;
    }
    if !(tokens
        .get(j)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "["))
    {
        return false;
    }
    let mut brackets = 0i64;
    let (mut saw_cfg, mut saw_test) = (false, false);
    for t in &tokens[j..] {
        match (t.kind, t.text) {
            (TokenKind::Punct, "[") => brackets += 1,
            (TokenKind::Punct, "]") => {
                brackets -= 1;
                if brackets == 0 {
                    break;
                }
            }
            (TokenKind::Ident, "cfg") => saw_cfg = true,
            (TokenKind::Ident, "test") => saw_test = true,
            _ => {}
        }
    }
    saw_cfg && saw_test
}

/// A raw match: first and last *code* index (inclusive).
type Match = (usize, usize);

/// Find every place `rule` fires in the file, escapes not yet applied.
fn find_matches(rule: Rule, ctx: &FileCtx<'_>) -> Vec<Match> {
    let mut out = Vec::new();
    let n = ctx.code.len();
    for k in 0..n {
        match rule {
            Rule::Unwrap => {
                if ctx.is_punct(k, '.') && ctx.is_ident(k + 1, "unwrap") && ctx.is_punct(k + 2, '(')
                {
                    if ctx.is_punct(k + 3, ')') {
                        out.push((k, k + 3));
                    }
                } else if ctx.is_punct(k, '.')
                    && ctx.is_ident(k + 1, "expect")
                    && ctx.is_punct(k + 2, '(')
                {
                    out.push((k, k + 2));
                }
            }
            Rule::Clock => {
                if ctx.is_ident(k, "Instant")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "now")
                {
                    out.push((k, k + 3));
                } else if ctx.is_ident(k, "SystemTime") {
                    out.push((k, k));
                }
            }
            Rule::Rng => {
                if ctx.is_ident(k, "thread_rng") || ctx.is_ident(k, "from_entropy") {
                    out.push((k, k));
                } else if ctx.is_ident(k, "rand")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "random")
                {
                    out.push((k, k + 3));
                }
            }
            Rule::Exit => {
                if ctx.is_ident(k, "process")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "exit")
                {
                    out.push((k, k + 3));
                }
            }
            Rule::EventName => {
                if let Some(content) = ctx.str_content(k) {
                    let hit = em_obs::names::ALL_EVENT_TAGS
                        .iter()
                        .any(|tag| content == *tag || content.contains(&format!("\"{tag}\"")));
                    if hit {
                        out.push((k, k));
                    }
                }
            }
            Rule::AtomicIo => {
                if (ctx.is_ident(k, "File")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "create"))
                    || (ctx.is_ident(k, "fs")
                        && ctx.is_path_sep(k + 1)
                        && ctx.is_ident(k + 3, "write"))
                {
                    out.push((k, k + 3));
                }
            }
            Rule::OpName => {
                // lint:allow(event-name) — names the helper fn, not a tag.
                if ctx.is_ident(k, "op_stats")
                    && ctx.is_punct(k + 1, '(')
                    && ctx.str_content(k + 2).is_some()
                {
                    out.push((k, k + 2));
                } else if ctx.is_ident(k, "OpStats")
                    && ctx.is_punct(k + 1, '{')
                    && ctx.is_ident(k + 2, "op")
                    && ctx.is_punct(k + 3, ':')
                    && ctx.str_content(k + 4).is_some()
                {
                    out.push((k, k + 4));
                }
            }
            Rule::AtomicOrdering => {
                // (a) RMW call without a literal Ordering:: in its args.
                if k > 0
                    && ctx.is_punct(k - 1, '.')
                    && ctx.ident(k).is_some_and(|m| ATOMIC_RMW.contains(&m))
                    && ctx.is_punct(k + 1, '(')
                {
                    let (close, has_ordering) = scan_call_args(ctx, k + 1);
                    if !has_ordering {
                        out.push((k - 1, close));
                    }
                }
                // (b) strong ordering without an `// ordering:` comment.
                if ctx.is_ident(k, "Ordering")
                    && ctx.is_path_sep(k + 1)
                    && ctx
                        .ident(k + 3)
                        .is_some_and(|v| STRONG_ORDERINGS.contains(&v))
                    && !ctx.justified(&ctx.ordering_just, k)
                {
                    out.push((k, k + 3));
                }
            }
            Rule::ThreadSpawn => {
                if ctx.is_ident(k, "thread")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "spawn")
                {
                    out.push((k, k + 3));
                }
            }
            Rule::UnsafeSafety => {
                if ctx.is_ident(k, "unsafe")
                    && (ctx.is_punct(k + 1, '{') || ctx.is_ident(k + 1, "impl"))
                    && !ctx.justified(&ctx.safety_just, k)
                {
                    out.push((k, k + 1));
                }
            }
            Rule::LockUnwrap => {
                if ctx.is_punct(k, '.')
                    && ctx.is_ident(k + 1, "lock")
                    && ctx.is_punct(k + 2, '(')
                    && ctx.is_punct(k + 3, ')')
                    && ctx.is_punct(k + 4, '.')
                    && (ctx.is_ident(k + 5, "unwrap") || ctx.is_ident(k + 5, "expect"))
                    && ctx.is_punct(k + 6, '(')
                {
                    out.push((k, k + 6));
                }
            }
            Rule::NetUse => {
                // Socket type names (used or imported) and the std::net
                // module path itself both count.
                if ctx
                    .ident(k)
                    .is_some_and(|i| matches!(i, "TcpListener" | "TcpStream" | "UdpSocket"))
                {
                    out.push((k, k));
                } else if ctx.is_ident(k, "std")
                    && ctx.is_path_sep(k + 1)
                    && ctx.is_ident(k + 3, "net")
                    && ctx.is_path_sep(k + 4)
                {
                    out.push((k, k + 3));
                }
            }
        }
    }
    out
}

/// Scan a call's argument list from the code index of its `(`; returns
/// the code index of the matching `)` (or the last token) and whether a
/// literal `Ordering::<variant>` appears among the arguments.
fn scan_call_args(ctx: &FileCtx<'_>, open: usize) -> (usize, bool) {
    let mut parens = 0i64;
    let mut has_ordering = false;
    let mut k = open;
    loop {
        if ctx.is_punct(k, '(') {
            parens += 1;
        } else if ctx.is_punct(k, ')') {
            parens -= 1;
            if parens == 0 {
                return (k, has_ordering);
            }
        } else if ctx.is_ident(k, "Ordering")
            && ctx.is_path_sep(k + 1)
            && ctx.ident(k + 3).is_some()
        {
            has_ordering = true;
        }
        k += 1;
        if ctx.tok(k).is_none() {
            return (k.saturating_sub(1), has_ordering);
        }
    }
}

/// Lint one file's source. `rel_path` is the path relative to the repo
/// root (it drives the per-rule allowlists and test-code detection).
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let unix_rel = rel_path.replace('\\', "/");
    let path_is_test = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| unix_rel.starts_with(d) || unix_rel.contains(&format!("/{d}")));

    let ctx = FileCtx::build(source);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (ri, rule) in Rule::ALL.iter().enumerate() {
        if rule.path_allowed(&unix_rel) {
            continue;
        }
        for (k, k_end) in find_matches(*rule, &ctx) {
            let tok_idx = ctx.code[k];
            let in_test = path_is_test || ctx.in_test[tok_idx];
            if in_test && !rule.applies_to_test_code() {
                continue;
            }
            if ctx.suppressed(*rule, k, k_end) {
                continue;
            }
            seen.insert((ctx.tokens[tok_idx].line, ri));
        }
    }
    seen.into_iter()
        .map(|(line, ri)| Violation {
            file: PathBuf::from(rel_path),
            line,
            rule: Rule::ALL[ri],
            snippet: ctx.line_text(line),
        })
        .collect()
}

/// Directories never scanned: build output, VCS, vendored third-party
/// code, and test fixtures (which seed violations on purpose).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "compat" | "fixtures") || name.starts_with('.')
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (skipping `target/`, `.git/`,
/// vendored `compat/`, and `fixtures/`). Files are visited in sorted
/// order so output is deterministic.
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        out.extend(lint_source(&rel.to_string_lossy(), &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = r##"
fn f() {
    let s = "call .unwrap() later";
    // .unwrap() in a comment
    /* Instant::now in a block comment */
    let r = "thread_rng";
}
"##;
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn every_registry_tag_fires_the_event_name_rule() {
        // The rule reads em_obs::names::ALL_EVENT_TAGS directly, so the
        // two can never drift; still, pin that each tag actually fires.
        for tag in em_obs::names::ALL_EVENT_TAGS {
            let src = format!("pub fn tag() -> &'static str {{ \"{tag}\" }}\n");
            let v = lint_source("crates/core/src/x.rs", &src);
            assert_eq!(v.len(), 1, "tag {tag}: {v:?}");
            assert_eq!(v[0].rule, Rule::EventName);
        }
    }

    #[test]
    fn event_tag_literals_fire_outside_the_registry_only() {
        let src = "pub fn tag() -> &'static str { \"epoch_summary\" }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::EventName);
        // The registry itself, test code, and comments are all exempt.
        assert!(lint_source("crates/obs/src/names.rs", src).is_empty());
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        let comment = "// the \"epoch_summary\" event\npub fn f() {}\n";
        assert!(lint_source("crates/core/src/x.rs", comment).is_empty());
        // Tags as substrings of longer strings don't fire.
        let longer = "pub fn m() -> String { \"epoch_summary_v2\".into() }\n";
        assert!(lint_source("crates/core/src/x.rs", longer).is_empty());
    }

    #[test]
    fn raw_writes_fire_outside_the_resilience_crate() {
        let src = "fn save() { std::fs::write(\"out\", b\"x\").ok(); }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AtomicIo);
        // The atomic writer's own crate, test code, and escapes are exempt.
        assert!(lint_source("crates/resilience/src/atomic_io.rs", src).is_empty());
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        let escaped =
            "fn save() { std::fs::write(\"out\", b\"x\").ok(); } // lint:allow(atomic-io)\n";
        assert!(lint_source("crates/core/src/x.rs", escaped).is_empty());
        let create = "fn open() { let _ = std::fs::File::create(\"out\"); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", create).len(), 1);
    }

    #[test]
    fn ad_hoc_op_stats_names_fire_outside_the_tape() {
        let src = "fn leak() { em_obs::op_stats(\"my_op\", 1, 2, 3, 4, 5, 6); }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::OpName);
        // The raw event variant is covered too.
        let raw = "fn leak() { emit(EventKind::OpStats { op: \"my_op\".into(), fwd_calls: 0, fwd_us: 0, bwd_calls: 0, bwd_us: 0, elems: 0, bytes: 0 }); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", raw).len(), 1);
        // The registry, the tape profiler, and test code are exempt.
        assert!(lint_source("crates/obs/src/names.rs", src).is_empty());
        assert!(lint_source("crates/nn/src/tape.rs", src).is_empty());
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        // Registry-const call sites never carry a quoted name.
        let ok = "fn flush(name: &'static str) { em_obs::op_stats(name, 1, 2, 3, 4, 5, 6); }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn cfg_test_region_tracking() {
        let src = "
fn lib_code() {
    x.unwrap();
}
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn more_lib() { z.unwrap(); }
";
        let v = lint_source("crates/core/src/x.rs", src);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(lines, [3, 9], "test-module unwrap must be exempt: {v:?}");
    }

    #[test]
    fn cfg_test_on_a_path_module_does_not_poison_following_code() {
        // The old line scanner latched `#[cfg(test)] mod x;` onto the
        // next `{` anywhere in the file; the token engine cancels the
        // pending attribute at the `;`.
        let src = "
#[cfg(test)]
mod helpers;
fn lib_code() { x.unwrap(); }
";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn atomic_ordering_rule() {
        // Literal Relaxed is fine, no comment needed.
        let ok = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
        // A hidden ordering (const, wrapper default) fires.
        let hidden = "fn f(a: &AtomicU64) { a.fetch_add(1, ORD); }\n";
        let v = lint_source("crates/core/src/x.rs", hidden);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AtomicOrdering);
        // Strong orderings need an `// ordering:` justification.
        let strong = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::SeqCst); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", strong).len(), 1);
        let justified = "\
// ordering: SeqCst pairs the publish with the reader's first load
fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::SeqCst); }\n";
        assert!(lint_source("crates/core/src/x.rs", justified).is_empty());
        let same_line =
            "fn f(a: &AtomicU64) { a.store(true, Ordering::Release); } // ordering: publishes init\n";
        assert!(lint_source("crates/core/src/x.rs", same_line).is_empty());
        // Non-atomic Ordering enums (cmp) never fire.
        let cmp = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }\n";
        assert!(lint_source("crates/core/src/x.rs", cmp).is_empty());
        // fetch_update's two orderings count as literal.
        let upd = "fn f(a: &AtomicU64) { let _ = a.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v + 1)); }\n";
        assert!(lint_source("crates/core/src/x.rs", upd).is_empty());
    }

    #[test]
    fn thread_spawn_rule() {
        let src = "fn go() { std::thread::spawn(|| {}); }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ThreadSpawn);
        // Tests, the vendored concurrency crates, and em-serve's actor
        // threads may spawn.
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        assert!(lint_source("crates/compat/pool/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/serve/src/supervisor.rs", src).is_empty());
    }

    #[test]
    fn unsafe_safety_rule() {
        let bare = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let v = lint_source("crates/core/src/x.rs", bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnsafeSafety);
        let commented = "\
fn f(p: *const u8) -> u8 {
    // safety: caller guarantees p is valid for reads
    unsafe { *p }
}\n";
        assert!(lint_source("crates/core/src/x.rs", commented).is_empty());
        let imp = "unsafe impl Sync for Cell {}\n";
        assert_eq!(lint_source("crates/core/src/x.rs", imp).len(), 1);
        let imp_ok = "// safety: access is serialized by the scheduler token\nunsafe impl Sync for Cell {}\n";
        assert!(lint_source("crates/core/src/x.rs", imp_ok).is_empty());
        // unsafe-safety applies in test code too.
        let in_test = "#[cfg(test)]\nmod t {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        assert_eq!(lint_source("crates/core/src/x.rs", in_test).len(), 1);
    }

    #[test]
    fn net_use_rule() {
        let src = "use std::net::TcpStream;\nfn dial() { let _ = TcpStream::connect(\"x\"); }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule == Rule::NetUse), "{v:?}");
        assert_eq!(v.len(), 2, "{v:?}");
        // The serve crate is the sanctioned home for sockets — lib,
        // tests, everything under it.
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        assert!(lint_source("crates/serve/tests/chaos.rs", src).is_empty());
        // Sockets in other crates' *tests* still fire: wire traffic in a
        // test belongs behind em_serve::Client like everywhere else.
        assert_eq!(lint_source("crates/core/tests/t.rs", src).len(), 2);
        // The bare module path fires even without a socket type name.
        let path_only = "fn f() { let _ = std::net::lookup_host(\"x\"); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", path_only).len(), 1);
        // `net` as an ordinary identifier does not fire.
        let benign = "fn f() { let net = 3; let _ = net + 1; }\n";
        assert!(lint_source("crates/core/src/x.rs", benign).is_empty());
    }

    #[test]
    fn lock_unwrap_rule() {
        let src = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == Rule::LockUnwrap), "{v:?}");
        let expect = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().expect(\"poisoned\") }\n";
        assert!(lint_source("crates/core/src/x.rs", expect)
            .iter()
            .any(|v| v.rule == Rule::LockUnwrap));
        // Explicit poison handling is the sanctioned form.
        let ok = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
        // Idiomatic in tests.
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
    }
}
