//! Property tests for the `em-check` lexer and the token-level lint.
//!
//! Two properties carry the engine:
//!
//! * **Totality + span discipline.** Over generated (and truncated)
//!   adversarial source — nested block comments, escaped quotes, raw
//!   strings with hashes — `lex` never panics, returns tokens in order
//!   with exact byte spans, leaves only whitespace between tokens, and
//!   reports correct 1-based lines.
//! * **Findings compose.** Every fragment below states the findings it
//!   must produce on its own, in library code and in a test file. On any
//!   concatenation of fragments the engine must report exactly the union
//!   of those findings, each shifted to its fragment's starting line, for
//!   the original seven rules. Context-sensitive constructs (multi-line
//!   chains, statement-scope escapes) are pinned separately in
//!   `lint_fixture.rs`.

use em_check::lex::lex;
use em_check::lint::{lint_source, Rule};
use proptest::collection;
use proptest::prelude::*;

/// The seven rules of the original line scanner; the composition property
/// covers these.
const ORIGINAL_RULES: [Rule; 7] = [
    Rule::Unwrap,
    Rule::Clock,
    Rule::Rng,
    Rule::Exit,
    Rule::EventName,
    Rule::AtomicIo,
    Rule::OpName,
];

/// A brace-balanced, newline-terminated source fragment and the
/// `(line offset, rule)` findings it produces under library and test
/// paths.
struct Fragment {
    src: &'static str,
    lib: &'static [(usize, Rule)],
    test: &'static [(usize, Rule)],
}

const fn clean(src: &'static str) -> Fragment {
    Fragment {
        src,
        lib: &[],
        test: &[],
    }
}

/// Fragments exercising nested comments, escaped quotes, raw strings
/// with hashes, char/lifetime ambiguity, `#[cfg(test)]` regions, escapes,
/// and one finding per original rule.
const FRAGMENTS: &[Fragment] = &[
    clean("fn f() { let x = 1; }\n"),
    clean("let s = \"no patterns here\";\n"),
    clean("// comment with .unwrap() inside\n"),
    clean("/* block .expect( comment */\n"),
    clean("/* nested /* comments */ still comment .unwrap() */\n"),
    clean("/* spans\n   multiple Instant::now\n   lines */\n"),
    clean("let r = r#\"raw with # and \\ oddities\"#;\n"),
    clean("let r2 = r##\"double-hash \"# inside\"##;\n"),
    clean("let c = 'x';\n"),
    clean("let esc = '\\n';\n"),
    clean("let q = \"escaped \\\" quote .unwrap()\";\n"),
    Fragment {
        src: "x.unwrap();\n",
        lib: &[(0, Rule::Unwrap)],
        test: &[],
    },
    Fragment {
        src: "y.expect(\"msg\");\n",
        lib: &[(0, Rule::Unwrap)],
        test: &[],
    },
    Fragment {
        src: "fn g() {\n    z.unwrap();\n}\n",
        lib: &[(1, Rule::Unwrap)],
        test: &[],
    },
    Fragment {
        src: "let t = Instant::now();\n",
        lib: &[(0, Rule::Clock)],
        test: &[(0, Rule::Clock)],
    },
    Fragment {
        src: "let g = thread_rng();\n",
        lib: &[(0, Rule::Rng)],
        test: &[(0, Rule::Rng)],
    },
    Fragment {
        src: "std::process::exit(1);\n",
        lib: &[(0, Rule::Exit)],
        test: &[(0, Rule::Exit)],
    },
    Fragment {
        src: "let _ = std::fs::write(\"p\", b\"x\");\n",
        lib: &[(0, Rule::AtomicIo)],
        test: &[],
    },
    Fragment {
        src: "let _ = File::create(\"p\");\n",
        lib: &[(0, Rule::AtomicIo)],
        test: &[],
    },
    clean("let lt: &'static str = \"life\";\n"),
    clean("for i in 0..n { sum += i; }\n"),
    clean("#[cfg(test)]\nmod t {\n    fn u() { v.unwrap(); }\n}\n"),
    clean("x.unwrap(); // lint:allow(unwrap)\n"),
    Fragment {
        src: "let tag = \"epoch_summary\";\n",
        lib: &[(0, Rule::EventName)],
        test: &[],
    },
    Fragment {
        src: "em_obs::op_stats(\"weird\", 1, 2, 3, 4, 5, 6);\n",
        lib: &[(0, Rule::OpName)],
        test: &[],
    },
];

fn build_source(picks: &[usize]) -> String {
    picks.iter().map(|&i| FRAGMENTS[i].src).collect()
}

/// The findings `picks` must produce under `rel`: each fragment's own,
/// shifted to the line the fragment starts on. Sorted `(line, rule name)`.
fn expected_findings(rel: &str, picks: &[usize]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let mut first_line = 1;
    for &i in picks {
        let frag = &FRAGMENTS[i];
        let own = if rel.contains("/tests/") {
            frag.test
        } else {
            frag.lib
        };
        out.extend(
            own.iter()
                .map(|&(off, rule)| (first_line + off, rule.name())),
        );
        first_line += frag.src.matches('\n').count();
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lexing_is_total_with_exact_spans(
        picks in collection::vec(0usize..FRAGMENTS.len(), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let src = build_source(&picks);
        for candidate in [src.clone(), {
            // Truncation forges unterminated strings/comments mid-token;
            // the lexer must stay total on those too.
            let mut cut = (src.len() as f64 * cut_frac) as usize;
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            src[..cut].to_string()
        }] {
            let tokens = lex(&candidate);
            let mut prev_end = 0usize;
            for t in &tokens {
                prop_assert!(
                    t.offset >= prev_end,
                    "overlapping tokens at offset {}", t.offset
                );
                let gap = &candidate[prev_end..t.offset];
                prop_assert!(
                    gap.chars().all(char::is_whitespace),
                    "non-whitespace between tokens: {gap:?}"
                );
                prop_assert_eq!(
                    &candidate[t.offset..t.offset + t.text.len()],
                    t.text
                );
                let line = 1 + candidate[..t.offset].matches('\n').count();
                prop_assert_eq!(t.line, line);
                prev_end = t.offset + t.text.len();
            }
            // Nothing but whitespace after the last token either.
            prop_assert!(candidate[prev_end..].chars().all(char::is_whitespace));
        }
    }

    #[test]
    fn findings_are_the_union_of_each_fragments_own(
        picks in collection::vec(0usize..FRAGMENTS.len(), 1..16),
    ) {
        let src = build_source(&picks);
        for rel in ["crates/core/src/x.rs", "crates/core/tests/t.rs"] {
            let mut got: Vec<_> = lint_source(rel, &src)
                .into_iter()
                .filter(|v| ORIGINAL_RULES.contains(&v.rule))
                .map(|v| (v.line, v.rule.name()))
                .collect();
            got.sort();
            let want = expected_findings(rel, &picks);
            prop_assert!(
                got == want,
                "findings on {rel}: got={got:?} want={want:?}\nsource:\n{src}"
            );
        }
    }
}

/// Handwritten pathological inputs: the lexer must survive every one.
#[test]
fn pathological_inputs_do_not_panic() {
    for src in [
        "",
        "\"",
        "'",
        "r#",
        "r#\"never closed",
        "r#####\"too many hashes\"##",
        "/* /* /* deep */ */",
        "\"ends in backslash \\",
        "'\\",
        "b\"bytes",
        "br##\"raw bytes",
        "0x",
        "1.",
        "ident\u{1F980}unicode",
        "#![cfg(test)",
        "// comment with no newline",
    ] {
        let _ = lex(src);
    }
}
