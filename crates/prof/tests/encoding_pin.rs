//! Byte pin of the JSONL encoding: every complete line of the checked-in
//! traces parses with `Event::parse` and re-encodes with `Event::to_json`
//! to the same bytes. The captured `match` runs cover the training-side
//! kinds; `golden_kinds.jsonl` adds one line for each remaining kind plus
//! escape, `null`, `-0` and large-float edge cases, all written by the
//! hand-coded encoder the schema table replaced.

use em_obs::names::ALL_EVENT_TAGS;
use em_obs::Event;
use std::collections::BTreeSet;
use std::path::Path;

const FIXTURES: [&str; 4] = [
    "run_a.jsonl",
    "run_b.jsonl",
    "live_partial.jsonl",
    "golden_kinds.jsonl",
];

#[test]
fn every_fixture_line_re_encodes_byte_for_byte() {
    let mut seen = BTreeSet::new();
    for name in FIXTURES {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        // A live trace's last line may be torn mid-write: only lines that
        // end in a newline are complete.
        let complete = &body[..body.rfind('\n').map_or(0, |i| i + 1)];
        for (i, line) in complete.lines().enumerate() {
            let event = Event::parse(line).unwrap_or_else(|e| panic!("{name}:{}: {e}", i + 1));
            assert_eq!(
                event.to_json(),
                line,
                "{name}:{} re-encodes differently",
                i + 1
            );
            seen.insert(event.kind.type_tag());
        }
    }
    for tag in ALL_EVENT_TAGS {
        assert!(
            seen.contains(tag),
            "no fixture line pins the `{tag}` encoding"
        );
    }
}
