//! The manifest reader under hostile input: whatever the bytes,
//! `Manifest::parse` returns a manifest or a typed error, never a panic.
//!
//! One property feeds it arbitrary bytes (read as lossy UTF-8, so
//! replacement characters and stray multi-byte sequences reach the
//! slicing code); the other feeds it lines drawn from the grammar's own
//! tokens — brackets, `=`, quotes, commas, `#`, section and axis names,
//! numbers — which get far deeper into sections, lists and validation
//! than random bytes do.

use medsplit_lab::Manifest;
use proptest::prelude::*;

/// The grammar's tokens, mixed with near misses.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "=",
    "\"",
    ",",
    "#",
    " ",
    "[lab]",
    "[matrix]",
    "[run]",
    "[gate]",
    "[gate.pct]",
    "name",
    "ci",
    "true",
    "false",
    "schema_version",
    "bench",
    "model",
    "topology",
    "fault",
    "codec",
    "isa",
    "threads",
    "seed",
    "rounds",
    "samples",
    "capture_trace",
    "baseline",
    "invariant_across",
    "invariant",
    "exact",
    "wall_s",
    "0",
    "1",
    "-1",
    "42",
    "1e308",
    "-0.0",
    "nan",
    "inf",
    "9223372036854775808",
    "\"x\"",
    "\"split_train\"",
    "\"\"",
    "\u{e9}",
    "\u{fffd}",
];

/// A manifest that parses, so token lines appended to it reach every
/// section's validation.
const PREFIX: &str = "schema_version = 1\n[lab]\nname = \"hostile\"\n";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..=512)) {
        let text = String::from_utf8_lossy(&raw);
        let _ = Manifest::parse(&text);
        let _ = Manifest::parse(&format!("{PREFIX}{text}"));
    }

    #[test]
    fn token_lines_never_panic(
        lines in prop::collection::vec(prop::collection::vec(0..TOKENS.len(), 0..12), 0..16),
    ) {
        let body: String = lines
            .iter()
            .map(|line| line.iter().map(|&t| TOKENS[t]).collect::<String>() + "\n")
            .collect();
        let _ = Manifest::parse(&body);
        let _ = Manifest::parse(&format!("{PREFIX}{body}"));
        let _ = Manifest::parse(&format!("{PREFIX}[matrix]\nbench = [\"x\"]\n{body}"));
    }
}

#[test]
fn a_nested_list_is_a_typed_error() {
    for value in ["[[\"x\"]]", "[[\"x\"], [\"y\"]]", "[\"x\", [1]]", "[[]]"] {
        let text = format!("{PREFIX}[matrix]\nbench = {value}\n");
        let err = Manifest::parse(&text).expect_err(value);
        assert_eq!(err.line, 5, "{value}: {err}");
        assert!(err.message.contains("cannot parse value"), "{value}: {err}");
    }
}
