//! Fuzzes the command line's text inputs: placement files, per-node
//! assignment files and argument lists. Random bytes and mutated valid
//! inputs must come back as a value or a `CliError`, never as a panic.
//! This is the dynamic counterpart of lint L2's static no-panic rule.

use proptest::prelude::*;
use proptest::TestCaseResult;
use sinr_cli::args::Args;
use sinr_cli::io::{format_assignment, format_positions, parse_assignment, parse_positions};

/// Valid placement and assignment files the mutations start from.
const POSITIONS: &[&str] = &[
    "0 0\n0.5 0\n1.5 -2.25\n",
    "# header\n1e2 3E-1   # inline\n\n-0 7\n\t4.5\t6\n",
    "0 0\n1e300 -1e300\n",
    "-1e308 0\n1e308 0\n",
];
const ASSIGNMENTS: &[&str] = &["0 3\n1 0\n2 7\n", "# colors\n2 1\n0 0 # first\n\n1 5\n"];

/// Bytes that matter to the two line formats.
const ALPHABET: &[u8] = b"0123456789.eE+-# \t\n\rinfaNxy\xc3\xa9\xff";

/// One edit: `(op, position, byte)`.
type Edit = (u32, usize, u32);

/// `seed` with `edits` applied in order: replace, insert or delete a
/// byte, truncate, or repeat a short run. A byte below 256 is taken as
/// is; above, it indexes [`ALPHABET`].
fn mutate(seed: &[u8], edits: &[Edit]) -> String {
    let mut doc = seed.to_vec();
    for &(op, pos, byte) in edits {
        let b = match u8::try_from(byte) {
            Ok(b) => b,
            Err(_) => ALPHABET[byte as usize % ALPHABET.len()],
        };
        let len = doc.len();
        match op {
            0 if len > 0 => doc[pos % len] = b,
            1 => doc.insert(pos % (len + 1), b),
            2 if len > 0 => {
                doc.remove(pos % len);
            }
            3 => doc.truncate(pos % (len + 1)),
            4 if len > 0 => {
                let at = pos % len;
                let run: Vec<u8> = doc[at..len.min(at + 1 + byte as usize % 12)].to_vec();
                doc.splice(at..at, run);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&doc).into_owned()
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u32..5, 0usize..4096, 0u32..512), 1..12)
}

fn text(bytes: Vec<u32>) -> String {
    let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `text` as a placement: a parsed one holds only finite points
/// and reads back the same after formatting.
fn check_positions(text: &str) -> TestCaseResult {
    if let Ok(pts) = parse_positions(text) {
        prop_assert!(pts.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
        prop_assert_eq!(parse_positions(&format_positions(&pts)).ok(), Some(pts));
    }
    Ok(())
}

/// Parses `text` as an assignment for `n` nodes: a parsed one has a value
/// per node and reads back the same after formatting.
fn check_assignment(text: &str, n: usize) -> TestCaseResult {
    if let Ok(values) = parse_assignment(text, n) {
        prop_assert_eq!(values.len(), n);
        prop_assert_eq!(
            parse_assignment(&format_assignment(&values), n).ok(),
            Some(values)
        );
    }
    Ok(())
}

/// Tokens that matter to the argument grammar, and some that do not.
const TOKENS: &[&str] = &[
    "color",
    "report",
    "--input",
    "--seed",
    "--seeds",
    "--quiet",
    "--",
    "---",
    "-",
    "-3",
    "7",
    "0..2",
    "",
    " ",
    "--=",
    "--input=x",
    "\u{e9}",
    "--\u{e9}",
    "nan",
    "1e400",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn random_placement_files_parse_or_are_rejected(bytes in prop::collection::vec(0u32..256, 0..200)) {
        check_positions(&text(bytes))?;
    }

    #[test]
    fn mutated_placement_files_parse_or_are_rejected(
        seed in 0usize..POSITIONS.len(),
        edits in arb_edits(),
    ) {
        check_positions(&mutate(POSITIONS[seed].as_bytes(), &edits))?;
    }

    #[test]
    fn random_assignment_files_parse_or_are_rejected(
        bytes in prop::collection::vec(0u32..256, 0..200),
        n in 0usize..6,
    ) {
        check_assignment(&text(bytes), n)?;
    }

    #[test]
    fn mutated_assignment_files_parse_or_are_rejected(
        seed in 0usize..ASSIGNMENTS.len(),
        edits in arb_edits(),
        n in 0usize..6,
    ) {
        check_assignment(&mutate(ASSIGNMENTS[seed].as_bytes(), &edits), n)?;
    }

    #[test]
    fn argument_lists_parse_or_are_rejected(
        picks in prop::collection::vec(0usize..TOKENS.len() + 8, 0..10),
        noise in prop::collection::vec(0u32..256, 0..40),
        name in 0usize..TOKENS.len(),
    ) {
        // Vocabulary tokens, and tokens cut from random bytes.
        let noise = text(noise);
        let noise: Vec<&str> = noise.split(['x', '\u{fffd}']).collect();
        let raw: Vec<String> = picks
            .iter()
            .map(|&p| TOKENS.get(p).copied().unwrap_or_else(|| noise[p % noise.len()]).to_string())
            .collect();
        if let Ok(args) = Args::parse(raw.clone()) {
            prop_assert!(!args.command.is_empty() || raw.first().is_some_and(|c| c.is_empty()));
            let key = TOKENS[name].trim_start_matches("--");
            let _ = (args.get(key), args.require(key), args.has_flag(key));
            let _ = (args.get_parsed(key, 0u64), args.get_parsed(key, 0.0f64));
        }
    }
}

#[test]
fn the_seed_inputs_parse() {
    for seed in POSITIONS.iter().take(3) {
        assert!(parse_positions(seed).is_ok(), "{seed}");
    }
    assert!(
        parse_positions(POSITIONS[3]).is_err(),
        "an extent that overflows f64"
    );
    for seed in ASSIGNMENTS {
        assert!(parse_assignment(seed, 3).is_ok(), "{seed}");
    }
}
