//! Fuzzes the JSON readers behind `sinrcolor diff` (run reports, profile
//! reports and diff policies): random bytes and mutated valid documents
//! must come back parsed or rejected, never as a panic or a stack
//! overflow, and every document that parses must render back to one that
//! parses equal. This is the dynamic counterpart of lint L2's static
//! no-panic rule for library code. The writers' output must parse too:
//! sinrbench reads its children's result lines back with `parse_value`.

use proptest::prelude::*;
use proptest::TestCaseResult;
use sinr_obs::json::{
    parse_flat_object, parse_value, push_f64, push_str_escaped, render_flat_object, Json, JsonValue,
};

/// Valid documents the mutations start from: a run report, an event line,
/// a diff policy, and values that exercise every branch of the grammar.
const SEEDS: &[&str] = &[
    r#"{"schema_version":2,"kind":"run_report","run":{"nodes":60,"model":"sinr","seed":42,"all_done":true,"mean_latency":7519.75},"metrics":{"sim.slots":{"type":"counter","value":11779},"sim.channel_load":{"type":"histogram","value":{"bounds":[0,1,2],"counts":[4881,3794,2080],"p50":1}}},"probes":{"thm1_violations":0}}"#,
    r#"{"slot":12,"kind":"receive","receiver":3,"sender":4,"note":null,"ok":false}"#,
    r#"{"rules":[{"path":"metrics/sim.work.*","kind":"exact"},{"path":"profile/heap_peak","kind":"rel","tol":0.05}]}"#,
    r#"[1, -2.5e3, 0.0, -0, 1E+2, "a\"b\\c\/\n\r\t\u00e9", true, false, null, [], {}, [[{}]]]"#,
    "\"\u{e9}\u{6f22}\u{1f642} \\u20ac\"",
    "  {\"k\" : [ 1 , { \"x\" : \"y\" } ] }\n",
];

/// Bytes that matter to the grammar, and bytes that start or continue
/// multi-byte UTF-8 sequences.
const ALPHABET: &[u8] =
    b"{}[]\":,\\u/0123456789.eE+-tfnrl \n\t\xc3\xa9\xe2\x82\xac\xf0\x9f\x99\x82\xff";

/// One edit: `(op, position, byte)`.
type Edit = (u32, usize, u32);

/// `seed` with `edits` applied in order: replace, insert or delete a
/// byte, truncate, or repeat a short run. A byte below 256 is taken as
/// is; above, it indexes [`ALPHABET`].
fn mutate(seed: &[u8], edits: &[Edit]) -> Vec<u8> {
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
    doc
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u32..5, 0usize..4096, 0u32..512), 1..12)
}

/// Parses `text` both ways. A document that parses renders back into one
/// that parses equal. A flat object that parses renders back into a line
/// that parses to the same fields, as the event log reader relies on; a
/// full document parses whenever its flat form does.
fn check(text: &str) -> TestCaseResult {
    let value = parse_value(text);
    if let Some(v) = &value {
        let mut again = String::new();
        v.render_into(&mut again);
        prop_assert_eq!(
            parse_value(&again).as_ref(),
            Some(v),
            "{:?} rendered as {:?}",
            text,
            again
        );
    }
    if let Some(fields) = parse_flat_object(text) {
        prop_assert!(value.is_some(), "flat but not a value: {:?}", text);
        let line = render_flat_object(&fields);
        let again = parse_flat_object(&line);
        prop_assert!(
            again.is_some(),
            "{:?} rendered as {:?}, which fails",
            text,
            line
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_parse_or_are_rejected(bytes in prop::collection::vec(0u32..256, 0..300)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_documents_parse_or_are_rejected(seed in 0usize..SEEDS.len(), edits in arb_edits()) {
        let doc = mutate(SEEDS[seed].as_bytes(), &edits);
        check(&String::from_utf8_lossy(&doc))?;
    }

    #[test]
    fn every_written_number_parses_back(bits in any::<u64>(), scale in -330i32..330) {
        // Raw bit patterns cover subnormals, NaNs and infinities; scaled
        // integers cover the large integral values written with an
        // exponent.
        for x in [f64::from_bits(bits), (bits >> 11) as f64 * 10f64.powi(scale)] {
            let mut text = String::new();
            push_f64(&mut text, x);
            let expected = if x.is_finite() { JsonValue::Float(x) } else { JsonValue::Null };
            prop_assert_eq!(parse_value(&text), Some(Json::Scalar(expected)), "{}", text);
        }
    }

    #[test]
    fn every_written_string_parses_back(chars in prop::collection::vec(0u32..0x11_0000, 0..40)) {
        let s: String = chars.into_iter().filter_map(char::from_u32).collect();
        let mut text = String::new();
        push_str_escaped(&mut text, &s);
        prop_assert_eq!(parse_value(&text), Some(Json::Scalar(JsonValue::Str(s))));
    }
}

#[test]
fn inputs_once_read_as_values_are_rejected() {
    // `\u` took a leading `+` as hex, a leading zero and a bare point
    // were read as numbers, and an overflowing exponent came back as
    // infinity, which renders as `null`.
    for text in [r#""\u+041""#, "01", "1.", "1e999"] {
        assert_eq!(parse_value(text), None, "{text}");
        assert_eq!(
            parse_flat_object(&format!("{{\"k\":{text}}}")),
            None,
            "{text}"
        );
    }
}

#[test]
fn the_seed_documents_parse() {
    for seed in SEEDS {
        assert!(parse_value(seed).is_some(), "{seed}");
    }
    assert!(parse_flat_object(SEEDS[1]).is_some());
}
