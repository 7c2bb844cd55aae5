//! End-to-end tests for the `cargo xtask lint` binary: schema v2 JSON
//! round-trips through the in-repo parser (`sinr_obs::json`), SARIF carries
//! the full rule catalog, `--explain`/`--self-test` work, and the docs stay
//! in sync with the rule strings.

use std::path::PathBuf;
use std::process::{Command, Output};

use sinr_obs::json::{parse_value, Json};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawns the xtask binary")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

#[test]
fn workspace_is_lint_clean_and_json_report_round_trips() {
    let out = xtask(&["lint", "--format", "json"]);
    let doc = parse_value(&stdout_of(&out)).expect("stdout is one JSON document");

    assert_eq!(doc.get("version").and_then(Json::as_i64), Some(2));
    let summary = doc.get("summary").expect("summary object");
    assert!(summary.get("files_scanned").and_then(Json::as_i64) > Some(50));
    assert_eq!(
        summary.get("reported").and_then(Json::as_i64),
        Some(0),
        "workspace must be lint-clean: {}",
        stdout_of(&out)
    );
    let ratchet = doc.get("ratchet").expect("ratchet section");
    assert_eq!(ratchet.get("checked").and_then(Json::as_bool), Some(true));
    assert_eq!(
        ratchet
            .get("regressions")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
    assert!(out.status.success(), "clean run exits 0");
}

#[test]
fn sarif_output_embeds_the_full_rule_catalog() {
    let out = xtask(&["lint", "--format", "sarif"]);
    let doc = parse_value(&stdout_of(&out)).expect("stdout is one SARIF document");

    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .expect("runs array");
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("xtask-lint")
    );
    let rules = driver
        .get("rules")
        .and_then(Json::as_array)
        .expect("rules array");
    assert_eq!(rules.len(), xtask::rules::RULES.len());
    for (emitted, rule) in rules.iter().zip(xtask::rules::RULES.iter()) {
        assert_eq!(emitted.get("id").and_then(Json::as_str), Some(rule.id));
        assert_eq!(
            emitted
                .get("shortDescription")
                .and_then(|d| d.get("text"))
                .and_then(Json::as_str),
            Some(rule.title)
        );
    }
    assert!(runs[0].get("results").and_then(Json::as_array).is_some());
}

#[test]
fn explain_prints_rule_strings_and_rejects_unknown_ids() {
    let out = xtask(&["lint", "--explain", "L8"]);
    assert!(out.status.success());
    let text = stdout_of(&out);
    let rule = xtask::rules::rule("L8").expect("L8 exists");
    assert!(text.contains(rule.title));
    assert!(text.contains(rule.rationale));
    assert!(text.contains(rule.fix));

    let out = xtask(&["lint", "--explain", "L42"]);
    assert_eq!(out.status.code(), Some(2), "unknown id is a usage error");
}

#[test]
fn self_test_passes_against_the_fixture_tree() {
    let out = xtask(&["lint", "--self-test"]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "self-test failed:\n{text}");
    assert!(text.contains("0 mismatch(es)"), "{text}");
}

#[test]
fn ratchet_slack_is_reported_and_tolerated() {
    let slack_file = std::env::temp_dir().join("xtask-e2e-slack.ratchet");
    std::fs::write(&slack_file, "L2 = 500\n").expect("writes temp ratchet");
    let out = xtask(&[
        "lint",
        "--format",
        "json",
        "--ratchet",
        slack_file.to_str().expect("utf-8 temp path"),
    ]);
    let doc = parse_value(&stdout_of(&out)).expect("stdout is one JSON document");
    let ratchet = doc.get("ratchet").expect("ratchet section");
    let slack = ratchet
        .get("slack")
        .and_then(Json::as_array)
        .expect("slack array");
    assert!(
        slack
            .iter()
            .any(|d| d.get("lint").and_then(Json::as_str) == Some("L2")
                && d.get("budget").and_then(Json::as_i64) == Some(500)),
        "expected L2 slack entry"
    );
    assert!(out.status.success(), "slack warns but does not fail");
    let _ = std::fs::remove_file(&slack_file);
}

#[test]
fn lints_the_checkout_named_by_the_runtime_manifest_dir() {
    // A copy of the repository that kept `target/` runs the binary built
    // in the original checkout; Cargo's runtime CARGO_MANIFEST_DIR must
    // still point the lint at the copy.
    let root = std::env::temp_dir().join(format!("xtask-e2e-root-{}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("creates the temp tree");
    std::fs::write(src.join("lib.rs"), "pub fn f(s: u64) -> i64 { s as i64 }\n")
        .expect("writes the temp source");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--format", "json"])
        .env("CARGO_MANIFEST_DIR", root.join("crates/xtask"))
        .output()
        .expect("spawns the xtask binary");
    let _ = std::fs::remove_dir_all(&root);

    let doc = parse_value(&stdout_of(&out)).expect("stdout is one JSON document");
    let found: Vec<(Option<&str>, Option<&str>)> = doc
        .get("violations")
        .and_then(Json::as_array)
        .expect("violations array")
        .iter()
        .map(|v| {
            (
                v.get("lint").and_then(Json::as_str),
                v.get("file").and_then(Json::as_str),
            )
        })
        .collect();
    assert_eq!(found, vec![(Some("L4"), Some("crates/core/src/lib.rs"))]);
    assert!(!out.status.success(), "a reported violation fails the run");
}

#[test]
fn docs_quote_the_rule_catalog_verbatim() {
    let doc = std::fs::read_to_string(repo_root().join("docs/LINTING.md"))
        .expect("docs/LINTING.md exists");
    for rule in xtask::rules::RULES.iter() {
        assert!(
            doc.contains(rule.id),
            "docs/LINTING.md is missing rule {}",
            rule.id
        );
        assert!(
            doc.contains(rule.title),
            "docs/LINTING.md must quote the title of {} verbatim: `{}`",
            rule.id,
            rule.title
        );
    }
    for marker in ["lint:hot", "--explain", "--self-test", "ratchet", "sarif"] {
        assert!(
            doc.contains(marker),
            "docs/LINTING.md is missing `{marker}`"
        );
    }
}
