//! End-to-end tests driving the actual `sinrcolor` binary.

use std::process::Command;

fn sinrcolor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sinrcolor"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sinrcolor-e2e-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = sinrcolor(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = sinrcolor(&["transmogrify"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_then_color_pipeline() {
    let gen = sinrcolor(&["generate", "--kind", "uniform", "--n", "25", "--seed", "1"]);
    assert!(gen.status.success());
    let pts_file = tmp("pts.txt", &String::from_utf8_lossy(&gen.stdout));

    let color = sinrcolor(&[
        "color",
        "--input",
        pts_file.to_str().unwrap(),
        "--seed",
        "2",
    ]);
    assert!(
        color.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&color.stderr)
    );
    let stdout = String::from_utf8_lossy(&color.stdout);
    assert_eq!(stdout.lines().count(), 25);
    assert!(String::from_utf8_lossy(&color.stderr).contains("0 violations"));

    let _ = std::fs::remove_file(pts_file);
}

#[test]
fn malformed_input_reports_line_number() {
    let bad = tmp("bad.txt", "1 2\nnot numbers\n");
    let out = sinrcolor(&["info", "--input", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_file(bad);
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = sinrcolor(&["info", "--input", "/nonexistent/nowhere.txt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn missing_subcommand_exits_2_with_usage() {
    let out = sinrcolor(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing subcommand"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn missing_required_option_names_the_flag() {
    let out = sinrcolor(&["color"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required option --input"));
}

#[test]
fn unparsable_option_value_names_flag_and_value() {
    let gen = sinrcolor(&["generate", "--n", "not-a-number"]);
    assert!(!gen.status.success());
    let stderr = String::from_utf8_lossy(&gen.stderr);
    assert!(stderr.contains("invalid value for --n"));
    assert!(stderr.contains("not-a-number"));
}

#[test]
fn invalid_physical_parameters_are_a_clean_error() {
    // alpha must exceed 2 for the interference sums to converge; the CLI
    // must surface the validation error, not panic.
    let pts = tmp("phys.txt", "0 0\n0.5 0\n");
    let out = sinrcolor(&["info", "--input", pts.to_str().unwrap(), "--alpha", "1.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid physical parameters"));
    assert!(stderr.contains("path-loss exponent must exceed 2"));
    let _ = std::fs::remove_file(pts);
}

#[test]
fn trace_pipes_valid_chrome_trace_json_to_stdout() {
    let gen = sinrcolor(&["generate", "--kind", "uniform", "--n", "20", "--seed", "4"]);
    assert!(gen.status.success());
    let pts_file = tmp("trace-pts.txt", &String::from_utf8_lossy(&gen.stdout));

    let out = sinrcolor(&[
        "trace",
        "--input",
        pts_file.to_str().unwrap(),
        "--seed",
        "1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"trace_events\""));
    assert!(doc.contains("\"traceEvents\":["));
    assert!(doc.trim_end().ends_with('}'));

    let _ = std::fs::remove_file(pts_file);
}

#[test]
fn diff_gates_on_findings_and_rejects_bad_policy() {
    let base = tmp(
        "diff-base.json",
        "{\"kind\":\"metrics\",\"v\":{\"value\":10}}",
    );
    let drift = tmp(
        "diff-drift.json",
        "{\"kind\":\"metrics\",\"v\":{\"value\":12}}",
    );

    // Identical documents: exit zero.
    let ok = sinrcolor(&[
        "diff",
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        base.to_str().unwrap(),
    ]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("\"count\":0"));

    // A drifted value without tolerance: exit nonzero, finding on stderr.
    let bad = sinrcolor(&[
        "diff",
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        drift.to_str().unwrap(),
    ]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("v/value"));

    // A malformed policy is a friendly error, not a panic.
    let policy = tmp("diff-policy-bad.json", "{\"rules\":[{\"path\":\"v\"}]}");
    let rejected = sinrcolor(&[
        "diff",
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        base.to_str().unwrap(),
        "--policy",
        policy.to_str().unwrap(),
    ]);
    assert_eq!(rejected.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("bad diff policy"));

    for f in [base, drift, policy] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn diff_rejects_deeply_nested_documents_without_overflowing_the_stack() {
    let fine = tmp("deep-fine.json", "{\"kind\":\"metrics\"}");
    let arrays = tmp(
        "deep-arrays.json",
        &format!("{}{}", "[".repeat(60_000), "]".repeat(60_000)),
    );
    let objects = tmp(
        "deep-objects.json",
        &format!("{}1{}", "{\"a\":".repeat(60_000), "}".repeat(60_000)),
    );
    let (fine_s, arrays_s, objects_s) = (
        fine.to_str().unwrap(),
        arrays.to_str().unwrap(),
        objects.to_str().unwrap(),
    );
    for (base, cur) in [(arrays_s, fine_s), (fine_s, objects_s)] {
        let out = sinrcolor(&["diff", "--baseline", base, "--current", cur]);
        assert_eq!(out.status.code(), Some(1), "{base} vs {cur}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("not valid JSON"));
    }
    let out = sinrcolor(&[
        "diff",
        "--baseline",
        fine_s,
        "--current",
        fine_s,
        "--policy",
        objects_s,
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad diff policy"));
    for f in [fine, arrays, objects] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn positional_argument_after_command_is_rejected() {
    let out = sinrcolor(&["color", "stray"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected positional argument"));
}
