//! `sinrbench --check`: every workload path at toy size, traced, with all
//! output checks, each workload in its own child process.

use std::process::Command;

use sinr_obs::json::parse_value;

#[test]
fn check_mode_passes_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_sinrbench"))
        .arg("--check")
        .output()
        .expect("run sinrbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sinrbench --check failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let doc = parse_value(line).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("failed").and_then(|v| v.as_i64()), Some(0));
    for w in ["uniform-2k", "uniform-32k-head", "recorded-2k", "tdma-512"] {
        let metrics = doc
            .get("workloads")
            .and_then(|d| d.get(w))
            .and_then(|d| d.get("metrics"))
            .unwrap_or_else(|| panic!("{w} reports metrics"));
        for key in [
            "sinr.resolve_s",
            "radiosim.step_s",
            "bench.trace_overhead",
            "slots",
        ] {
            let value = metrics.get(key).and_then(|m| m.get("value"));
            assert!(value.and_then(|v| v.as_f64()).is_some(), "{w}: {key}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sinrbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run sinrbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
