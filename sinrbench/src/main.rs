//! `sinrbench`: end-to-end and per-layer performance of the SINR coloring
//! reproduction, in one command. `README.md` next to this package explains
//! the workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path sinrbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check]
//! ```
//!
//! With `--workload`, one workload runs in this process: set-up, a capped
//! warm-up, then a fixed number of timed calls that fills `--seconds` on
//! the calibration host, each after a few more set-ups, and with
//! `--trace 1` one traced call. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Without `--workload`, every workload runs in a child process of
//! its own, so each has its own heap high-water mark. `--check` runs every
//! workload path traced at toy size, one call each. The exit code is
//! nonzero when any output check fails.

mod layers;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sinr_obs::alloc::{self, CountingAlloc};
use sinr_obs::json::{parse_value, push_f64, push_str_escaped};

use layers::{Tracer, Windows};
use workload::{
    colors_used, solve, undone_node_slots, Instance, Probe, SetupTimes, Solved, Workload,
};

// The counting allocator gives `peak_heap_mb` and the traced run's
// allocation counts. Lint L10 keeps global allocators in binaries.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: sinrbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check]";

/// Instance builds before each timed call, the last of which the call
/// runs on; `setup_s` is the median of every build of the run. Spreading
/// them over the run lets their median see the host as the timed calls
/// do, not as it was in the first tenth of a second.
const SETUPS_PER_CALL: usize = 8;
/// Slot cap of the warm-up call.
const WARMUP_SLOTS: u64 = 500;
/// `--seconds` when not given: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
    };
    let mut seconds = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--check" => args.check = true,
            "--workload" => {
                let v = flag_value(&mut it, &flag)?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = flag_value(&mut it, &flag)?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = flag_value(&mut it, &flag)?;
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                    _ => return Err(format!("bad --seconds {v}")),
                }
            }
            "--trace" => {
                args.trace = match flag_value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.check {
        args.trace = true;
    }
    args.seconds = seconds.unwrap_or(if args.check { 0.0 } else { DEFAULT_SECONDS });
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn count(name: &'static str, value: u64) -> Metric {
    metric(name, value as f64, "count")
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Pass/fail bookkeeping of one run: every call is checked, and every
/// call's digest must equal the first one's.
struct Ledger {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Ledger {
    fn judge(&mut self, what: &str, inst: &Instance, capped: bool, s: &Solved) {
        self.attempted += 1;
        let mut failures = workload::check(inst, capped, s);
        let digest = workload::digest(s);
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => failures.push(format!(
                "outcome_digest {digest:#018x} differs from {d:#018x}"
            )),
            Some(_) => {}
        }
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("  FAILED ({what}): {f}");
            }
        }
    }
}

fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("sinrbench-traces")
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let size = w.size(args.check);
    let seed = args.seed;
    let origin = Instant::now();
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        digest: None,
    };

    let calls = w.calls(args.seconds);
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(1 + calls * SETUPS_PER_CALL);
    let mut build = || {
        let (inst, times) = Instance::build(w, size.n, seed);
        setups.push(times);
        inst
    };

    solve(w, &build(), seed, Some(WARMUP_SLOTS), Probe::Off);

    let (windows, solve_secs, inst, last) =
        timed_calls(w, args, calls, &mut build, "timed call", &mut ledger);
    let heap_peak = alloc::heap_peak();
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::host_s).collect();
    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "slots_per_sec",
            last.sim_slots as f64 / windows.floor_s(),
            "1/s",
        ),
        metric("peak_heap_mb", heap_peak as f64 * 1e-6, "MB"),
    ];

    let per_layer = args.trace.then(|| {
        let timing = Timing {
            setups: &setups,
            calls,
            solve_s: median(&solve_secs),
            windows: &windows,
            origin,
        };
        traced(w, args, &inst, &last, &timing, &mut ledger)
    });

    let digest = ledger.digest.unwrap_or(0);
    eprintln!(
        "sinrbench {} seed {seed}: {} calls, {} failed, outcome_digest {digest:#018x}",
        w.name(),
        ledger.attempted,
        ledger.failed,
    );
    for m in end_to_end.iter().chain(per_layer.iter().flatten()) {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let reported = per_layer.as_ref().unwrap_or(&end_to_end);
    let correct = ledger.failed == 0;
    println!(
        "{}",
        result_json(correct, ledger.attempted, ledger.failed, reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `calls` calls of `w`, each on an instance from `build`, timed by window
/// and checked. Before each call the instance is built
/// [`SETUPS_PER_CALL`] times and the last build kept. Returns the window
/// clock, each call's wall time, and the last call's instance and result.
fn timed_calls(
    w: Workload,
    args: &Args,
    calls: usize,
    build: &mut dyn FnMut() -> Instance,
    what: &str,
    ledger: &mut Ledger,
) -> (Windows, Vec<f64>, Instance, Solved) {
    let size = w.size(args.check);
    let mut windows = Windows::new();
    let mut secs = Vec::with_capacity(calls);
    let mut last = None;
    for _ in 0..calls {
        // Drop the previous outcome and instance before building, and
        // every extra build as soon as it is made, so the heap never holds
        // two instances at once and its peak stays the timed call's.
        drop(last.take());
        for _ in 1..SETUPS_PER_CALL {
            drop(build());
        }
        let inst = build();
        windows.start();
        let s = solve(
            w,
            &inst,
            args.seed,
            size.slot_cap,
            Probe::Windows(&mut windows),
        );
        secs.push(windows.finish());
        ledger.judge(what, &inst, size.slot_cap.is_some(), &s);
        last = Some((inst, s));
    }
    let (inst, s) = last.expect("at least one call is made");
    (windows, secs, inst, s)
}

/// Timings of the untraced part of a run that the traced part reports.
struct Timing<'a> {
    setups: &'a [SetupTimes],
    /// Number of timed calls.
    calls: usize,
    /// Median wall time of the timed calls.
    solve_s: f64,
    /// Their window clock.
    windows: &'a Windows,
    origin: Instant,
}

/// The traced call and its per-layer metrics.
fn traced(
    w: Workload,
    args: &Args,
    inst: &Instance,
    last: &Solved,
    timing: &Timing<'_>,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let size = w.size(args.check);
    let capped = size.slot_cap.is_some();
    let mut tr = Tracer::new(timing.origin, last.outcome.slots as usize);
    let stage = |f: fn(&SetupTimes) -> (Instant, Instant)| {
        let secs: Vec<f64> = timing
            .setups
            .iter()
            .map(|t| {
                let (a, b) = f(t);
                (b - a).as_secs_f64()
            })
            .collect();
        median(&secs)
    };
    let placement_s = stage(|t| (t.start, t.placed));
    let udg_s = stage(|t| (t.placed, t.graphed));
    let model_s = stage(|t| (t.graphed, t.done));
    for t in timing.setups {
        tr.span("setup", t.start, t.done);
        tr.span("geometry.placement", t.start, t.placed);
        tr.span("geometry.udg_build", t.placed, t.graphed);
        tr.span("sinr.model_build", t.graphed, t.done);
    }

    let start = Instant::now();
    let s = solve(w, inst, args.seed, size.slot_cap, Probe::Trace(&mut tr));
    let traced_s = tr.span("solve", start, Instant::now());
    ledger.judge("traced call", inst, capped, &s);
    let layers = tr.coloring_layers();

    // The same instance and seed without the recorder: the base of
    // `obs.recorded_over_plain`, and its digest must match. The set-ups
    // ahead of each call leave the caches as the recorded calls found them.
    let recorded_over_plain = if w == Workload::Recorded2k {
        let (plain, _, _, _) = timed_calls(
            Workload::Uniform2k,
            args,
            timing.calls,
            &mut || Instance::build(w, size.n, args.seed).0,
            "plain call",
            ledger,
        );
        timing.windows.floor_s() / plain.floor_s()
    } else {
        0.0
    };

    let path = trace_dir().join(format!("{}-seed{}.json", w.name(), args.seed));
    match std::fs::create_dir_all(trace_dir()).and_then(|()| tr.write_chrome_trace(&path)) {
        Ok(()) => eprintln!("  trace written to {}", path.display()),
        Err(e) => eprintln!("  warning: cannot write {}: {e}", path.display()),
    }

    let out = &last.outcome;
    let rs = out.resolver.unwrap_or_default();
    let undone = undone_node_slots(out);
    let node_slots = (inst.mw_graph.len() as u64 * out.slots).max(1);
    let (frame_len, link_rate, srs_slots) = last.mac.as_ref().map_or((0, 0.0, 0), |m| {
        (m.frame_len as u64, m.audit.link_success_rate(), m.srs.slots)
    });
    let obs = last.obs.unwrap_or_default();
    vec![
        metric("geometry.placement_s", placement_s, "s"),
        metric("geometry.udg_build_s", udg_s, "s"),
        count("geometry.edges", inst.mw_graph.edge_count() as u64),
        metric("sinr.model_build_s", model_s, "s"),
        metric("sinr.resolve_s", layers.resolve_s, "s"),
        metric("sinr.resolve_us.p50", layers.resolve_us_p50, "us"),
        metric("sinr.resolve_us.p99", layers.resolve_us_p99, "us"),
        count("sinr.calls", layers.calls),
        metric("sinr.tx_per_slot", layers.tx_per_call, "count"),
        count("sinr.fast_path_hits", rs.fast_path_hits),
        count("sinr.exact_fallbacks", rs.exact_fallbacks),
        metric("sinr.hit_rate", rs.hit_rate().unwrap_or(0.0), "ratio"),
        count("sinr.cells_scanned", rs.cells_scanned),
        count("sinr.delta_started", rs.delta_started),
        count("sinr.delta_stopped", rs.delta_stopped),
        metric("radiosim.step_s", layers.step_s, "s"),
        metric("radiosim.self_s", layers.self_s, "s"),
        metric("radiosim.step_us.p50", layers.step_us_p50, "us"),
        metric("radiosim.step_us.p99", layers.step_us_p99, "us"),
        metric("radiosim.build_s", layers.build_s, "s"),
        count("radiosim.undone_node_slots", undone),
        metric(
            "radiosim.live_ratio",
            undone as f64 / node_slots as f64,
            "ratio",
        ),
        count("radiosim.transmissions", out.transmissions),
        count("radiosim.receptions", out.receptions),
        count("radiosim.steady_allocs", layers.steady_allocs),
        count("radiosim.setup_allocs", layers.setup_allocs),
        metric("mac.schedule_s", tr.total_s("mac.schedule"), "s"),
        metric("mac.audit_s", tr.total_s("mac.audit"), "s"),
        metric("mac.srs_s", tr.total_s("mac.srs"), "s"),
        count("mac.frame_len", frame_len),
        metric("mac.link_success_rate", link_rate, "ratio"),
        count("mac.srs_slots", srs_slots),
        metric("obs.recorded_over_plain", recorded_over_plain, "ratio"),
        count("obs.events_recorded", obs.events_recorded),
        count("obs.events_dropped", obs.events_dropped),
        count("obs.spans_recorded", obs.spans_recorded),
        metric("obs.export_s", tr.total_s("obs.export"), "s"),
        metric("bench.trace_overhead", traced_s / timing.solve_s, "ratio"),
        metric(
            "bench.host_slowdown",
            timing.windows.mean_slowdown(),
            "ratio",
        ),
        metric(
            "bench.wall_slots_per_sec",
            last.sim_slots as f64 / timing.windows.wall_floor_s(),
            "1/s",
        ),
        metric("bench.wall_setup_s", stage(|t| (t.start, t.done)), "s"),
        metric("solve_s", timing.solve_s, "s"),
        count("slots", out.slots),
        count("colors", colors_used(last) as u64),
    ]
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_escaped(&mut s, m.name);
        s.push_str(":{\"value\":");
        push_f64(&mut s, m.value);
        s.push_str(",\"unit\":");
        push_str_escaped(&mut s, m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// Runs every workload in a child process of its own and prints their
/// result lines under `workloads`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sinrbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut docs = Vec::new();
    for w in workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.check {
            cmd.arg("--check");
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("sinrbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        let doc = parse_value(&line);
        let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
        correct &=
            output.status.success() && field("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += field("attempted").and_then(|v| v.as_i64()).unwrap_or(0);
        failed += field("failed").and_then(|v| v.as_i64()).unwrap_or(1);
        docs.push(format!(
            "\"{}\":{}",
            w.name(),
            if doc.is_some() { &line } else { "null" }
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"workloads\":{{{}}}}}",
        docs.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sinrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse("--workload tdma-512 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Tdma512));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.check),
            (7, 10.0, true, false)
        );
        let a = parse("--check").unwrap();
        assert_eq!((a.seconds, a.trace), (0.0, true));
        assert_eq!(parse("").unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn call_counts_follow_the_run_length_alone() {
        for w in workload::ALL {
            assert_eq!(w.calls(0.0), 1, "--check makes one call");
            assert!(w.calls(2.0 * DEFAULT_SECONDS) > w.calls(DEFAULT_SECONDS));
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds -2",
            "--trace 2",
            "--seed",
            "--fast",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
        let doc = parse_value(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(|v| v.as_i64()), Some(3));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
