//! The `sinrcolor` subcommands, implemented against `Write` sinks.

use crate::args::Args;
use crate::io::{format_assignment, format_positions, parse_assignment, parse_positions};
use crate::obs::{run_report, warn_truncation, ObsSpec};
use crate::{err, CliResult};
use sinr_coloring::distance_d::color_at_distance;
use sinr_coloring::mis::run_clustering;
use sinr_coloring::mw::{
    run_mw, run_mw_profiled, run_mw_recorded, MwAllocProfile, MwConfig, MwOutcome, MwProbeConfig,
};
use sinr_coloring::palette::reduce_palette;
use sinr_coloring::params::MwParams;
use sinr_coloring::render::{render_svg, RenderOptions};
use sinr_coloring::verify::distance_violations;
use sinr_geometry::greedy::Coloring;
use sinr_geometry::{placement, Point, UnitDiskGraph};
use sinr_mac::guard::theorem3_distance_factor;
use sinr_mac::mp::{BfsLayers, Convergecast, Flooding};
use sinr_mac::srs::{simulate_general_bundled, simulate_uniform};
use sinr_mac::tdma::{broadcast_audit, TdmaSchedule};
use sinr_model::{GraphModel, IdealModel, InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::{
    diff_documents, render_diff_report, DiffPolicy, FullRecorder, SeriesConfig, StderrSink,
};
use sinr_radiosim::WakeupSchedule;
use std::io::Write;

/// Usage text printed by `help` and on bad invocations.
pub const USAGE: &str = "\
sinrcolor — distributed SINR node coloring toolkit

USAGE: sinrcolor <COMMAND> [OPTIONS]

COMMANDS:
  generate  --kind uniform|grid|cluster|line --n N [--degree D] [--seed S]
            emit a placement (x y per line) on stdout
  info      --input FILE [--alpha A --beta B --rho R]
            print graph statistics for a placement
  color     --input FILE [--seed S] [--model sinr|graph|ideal]
            [--distance D] [--obs SPEC] [--seeds A..B [--threads N]]
            run the MW coloring; emit 'node color' per line on stdout.
            --seeds A..B batches one run per seed in the half-open range
            across --threads N worker threads (default: SINR_THREADS, else
            1; graph built once; output is '# seed N' blocks in seed
            order, identical at any --threads)
  report    --input FILE [--seed S] [--model sinr|graph|ideal]
            [--thm1-stride K] [--ring CAP] [--obs SPEC]
            run a fully observed MW coloring; emit the machine-readable
            run report (docs/OBS_SCHEMA.md) as JSON on stdout
  trace     --input FILE [--seed S] [--model ...] [--ring CAP]
            run a fully observed MW coloring; emit the span timeline as
            Chrome trace-event JSON on stdout (open in Perfetto)
  profile   --input FILE [--seed S] [--model ...] [--top K]
            run the MW coloring under the allocation profiler; emit the
            profile_report JSON (per-phase heap traffic, warmup/steady
            classification, top-K allocating slots, struct sizes)
  diff      --baseline FILE --current FILE [--policy FILE]
            structurally compare two JSON artifacts (run reports, metrics
            dumps, bench reports) under per-key tolerances; emit a
            diff_report on stdout and exit nonzero on any finding
  reduce    --input FILE --colors FILE
            palette-reduce an existing proper coloring to Δ+1 colors
  schedule  --input FILE [--seed S]
            build a Theorem-3 TDMA schedule; emit 'node slot' per line
  render    --input FILE [--colors FILE] [--labels]
            emit an SVG drawing on stdout
  cluster   --input FILE [--seed S]
            elect an MIS of cluster leaders; emit 'node leader' per line
            (a leader's line shows its own id)
  simulate  --input FILE --algorithm flooding|bfs|convergecast [--source V]
            run a message-passing algorithm under SINR via SRS
            (Corollary 1); emit 'node result' per line
  help      show this text

Physical options (all commands): --alpha (4), --beta (1.5), --rho (2);
R_T is normalized to 1.

Models: sinr (the default) is the paper's physical model; graph and
ideal are the graph-based and collision-free baselines. Every run is
single-threaded: a slot needs the one before it, so only whole runs
(--seeds) go parallel.

Observability: SPEC is a comma-separated sink list — jsonl:PATH (event
stream as JSON Lines), metrics:PATH (metrics registry dump), trace:PATH
(Chrome trace-event span timeline), timeseries:PATH (per-slot samples;
--series-stride K sets the stride, default 1), stderr (mirror events
live). Schemas: docs/OBS_SCHEMA.md.
";

/// The interference model a run resolves its slots under, parsed once
/// from `--model` (default `sinr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Sinr,
    Graph,
    Ideal,
}

impl Model {
    fn parse(args: &Args) -> Result<Model, crate::CliError> {
        match args.get("model").unwrap_or("sinr") {
            "sinr" => Ok(Model::Sinr),
            "graph" => Ok(Model::Graph),
            "ideal" => Ok(Model::Ideal),
            other => Err(err(format!(
                "unknown model {other}; expected sinr, graph or ideal"
            ))),
        }
    }

    /// The name reports carry, as `--model` spells it.
    fn name(self) -> &'static str {
        match self {
            Model::Sinr => "sinr",
            Model::Graph => "graph",
            Model::Ideal => "ideal",
        }
    }
}

/// A finite number flag, `default` when absent, that `ok` accepts; the
/// error names the flag and what it must be.
fn finite_flag(
    args: &Args,
    name: &str,
    default: f64,
    must_be: &str,
    ok: impl Fn(f64) -> bool,
) -> Result<f64, crate::CliError> {
    let value: f64 = args.get_parsed(name, default)?;
    if value.is_finite() && ok(value) {
        Ok(value)
    } else {
        Err(err(format!("--{name} must be {must_be}, got {value}")))
    }
}

fn physical_config(args: &Args) -> Result<SinrConfig, crate::CliError> {
    let alpha = args.get_parsed("alpha", 4.0)?;
    let beta = args.get_parsed("beta", 1.5)?;
    let rho = args.get_parsed("rho", 2.0)?;
    SinrConfig::new(1.0, alpha, beta, 1.0 / (2.0 * beta), rho)
        .map_err(|e| err(format!("invalid physical parameters: {e}")))
}

fn read_positions(args: &Args) -> Result<Vec<Point>, crate::CliError> {
    let path = args.require("input")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let pts = parse_positions(&text)?;
    if pts.len() < 2 {
        return Err(err("need at least two nodes"));
    }
    Ok(pts)
}

/// `generate`: emit a placement.
pub fn generate(args: &Args, out: &mut dyn Write) -> CliResult {
    let n: usize = args.get_parsed("n", 100)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let kind = args.get("kind").unwrap_or("uniform");
    let pts = match kind {
        "uniform" => {
            let degree = finite_flag(args, "degree", 12.0, "a finite number above 0", |d| d > 0.0)?;
            placement::uniform_with_expected_degree(n, 1.0, degree, seed)
        }
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            let step = finite_flag(args, "step", 0.8, "a finite number above 0", |s| s > 0.0)?;
            let jitter = finite_flag(args, "jitter", 0.1, "a finite number at least 0", |j| {
                j >= 0.0
            })?;
            placement::jittered_grid(side, side, step, jitter, seed)
        }
        "cluster" => {
            let clusters: usize = args.get_parsed("clusters", 8)?;
            let per = n.div_ceil(clusters.max(1));
            placement::clustered(clusters, per, 8.0, 8.0, 0.7, seed)
        }
        "line" => placement::line(n, 0.8, 0.1, seed),
        other => return Err(err(format!("unknown placement kind {other}"))),
    };
    out.write_all(format_positions(&pts).as_bytes())?;
    Ok(())
}

/// `info`: graph statistics.
pub fn info(args: &Args, out: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let g = UnitDiskGraph::new(pts, cfg.r_t());
    writeln!(out, "nodes       : {}", g.len())?;
    writeln!(out, "edges       : {}", g.edge_count())?;
    writeln!(out, "max degree  : {}", g.max_degree())?;
    writeln!(out, "connected   : {}", g.is_connected())?;
    writeln!(out, "diameter    : {:?}", g.diameter())?;
    writeln!(out, "R_T         : {}", cfg.r_t())?;
    writeln!(out, "R_I         : {:.3}", cfg.r_i())?;
    writeln!(out, "guard d     : {:.3}", cfg.guard_distance())?;
    Ok(())
}

/// How [`run_model`] drives a coloring: plain (no instrumentation) or
/// recorded through a [`FullRecorder`] / [`StderrSink`].
enum RunMode {
    Plain,
    Recorded {
        stderr: bool,
        ring: usize,
        probes: MwProbeConfig,
        series: Option<SeriesConfig>,
    },
}

/// Runs the MW coloring under `model`, optionally with full
/// observability. Returns the recorder when `mode` asked for one.
fn run_model(
    graph: &UnitDiskGraph,
    model: Model,
    cfg: SinrConfig,
    mw_cfg: &MwConfig,
    mode: RunMode,
) -> (MwOutcome, Option<FullRecorder>) {
    fn go<M: InterferenceModel>(
        graph: &UnitDiskGraph,
        model: M,
        mw_cfg: &MwConfig,
        mode: RunMode,
    ) -> (MwOutcome, Option<FullRecorder>) {
        match mode {
            RunMode::Plain => (
                run_mw(graph, model, mw_cfg, WakeupSchedule::Synchronous),
                None,
            ),
            RunMode::Recorded {
                stderr: true,
                ring,
                probes,
                series,
            } => {
                let mut sink = StderrSink::with_ring_capacity(ring);
                if let Some(cfg) = series {
                    sink.enable_series(cfg);
                }
                let out = run_mw_recorded(
                    graph,
                    model,
                    mw_cfg,
                    WakeupSchedule::Synchronous,
                    probes,
                    &mut sink,
                );
                (out, Some(sink.into_recorder()))
            }
            RunMode::Recorded {
                stderr: false,
                ring,
                probes,
                series,
            } => {
                let mut rec = FullRecorder::with_ring_capacity(ring);
                if let Some(cfg) = series {
                    rec.enable_series(cfg);
                }
                let out = run_mw_recorded(
                    graph,
                    model,
                    mw_cfg,
                    WakeupSchedule::Synchronous,
                    probes,
                    &mut rec,
                );
                (out, Some(rec))
            }
        }
    }
    match model {
        Model::Sinr => go(graph, SinrModel::new(cfg), mw_cfg, mode),
        Model::Graph => go(graph, GraphModel::new(), mw_cfg, mode),
        Model::Ideal => go(graph, IdealModel::new(), mw_cfg, mode),
    }
}

/// Worker-thread count for `color --seeds`: `--threads` when given,
/// otherwise the `SINR_THREADS` environment variable, otherwise 1.
fn thread_count(args: &Args) -> Result<usize, crate::CliError> {
    let threads: usize = args.get_parsed("threads", sinr_pool::threads_from_env())?;
    if threads == 0 {
        return Err(err("--threads must be at least 1"));
    }
    Ok(threads)
}

/// The `--distance` factor of `color`, 1 when absent: a finite number at
/// least 1.
fn distance_factor(args: &Args) -> Result<f64, crate::CliError> {
    finite_flag(args, "distance", 1.0, "a finite number at least 1", |d| {
        d >= 1.0
    })
}

/// The `--obs`-derived run mode shared by `color` and `report`.
fn obs_mode(args: &Args, spec: Option<&ObsSpec>) -> Result<RunMode, crate::CliError> {
    let ring: usize = args.get_parsed("ring", sinr_obs::recorder::DEFAULT_RING_CAPACITY)?;
    let stride: u64 = args.get_parsed("thm1-stride", 1)?;
    if stride == 0 {
        return Err(err("--thm1-stride must be at least 1"));
    }
    // Time-series sampling turns on when a timeseries sink is requested
    // or the stride is given explicitly.
    let wants_series = spec.is_some_and(|s| s.timeseries.is_some());
    let series = if wants_series || args.get("series-stride").is_some() {
        let series_stride: u64 = args.get_parsed("series-stride", 1)?;
        if series_stride == 0 {
            return Err(err("--series-stride must be at least 1"));
        }
        Some(SeriesConfig::new(series_stride))
    } else {
        None
    };
    Ok(RunMode::Recorded {
        stderr: spec.is_some_and(|s| s.stderr),
        ring,
        probes: MwProbeConfig::default().with_thm1_stride(stride),
        series,
    })
}

/// Parses a `--seeds` range spec `A..B` (half-open, `A < B`).
fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, crate::CliError> {
    let bad = || err(format!("--seeds expects a range A..B, got {spec:?}"));
    let (a, b) = spec.split_once("..").ok_or_else(bad)?;
    let start: u64 = a.trim().parse().map_err(|_| bad())?;
    let end: u64 = b.trim().parse().map_err(|_| bad())?;
    if start >= end {
        return Err(err(format!(
            "--seeds range {spec} is empty (need start < end)"
        )));
    }
    Ok(start..end)
}

/// Seeds `color --seeds` runs per worker thread before it writes their
/// blocks, however long the range.
const SEEDS_PER_THREAD_WINDOW: u64 = 16;

/// `color --seeds A..B`: run the MW coloring once per seed in the
/// half-open range, fanned out across `--threads` workers.
///
/// The placement, unit-disk graph, and derived parameters are built once
/// and shared by every run — the per-seed closure only pays for the
/// coloring itself. Each run executes single-threaded (parallelism is
/// across seeds, not within a slot). Each window of
/// [`SEEDS_PER_THREAD_WINDOW`] seeds per thread is written, in seed order,
/// before the next starts, so memory stays bounded and the output is
/// byte-identical to a sequential `color --seed` loop at any thread
/// count. A failed write stops the run; a failed seed is reported once
/// every seed has run.
fn color_seeds(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let seeds = parse_seed_range(args.require("seeds")?)?;
    if args.get("seed").is_some() {
        return Err(err("--seeds and --seed are mutually exclusive"));
    }
    if args.get("obs").is_some() {
        return Err(err(
            "--obs is not supported with --seeds; observe one seed at a time",
        ));
    }
    if (distance_factor(args)? - 1.0).abs() > 1e-12 {
        return Err(err("--distance > 1 is not supported with --seeds"));
    }
    let model = Model::parse(args)?;

    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let graph = UnitDiskGraph::new(pts.clone(), cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let pool = sinr_pool::Pool::new(thread_count(args)?);

    let run_seed = |seed: u64| -> Result<_, String> {
        let mw_cfg = MwConfig::new(params).with_seed(seed);
        let (outcome, _) = run_model(&graph, model, cfg, &mw_cfg, RunMode::Plain);
        let colors = outcome
            .coloring
            .ok_or_else(|| format!("seed {seed}: coloring hit the slot cap"))?
            .as_slice()
            .to_vec();
        let violations = distance_violations(&pts, &colors, cfg.r_t()).len();
        let block = format!("# seed {seed}\n{}", format_assignment(&colors));
        let line = format!(
            "seed {seed}: colored {} nodes in {} slots; {} distinct colors; {} violations",
            graph.len(),
            outcome.slots,
            colors
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            violations
        );
        Ok((block, line, violations))
    };

    let window = (pool.threads() as u64).saturating_mul(SEEDS_PER_THREAD_WINDOW);
    let mut total_violations = 0usize;
    let mut first_err = None;
    for start in seeds.clone().step_by(window as usize) {
        let end = seeds.end.min(start.saturating_add(window));
        for res in pool.par_seeds(start..end, run_seed) {
            match res {
                Ok((block, line, violations)) => {
                    out.write_all(block.as_bytes())?;
                    writeln!(log, "{line}")?;
                    total_violations += violations;
                }
                Err(msg) => {
                    if first_err.is_none() {
                        first_err = Some(err(msg));
                    }
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if total_violations > 0 {
        return Err(err(format!(
            "{total_violations} coloring violations across seeds"
        )));
    }
    Ok(())
}

/// `color`: run the MW coloring and emit the assignment.
pub fn color(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    if args.get("seeds").is_some() {
        return color_seeds(args, out, log);
    }
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let distance = distance_factor(args)?;
    let model = Model::parse(args)?;
    let spec = match args.get("obs") {
        Some(s) => Some(ObsSpec::parse(s)?),
        None => None,
    };

    let (colors, slots, graph) = if (distance - 1.0).abs() > 1e-12 {
        if model != Model::Sinr {
            return Err(err(
                "--distance > 1 requires the sinr model (power scaling)",
            ));
        }
        if spec.is_some() {
            return Err(err(
                "--obs is not supported with --distance > 1; use the base coloring",
            ));
        }
        let result = color_at_distance(&pts, &cfg, distance, seed, WakeupSchedule::Synchronous);
        let colors = result
            .colors()
            .ok_or_else(|| err("coloring hit the slot cap"))?
            .to_vec();
        let graph = UnitDiskGraph::new(pts.clone(), cfg.r_t());
        (colors, result.outcome.slots, graph)
    } else {
        let graph = UnitDiskGraph::new(pts.clone(), cfg.r_t());
        let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
        let mw_cfg = MwConfig::new(params).with_seed(seed);
        let mode = match &spec {
            Some(s) => obs_mode(args, Some(s))?,
            None => RunMode::Plain,
        };
        let (outcome, rec) = run_model(&graph, model, cfg, &mw_cfg, mode);
        if let (Some(spec), Some(rec)) = (&spec, &rec) {
            spec.write_outputs(rec)?;
        }
        let colors = outcome
            .coloring
            .ok_or_else(|| err("coloring hit the slot cap"))?
            .as_slice()
            .to_vec();
        (colors, outcome.slots, graph)
    };

    let violations = distance_violations(&pts, &colors, distance * cfg.r_t());
    writeln!(
        log,
        "colored {} nodes in {} slots; {} distinct colors; {} violations at distance {:.2}",
        graph.len(),
        slots,
        colors
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        violations.len(),
        distance
    )?;
    out.write_all(format_assignment(&colors).as_bytes())?;
    if violations.is_empty() {
        Ok(())
    } else {
        Err(err(format!("{} coloring violations", violations.len())))
    }
}

/// `report`: run a fully observed coloring and emit the run report.
///
/// Stdout carries exactly one JSON document (schema `run_report`,
/// `docs/OBS_SCHEMA.md`); the human-readable summary goes to the log
/// stream, so the output pipes straight into JSON tooling.
pub fn report(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let model = Model::parse(args)?;
    let spec = match args.get("obs") {
        Some(s) => Some(ObsSpec::parse(s)?),
        None => None,
    };

    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mw_cfg = MwConfig::new(params).with_seed(seed);
    let mode = obs_mode(args, spec.as_ref())?;
    let (outcome, rec) = run_model(&graph, model, cfg, &mw_cfg, mode);
    let rec = rec.expect("report always records");
    if let Some(spec) = &spec {
        spec.write_outputs(&rec)?;
    }

    let reg = rec.registry();
    let violations: u64 = [
        sinr_obs::keys::PROBE_THM1_VIOLATIONS,
        sinr_obs::keys::PROBE_LEMMA4_VIOLATIONS,
        sinr_obs::keys::PROBE_LEMMA6_VIOLATIONS,
        sinr_obs::keys::PROBE_LEMMA7_VIOLATIONS,
    ]
    .iter()
    .map(|k| reg.counter(k).unwrap_or(0))
    .sum();
    writeln!(
        log,
        "observed {} nodes for {} slots; {} metrics; {} events ({} dropped); {} probe violations",
        graph.len(),
        outcome.slots,
        reg.len(),
        rec.events_recorded(),
        rec.events_dropped(),
        violations
    )?;
    warn_truncation(&rec, log)?;
    writeln!(out, "{}", run_report(model.name(), seed, &outcome, &rec))?;
    if outcome.all_done {
        Ok(())
    } else {
        Err(err("coloring hit the slot cap"))
    }
}

/// `trace`: run a fully observed coloring and emit the span timeline as
/// Chrome trace-event JSON (load into Perfetto / `chrome://tracing`).
///
/// The timeline is slot-time (1 slot = 1 µs in the viewer) and therefore
/// byte-identical on every run of the same inputs.
pub fn trace(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let model = Model::parse(args)?;

    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mw_cfg = MwConfig::new(params).with_seed(seed);
    let mode = obs_mode(args, None)?;
    let (outcome, rec) = run_model(&graph, model, cfg, &mw_cfg, mode);
    let rec = rec.expect("trace always records");

    writeln!(
        log,
        "traced {} nodes for {} slots; {} spans ({} dropped)",
        graph.len(),
        outcome.slots,
        rec.spans_recorded(),
        rec.spans_dropped(),
    )?;
    warn_truncation(&rec, log)?;
    writeln!(out, "{}", rec.trace_json())?;
    if outcome.all_done {
        Ok(())
    } else {
        Err(err("coloring hit the slot cap"))
    }
}

/// Runs the MW coloring under `model` and the allocation profiler — the
/// profiled sibling of [`run_model`].
fn run_profiled_model(
    graph: &UnitDiskGraph,
    model: Model,
    cfg: SinrConfig,
    mw_cfg: &MwConfig,
) -> (MwOutcome, MwAllocProfile) {
    let s = WakeupSchedule::Synchronous;
    match model {
        Model::Sinr => run_mw_profiled(graph, SinrModel::new(cfg), mw_cfg, s),
        Model::Graph => run_mw_profiled(graph, GraphModel::new(), mw_cfg, s),
        Model::Ideal => run_mw_profiled(graph, IdealModel::new(), mw_cfg, s),
    }
}

/// `profile`: run the MW coloring under the allocation profiler and emit
/// the `profile_report` JSON document.
///
/// The run itself is byte-identical to an unprofiled `color` run with
/// the same inputs — profiling only reads allocator counters. The report
/// is the one artifact allowed to vary across builds and allocators, so
/// it never mixes into run_report/trace/series outputs.
pub fn profile(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let model = Model::parse(args)?;
    let top: usize = args.get_parsed("top", 8)?;

    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mw_cfg = MwConfig::new(params).with_seed(seed);
    let counting = sinr_obs::alloc::is_counting();
    let (outcome, prof) = run_profiled_model(&graph, model, cfg, &mw_cfg);

    if !counting {
        writeln!(
            log,
            "warning: counting allocator not installed — all alloc counters read zero"
        )?;
    }
    writeln!(
        log,
        "profiled {} nodes for {} slots; warmup {} slots; steady-state {:.3} allocs/slot; \
         heap peak {} bytes",
        graph.len(),
        outcome.slots,
        prof.engine.warmup_slots(),
        prof.engine.steady_allocs_per_slot().unwrap_or(0.0),
        prof.heap_peak,
    )?;
    writeln!(
        out,
        "{}",
        crate::profile::profile_report(model.name(), seed, top, counting, &outcome, &prof)
    )?;
    if outcome.all_done {
        Ok(())
    } else {
        Err(err("coloring hit the slot cap"))
    }
}

/// `diff`: structurally compare two JSON artifacts under a tolerance
/// policy; any finding is a regression and fails the command.
pub fn diff(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let baseline_path = args.require("baseline")?;
    let current_path = args.require("current")?;
    let load = |path: &str| -> Result<sinr_obs::json::Json, crate::CliError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        sinr_obs::json::parse_value(text.trim())
            .ok_or_else(|| err(format!("{path} is not valid JSON")))
    };
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let policy = match args.get("policy") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read {path}: {e}")))?;
            DiffPolicy::parse(&text).map_err(|e| err(format!("bad diff policy {path}: {e}")))?
        }
        None => DiffPolicy::empty(),
    };

    let findings = diff_documents(&baseline, &current, &policy);
    writeln!(
        out,
        "{}",
        render_diff_report(baseline_path, current_path, policy.rules.len(), &findings)
    )?;
    writeln!(
        log,
        "compared {current_path} against {baseline_path}: {} findings under {} rules",
        findings.len(),
        policy.rules.len(),
    )?;
    for f in &findings {
        writeln!(log, "  {}: {} ({})", f.path, f.kind, f.detail)?;
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(err(format!(
            "{} regressions against {baseline_path}",
            findings.len()
        )))
    }
}

/// `reduce`: palette-reduce an existing coloring.
pub fn reduce(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let colors_path = args.require("colors")?;
    let text = std::fs::read_to_string(colors_path)
        .map_err(|e| err(format!("cannot read {colors_path}: {e}")))?;
    let colors = parse_assignment(&text, graph.len())?;
    let coloring = Coloring::from_vec(colors);
    if !coloring.is_proper(&graph) {
        return Err(err("input coloring is not proper"));
    }
    let reduced = reduce_palette(&graph, &coloring);
    writeln!(
        log,
        "reduced palette {} -> {} (Δ+1 = {})",
        coloring.palette_size(),
        reduced.palette_size(),
        graph.max_degree() + 1
    )?;
    out.write_all(format_assignment(reduced.as_slice()).as_bytes())?;
    Ok(())
}

/// `schedule`: build a Theorem-3 TDMA schedule and audit it.
pub fn schedule(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let factor = theorem3_distance_factor(&cfg);
    let result = color_at_distance(&pts, &cfg, factor, seed, WakeupSchedule::Synchronous);
    let colors = result
        .colors()
        .ok_or_else(|| err("coloring hit the slot cap"))?;
    let schedule = TdmaSchedule::from_colors(colors);
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let audit = broadcast_audit(&graph, &cfg, &schedule);
    writeln!(
        log,
        "frame = {} slots; link success = {:.1}%; interference-free = {}",
        schedule.frame_len(),
        100.0 * audit.link_success_rate(),
        audit.is_interference_free()
    )?;
    let slots: Vec<usize> = (0..graph.len()).map(|v| schedule.slot_of(v)).collect();
    out.write_all(format_assignment(&slots).as_bytes())?;
    if audit.is_interference_free() {
        Ok(())
    } else {
        Err(err("schedule leaked interference"))
    }
}

/// `render`: emit an SVG drawing.
pub fn render(args: &Args, out: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let colors = match args.get("colors") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read {path}: {e}")))?;
            Some(parse_assignment(&text, graph.len())?)
        }
        None => None,
    };
    let opts = RenderOptions {
        draw_labels: args.has_flag("labels"),
        ..RenderOptions::default()
    };
    let svg = render_svg(&graph, colors.as_deref(), &opts);
    out.write_all(svg.as_bytes())?;
    Ok(())
}

/// `cluster`: run only the MIS/clustering stage.
pub fn cluster(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let outcome = run_clustering(
        &graph,
        SinrModel::new(cfg),
        &MwConfig::new(params).with_seed(seed),
        WakeupSchedule::Synchronous,
    );
    if !outcome.all_clustered {
        return Err(err("clustering hit the slot cap"));
    }
    writeln!(
        log,
        "elected {} leaders in {} slots; maximal independent = {}",
        outcome.leaders.len(),
        outcome.slots,
        outcome.is_maximal_independent(&graph)
    )?;
    let leaders: Vec<usize> = (0..graph.len())
        .map(|v| outcome.assignment[v].unwrap_or(v))
        .collect();
    out.write_all(format_assignment(&leaders).as_bytes())?;
    Ok(())
}

/// `simulate`: run a message-passing workload under SINR over a
/// Theorem-3 TDMA schedule (Corollary 1 end to end).
pub fn simulate(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    let cfg = physical_config(args)?;
    let pts = read_positions(args)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let source: usize = args.get_parsed("source", 0)?;
    let graph = UnitDiskGraph::new(pts.clone(), cfg.r_t());
    if source >= graph.len() {
        return Err(err(format!("--source {source} out of range")));
    }

    let factor = theorem3_distance_factor(&cfg);
    let colored = color_at_distance(&pts, &cfg, factor, seed, WakeupSchedule::Synchronous);
    let schedule = TdmaSchedule::from_colors(
        colored
            .colors()
            .ok_or_else(|| err("coloring hit the slot cap"))?,
    );
    let max_rounds = 10 * graph.len().max(1);

    let algorithm = args.require("algorithm")?;
    let (results, run): (Vec<String>, sinr_mac::SrsRun) = match algorithm {
        "flooding" => {
            let mut nodes: Vec<Flooding> = (0..graph.len())
                .map(|v| Flooding::new(v == source))
                .collect();
            let run = simulate_uniform(&graph, &cfg, &schedule, &mut nodes, max_rounds);
            (
                nodes
                    .iter()
                    .map(|n| {
                        if n.informed() {
                            "informed"
                        } else {
                            "unreached"
                        }
                        .to_string()
                    })
                    .collect(),
                run,
            )
        }
        "bfs" => {
            let mut nodes: Vec<BfsLayers> = (0..graph.len())
                .map(|v| BfsLayers::new(v == source))
                .collect();
            let run = simulate_uniform(&graph, &cfg, &schedule, &mut nodes, max_rounds);
            (
                nodes
                    .iter()
                    .map(|n| {
                        n.distance()
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "unreached".to_string())
                    })
                    .collect(),
                run,
            )
        }
        "convergecast" => {
            let values = vec![1u64; graph.len()];
            let mut nodes = Convergecast::build_tree(&graph, source, &values);
            let run = simulate_general_bundled(&graph, &cfg, &schedule, &mut nodes, max_rounds);
            (
                nodes.iter().map(|n| n.aggregate().to_string()).collect(),
                run,
            )
        }
        other => return Err(err(format!("unknown algorithm {other}"))),
    };

    writeln!(
        log,
        "{algorithm}: {} rounds x {} slots = {} slots; faithful = {}; setup = {} slots",
        run.rounds,
        schedule.frame_len(),
        run.slots,
        run.is_faithful(),
        colored.outcome.slots
    )?;
    for (v, r) in results.iter().enumerate() {
        writeln!(out, "{v} {r}")?;
    }
    Ok(())
}

/// Dispatches a parsed invocation.
pub fn dispatch(args: &Args, out: &mut dyn Write, log: &mut dyn Write) -> CliResult {
    match args.command.as_str() {
        "generate" => generate(args, out),
        "info" => info(args, out),
        "color" => color(args, out, log),
        "report" => report(args, out, log),
        "trace" => trace(args, out, log),
        "profile" => profile(args, out, log),
        "diff" => diff(args, out, log),
        "reduce" => reduce(args, out, log),
        "schedule" => schedule(args, out, log),
        "render" => render(args, out),
        "cluster" => cluster(args, out, log),
        "simulate" => simulate(args, out, log),
        "help" => {
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        other => Err(err(format!("unknown command {other}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> (CliResult, String, String) {
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        let mut out = Vec::new();
        let mut log = Vec::new();
        let r = dispatch(&args, &mut out, &mut log);
        (
            r,
            String::from_utf8(out).unwrap(),
            String::from_utf8(log).unwrap(),
        )
    }

    fn tmp_positions(n: usize) -> tempfile::TempPath {
        let mut out = Vec::new();
        // Generate via the command itself for a realistic file.
        let parsed = Args::parse(
            [
                "generate",
                "--kind",
                "uniform",
                "--n",
                &n.to_string(),
                "--seed",
                "5",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        generate(&parsed, &mut out).unwrap();
        tempfile::write(&out)
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile {
        use std::path::PathBuf;

        pub struct TempPath(pub PathBuf);
        impl TempPath {
            pub fn path(&self) -> &str {
                self.0.to_str().unwrap()
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn write(bytes: &[u8]) -> TempPath {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("sinrcolor-test-{}-{id}.txt", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn generate_emits_parseable_positions() {
        let (r, out, _) = run(&["generate", "--kind", "uniform", "--n", "30", "--seed", "1"]);
        assert!(r.is_ok());
        let pts = crate::io::parse_positions(&out).unwrap();
        assert_eq!(pts.len(), 30);
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let (r, _, _) = run(&["generate", "--kind", "donut"]);
        assert!(r.is_err());
    }

    #[test]
    fn info_reports_graph_stats() {
        let f = tmp_positions(25);
        let (r, out, _) = run(&["info", "--input", f.path()]);
        assert!(r.is_ok());
        assert!(out.contains("nodes       : 25"));
        assert!(out.contains("max degree"));
        assert!(out.contains("guard d"));
    }

    #[test]
    fn color_produces_proper_assignment() {
        let f = tmp_positions(25);
        let (r, out, log) = run(&["color", "--input", f.path(), "--seed", "2"]);
        assert!(r.is_ok(), "{log}");
        let colors = crate::io::parse_assignment(&out, 25).unwrap();
        assert_eq!(colors.len(), 25);
        assert!(log.contains("0 violations"));
    }

    #[test]
    fn color_seeds_concatenates_per_seed_blocks_in_order() {
        let f = tmp_positions(25);
        let (r, out, log) = run(&["color", "--input", f.path(), "--seeds", "2..5"]);
        assert!(r.is_ok(), "{log}");
        // One block per seed, in ascending seed order, each a complete
        // assignment identical to the corresponding single-seed run.
        let mut rest = out.as_str();
        for seed in 2..5u64 {
            let header = format!("# seed {seed}\n");
            assert!(rest.starts_with(&header), "expected {header:?} in {rest:?}");
            rest = &rest[header.len()..];
            let block_len = rest.find("# seed").unwrap_or(rest.len());
            let (block, tail) = rest.split_at(block_len);
            let (r1, single, _) = run(&["color", "--input", f.path(), "--seed", &seed.to_string()]);
            assert!(r1.is_ok());
            assert_eq!(block, single, "seed {seed} block differs");
            rest = tail;
        }
        assert!(rest.is_empty());
        for seed in 2..5u64 {
            assert!(log.contains(&format!("seed {seed}: colored 25 nodes")));
        }
    }

    #[test]
    fn color_seeds_output_is_thread_invariant() {
        let f = tmp_positions(20);
        let (r1, base, log) = run(&[
            "color",
            "--input",
            f.path(),
            "--seeds",
            "0..4",
            "--threads",
            "1",
        ]);
        assert!(r1.is_ok(), "{log}");
        for threads in ["2", "4"] {
            let (r, out, log_t) = run(&[
                "color",
                "--input",
                f.path(),
                "--seeds",
                "0..4",
                "--threads",
                threads,
            ]);
            assert!(r.is_ok());
            assert_eq!(out, base, "--threads {threads} changed the output");
            assert_eq!(log_t, log, "--threads {threads} changed the log");
        }
    }

    #[test]
    fn color_seeds_rejects_conflicting_flags_and_bad_ranges() {
        let f = tmp_positions(10);
        for extra in [
            ["--seed", "1"].as_slice(),
            ["--obs", "stderr"].as_slice(),
            ["--distance", "2"].as_slice(),
            ["--model", "donut"].as_slice(),
        ] {
            let mut tokens = vec!["color", "--input", f.path(), "--seeds", "0..2"];
            tokens.extend_from_slice(extra);
            let (r, _, _) = run(&tokens);
            assert!(r.is_err(), "expected rejection with {extra:?}");
        }
        let (r, _, _) = run(&[
            "color",
            "--input",
            f.path(),
            "--seeds",
            "0..2",
            "--distance",
            "nan",
        ]);
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("--distance"), "{msg}");
        for bad in ["3", "5..5", "7..2", "a..b"] {
            let (r, _, _) = run(&["color", "--input", f.path(), "--seeds", bad]);
            assert!(r.is_err(), "expected rejection of --seeds {bad}");
        }
    }

    #[test]
    fn color_then_reduce_roundtrips_through_files() {
        let f = tmp_positions(25);
        let (r, colors_text, _) = run(&["color", "--input", f.path(), "--seed", "3"]);
        assert!(r.is_ok());
        let cf = tempfile::write(colors_text.as_bytes());
        let (r, reduced_text, log) = run(&["reduce", "--input", f.path(), "--colors", cf.path()]);
        assert!(r.is_ok(), "{log}");
        let reduced = crate::io::parse_assignment(&reduced_text, 25).unwrap();
        assert_eq!(reduced.len(), 25);
        assert!(log.contains("reduced palette"));
    }

    #[test]
    fn schedule_emits_frame_and_audit() {
        let f = tmp_positions(20);
        let (r, out, log) = run(&["schedule", "--input", f.path()]);
        assert!(r.is_ok(), "{log}");
        assert!(log.contains("interference-free = true"));
        let slots = crate::io::parse_assignment(&out, 20).unwrap();
        assert_eq!(slots.len(), 20);
    }

    #[test]
    fn render_emits_svg() {
        let f = tmp_positions(15);
        let (r, out, _) = run(&["render", "--input", f.path(), "--labels"]);
        assert!(r.is_ok());
        assert!(out.starts_with("<svg"));
        assert!(out.contains("<text"));
    }

    #[test]
    fn cluster_elects_leaders() {
        let f = tmp_positions(25);
        let (r, out, log) = run(&["cluster", "--input", f.path(), "--seed", "1"]);
        assert!(r.is_ok(), "{log}");
        assert!(log.contains("maximal independent = true"));
        let assignment = crate::io::parse_assignment(&out, 25).unwrap();
        // Every node points at a leader; leaders point at themselves.
        for (v, &l) in assignment.iter().enumerate() {
            assert_eq!(assignment[l], l, "leader of node {v} must self-point");
        }
    }

    #[test]
    fn simulate_flooding_and_convergecast() {
        let f = tmp_positions(20);
        let (r, out, log) = run(&[
            "simulate",
            "--input",
            f.path(),
            "--algorithm",
            "flooding",
            "--source",
            "0",
        ]);
        assert!(r.is_ok(), "{log}");
        assert!(log.contains("faithful = true"));
        assert_eq!(out.lines().count(), 20);
        let (r, out, log) = run(&[
            "simulate",
            "--input",
            f.path(),
            "--algorithm",
            "convergecast",
        ]);
        assert!(r.is_ok(), "{log}");
        // The source aggregates its whole component (values are all 1).
        let first = out.lines().next().unwrap();
        let agg: u64 = first.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(agg >= 1);
    }

    #[test]
    fn simulate_rejects_unknown_algorithm_and_bad_source() {
        let f = tmp_positions(10);
        let (r, _, _) = run(&["simulate", "--input", f.path(), "--algorithm", "magic"]);
        assert!(r.is_err());
        let (r, _, _) = run(&[
            "simulate",
            "--input",
            f.path(),
            "--algorithm",
            "bfs",
            "--source",
            "99",
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        let (r, out, _) = run(&["help"]);
        assert!(r.is_ok());
        assert!(out.contains("USAGE"));
        let (r, _, _) = run(&["frobnicate"]);
        assert!(r.is_err());
    }

    #[test]
    fn color_rejects_unknown_model() {
        let f = tmp_positions(10);
        let (r, _, _) = run(&["color", "--input", f.path(), "--model", "psychic"]);
        let msg = format!("{}", r.unwrap_err());
        for name in ["psychic", "sinr", "graph", "ideal"] {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn generate_rejects_bad_numbers_naming_the_flag() {
        for (kind, flag, bad) in [
            ("uniform", "--degree", "0"),
            ("uniform", "--degree", "-3"),
            ("uniform", "--degree", "nan"),
            ("uniform", "--degree", "inf"),
            ("grid", "--step", "0"),
            ("grid", "--step", "inf"),
            ("grid", "--jitter", "-1"),
            ("grid", "--jitter", "nan"),
        ] {
            let (r, out, _) = run(&["generate", "--kind", kind, "--n", "9", flag, bad]);
            let msg = format!("{}", r.unwrap_err());
            assert!(msg.contains(flag), "{kind} {flag} {bad}: {msg}");
            assert!(out.is_empty());
        }
        // The bounds themselves are accepted.
        let (r, _, _) = run(&["generate", "--kind", "grid", "--n", "9", "--jitter", "0"]);
        assert!(r.is_ok());
    }

    /// A sink that takes one write and fails every later one.
    struct FailsAfterFirstWrite {
        wrote: bool,
    }

    impl Write for FailsAfterFirstWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if std::mem::replace(&mut self.wrote, true) {
                Err(std::io::Error::other("sink closed"))
            } else {
                Ok(buf.len())
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn color_seeds_over_the_whole_u64_range_stops_at_a_failed_write() {
        // The range is never collected: the first window's second block
        // hits the failed write, and the run ends with an error.
        let f = tmp_positions(10);
        let tokens = [
            "color",
            "--input",
            f.path(),
            "--seeds",
            "0..18446744073709551615",
            "--threads",
            "2",
        ];
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        let mut out = FailsAfterFirstWrite { wrote: false };
        let mut log = Vec::new();
        let r = dispatch(&args, &mut out, &mut log);
        assert!(r.is_err());
        let log = String::from_utf8(log).unwrap();
        assert_eq!(log.lines().count(), 1, "{log}");
    }

    #[test]
    fn color_obs_writes_jsonl_and_metrics_files() {
        let f = tmp_positions(20);
        let jf = tempfile::write(b"");
        let mf = tempfile::write(b"");
        let spec = format!("jsonl:{},metrics:{}", jf.path(), mf.path());
        let (r, out, log) = run(&["color", "--input", f.path(), "--seed", "1", "--obs", &spec]);
        assert!(r.is_ok(), "{log}");
        assert_eq!(crate::io::parse_assignment(&out, 20).unwrap().len(), 20);

        let jsonl = std::fs::read_to_string(jf.path()).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                sinr_obs::json::parse_flat_object(line).is_some(),
                "JSONL line parses: {line}"
            );
        }
        let metrics = std::fs::read_to_string(mf.path()).unwrap();
        assert!(metrics.starts_with("{\"schema_version\":2,\"kind\":\"metrics\""));
        assert!(metrics.contains("\"sim.slots\""));
        assert!(metrics.contains("\"obs.events.dropped\""));
    }

    #[test]
    fn color_obs_writes_trace_and_timeseries_files() {
        let f = tmp_positions(20);
        let tf = tempfile::write(b"");
        let sf = tempfile::write(b"");
        let spec = format!("trace:{},timeseries:{}", tf.path(), sf.path());
        let (r, _, log) = run(&[
            "color",
            "--input",
            f.path(),
            "--seed",
            "1",
            "--obs",
            &spec,
            "--series-stride",
            "2",
        ]);
        assert!(r.is_ok(), "{log}");

        let trace = std::fs::read_to_string(tf.path()).unwrap();
        assert!(trace.starts_with("{\"schema_version\":2,\"kind\":\"trace_events\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"slot-time\""));
        let series = std::fs::read_to_string(sf.path()).unwrap();
        assert!(series.starts_with("{\"schema_version\":2,\"kind\":\"timeseries\""));
        assert!(series.contains("\"stride\":2"));
        assert!(series.contains("\"sim.slot.transmitters\""));

        let (r, _, _) = run(&[
            "color",
            "--input",
            f.path(),
            "--obs",
            &spec,
            "--series-stride",
            "0",
        ]);
        assert!(r.is_err(), "stride 0 is rejected");
    }

    #[test]
    fn color_obs_matches_unobserved_run() {
        let f = tmp_positions(20);
        let mf = tempfile::write(b"");
        let spec = format!("metrics:{}", mf.path());
        let (r1, plain, _) = run(&["color", "--input", f.path(), "--seed", "4"]);
        let (r2, observed, _) = run(&["color", "--input", f.path(), "--seed", "4", "--obs", &spec]);
        assert!(r1.is_ok() && r2.is_ok());
        assert_eq!(plain, observed, "recording must not perturb the run");
    }

    #[test]
    fn color_rejects_bad_obs_spec_and_distance_combo() {
        let f = tmp_positions(10);
        let (r, _, _) = run(&["color", "--input", f.path(), "--obs", "csv:x"]);
        assert!(r.is_err());
        let (r, _, _) = run(&[
            "color",
            "--input",
            f.path(),
            "--distance",
            "2",
            "--obs",
            "stderr",
        ]);
        assert!(r.is_err());
        for bad in ["0", "-1", "nan"] {
            let (r, _, _) = run(&["color", "--input", f.path(), "--distance", bad]);
            let msg = format!("{}", r.unwrap_err());
            assert!(msg.contains("--distance"), "--distance {bad}: {msg}");
        }
    }

    #[test]
    fn report_emits_schema_documented_json() {
        let f = tmp_positions(20);
        let (r, out, log) = run(&["report", "--input", f.path(), "--seed", "2"]);
        assert!(r.is_ok(), "{log}");
        let doc = out.trim();
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"run_report\","));
        assert!(doc.contains("\"run\":{\"nodes\":20,\"model\":\"sinr\",\"seed\":2,"));
        assert!(doc.contains("\"metrics\":{"));
        // The paper's invariants hold on every e2e run: all probes quiet.
        assert!(doc.contains(
            "\"probes\":{\"thm1_violations\":0,\"lemma4_violations\":0,\
             \"lemma6_violations\":0,\"lemma7_violations\":0}"
        ));
        assert!(doc.contains("\"events\":{\"recorded\":"));
        assert!(doc.contains("\"spans\":{\"recorded\":"));
        assert!(doc.contains("\"obs.events.dropped\""));
        assert!(doc.ends_with('}'));
        assert!(log.contains("0 probe violations"));
    }

    #[test]
    fn profile_emits_schema_documented_json() {
        let f = tmp_positions(20);
        let (r, out, log) = run(&["profile", "--input", f.path(), "--seed", "2"]);
        assert!(r.is_ok(), "{log}");
        let doc = out.trim();
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"profile_report\","));
        assert!(doc.contains("\"run\":{\"nodes\":20,\"model\":\"sinr\",\"seed\":2,"));
        // The test binary installs CountingAlloc (see lib.rs), so the
        // report must mark itself instrumented and see real traffic.
        assert!(
            doc.contains("\"allocator\":{\"counting\":true,\"heap_peak\":"),
            "{doc}"
        );
        assert!(doc.contains("\"mw.setup\":{\"allocs\":"));
        assert!(doc.contains("\"engine.actions\":{\"allocs\":"));
        assert!(doc.contains("\"engine.resolve\":{\"allocs\":"));
        assert!(doc.contains("\"engine.delivery\":{\"allocs\":"));
        assert!(doc.contains("\"steady\":{\"window\":"));
        assert!(doc.contains("\"struct_sizes\":{\"MwNode\":"));
        assert!(doc.ends_with('}'));
        assert!(log.contains("profiled 20 nodes"));
        // Setup always allocates (graph clone + node construction).
        let setup_allocs: u64 = doc
            .split("\"mw.setup\":{\"allocs\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(setup_allocs > 0, "setup should allocate: {doc}");
        // Friendly failures: missing input, unknown model.
        let (r, _, _) = run(&["profile"]);
        assert!(r.is_err());
        let (r, _, _) = run(&["profile", "--input", f.path(), "--model", "psychic"]);
        assert!(r.is_err());
    }

    #[test]
    fn profile_does_not_change_the_coloring() {
        // A profiled run and a plain run are the same run: profiling
        // reads allocator counters but never steers the engine.
        let f = tmp_positions(20);
        let (r1, colors, _) = run(&["color", "--input", f.path(), "--seed", "7"]);
        assert!(r1.is_ok());
        let (r2, doc, _) = run(&[
            "profile",
            "--input",
            f.path(),
            "--seed",
            "7",
            "--model",
            "sinr",
        ]);
        assert!(r2.is_ok());
        let (r3, colors2, _) = run(&["color", "--input", f.path(), "--seed", "7"]);
        assert!(r3.is_ok());
        assert_eq!(colors, colors2);
        assert!(doc.contains("\"all_done\":true"));
    }

    #[test]
    fn trace_emits_chrome_trace_json() {
        let f = tmp_positions(20);
        let (r, out, log) = run(&["trace", "--input", f.path(), "--seed", "2"]);
        assert!(r.is_ok(), "{log}");
        let doc = out.trim();
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"trace_events\""));
        assert!(doc.contains("\"traceEvents\":["));
        // Engine phases, resolver internals, and node residencies all land
        // on the timeline.
        assert!(doc.contains("\"name\":\"actions\""));
        assert!(doc.contains("\"name\":\"resolve\""));
        assert!(doc.contains("\"name\":\"delivery\""));
        assert!(doc.contains("\"cat\":\"node\""));
        assert!(log.contains("traced 20 nodes"));
        // Friendly failures: missing input, unknown model.
        let (r, _, _) = run(&["trace"]);
        assert!(r.is_err());
        let (r, _, _) = run(&["trace", "--input", f.path(), "--model", "psychic"]);
        assert!(r.is_err());
    }

    #[test]
    fn diff_of_a_run_against_itself_is_clean() {
        let f = tmp_positions(20);
        let (r, report_doc, _) = run(&["report", "--input", f.path(), "--seed", "2"]);
        assert!(r.is_ok());
        let a = tempfile::write(report_doc.as_bytes());
        let b = tempfile::write(report_doc.as_bytes());
        let (r, out, log) = run(&["diff", "--baseline", a.path(), "--current", b.path()]);
        assert!(r.is_ok(), "{log}");
        assert!(out.starts_with("{\"schema_version\":2,\"kind\":\"diff_report\""));
        assert!(out.contains("\"count\":0"));
        assert!(log.contains("0 findings"));
    }

    #[test]
    fn diff_flags_regressions_and_honors_the_policy() {
        let a = tempfile::write(b"{\"kind\":\"metrics\",\"v\":{\"value\":10}}");
        let b = tempfile::write(b"{\"kind\":\"metrics\",\"v\":{\"value\":11}}");
        let (r, out, _) = run(&["diff", "--baseline", a.path(), "--current", b.path()]);
        assert!(r.is_err(), "a changed value without tolerance fails");
        assert!(out.contains("\"path\":\"v/value\""));

        let policy = tempfile::write(
            b"{\"kind\":\"diff_policy\",\"rules\":[{\"path\":\"v/**\",\"mode\":\"rel\",\"value\":0.2}]}",
        );
        let (r, out, log) = run(&[
            "diff",
            "--baseline",
            a.path(),
            "--current",
            b.path(),
            "--policy",
            policy.path(),
        ]);
        assert!(r.is_ok(), "{log}");
        assert!(out.contains("\"count\":0"));
    }

    #[test]
    fn diff_rejects_malformed_inputs_with_friendly_errors() {
        let good = tempfile::write(b"{\"a\":1}");
        let bad = tempfile::write(b"not json at all");
        let (r, _, _) = run(&["diff", "--baseline", good.path()]);
        assert!(r.is_err(), "missing --current");
        let (r, _, _) = run(&["diff", "--baseline", bad.path(), "--current", good.path()]);
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("not valid JSON"), "{msg}");
        let (r, _, _) = run(&[
            "diff",
            "--baseline",
            good.path(),
            "--current",
            good.path(),
            "--policy",
            bad.path(),
        ]);
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("bad diff policy"), "{msg}");
        let (r, _, _) = run(&[
            "diff",
            "--baseline",
            good.path(),
            "--current",
            good.path(),
            "--policy",
            "/nonexistent/policy.json",
        ]);
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("cannot read"), "{msg}");
    }

    #[test]
    fn report_honors_ring_and_stride_options() {
        let f = tmp_positions(15);
        let (r, out, _) = run(&[
            "report",
            "--input",
            f.path(),
            "--ring",
            "8",
            "--thm1-stride",
            "16",
        ]);
        assert!(r.is_ok());
        assert!(out.contains("\"capacity\":8"));
        let (r, _, _) = run(&["report", "--input", f.path(), "--thm1-stride", "0"]);
        assert!(r.is_err(), "stride 0 is rejected");
    }

    #[test]
    fn color_rejects_zero_threads() {
        let f = tmp_positions(10);
        let (r, _, _) = run(&[
            "color",
            "--input",
            f.path(),
            "--seeds",
            "0..2",
            "--threads",
            "0",
        ]);
        assert!(r.is_err());
    }
}
