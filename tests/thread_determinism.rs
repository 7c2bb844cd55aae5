//! Differential tests for multi-threaded runs: every artifact a run can
//! produce — the outcome struct, the metrics dump, the event stream, the
//! span trace, the time series — is byte-identical whether it was
//! computed on 1, 2, or 4 worker threads, for both the naive and the
//! grid-tiled resolver.
//!
//! This is the contract `sinr_pool` exists to uphold (static
//! partitioning, thread-ordered merges; see docs/PERFORMANCE.md). Threads
//! reach a run through the resolver, which chunks each slot's candidate
//! receivers; the engine's node passes are sequential at every thread
//! count. The instance sizes straddle the resolver's cutoff on purpose:
//! at n = 300, busy slots exceed `PAR_CANDIDATE_CUTOFF` (the resolver
//! goes parallel), while n = 40 stays on the sequential path so the
//! gating itself is exercised too.

use sinr_coloring::mw::{
    run_mw, run_mw_profiled, run_mw_recorded, MwConfig, MwOutcome, MwProbeConfig,
};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{FastSinrModel, InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::alloc::{self, CountingAlloc};
use sinr_obs::{FullRecorder, SeriesConfig};
use sinr_radiosim::WakeupSchedule;

// Counting is active for this whole test binary, so the profiling case
// below exercises the real configuration: live allocator hooks while
// the determinism contracts are being asserted.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREADS: [usize; 3] = [1, 2, 4];

fn instance(n: usize, side: f64, seed: u64) -> (SinrConfig, UnitDiskGraph, MwParams) {
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(placement::uniform(n, side, side, seed), cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    (cfg, graph, params)
}

/// Runs every model under `threads` workers and returns the outcomes in
/// a fixed (model, outcome) order.
fn outcomes(
    graph: &UnitDiskGraph,
    cfg: SinrConfig,
    params: MwParams,
    seed: u64,
    schedule: WakeupSchedule,
    threads: usize,
) -> Vec<(&'static str, MwOutcome)> {
    // A few hundred slots exercise every parallel path (the caps are per
    // slot, not per run); running colorings to completion here would only
    // repeat the same code paths for minutes.
    let mw = MwConfig::new(params)
        .with_seed(seed)
        .with_threads(threads)
        .with_max_slots(250);
    vec![
        ("sinr", run_mw(graph, SinrModel::new(cfg), &mw, schedule)),
        (
            "sinr-fast",
            run_mw(graph, FastSinrModel::new(cfg), &mw, schedule),
        ),
        (
            "sinr-auto",
            run_mw(graph, FastSinrModel::auto(cfg, graph), &mw, schedule),
        ),
    ]
}

#[test]
fn outcomes_are_identical_across_thread_counts() {
    for (n, side) in [(40usize, 3.5), (300, 8.0)] {
        let (cfg, graph, params) = instance(n, side, 77);
        let base = outcomes(&graph, cfg, params, 5, WakeupSchedule::Synchronous, 1);
        for threads in [2usize, 4] {
            let run = outcomes(&graph, cfg, params, 5, WakeupSchedule::Synchronous, threads);
            for ((model, a), (_, b)) in base.iter().zip(&run) {
                assert_eq!(a, b, "n={n} model={model} threads={threads}");
            }
        }
    }
}

#[test]
fn async_wakeup_is_identical_across_thread_counts() {
    let (cfg, graph, params) = instance(300, 8.0, 19);
    let schedule = WakeupSchedule::UniformRandom { window: 200 };
    let base = outcomes(&graph, cfg, params, 11, schedule, 1);
    for threads in [2usize, 4] {
        let run = outcomes(&graph, cfg, params, 11, schedule, threads);
        for ((model, a), (_, b)) in base.iter().zip(&run) {
            assert_eq!(a, b, "model={model} threads={threads}");
        }
    }
}

/// Runs a fully observed coloring and returns every serialized artifact:
/// the outcome, the metrics-registry dump, the JSONL event stream, the
/// Chrome trace-event timeline, and the per-slot time series.
fn observed_dump<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    params: MwParams,
    seed: u64,
    threads: usize,
) -> (MwOutcome, String, String, String, String) {
    let mw = MwConfig::new(params)
        .with_seed(seed)
        .with_threads(threads)
        .with_max_slots(250);
    let mut rec = FullRecorder::with_ring_capacity(1 << 18);
    rec.enable_series(SeriesConfig::new(1));
    let out = run_mw_recorded(
        graph,
        model,
        &mw,
        WakeupSchedule::Synchronous,
        MwProbeConfig::default(),
        &mut rec,
    );
    let series = rec.timeseries_json().expect("series was enabled");
    (
        out,
        rec.metrics_json(),
        rec.jsonl_string(),
        rec.trace_json(),
        series,
    )
}

#[test]
fn observed_artifacts_are_byte_identical_across_thread_counts() {
    let (cfg, graph, params) = instance(300, 8.0, 23);

    let naive = |t: usize| observed_dump(&graph, SinrModel::new(cfg), params, 7, t);
    let fast = |t: usize| observed_dump(&graph, FastSinrModel::new(cfg), params, 7, t);

    let base_n = naive(1);
    let base_f = fast(1);
    assert!(base_n.0.slots > 0 && base_f.0.slots > 0);
    assert!(
        base_n.3.contains("\"traceEvents\":["),
        "trace is non-trivial"
    );
    assert!(base_f.4.contains("\"kind\":\"timeseries\""));

    for threads in THREADS {
        for (label, base, run) in [
            ("naive", &base_n, naive(threads)),
            ("fast", &base_f, fast(threads)),
        ] {
            assert_eq!(run.0, base.0, "{label} outcome, threads={threads}");
            assert_eq!(run.1, base.1, "{label} metrics dump, threads={threads}");
            assert_eq!(run.2, base.2, "{label} event stream, threads={threads}");
            assert_eq!(run.3, base.3, "{label} trace, threads={threads}");
            assert_eq!(run.4, base.4, "{label} time series, threads={threads}");
        }
    }
}

/// Allocation profiling must be a pure observer: `run_mw_profiled`
/// returns the byte-for-byte same outcome as `run_mw` at every thread
/// count, with the counting allocator live. The profile itself is a
/// build property, not a seed property — it rides *next to* the outcome
/// precisely so this equality can hold.
#[test]
fn profiling_does_not_perturb_outcomes_at_any_thread_count() {
    assert!(alloc::is_counting(), "counting allocator is installed");
    let (cfg, graph, params) = instance(300, 8.0, 23);
    for threads in THREADS {
        let mw = MwConfig::new(params)
            .with_seed(7)
            .with_threads(threads)
            .with_max_slots(250);
        let plain = run_mw(
            &graph,
            FastSinrModel::new(cfg),
            &mw,
            WakeupSchedule::Synchronous,
        );
        let (profiled, prof) = run_mw_profiled(
            &graph,
            FastSinrModel::new(cfg),
            &mw,
            WakeupSchedule::Synchronous,
        );
        assert_eq!(
            plain, profiled,
            "profiling changed the run, threads={threads}"
        );
        assert!(
            prof.setup.allocs > 0,
            "profile saw the setup traffic, threads={threads}"
        );
    }
}

/// Batched seed fan-out: `Pool::par_seeds` must return, at every thread
/// count, exactly what a sequential `for seed in range` loop produces —
/// same outcomes, same order. This is the contract the bench harness and
/// `sinrcolor color --seeds A..B` both lean on to amortize instance
/// setup while keeping outputs byte-identical.
#[test]
fn batched_seed_fanout_matches_sequential_loop() {
    let (cfg, graph, params) = instance(120, 5.0, 41);
    let run_one = |seed: u64| {
        let mw = MwConfig::new(params).with_seed(seed).with_max_slots(250);
        run_mw(
            &graph,
            FastSinrModel::auto(cfg, &graph),
            &mw,
            WakeupSchedule::Synchronous,
        )
    };
    let sequential: Vec<MwOutcome> = (3..9u64).map(run_one).collect();
    for threads in THREADS {
        let pool = sinr_pool::Pool::new(threads);
        let batched = pool.par_seeds(3..9, run_one);
        assert_eq!(batched.len(), sequential.len());
        for (i, (a, b)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(a, b, "seed {} differs at threads={threads}", 3 + i as u64);
        }
    }
}

#[test]
fn auto_model_matches_naive_on_both_sides_of_the_grid_threshold() {
    // n = 40 disables the grid, n = 300 still disables it (< 512), so
    // force the always-grid model in as the third column to pin all
    // three resolvers to one coloring at a size where grids disagree
    // about being worthwhile but must not disagree about tables.
    for (n, side, seed) in [(40usize, 3.5, 3u64), (300, 8.0, 9)] {
        let (cfg, graph, params) = instance(n, side, seed);
        let mw = MwConfig::new(params)
            .with_seed(1)
            .with_threads(2)
            .with_max_slots(250);
        let naive = run_mw(
            &graph,
            SinrModel::new(cfg),
            &mw,
            WakeupSchedule::Synchronous,
        );
        let auto = run_mw(
            &graph,
            FastSinrModel::auto(cfg, &graph),
            &mw,
            WakeupSchedule::Synchronous,
        );
        assert_eq!(naive.coloring, auto.coloring, "n={n}");
        assert_eq!(naive.slots, auto.slots, "n={n}");
        assert_eq!(naive.transmissions, auto.transmissions, "n={n}");
    }
}
