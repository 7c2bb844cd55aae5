//! Determinism of multi-seed runs: seed fan-out on 1, 2 or 4 worker
//! threads returns exactly what a sequential loop over the seeds returns.
//!
//! A run is single-threaded — each slot's receptions depend on that
//! slot's whole transmitter set, so every slot waits for the one before
//! it — and whole runs, one per seed, are the only unit of parallel work
//! (`sinr_pool`; see docs/PERFORMANCE.md). The tests below also pin what
//! the fan-out relies on within one run: profiling observes a run without
//! changing it, and the auto resolver agrees with the naive one on both
//! sides of its grid threshold.

use sinr_coloring::mw::{run_mw, run_mw_profiled, MwConfig, MwOutcome};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{FastSinrModel, SinrConfig, SinrModel};
use sinr_obs::alloc::{self, CountingAlloc};
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

/// Allocation profiling must be a pure observer: `run_mw_profiled`
/// returns the byte-for-byte same outcome as `run_mw`, with the counting
/// allocator live. The profile itself is a build property, not a seed
/// property — it rides *next to* the outcome precisely so this equality
/// can hold.
#[test]
fn profiling_does_not_perturb_outcomes() {
    assert!(alloc::is_counting(), "counting allocator is installed");
    let (cfg, graph, params) = instance(300, 8.0, 23);
    let mw = MwConfig::new(params).with_seed(7).with_max_slots(250);
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
    assert_eq!(plain, profiled, "profiling changed the run");
    assert!(prof.setup.allocs > 0, "profile saw the setup traffic");
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
        let mw = MwConfig::new(params).with_seed(1).with_max_slots(250);
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
