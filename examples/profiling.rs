//! Allocation profiling from library code: the `sinrcolor profile`
//! subcommand's machinery, driven directly.
//!
//! ```text
//! cargo run --release --example profiling
//! ```
//!
//! Three pieces cooperate (all in `sinr-obs::alloc`):
//!
//! 1. [`CountingAlloc`] installed as the **binary's** global allocator —
//!    library crates never install one (lint L10), so the same library
//!    code runs uninstrumented elsewhere at zero cost.
//! 2. [`AllocScope`] attributing a region's heap traffic to an
//!    [`AllocStats`] accumulator (here: topology construction).
//! 3. [`run_mw_profiled`], which wires the engine's per-phase
//!    attribution and per-slot sampling and returns an `MwAllocProfile`
//!    next to — never inside — the deterministic `MwOutcome`.
//!
//! A [`Stopwatch`] adds wall-clock context; like the allocation
//! counters, its readings are profile-only and must never feed the
//! deterministic artifacts.

use sinr_coloring::mw::{run_mw_profiled, MwConfig};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{SinrConfig, SinrModel};
use sinr_obs::alloc::{AllocScope, AllocStats, CountingAlloc};
use sinr_obs::Stopwatch;
use sinr_radiosim::WakeupSchedule;

// The one sanctioned place for this attribute: a binary. Installing it
// here counts every heap event in the process, including this example's
// own setup — which is exactly what the setup scope below measures.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let cfg = SinrConfig::default_unit();

    // Attribute topology construction to its own accumulator.
    let mut build = AllocStats::new();
    let graph = {
        let _scope = AllocScope::new(&mut build);
        let pts = placement::uniform_with_expected_degree(512, cfg.r_t(), 12.0, 42);
        UnitDiskGraph::new(pts, cfg.r_t())
    };
    println!(
        "topology        : n = {}, Δ = {} — built with {} allocs / {} bytes",
        graph.len(),
        graph.max_degree(),
        build.allocs,
        build.bytes_allocated
    );

    // Profiled run: same outcome as run_mw, plus the heap ledger.
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mw_cfg = MwConfig::new(params).with_seed(42);
    let watch = Stopwatch::start();
    let (outcome, prof) = run_mw_profiled(
        &graph,
        SinrModel::new(cfg),
        &mw_cfg,
        WakeupSchedule::Synchronous,
    );
    let elapsed_ns = watch.elapsed_ns();
    println!(
        "run             : all_done = {}, {} slots, {} colors in {:.1} ms",
        outcome.all_done,
        outcome.slots,
        outcome.colors_used,
        elapsed_ns as f64 / 1e6
    );

    // Per-phase attribution (the `prof.alloc.*` vocabulary).
    for (name, stats) in [
        ("mw.setup", &prof.setup),
        ("engine.actions", &prof.engine.actions),
        ("engine.resolve", &prof.engine.resolve),
        ("engine.delivery", &prof.engine.delivery),
    ] {
        println!(
            "{name:16}: {:6} allocs, {:6} frees, {:9} bytes allocated",
            stats.allocs, stats.frees, stats.bytes_allocated
        );
    }

    // Slot classification: allocations front-load into warmup while
    // buffers grow to the instance's working size; steady-state slots of
    // the fused sequential engine run allocation-free (the invariant
    // `tests/alloc_profile.rs` and CI's zero-alloc gate enforce).
    println!(
        "slots           : {} sampled, warmup = {}, steady-state = {:?} allocs/slot",
        prof.engine.per_slot.len(),
        prof.engine.warmup_slots(),
        prof.engine.steady_allocs_per_slot()
    );
    println!(
        "heap peak       : {} bytes; heaviest slots {:?}",
        prof.heap_peak,
        prof.engine.top_allocating_slots(3)
    );
}
