//! The dynamic zero-allocation gate: steady-state slots of the fused
//! sequential engine must perform **zero** heap allocations, driving the
//! incremental grid resolver or the naive one.
//!
//! Static guards already exist — lint L8 bans allocating constructs in
//! `// lint:hot` items — but a lint cannot see an allocation hidden
//! behind a helper call or a `Vec` that grows past its reservation. This
//! test measures the real thing: the workspace's counting allocator
//! attributes every heap event to the slot it happened in, and after the
//! warmup prefix (buffers growing to the instance's working size) the
//! per-slot ledger must read zero.
//!
//! The instances have the bench workload's shape (uniform placement,
//! expected degree 12). The grid resolver runs at n = 2048 — large enough
//! that the grid path, the delta-resolution path, and the epoch rebuilds
//! all run. The naive resolver runs at n = 256, which a debug build
//! finishes in seconds.

use sinr_coloring::mw::{run_mw_profiled, MwConfig};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{FastSinrModel, InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::alloc::{self, CountingAlloc};
use sinr_radiosim::WakeupSchedule;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_slots_of_the_fused_engine_do_not_allocate() {
    let cfg = SinrConfig::default_unit();
    assert_steady_slots_allocation_free(2048, FastSinrModel::new(cfg));
}

#[test]
fn steady_state_slots_of_the_naive_resolver_do_not_allocate() {
    let cfg = SinrConfig::default_unit();
    assert_steady_slots_allocation_free(256, SinrModel::new(cfg));
}

/// Colors an `n`-node instance completely with `model` under the
/// counting allocator and asserts the per-slot ledger reads zero.
fn assert_steady_slots_allocation_free<M: InterferenceModel>(n: usize, model: M) {
    assert!(
        alloc::is_counting(),
        "counting allocator is installed in this test binary"
    );

    let cfg = SinrConfig::default_unit();
    let pts = placement::uniform_with_expected_degree(n, cfg.r_t(), 12.0, 42);
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mw = MwConfig::new(params).with_seed(42);

    let name = model.name();
    let (out, prof) = run_mw_profiled(&graph, model, &mw, WakeupSchedule::Synchronous);
    assert!(out.all_done, "{name}: coloring completed");

    // The action and delivery phases are allocation-free for the *entire*
    // run, not just its tail: node-owned buffers are reserved to their
    // degree bounds up front.
    assert_eq!(
        prof.engine.actions.allocs, 0,
        "{name}: action phase allocated"
    );
    assert_eq!(
        prof.engine.delivery.allocs, 0,
        "{name}: delivery phase allocated"
    );

    // Resolver scratch reaches its working size within the warmup prefix;
    // every later slot must be allocation-free. `steady_allocs` sums the
    // final 25% of per-slot samples — the gated window.
    let sampled = prof.engine.per_slot.len() as u64;
    let warmup = prof.engine.warmup_slots();
    assert!(
        warmup * 2 < sampled,
        "{name}: warmup {warmup} of {sampled} slots: buffer growth extends past half the run"
    );
    assert_eq!(
        prof.engine.steady_allocs(),
        0,
        "{name}: steady-state slots allocated (zero-alloc hot path regressed); \
         warmup {warmup} of {sampled} slots"
    );
}
