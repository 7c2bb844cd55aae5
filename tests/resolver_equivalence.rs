//! Integration: the SINR model's grid is observationally invisible across
//! a whole MW coloring run.
//!
//! `SinrModel` promises bit-identical `ReceptionTable`s with its grid on
//! or off (see the differential proptests in
//! `crates/sinr/tests/proptests.rs`); here we pin the end-to-end
//! consequence — same message deliveries every slot means the same
//! protocol trajectory, slot count, and final coloring.

use sinr_coloring::mw::{run_mw, MwConfig, MwOutcome};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::resolver::DEFAULT_NEAR_REACH_CELLS;
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};
use sinr_radiosim::WakeupSchedule;

/// 240 nodes spread over a 12 × 12 square (maximum degree 13): MW slots
/// here carry enough transmitters that about 850 of each run's 14 500
/// slots exceed the grid's small-slot cutoff, so both the grid path and
/// the exact fallback run. (Denser, smaller instances carry fewer: with
/// 120 nodes in a 5 × 5 square no slot exceeds the cutoff.)
fn spread_graph(cfg: &SinrConfig) -> UnitDiskGraph {
    UnitDiskGraph::new(placement::uniform(240, 12.0, 12.0, 99), cfg.r_t())
}

fn run_with<M: InterferenceModel>(model: M, graph: &UnitDiskGraph, seed: u64) -> MwOutcome {
    let cfg = SinrConfig::default_unit();
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    run_mw(
        graph,
        model,
        &MwConfig::new(params).with_seed(seed),
        WakeupSchedule::Synchronous,
    )
}

#[test]
fn fast_and_naive_resolvers_produce_identical_runs() {
    let cfg = SinrConfig::default_unit();
    let graph = spread_graph(&cfg);
    for seed in [0u64, 7] {
        let naive = run_with(SinrModel::with_grid(cfg, None), &graph, seed);
        let fast = run_with(
            SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
            &graph,
            seed,
        );
        let default = run_with(SinrModel::new(cfg), &graph, seed);

        for (name, out) in [("grid on", &fast), ("default pick", &default)] {
            assert_eq!(out.all_done, naive.all_done, "{name}, seed {seed}");
            assert_eq!(out.slots, naive.slots, "{name}, seed {seed}: slot counts");
            assert_eq!(
                out.coloring, naive.coloring,
                "{name}, seed {seed}: colorings"
            );
            assert_eq!(
                out.transmissions, naive.transmissions,
                "{name}, seed {seed}"
            );
            assert_eq!(out.receptions, naive.receptions, "{name}, seed {seed}");
            assert_eq!(out.node_reports, naive.node_reports, "{name}, seed {seed}");
            // The resolver counters live beside the stats, so the
            // per-node statistics agree exactly.
            assert_eq!(
                out.stats, naive.stats,
                "{name}, seed {seed}: per-node stats"
            );
        }
        // Every run reports resolver counters; only the grid side inserts
        // transmitters into a grid.
        assert!(fast.resolver.is_some_and(|s| s.delta_started > 0));
        assert!(naive
            .resolver
            .is_some_and(|s| s.fast_path_hits == 0 && s.delta_started == 0));
    }
}

#[test]
fn fast_resolver_reports_a_nonzero_hit_rate_on_dense_runs() {
    let cfg = SinrConfig::default_unit();
    let graph = spread_graph(&cfg);
    let out = run_with(
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        &graph,
        1,
    );
    let stats = out.resolver.expect("the SINR model tracks stats");
    assert!(stats.fast_path_hits > 0 && stats.exact_fallbacks > 0);
    assert!(out.resolver_hit_rate().is_some_and(|rate| rate > 0.0));
}
