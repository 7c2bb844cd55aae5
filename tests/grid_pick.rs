//! The default grid pick of `SinrModel::new` on the benchmark's shapes.
//!
//! The model builds its grid once a window of `GRID_SAMPLE_SLOTS` slots
//! it resolves averages more than `GRID_MIN_TX_PER_SLOT` transmitters.
//! Tables never depend on the pick, but speed does: forced off on
//! sinrbench's `uniform-2k` (n = 2048, expected degree 12) the grid
//! measured 8.6 % fewer slots/s, while the sparse slots of `tdma-512`'s
//! distance coloring, of its TDMA frames and of the committed baseline
//! run fastest without it. A change to the rule that moves one of these
//! shapes to the other side fails here.

use sinr_coloring::distance_d::color_at_distance;
use sinr_coloring::mw::{run_mw, MwConfig, MwOutcome};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, Point, UnitDiskGraph};
use sinr_mac::guard::theorem3_distance_factor;
use sinr_mac::tdma::TdmaSchedule;
use sinr_model::{InterferenceModel, ResolverStats, SinrConfig, SinrModel};
use sinr_radiosim::WakeupSchedule;

/// A uniform placement with expected degree 12, as sinrbench builds it.
fn uniform_degree_12(n: usize, seed: u64) -> Vec<Point> {
    let cfg = SinrConfig::default_unit();
    placement::uniform_with_expected_degree(n, cfg.r_t(), 12.0, seed)
}

/// Whether a run's model ran its grid: only a grid inserts transmitters,
/// and `delta_started` counts them.
fn built_grid(stats: Option<ResolverStats>) -> bool {
    stats
        .expect("the SINR model reports its counters")
        .delta_started
        > 0
}

/// Runs MW under `SinrModel::new`, for at most `max_slots` slots if given.
fn run_default(g: &UnitDiskGraph, seed: u64, max_slots: Option<u64>) -> MwOutcome {
    let cfg = SinrConfig::default_unit();
    let params = MwParams::practical(&cfg, g.len(), g.max_degree());
    let mut mw = MwConfig::new(params).with_seed(seed);
    mw.max_slots = max_slots;
    run_mw(g, SinrModel::new(cfg), &mw, WakeupSchedule::Synchronous)
}

#[test]
fn uniform_degree_12_runs_of_2k_and_32k_nodes_build_the_grid() {
    // Past the silent listen phase (about 9 000 slots at n = 2048, 250 at
    // n = 32768) MW slots carry about 37 and 120 transmitters.
    let cfg = SinrConfig::default_unit();
    for (n, seed, slots) in [(2048, 1, 11_000), (32768, 1, 500)] {
        let g = UnitDiskGraph::new(uniform_degree_12(n, seed), cfg.r_t());
        let out = run_default(&g, seed, Some(slots));
        assert!(built_grid(out.resolver), "n = {n}, seed {seed}");
    }
}

#[test]
fn the_tdma_512_coloring_and_frames_run_without_a_grid() {
    // `tdma-512` colors G^d, the placement's graph at the Theorem-3
    // distance, under `SinrModel::new`, then resolves its TDMA frames on
    // G under `SinrModel::new` again.
    let cfg = SinrConfig::default_unit();
    let pts = uniform_degree_12(512, 1);
    let colored = color_at_distance(
        &pts,
        &cfg,
        theorem3_distance_factor(&cfg),
        1,
        WakeupSchedule::Synchronous,
    );
    assert!(!built_grid(colored.outcome.resolver));
    let schedule = TdmaSchedule::from_colors(colored.colors().expect("a complete coloring"));
    let g = UnitDiskGraph::new(pts, cfg.r_t());
    let model = SinrModel::new(cfg);
    for _ in 0..4 {
        for t in 0..schedule.frame_len() {
            let tx: Vec<usize> = (0..g.len()).filter(|&v| schedule.slot_of(v) == t).collect();
            let _ = model.resolve(&g, &tx);
        }
    }
    assert!(!built_grid(model.resolver_stats()));
}

#[test]
fn the_committed_baseline_placement_runs_without_a_grid() {
    let text = include_str!("../baselines/placement_uniform60.txt");
    let pts: Vec<Point> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let xy: Vec<f64> = l
                .split_whitespace()
                .map(|v| v.parse().expect("a coordinate"))
                .collect();
            Point::new(xy[0], xy[1])
        })
        .collect();
    assert_eq!(pts.len(), 60);
    let cfg = SinrConfig::default_unit();
    let out = run_default(&UnitDiskGraph::new(pts, cfg.r_t()), 42, None);
    assert!(out.all_done);
    assert!(!built_grid(out.resolver));
}
