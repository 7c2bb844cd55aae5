//! Property-based tests for the interference models.
//!
//! The SINR resolvers are pinned to a test-only reference resolver
//! (`reference/`): the naive model as plain per-slot loops, sharing no
//! code with the exact kernel `SinrModel` and `FastSinrModel` run.

mod reference;

use proptest::prelude::*;
use proptest::TestCaseResult;
use reference::ReferenceSinrModel;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::interference::{decodes, received_power, total_received_power};
use sinr_model::resolver::DEFAULT_NEAR_REACH_CELLS;
use sinr_model::{
    FastSinrModel, GraphModel, IdealModel, InterferenceModel, ReceptionTable, SinrConfig,
    SinrModel, TxDelta,
};
use std::collections::BTreeSet;

fn arb_points(max_n: usize, extent: f64) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..extent, 0.0..extent).prop_map(|(x, y)| Point::new(x, y)),
        1..max_n,
    )
}

/// A placement plus a subset of transmitting node ids.
fn arb_scenario() -> impl Strategy<Value = (Vec<Point>, Vec<NodeId>)> {
    arb_points(30, 5.0).prop_flat_map(|pts| {
        let n = pts.len();
        (Just(pts), prop::collection::btree_set(0..n, 0..=n.min(10)))
            .prop_map(|(pts, set)| (pts, set.into_iter().collect()))
    })
}

/// Path-loss exponents: the `powi` fast paths (3, 4, 6) and the `powf`
/// fallback (2.5).
const ALPHAS: [f64; 4] = [2.5, 3.0, 4.0, 6.0];
/// Decoding thresholds, from the smallest the paper allows upwards.
const BETAS: [f64; 3] = [1.0, 1.5, 3.0];

/// A placement over a range of densities with co-located duplicates and
/// isolated nodes, and a slot sequence over it: an empty slot, a lone
/// transmitter, the isolated nodes alone, then random transmitter sets,
/// which routinely exceed the fast resolver's small-slot cutoff.
fn arb_slot_sequence() -> impl Strategy<Value = (Vec<Point>, Vec<Vec<NodeId>>)> {
    (2.0..12.0f64)
        .prop_flat_map(|extent| {
            (
                arb_points(160, extent),
                prop::collection::vec(0usize..1000, 0..8),
                0usize..4,
                prop::collection::vec(prop::collection::btree_set(0usize..1000, 0..=90), 1..6),
            )
        })
        .prop_map(|(mut pts, duplicates, isolated, sets)| {
            let placed = pts.len();
            for d in duplicates {
                pts.push(pts[d % placed]);
            }
            let first_isolated = pts.len();
            for i in 0..isolated {
                pts.push(Point::new(-10.0 - 5.0 * i as f64, -10.0));
            }
            let n = pts.len();
            let mut slots = vec![Vec::new(), vec![0], (first_isolated..n).collect()];
            for set in sets {
                let tx: BTreeSet<NodeId> = set.into_iter().map(|t| t % n).collect();
                slots.push(tx.into_iter().collect());
            }
            (pts, slots)
        })
}

/// A `cols × rows` integer lattice and a slot sequence over it: a lone
/// transmitter in the middle, an empty slot, then random transmitter sets.
fn arb_lattice_sequence() -> impl Strategy<Value = (usize, usize, Vec<Vec<NodeId>>)> {
    (2usize..14, 2usize..14)
        .prop_flat_map(|(cols, rows)| {
            let n = cols * rows;
            (
                Just(cols),
                Just(rows),
                prop::collection::vec(prop::collection::btree_set(0..n, 0..=n / 2), 1..6),
            )
        })
        .prop_map(|(cols, rows, sets)| {
            let mut slots = vec![vec![cols * rows / 2], Vec::new()];
            slots.extend(sets.into_iter().map(|set| set.into_iter().collect()));
            (cols, rows, slots)
        })
}

/// The SINR resolvers under test: the naive model, the grid-tiled model
/// at `reach`, and the auto model sized for `g`.
fn resolvers(
    cfg: SinrConfig,
    g: &UnitDiskGraph,
    reach: i64,
) -> Vec<(&'static str, Box<dyn InterferenceModel>)> {
    vec![
        ("SinrModel", Box::new(SinrModel::new(cfg))),
        (
            "FastSinrModel",
            Box::new(FastSinrModel::with_near_reach(cfg, reach)),
        ),
        ("FastSinrModel::auto", Box::new(FastSinrModel::auto(cfg, g))),
    ]
}

/// The start/stop lists between two ascending transmitter sets, as the
/// slot engine reports them.
fn delta_between(prev: &[NodeId], now: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    let started = now.iter().copied().filter(|t| !prev.contains(t)).collect();
    let stopped = prev.iter().copied().filter(|t| !now.contains(t)).collect();
    (started, stopped)
}

/// Runs `slots` through the reference and through every resolver under
/// test, twice: by `resolve` on one instance, and by `resolve_delta_into`
/// on another that refills one recycled table with the true delta. Every
/// table must equal the reference's bit for bit.
fn check_against_reference(
    cfg: SinrConfig,
    g: &UnitDiskGraph,
    slots: &[Vec<NodeId>],
    reach: i64,
) -> TestCaseResult {
    let oracle = ReferenceSinrModel::new(cfg);
    let by_resolve = resolvers(cfg, g, reach);
    let by_delta = resolvers(cfg, g, reach);
    let mut tables = vec![ReceptionTable::default(); by_delta.len()];
    let mut prev: Vec<NodeId> = Vec::new();
    for (slot, tx) in slots.iter().enumerate() {
        let expected = oracle.resolve(g, tx);
        let (started, stopped) = delta_between(&prev, tx);
        let delta = TxDelta {
            started: &started,
            stopped: &stopped,
        };
        for (((name, fresh), (_, recycled)), table) in
            by_resolve.iter().zip(&by_delta).zip(&mut tables)
        {
            prop_assert_eq!(
                &fresh.resolve(g, tx),
                &expected,
                "{} resolve, slot {}",
                name,
                slot
            );
            recycled.resolve_delta_into(g, tx, delta, table);
            prop_assert_eq!(
                &*table,
                &expected,
                "{} resolve_delta_into, slot {}",
                name,
                slot
            );
        }
        prev.clone_from(tx);
    }
    Ok(())
}

proptest! {
    #[test]
    fn received_power_is_monotone_decreasing(
        d1 in 0.01..50.0f64,
        d2 in 0.01..50.0f64,
        alpha in 2.1..6.0f64,
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(received_power(1.0, lo, alpha) >= received_power(1.0, hi, alpha));
    }

    #[test]
    fn total_power_is_additive(pts in arb_points(20, 5.0)) {
        let cfg = SinrConfig::default_unit();
        let at = Point::new(-1.0, -1.0);
        let total = total_received_power(&cfg, at, &pts);
        let sum: f64 = pts
            .iter()
            .map(|&p| total_received_power(&cfg, at, &[p]))
            .sum();
        prop_assert!((total - sum).abs() <= 1e-9 * sum.max(1.0));
    }

    #[test]
    fn adding_interferers_never_enables_decoding(
        pts in arb_points(15, 4.0),
        extra in (0.0..4.0f64, 0.0..4.0f64).prop_map(|(x, y)| Point::new(x, y)),
    ) {
        let cfg = SinrConfig::default_unit();
        let rx = Point::new(2.0, 2.0);
        let tx = Point::new(2.5, 2.0);
        let without = decodes(&cfg, rx, tx, &pts);
        let mut more = pts.clone();
        more.push(extra);
        let with = decodes(&cfg, rx, tx, &more);
        // with == true implies without == true.
        prop_assert!(!with || without);
    }

    #[test]
    fn models_agree_on_lone_transmitter((pts, _) in arb_scenario(), t_raw in 0usize..30) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let t = t_raw % g.len();
        let sinr = SinrModel::new(SinrConfig::default_unit()).resolve(&g, &[t]);
        let graph = GraphModel::new().resolve(&g, &[t]);
        let ideal = IdealModel::new().resolve(&g, &[t]);
        // With one transmitter there is no interference: all three models
        // deliver to exactly the neighbor set.
        let expect: Vec<(NodeId, NodeId)> =
            g.neighbors(t).iter().map(|&u| (u, t)).collect();
        let got_s: Vec<_> = sinr.iter().collect();
        let got_g: Vec<_> = graph.iter().collect();
        let got_i: Vec<_> = ideal.iter().collect();
        prop_assert_eq!(&got_s, &expect);
        prop_assert_eq!(&got_g, &expect);
        prop_assert_eq!(&got_i, &expect);
    }

    #[test]
    fn sinr_receptions_subset_of_ideal((pts, tx) in arb_scenario()) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let tx: Vec<NodeId> = tx.into_iter().filter(|&t| t < g.len()).collect();
        let sinr = SinrModel::new(SinrConfig::default_unit()).resolve(&g, &tx);
        let ideal = IdealModel::new().resolve(&g, &tx);
        let ideal_pairs: std::collections::BTreeSet<_> = ideal.iter().collect();
        for pair in sinr.iter() {
            prop_assert!(ideal_pairs.contains(&pair));
        }
    }

    #[test]
    fn graph_receptions_subset_of_ideal((pts, tx) in arb_scenario()) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let tx: Vec<NodeId> = tx.into_iter().filter(|&t| t < g.len()).collect();
        let graph = GraphModel::new().resolve(&g, &tx);
        let ideal = IdealModel::new().resolve(&g, &tx);
        let ideal_pairs: std::collections::BTreeSet<_> = ideal.iter().collect();
        for pair in graph.iter() {
            prop_assert!(ideal_pairs.contains(&pair));
        }
    }

    #[test]
    fn no_model_delivers_to_transmitters((pts, tx) in arb_scenario()) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let tx: Vec<NodeId> = tx.into_iter().filter(|&t| t < g.len()).collect();
        let txset: std::collections::BTreeSet<_> = tx.iter().copied().collect();
        for model in [
            Box::new(SinrModel::new(SinrConfig::default_unit())) as Box<dyn InterferenceModel>,
            Box::new(GraphModel::new()),
            Box::new(IdealModel::new()),
        ] {
            for (r, s) in model.resolve(&g, &tx).iter() {
                prop_assert!(!txset.contains(&r), "{} delivered to transmitter", model.name());
                prop_assert!(txset.contains(&s));
                prop_assert!(g.are_adjacent(r, s));
            }
        }
    }

    #[test]
    fn resolvers_are_bit_identical_to_the_reference(
        (pts, slots) in arb_slot_sequence(),
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
        reach_raw in 0usize..5,
    ) {
        // Reach sweeps the near/far split from the tightest window to one
        // far larger than the default.
        let cfg = SinrConfig::with_unit_range(ALPHAS[alpha_idx], BETAS[beta_idx], 2.0);
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        check_against_reference(cfg, &g, &slots, 1 + reach_raw as i64)?;
    }

    #[test]
    fn resolvers_are_bit_identical_to_the_reference_on_a_lattice_at_spacing_r_t(
        (cols, rows, slots) in arb_lattice_sequence(),
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
    ) {
        // Integer coordinates at spacing 1 = R_T: every lattice neighbor
        // sits at distance R_T bit for bit, on the boundary of adjacency,
        // and a lone transmitter reaches all of them (SINR 2β).
        let cfg = SinrConfig::with_unit_range(ALPHAS[alpha_idx], BETAS[beta_idx], 2.0);
        let pts: Vec<Point> = (0..cols * rows)
            .map(|i| Point::new((i % cols) as f64, (i / cols) as f64))
            .collect();
        let g = UnitDiskGraph::new(pts, 1.0);
        prop_assert!(g.are_adjacent(0, 1), "lattice neighbors at R_T are adjacent");
        check_against_reference(cfg, &g, &slots, DEFAULT_NEAR_REACH_CELLS)?;
    }

    #[test]
    fn sinr_delivers_at_most_one_per_receiver((pts, tx) in arb_scenario()) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let tx: Vec<NodeId> = tx.into_iter().filter(|&t| t < g.len()).collect();
        let table = SinrModel::new(SinrConfig::default_unit()).resolve(&g, &tx);
        for u in 0..g.len() {
            prop_assert!(table.heard_by(u).len() <= 1);
        }
    }
}
