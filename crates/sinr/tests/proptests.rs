//! Property-based tests for the interference models.
//!
//! The SINR model is pinned to a test-only reference resolver
//! (`reference/`): the physical model as plain per-slot loops, sharing no
//! code with the exact kernel `SinrModel` runs, with its grid forced on,
//! forced off, or picked from the slots it resolves.

mod reference;

use proptest::prelude::*;
use proptest::TestCaseResult;
use reference::ReferenceSinrModel;
use sinr_geometry::{NodeId, Point, UnitDiskGraph, SIDE_OVER_RADIUS};
use sinr_model::interference::{decodes, received_power, sinr_from_total, total_received_power};
use sinr_model::resolver::{DEFAULT_NEAR_REACH_CELLS, GRID_SAMPLE_SLOTS, SUM_SLACK};
use sinr_model::{
    GraphModel, IdealModel, InterferenceModel, ReceptionTable, SinrConfig, SinrModel, TxDelta,
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
/// which routinely exceed the grid's small-slot cutoff.
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

/// A placement plus up to 11 transmitter sets drawn independently, so
/// consecutive slots share no more than chance: maximal churn, far harsher
/// than a protocol's slot-to-slot evolution.
fn arb_churn_sequence() -> impl Strategy<Value = (Vec<Point>, Vec<Vec<NodeId>>)> {
    (2.0..7.0f64)
        .prop_flat_map(|extent| arb_points(60, extent))
        .prop_flat_map(|pts| {
            let n = pts.len();
            let sets = prop::collection::vec(
                prop::collection::btree_set(0..n, 0..=n).prop_map(|s| s.into_iter().collect()),
                1..12,
            );
            (Just(pts), sets)
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

/// Offsets that move a lattice off the origin, so that rounded cell
/// indices put some pairs at exactly the lattice spacing one cell farther
/// apart than their spacing; the first is the one the unit-disk graph's
/// own threshold test uses.
const LATTICE_OFFSETS: [(f64, f64); 4] = [(0.37, -1.9), (0.1, 0.2), (-3.3, 7.7), (1e3 + 0.3, -0.7)];

/// An offset lattice of spacing `R_T = 1` and a slot sequence over it:
/// the sub-lattices of spacing `2·R_T` (every other node on both axes, at
/// each parity), which leave every silent node between two transmitters
/// exactly `R_T` from each, then random transmitter sets.
fn arb_offset_lattice_sequence() -> impl Strategy<Value = (Vec<Point>, Vec<Vec<NodeId>>)> {
    (
        2usize..13,
        2usize..13,
        0usize..LATTICE_OFFSETS.len(),
        0.0..1.0f64,
    )
        .prop_flat_map(|(cols, rows, offset, nudge)| {
            let n = cols * rows;
            (
                Just((cols, rows, offset, nudge)),
                prop::collection::vec(prop::collection::btree_set(0..n, 0..=n / 2), 1..4),
            )
        })
        .prop_map(|((cols, rows, offset, nudge), sets)| {
            let (ox, oy) = LATTICE_OFFSETS[offset];
            let (ox, oy) = (ox + nudge, oy - nudge);
            let pts: Vec<Point> = (0..cols * rows)
                .map(|i| Point::new((i % cols) as f64 + ox, (i / cols) as f64 + oy))
                .collect();
            let mut slots: Vec<Vec<NodeId>> = (0..4)
                .map(|parity| {
                    (0..cols * rows)
                        .filter(|i| (i % cols) % 2 == parity % 2 && (i / cols) % 2 == parity / 2)
                        .collect()
                })
                .collect();
            slots.extend(sets.into_iter().map(|set| set.into_iter().collect()));
            (pts, slots)
        })
}

/// Relative offsets `δ` of a receiver's exact SINR below `β`: outside the
/// [`SUM_SLACK`] bracket, inside it, and a few ulps off, on both sides.
const SINR_OFFSETS: [f64; 6] = [1e-6, -1e-6, 5e-10, -5e-10, 1e-13, -1e-13];

/// The grid's cell side at `R_T = 1`.
const SIDE: f64 = SIDE_OVER_RADIUS;

/// Background transmitters for the constructions below: `count` of them
/// in a column `x` cell sides from the origin, two cells apart, each with a
/// silent receiver `0.6·R_T` to its right. Pushes the nodes onto `pts`
/// and returns the transmitters' ids.
fn background(pts: &mut Vec<Point>, x: f64, count: usize) -> Vec<NodeId> {
    (0..count)
        .map(|j| {
            let t = Point::new(x * SIDE, (3.0 * j as f64 + 0.5) * SIDE);
            pts.push(t);
            pts.push(Point::new(t.x + 0.6, t.y));
            pts.len() - 2
        })
        .collect()
}

/// The exact SINR at `pts[u]` of sender `pts[v]` against `tx`.
fn sinr_at(cfg: &SinrConfig, pts: &[Point], tx: &[NodeId], u: NodeId, v: NodeId) -> f64 {
    let total: f64 = tx
        .iter()
        .map(|&w| received_power(cfg.power(), pts[u].distance(pts[w]), cfg.alpha()))
        .sum();
    sinr_from_total(cfg, pts[u], pts[v], total)
}

/// A grid slot around a receiver `u` that hears its one adjacent sender at
/// the exact SINR `β·(1 − δ)`. Its interference comes from background
/// transmitters far beyond the near window, a column of transmitters just
/// inside the Chebyshev ring `reach + 1` around `u`'s cell (about `reach`
/// cell sides away, where a ring bound charged one cell too far
/// undercharges most), as many as fit in half of it, and one interferer
/// that tops it up. An anchor at the origin fixes the grid's cells.
/// Returns the points, the slot's transmitters (ascending), `u` and its
/// sender.
fn ring_boundary_slot(
    cfg: &SinrConfig,
    reach: i64,
    delta: f64,
) -> (Vec<Point>, Vec<NodeId>, NodeId, NodeId) {
    let (p, alpha) = (cfg.power(), cfg.alpha());
    let r = reach as f64;
    let c = r + 3.0;
    let u = Point::new((c + 0.98) * SIDE, (c + 0.5) * SIDE);
    let v = Point::new(u.x - 0.97, u.y);
    let mut pts = vec![Point::new(0.0, 0.0), u, v];
    let mut tx = vec![2];
    tx.extend(background(&mut pts, c + r + 9.0, 12));
    let at_u = |w: Point| received_power(p, u.distance(w), alpha);
    let budget = received_power(p, 0.97, alpha) / cfg.beta() - cfg.noise();
    let mut far: f64 = tx[1..].iter().map(|&w| at_u(pts[w])).sum();
    for j in -4..=4 {
        let w = Point::new((c + r + 1.02) * SIDE, (c + 0.5 + 0.5 * j as f64) * SIDE);
        if far + at_u(w) <= 0.5 * budget {
            far += at_u(w);
            pts.push(w);
            tx.push(pts.len() - 1);
        }
    }
    let near = received_power(p, 0.97, alpha) / (cfg.beta() * (1.0 - delta)) - cfg.noise() - far;
    pts.push(Point::new(u.x, u.y + (p / near).powf(1.0 / alpha)));
    tx.push(pts.len() - 1);
    tx.sort_unstable();
    (pts, tx, 1, 2)
}

/// A grid slot around a transmitter `t` whose nearest other transmitter
/// `w` lies on the x axis at the distance where the sender certificate's
/// edge bound puts the receiver `u` between them (`R_T` from `t`) at SINR
/// `β·(1 − δ)` against all of the slot's transmitters. More silent
/// receivers sit around `t`. The background transmitters are isolated,
/// so they try the certificate too; and two senders `2·R_T + gap` apart
/// share a receiver `R_T` from the first. Returns the points, the slot's
/// transmitters (ascending), `u` and `t`.
fn certificate_boundary_slot(
    cfg: &SinrConfig,
    delta: f64,
    gap: f64,
) -> (Vec<Point>, Vec<NodeId>, NodeId, NodeId) {
    let (p, alpha) = (cfg.power(), cfg.alpha());
    let t = Point::new(4.5 * SIDE, 4.5 * SIDE);
    let mut pts = vec![Point::new(0.0, 0.0), t, Point::new(t.x + 1.0, t.y)];
    for (dx, dy) in [
        (0.0, 1.0),
        (-1.0, 0.0),
        (0.0, -1.0),
        (0.6, 0.3),
        (-0.4, -0.4),
    ] {
        pts.push(Point::new(t.x + dx, t.y + dy));
    }
    let mut tx = vec![1];
    tx.extend(background(&mut pts, 16.0, 12));
    // Two senders `2·R_T + gap` apart, and their shared receiver.
    let s = Point::new(9.5 * SIDE, 16.5 * SIDE);
    pts.extend([
        s,
        Point::new(s.x + 2.0 + gap, s.y),
        Point::new(s.x + 1.0, s.y),
    ]);
    tx.extend([pts.len() - 3, pts.len() - 2]);
    let at_u = |w: Point| received_power(p, pts[2].distance(w), alpha);
    let others: f64 = tx[1..].iter().map(|&w| at_u(pts[w])).sum();
    let signal = received_power(p, 1.0, alpha);
    let edge = signal / (cfg.beta() * (1.0 - delta)) - cfg.noise() - others;
    pts.push(Point::new(t.x + 1.0 + (p / edge).powf(1.0 / alpha), t.y));
    tx.push(pts.len() - 1);
    tx.sort_unstable();
    (pts, tx, 2, 1)
}

/// The SINR models under test on `g`: the grid forced off, the grid
/// forced on at `reach`, and the default, which picks its grid from the
/// slots it resolves — fresh, and after a window of slots with every node
/// transmitting (which builds the grid wherever more than
/// `GRID_MIN_TX_PER_SLOT` nodes exist) and one empty slot.
fn resolvers(
    cfg: SinrConfig,
    g: &UnitDiskGraph,
    reach: i64,
) -> Vec<(&'static str, Box<dyn InterferenceModel>)> {
    let sampled = SinrModel::new(cfg);
    let all: Vec<NodeId> = (0..g.len()).collect();
    for _ in 0..GRID_SAMPLE_SLOTS {
        sampled.resolve(g, &all);
    }
    sampled.resolve(g, &[]);
    vec![
        ("grid off", Box::new(SinrModel::with_grid(cfg, None))),
        ("grid on", Box::new(SinrModel::with_grid(cfg, Some(reach)))),
        ("default pick", Box::new(SinrModel::new(cfg))),
        ("default pick, sampled", Box::new(sampled)),
    ]
}

/// Runs `slots` through the reference and through every resolver under
/// test, twice: by `resolve` on one instance, and by `resolve_delta_into`
/// on another that refills one recycled table with an empty delta, as the
/// slot engine does. Every table must equal the reference's bit for bit.
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
    let empty = TxDelta {
        started: &[],
        stopped: &[],
    };
    for (slot, tx) in slots.iter().enumerate() {
        let expected = oracle.resolve(g, tx);
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
            recycled.resolve_delta_into(g, tx, empty, table);
            prop_assert_eq!(
                &*table,
                &expected,
                "{} resolve_delta_into, slot {}",
                name,
                slot
            );
        }
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
    fn resolvers_are_bit_identical_to_the_reference_under_maximal_churn(
        (pts, slots) in arb_churn_sequence(),
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
        reach_raw in 0usize..5,
    ) {
        // Every slot replaces most of the previous slot's transmitters, so
        // each grid slot refills a grid whose members share little with
        // the slot's.
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
    fn resolvers_are_bit_identical_to_the_reference_on_offset_lattices(
        (pts, slots) in arb_offset_lattice_sequence(),
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
        reach_raw in 0usize..5,
    ) {
        // Pairs exactly `R_T` apart straddle cell boundaries; the grid's
        // side margin keeps each in its receiver's sender window, and the
        // sub-lattices of spacing `2·R_T` leave receivers between two
        // senders exactly `R_T` away.
        let cfg = SinrConfig::with_unit_range(ALPHAS[alpha_idx], BETAS[beta_idx], 2.0);
        let g = UnitDiskGraph::new(pts, 1.0);
        check_against_reference(cfg, &g, &slots, 1 + reach_raw as i64)?;
    }

    #[test]
    fn resolvers_are_bit_identical_to_the_reference_at_the_ring_bound(
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
        reach_raw in 0usize..5,
        delta_idx in 0usize..SINR_OFFSETS.len(),
        churn in prop::collection::vec(prop::collection::btree_set(0usize..64, 0..=40), 1..6),
    ) {
        // The receiver's verdict turns on the far field: the crude tail
        // cannot decide it, and the ring bound may only decide it on the
        // right side of β. Independent random slots over the same nodes
        // follow (maximal churn).
        let cfg = SinrConfig::with_unit_range(ALPHAS[alpha_idx], BETAS[beta_idx], 2.0);
        let reach = 1 + reach_raw as i64;
        let delta = SINR_OFFSETS[delta_idx];
        let (pts, tx, u, v) = ring_boundary_slot(&cfg, reach, delta);
        if delta.abs() > SUM_SLACK / 10.0 {
            prop_assert_eq!(sinr_at(&cfg, &pts, &tx, u, v) >= cfg.beta(), delta < 0.0);
        }
        let n = pts.len();
        let g = UnitDiskGraph::new(pts, 1.0);
        prop_assert!(g.are_adjacent(u, v));
        let mut slots = vec![tx];
        slots.extend(churn.into_iter().map(|set| {
            let set: BTreeSet<NodeId> = set.into_iter().map(|t| t % n).collect();
            set.into_iter().collect::<Vec<_>>()
        }));
        check_against_reference(cfg, &g, &slots, reach)?;
    }

    #[test]
    fn resolvers_are_bit_identical_to_the_reference_at_the_sender_certificate(
        alpha_idx in 0usize..4,
        beta_idx in 0usize..3,
        reach_raw in 0usize..5,
        delta_idx in 0usize..SINR_OFFSETS.len(),
        gap_idx in 0usize..3,
        churn in prop::collection::vec(prop::collection::btree_set(0usize..64, 0..=30), 1..6),
    ) {
        // A receiver at the edge of a sender's disk hears it at SINR
        // β·(1 − δ); two senders 2·R_T − 1e-9, 2·R_T or 2·R_T + 1e-9 apart
        // share a receiver. Independent random slots over the same nodes
        // follow (maximal churn), many of them small enough for the
        // pairwise certificate.
        let cfg = SinrConfig::with_unit_range(ALPHAS[alpha_idx], BETAS[beta_idx], 2.0);
        let delta = SINR_OFFSETS[delta_idx];
        let gap = [-1e-9, 0.0, 1e-9][gap_idx];
        let (pts, tx, u, t) = certificate_boundary_slot(&cfg, delta, gap);
        if delta.abs() > SUM_SLACK / 10.0 {
            prop_assert_eq!(sinr_at(&cfg, &pts, &tx, u, t) >= cfg.beta(), delta < 0.0);
        }
        let n = pts.len();
        let g = UnitDiskGraph::new(pts, 1.0);
        prop_assert!(g.are_adjacent(u, t));
        let mut slots = vec![tx];
        slots.extend(churn.into_iter().map(|set| {
            let set: BTreeSet<NodeId> = set.into_iter().map(|t| t % n).collect();
            set.into_iter().collect::<Vec<_>>()
        }));
        check_against_reference(cfg, &g, &slots, 1 + reach_raw as i64)?;
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
