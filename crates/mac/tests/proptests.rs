//! Property-based tests for TDMA scheduling and the MAC substrate.

use proptest::prelude::*;
use proptest::TestCaseError;
use sinr_geometry::{Point, UnitDiskGraph};
use sinr_mac::mp::{
    run_uniform_ideal, BfsLayers, Convergecast, EchoDegrees, Flooding, GeneralAlgorithm,
    JohanssonColoring,
};
use sinr_mac::srs::{simulate_general_bundled, simulate_general_unicast, simulate_uniform, SrsRun};
use sinr_mac::tdma::{broadcast_audit, TdmaSchedule};
use sinr_model::SinrConfig;
use std::fmt::Debug;

mod reference;

/// The signature every SRS entry point shares.
type Srs<A> = fn(&UnitDiskGraph, &SinrConfig, &TdmaSchedule, &mut [A], usize) -> SrsRun;

/// Runs fresh `make()` nodes through `srs` and through its reference
/// loop `oracle`, and checks that both runs and the final node states
/// agree. With `any_slots` the slot counts may differ: the reference
/// unicast loop skips the frames of a round in which nothing is pending.
fn agrees_with_reference<A: Debug>(
    g: &UnitDiskGraph,
    schedule: &TdmaSchedule,
    make: impl Fn() -> Vec<A>,
    srs: Srs<A>,
    oracle: Srs<A>,
    any_slots: bool,
) -> Result<(), TestCaseError> {
    let cfg = SinrConfig::default_unit();
    let (mut nodes, mut expected) = (make(), make());
    let mut run = srs(g, &cfg, schedule, &mut nodes, 12);
    let want = oracle(g, &cfg, schedule, &mut expected, 12);
    if any_slots {
        run.slots = want.slots;
    }
    prop_assert_eq!(run, want);
    prop_assert_eq!(format!("{nodes:?}"), format!("{expected:?}"));
    Ok(())
}

/// Both general-model entry points against their reference loops.
fn general_agrees_with_reference<A: GeneralAlgorithm + Debug>(
    g: &UnitDiskGraph,
    schedule: &TdmaSchedule,
    make: impl Fn() -> Vec<A>,
) -> Result<(), TestCaseError> {
    agrees_with_reference(
        g,
        schedule,
        &make,
        simulate_general_bundled,
        reference::simulate_general_bundled,
        false,
    )?;
    agrees_with_reference(
        g,
        schedule,
        make,
        simulate_general_unicast,
        reference::simulate_general_unicast,
        true,
    )
}

fn arb_colors(max_n: usize, max_color: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..max_color, 1..max_n)
}

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..4.0f64, 0.0..4.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..max_n,
    )
}

proptest! {
    #[test]
    fn schedule_partitions_nodes(colors in arb_colors(40, 10)) {
        let s = TdmaSchedule::from_colors(&colors);
        // Every node has a slot of the frame, and every slot a node.
        let mut members = vec![0usize; s.frame_len()];
        for v in 0..colors.len() {
            prop_assert!(s.slot_of(v) < s.frame_len());
            members[s.slot_of(v)] += 1;
        }
        prop_assert!(members.iter().all(|&k| k > 0));
        // Frame length equals the number of distinct colors.
        let mut distinct = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(s.frame_len(), distinct.len());
    }

    #[test]
    fn compaction_preserves_color_equality(colors in arb_colors(40, 200)) {
        let s = TdmaSchedule::from_colors(&colors);
        for u in 0..colors.len() {
            for v in 0..colors.len() {
                prop_assert_eq!(
                    colors[u] == colors[v],
                    s.slot_of(u) == s.slot_of(v),
                    "slot equality must mirror color equality"
                );
            }
        }
    }

    #[test]
    fn compaction_preserves_color_order(colors in arb_colors(30, 100)) {
        let s = TdmaSchedule::from_colors(&colors);
        for u in 0..colors.len() {
            for v in 0..colors.len() {
                if colors[u] < colors[v] {
                    prop_assert!(s.slot_of(u) < s.slot_of(v));
                }
            }
        }
    }

    #[test]
    fn rainbow_schedule_is_always_interference_free(pts in arb_points(25)) {
        // One node per slot: a lone transmitter always reaches all
        // neighbors under SINR (no simultaneous interference).
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        let colors: Vec<usize> = (0..g.len()).collect();
        let audit = broadcast_audit(&g, &cfg, &TdmaSchedule::from_colors(&colors));
        prop_assert!(audit.is_interference_free(), "{:?}", audit);
    }

    #[test]
    fn flooding_informs_exactly_the_source_component(pts in arb_points(30)) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let mut nodes: Vec<Flooding> = (0..g.len()).map(|v| Flooding::new(v == 0)).collect();
        let _ = run_uniform_ideal(&g, &mut nodes, 10 * g.len().max(1));
        let reach = g.bfs_distances(0);
        for v in 0..g.len() {
            prop_assert_eq!(nodes[v].informed(), reach[v].is_some(), "node {}", v);
        }
    }

    #[test]
    fn johansson_is_proper_on_random_instances(
        pts in arb_points(30),
        seed in 0u64..100,
    ) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let mut nodes: Vec<JohanssonColoring> = (0..g.len())
            .map(|v| JohanssonColoring::new(v, g.degree(v), seed))
            .collect();
        let run = run_uniform_ideal(&g, &mut nodes, 50_000);
        prop_assert!(run.all_done);
        for (u, v) in g.edges() {
            prop_assert_ne!(nodes[u].color(), nodes[v].color());
        }
        for (v, node) in nodes.iter().enumerate() {
            prop_assert!(node.color().unwrap() <= g.degree(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The SRS entry points and the audit, which run on the slot engine,
    /// against the slot loops they replaced, over schedules of one to
    /// four colors for up to 40 nodes: neighbors share slots, so
    /// receptions collide and messages are lost.
    #[test]
    fn engine_srs_matches_the_reference_loops_on_colliding_schedules(
        placed in prop::collection::vec((0.0..4.0f64, 0.0..4.0f64, 0..12usize), 1..=40),
        colors in 1..5usize,
    ) {
        let cfg = SinrConfig::default_unit();
        let pts: Vec<Point> = placed.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        let slots: Vec<usize> = placed.iter().map(|&(_, _, c)| c % colors).collect();
        let schedule = TdmaSchedule::from_colors(&slots);
        let n = g.len();
        agrees_with_reference(
            &g,
            &schedule,
            || (0..n).map(|v| Flooding::new(v == 0)).collect(),
            simulate_uniform,
            reference::simulate_uniform,
            false,
        )?;
        agrees_with_reference(
            &g,
            &schedule,
            || (0..n).map(|v| BfsLayers::new(v == 0)).collect(),
            simulate_uniform,
            reference::simulate_uniform,
            false,
        )?;
        general_agrees_with_reference(&g, &schedule, || {
            (0..n).map(|v| EchoDegrees::new(v, g.neighbors(v).to_vec())).collect()
        })?;
        let values: Vec<u64> = (1..=n as u64).collect();
        general_agrees_with_reference(&g, &schedule, || Convergecast::build_tree(&g, 0, &values))?;
        prop_assert_eq!(
            broadcast_audit(&g, &cfg, &schedule),
            reference::broadcast_audit(&g, &cfg, &schedule)
        );
    }
}
