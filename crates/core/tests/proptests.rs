//! Property-based tests for the coloring crate's pure components.

use proptest::prelude::*;
use sinr_coloring::chi::{chi, is_admissible};
use sinr_coloring::palette::reduce_palette;
use sinr_coloring::params::MwParams;
use sinr_coloring::render::{render_svg, RenderOptions};
use sinr_coloring::verify::{distance_violations, is_distance_coloring};
use sinr_geometry::greedy::greedy_coloring;
use sinr_geometry::{Point, UnitDiskGraph};
use sinr_model::SinrConfig;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..4.0f64, 0.0..4.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..max_n,
    )
}

proptest! {
    #[test]
    fn chi_is_admissible_and_maximal(
        estimates in prop::collection::vec(-50i64..50, 0..8),
        window in 0i64..10,
    ) {
        let x = chi(&estimates, window);
        prop_assert!(is_admissible(x, &estimates, window));
        // Maximality: nothing admissible strictly above x (down from 0).
        let mut v = 0i64;
        while v > x {
            prop_assert!(!is_admissible(v, &estimates, window), "{v} admissible above {x}");
            v -= 1;
        }
    }

    #[test]
    fn chi_never_falls_too_far(
        estimates in prop::collection::vec(-50i64..50, 0..8),
        window in 0i64..10,
    ) {
        // Each estimate forbids an interval of 2w+1 integers; stacking all
        // of them bounds χ below by -(k(2w+1)).
        let x = chi(&estimates, window);
        let k = estimates.len() as i64;
        prop_assert!(x >= -(k * (2 * window + 1)));
    }

    #[test]
    fn practical_params_always_validate(
        n in 2usize..100_000,
        delta in 1usize..500,
    ) {
        let p = MwParams::practical(&SinrConfig::default_unit(), n, delta);
        prop_assert!(p.validate().is_ok());
        prop_assert!(p.listen_slots() > 0);
        prop_assert!(p.counter_threshold() > 2 * p.reset_window(1));
        prop_assert!(p.reset_window(0) <= p.reset_window(1));
        prop_assert!(p.palette_bound() >= (delta + 1) * 2);
    }

    #[test]
    fn window_monotonicity_in_n_and_delta(
        n1 in 16usize..10_000,
        n2 in 16usize..10_000,
        d1 in 1usize..100,
        d2 in 1usize..100,
    ) {
        let cfg = SinrConfig::default_unit();
        let (nlo, nhi) = (n1.min(n2), n1.max(n2));
        let (dlo, dhi) = (d1.min(d2), d1.max(d2));
        let a = MwParams::practical(&cfg, nlo, dlo);
        let b = MwParams::practical(&cfg, nhi, dhi);
        prop_assert!(a.listen_slots() <= b.listen_slots());
        prop_assert!(a.counter_threshold() <= b.counter_threshold());
        prop_assert!(a.response_slots() <= b.response_slots());
        // q_s shrinks with Δ.
        prop_assert!(a.q_small >= b.q_small);
    }

    #[test]
    fn verifier_matches_brute_force(
        pts in arb_points(30),
        colors_seed in 0usize..7,
        dist in 0.2..3.0f64,
    ) {
        // One outlier 10⁵ away makes the graph build double its grid side.
        let mut sparse = pts.clone();
        sparse.push(Point::new(-1.0e5, 2.0e5));
        for pts in [pts, sparse] {
            let colors: Vec<usize> = (0..pts.len()).map(|i| (i * 7 + colors_seed) % 4).collect();
            let fast = distance_violations(&pts, &colors, dist);
            let mut brute = Vec::new();
            for u in 0..pts.len() {
                for v in (u + 1)..pts.len() {
                    if colors[u] == colors[v] && pts[u].distance(pts[v]) <= dist {
                        brute.push((u, v));
                    }
                }
            }
            prop_assert_eq!(fast, brute);
        }
    }

    #[test]
    fn verifier_soundness_mutation(pts in arb_points(20)) {
        // Take a proper greedy coloring; copying any node's color onto a
        // neighbor must produce a detectable violation.
        let g = UnitDiskGraph::new(pts, 1.0);
        let coloring = greedy_coloring(&g);
        prop_assert!(is_distance_coloring(
            g.positions(),
            coloring.as_slice(),
            g.radius()
        ));
        for v in 0..g.len() {
            if let Some(&u) = g.neighbors(v).first() {
                let mut broken = coloring.as_slice().to_vec();
                broken[v] = broken[u];
                prop_assert!(!is_distance_coloring(g.positions(), &broken, g.radius()));
            }
        }
    }

    #[test]
    fn palette_reduction_idempotent_on_small_palettes(pts in arb_points(25)) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let first = reduce_palette(&g, &greedy_coloring(&g));
        let second = reduce_palette(&g, &first);
        prop_assert!(second.is_proper(&g));
        prop_assert!(second.palette_size() <= first.palette_size());
    }

    #[test]
    fn svg_renders_any_instance(pts in arb_points(25), with_colors in any::<bool>()) {
        let g = UnitDiskGraph::new(pts, 1.0);
        let colors: Vec<usize> = (0..g.len()).map(|v| v % 5).collect();
        let svg = render_svg(
            &g,
            if with_colors { Some(&colors) } else { None },
            &RenderOptions::default(),
        );
        prop_assert!(svg.starts_with("<svg"));
        prop_assert_eq!(svg.matches("<circle").count(), g.len());
        prop_assert_eq!(svg.matches("<line").count(), g.edge_count());
    }
}
