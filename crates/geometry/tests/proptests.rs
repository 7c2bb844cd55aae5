//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use sinr_geometry::greedy::{greedy_coloring, greedy_coloring_by_degree};
use sinr_geometry::packing::{greedy_mis, is_independent, is_maximal_independent, phi_bound};
use sinr_geometry::{cast, Bbox, CellGrid, Point, UnitDiskGraph};

fn arb_point(extent: f64) -> impl Strategy<Value = Point> {
    (0.0..extent, 0.0..extent).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max_n: usize, extent: f64) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(extent), 0..max_n)
}

/// A point in `[-extent, extent)²`, so cell keys go negative.
fn arb_signed_point(extent: f64) -> impl Strategy<Value = Point> {
    (-extent..extent, -extent..extent).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn distance_is_symmetric(a in arb_point(100.0), b in arb_point(100.0)) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality(
        a in arb_point(100.0),
        b in arb_point(100.0),
        c in arb_point(100.0),
    ) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    #[test]
    fn grid_query_matches_brute_force(
        pts in prop::collection::vec(arb_signed_point(4.0), 1..60),
        center in arb_signed_point(4.0),
        radius in 0.0..4.0f64,
        cell in 0.2..2.0f64,
    ) {
        // The center is bound as one more point, so it has a home cell,
        // but only the drawn points become members.
        let n = pts.len();
        let mut bound = pts.clone();
        bound.push(center);
        let mut grid = CellGrid::try_bind(&bound, cell).expect("an 8×8 box fits the cell budget");
        for id in 0..n {
            grid.insert(id);
        }
        let home = grid.cell_of(n);
        // The drawn radius (up to 20 cells), then the distance to point 0,
        // which puts that point exactly on the inclusive boundary.
        for r2 in [radius * radius, pts[0].distance_squared(center)] {
            let reach = cast::ceil_i64(r2.sqrt() / cell);
            let mut fast = Vec::new();
            grid.for_each_window_cell(home, reach, |c, _| {
                for e in grid.entries(c) {
                    if Point::new(e.x, e.y).distance_squared(center) <= r2 {
                        fast.push(e.id);
                    }
                }
            });
            fast.sort_unstable();
            let brute: Vec<usize> = (0..n)
                .filter(|&i| pts[i].distance_squared(center) <= r2)
                .collect();
            prop_assert_eq!(fast, brute);
        }
    }

    #[test]
    fn udg_adjacency_symmetric_and_threshold(
        pts in arb_points(40, 5.0),
        radius in 0.3..2.0f64,
    ) {
        // One outlier 10⁵ away leaves too many cells of side `radius`, so
        // the build has to double the side before its grid binds; one
        // 10³⁰⁰ away needs more cells along an axis than an integer cast
        // can hold, and is refused before the cast.
        let mut sparse = pts.clone();
        sparse.push(Point::new(1.0e5, 1.0e5));
        let mut far = pts.clone();
        far.push(Point::new(1.0e300, 1.0e300));
        prop_assert!(CellGrid::try_bind(&sparse, radius).is_none());
        prop_assert!(CellGrid::try_bind(&far, radius).is_none());
        for pts in [pts, sparse, far] {
            let g = UnitDiskGraph::new(pts, radius);
            for u in 0..g.len() {
                for v in 0..g.len() {
                    if u == v {
                        prop_assert!(!g.are_adjacent(u, v));
                    } else {
                        prop_assert_eq!(g.are_adjacent(u, v), g.distance(u, v) <= radius);
                        prop_assert_eq!(g.are_adjacent(u, v), g.are_adjacent(v, u));
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_coloring_proper_and_bounded(
        pts in arb_points(50, 4.0),
        radius in 0.3..1.5f64,
    ) {
        let g = UnitDiskGraph::new(pts, radius);
        for coloring in [greedy_coloring(&g), greedy_coloring_by_degree(&g)] {
            prop_assert!(coloring.is_proper(&g));
            if !g.is_empty() {
                prop_assert!(coloring.palette_size() <= g.max_degree() + 1);
            }
        }
    }

    #[test]
    fn greedy_mis_maximal_independent(
        pts in arb_points(50, 4.0),
        radius in 0.3..1.5f64,
    ) {
        let g = UnitDiskGraph::new(pts, radius);
        let mis = greedy_mis(&g);
        prop_assert!(is_independent(&g, &mis));
        prop_assert!(is_maximal_independent(&g, &mis));
    }

    #[test]
    fn phi_bound_monotone_in_radius(r1 in 0.0..10.0f64, r2 in 0.0..10.0f64, rt in 0.1..3.0f64) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(phi_bound(lo, rt) <= phi_bound(hi, rt));
    }

    #[test]
    fn bbox_enclosing_contains_all(pts in arb_points(40, 50.0)) {
        if let Some(b) = Bbox::enclosing(&pts) {
            for p in &pts {
                prop_assert!(b.contains(*p));
            }
        } else {
            prop_assert!(pts.is_empty());
        }
    }

    #[test]
    fn bbox_clamp_is_idempotent_and_inside(
        p in arb_point(100.0),
        side in 0.1..50.0f64,
    ) {
        let b = Bbox::square(side);
        let c = b.clamp(p);
        prop_assert!(b.contains(c));
        prop_assert_eq!(b.clamp(c), c);
    }
}
