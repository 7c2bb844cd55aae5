//! Verifiers for `(d, V)`-colorings and independence (§II definitions).

use sinr_geometry::{NodeId, Point, UnitDiskGraph};

/// All pairs `(u, v)`, `u < v`, with equal colors at Euclidean distance at
/// most `max_dist` — the violations of a `(d, V)`-coloring with
/// `max_dist = d·R_T` (§II).
///
/// A filter over the edges of the unit-disk graph at radius `max_dist`,
/// which come out sorted. Building that graph is the whole cost:
/// `O(n + |E|)` for well-spread points (see [`UnitDiskGraph::new`]).
///
/// # Panics
///
/// Panics if `positions` and `colors` have different lengths or
/// `max_dist` is not finite and positive.
pub fn distance_violations(
    positions: &[Point],
    colors: &[usize],
    max_dist: f64,
) -> Vec<(NodeId, NodeId)> {
    assert_eq!(positions.len(), colors.len(), "one color per node");
    assert!(max_dist > 0.0, "distance threshold must be positive");
    UnitDiskGraph::new(positions.to_vec(), max_dist)
        .edges()
        .filter(|&(u, v)| colors[u] == colors[v])
        .collect()
}

/// Whether `colors` is a `(d, V)`-coloring for threshold
/// `max_dist = d·R_T`: every two nodes within `max_dist` have different
/// colors.
///
/// # Example
///
/// ```
/// use sinr_coloring::verify::is_distance_coloring;
/// use sinr_geometry::Point;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(3.0, 0.0)];
/// assert!(is_distance_coloring(&pts, &[0, 1, 0], 1.0));
/// assert!(!is_distance_coloring(&pts, &[0, 0, 1], 1.0));
/// ```
pub fn is_distance_coloring(positions: &[Point], colors: &[usize], max_dist: f64) -> bool {
    distance_violations(positions, colors, max_dist).is_empty()
}

/// Pairs of *decided* nodes sharing a color class within distance `r_t` —
/// the per-slot audit of Theorem 1 ("the color class `C_i` forms an
/// independent set throughout the execution").
///
/// `colors[v]` is `None` for nodes that have not decided yet. Like
/// [`distance_violations`], a filter over the sorted edges of the
/// unit-disk graph at radius `r_t`.
///
/// # Panics
///
/// Panics if `positions` and `colors` have different lengths or `r_t` is
/// not finite and positive.
pub fn class_independence_violations(
    positions: &[Point],
    colors: &[Option<usize>],
    r_t: f64,
) -> Vec<(NodeId, NodeId)> {
    assert_eq!(positions.len(), colors.len(), "one color slot per node");
    UnitDiskGraph::new(positions.to_vec(), r_t)
        .edges()
        .filter(|&(u, v)| colors[u].is_some() && colors[u] == colors[v])
        .collect()
}

/// Incremental form of the Theorem-1 audit: checks whether newly decided
/// nodes conflict with any already decided node of the same class. Scans
/// all `n` nodes per new node, `O(|newly_decided| · n)` with no set-up, so
/// it beats rebuilding the graph for [`class_independence_violations`]
/// in a slot where few nodes decide.
pub fn incremental_independence_violations(
    positions: &[Point],
    colors: &[Option<usize>],
    newly_decided: &[NodeId],
    r_t: f64,
) -> Vec<(NodeId, NodeId)> {
    let r2 = r_t * r_t;
    let mut violations = Vec::new();
    for &u in newly_decided {
        let Some(cu) = colors[u] else { continue };
        for (v, cv) in colors.iter().enumerate() {
            if v != u && *cv == Some(cu) && positions[u].distance_squared(positions[v]) <= r2 {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                violations.push((a, b));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::placement;

    #[test]
    fn detects_close_equal_pair() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.4, 0.0)];
        assert_eq!(distance_violations(&pts, &[2, 2], 1.0), vec![(0, 1)]);
        assert!(distance_violations(&pts, &[2, 3], 1.0).is_empty());
    }

    #[test]
    fn distance_threshold_is_inclusive() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert_eq!(distance_violations(&pts, &[0, 0], 1.0), vec![(0, 1)]);
        let pts2 = vec![Point::new(0.0, 0.0), Point::new(1.001, 0.0)];
        assert!(distance_violations(&pts2, &[0, 0], 1.0).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_input() {
        let pts = placement::uniform(80, 4.0, 4.0, 13);
        let colors: Vec<usize> = (0..80).map(|i| i % 5).collect();
        for &d in &[0.5, 1.0, 2.0] {
            let fast = distance_violations(&pts, &colors, d);
            let mut brute = Vec::new();
            for u in 0..80 {
                for v in (u + 1)..80 {
                    if colors[u] == colors[v] && pts[u].distance(pts[v]) <= d {
                        brute.push((u, v));
                    }
                }
            }
            assert_eq!(fast, brute, "d = {d}");
        }
    }

    #[test]
    fn class_audit_skips_undecided() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.3, 0.0),
            Point::new(0.6, 0.0),
        ];
        let colors = vec![Some(1), None, Some(1)];
        assert_eq!(
            class_independence_violations(&pts, &colors, 1.0),
            vec![(0, 2)]
        );
        let colors2 = vec![Some(1), None, None];
        assert!(class_independence_violations(&pts, &colors2, 1.0).is_empty());
    }

    #[test]
    fn incremental_matches_full_audit_for_new_nodes() {
        let pts = placement::uniform(50, 3.0, 3.0, 5);
        let colors: Vec<Option<usize>> = (0..50)
            .map(|i| if i % 3 == 0 { Some(i % 4) } else { None })
            .collect();
        // Treat every decided node as "new": union over all must equal the
        // full audit.
        let decided: Vec<usize> = (0..50).filter(|&i| colors[i].is_some()).collect();
        let inc = incremental_independence_violations(&pts, &colors, &decided, 1.0);
        let full = class_independence_violations(&pts, &colors, 1.0);
        assert_eq!(inc, full);
    }

    #[test]
    fn incremental_empty_for_no_new_nodes() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let colors = vec![Some(0), Some(0)];
        assert!(incremental_independence_violations(&pts, &colors, &[], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "one color per node")]
    fn length_mismatch_panics() {
        let _ = distance_violations(&[Point::ORIGIN], &[0, 1], 1.0);
    }

    #[test]
    fn empty_input_is_vacuously_proper() {
        assert!(distance_violations(&[], &[], 1.0).is_empty());
        assert!(is_distance_coloring(&[], &[], 1.0));
        assert!(class_independence_violations(&[], &[], 1.0).is_empty());
        assert!(incremental_independence_violations(&[], &[], &[], 1.0).is_empty());
    }

    #[test]
    fn pair_exactly_at_max_dist_counts_as_violation() {
        // A 3-4-5 triangle puts the pair at distance exactly 5 without the
        // coordinates being axis-aligned; §II's "within distance d·R_T" is
        // inclusive, so equal colors here must be flagged.
        let pts = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        assert_eq!(distance_violations(&pts, &[7, 7], 5.0), vec![(0, 1)]);
        assert!(!is_distance_coloring(&pts, &[7, 7], 5.0));
        assert!(is_distance_coloring(&pts, &[7, 8], 5.0));
        // The same pair under the slot audit (distance 5 = r_t).
        let decided = vec![Some(7), Some(7)];
        assert_eq!(
            class_independence_violations(&pts, &decided, 5.0),
            vec![(0, 1)]
        );
        assert_eq!(
            incremental_independence_violations(&pts, &decided, &[1], 5.0),
            vec![(0, 1)]
        );
    }

    #[test]
    fn duplicate_positions_conflict_iff_same_color() {
        // Co-located nodes are at distance 0 — always "within" any positive
        // threshold, so they conflict exactly when their colors collide.
        let p = Point::new(1.25, -0.5);
        let pts = vec![p, p, p];
        assert_eq!(
            distance_violations(&pts, &[0, 0, 0], 1.0),
            vec![(0, 1), (0, 2), (1, 2)]
        );
        assert_eq!(distance_violations(&pts, &[0, 1, 0], 1.0), vec![(0, 2)]);
        assert!(distance_violations(&pts, &[0, 1, 2], 1.0).is_empty());
        // The incremental audit must not pair a node with itself.
        let decided = vec![Some(3), Some(3), None];
        assert_eq!(
            incremental_independence_violations(&pts, &decided, &[0, 1], 1.0),
            vec![(0, 1)]
        );
    }
}
