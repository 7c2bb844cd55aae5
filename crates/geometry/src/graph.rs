//! The unit-disk communication graph `G = (V, E, R_T)` of the paper (§II).

use crate::bbox::Bbox;
use crate::cellgrid::{CellGrid, SIDE_OVER_RADIUS};
use crate::point::Point;
use crate::NodeId;

/// A unit-disk graph: nodes at fixed positions, an edge between `u` and `v`
/// iff `δ(u, v) ≤ R_T`.
///
/// The paper models the network as the UDG induced by the transmission range
/// `R_T`: "in absence of simultaneous transmissions node u can hear node v at
/// distance δ(u, v) ≤ R_T" (§II). Adjacency is precomputed at construction
/// (one [`CellGrid`] walk, `O(n + Σ deg)` for well-spread points) and
/// stored as sorted CSR rows: one offsets vector and one neighbors vector.
///
/// # Example
///
/// ```
/// use sinr_geometry::{Point, UnitDiskGraph};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(1.6, 0.0)];
/// let g = UnitDiskGraph::new(pts, 1.0);
/// assert!(g.are_adjacent(0, 1));
/// assert!(!g.are_adjacent(0, 2));
/// assert_eq!(g.max_degree(), 2); // node 1 sees both ends
/// ```
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    positions: Vec<Point>,
    radius: f64,
    /// Row `v` of the CSR adjacency is `neighbors[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Every node's sorted neighbor list, concatenated in node order.
    neighbors: Vec<NodeId>,
    max_degree: usize,
}

impl UnitDiskGraph {
    /// Builds the UDG over `positions` with communication radius `radius`.
    ///
    /// Binds a [`CellGrid`] with cell side just over `radius`, doubling the
    /// side until the grid accepts the point set (a sparse set's bounding
    /// box can need more cells than a dense grid allows). Every node then
    /// tests the members of its 3×3 cell window with `dist² ≤ radius²`; any
    /// such side keeps every neighbor inside that window.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and strictly positive, if any
    /// position is non-finite, or if the positions' extent along an axis
    /// overflows `f64` (say, points at `x = -1e308` and `x = 1e308`): no
    /// finite cell side binds such a set.
    pub fn new(positions: Vec<Point>, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "communication radius must be positive and finite"
        );
        if let Some(b) = Bbox::enclosing(&positions) {
            assert!(
                b.width().is_finite() && b.height().is_finite(),
                "the positions' extent overflows f64"
            );
        }
        let mut side = radius * SIDE_OVER_RADIUS;
        let mut grid = loop {
            match CellGrid::try_bind(&positions, side) {
                Some(grid) => break grid,
                None => side *= 2.0,
            }
        };
        for v in 0..positions.len() {
            grid.insert(v);
        }
        let r2 = radius * radius;
        let mut offsets = Vec::with_capacity(positions.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        let mut max_degree = 0;
        for (v, &p) in positions.iter().enumerate() {
            let row = neighbors.len();
            grid.for_each_window_cell(grid.cell_of(v), 1, |cell, _| {
                for e in grid.entries(cell) {
                    if e.id != v && Point::new(e.x, e.y).distance_squared(p) <= r2 {
                        neighbors.push(e.id);
                    }
                }
            });
            neighbors[row..].sort_unstable();
            max_degree = max_degree.max(neighbors.len() - row);
            offsets.push(neighbors.len());
        }
        // The graph outlives every run on it; keep no growth slack.
        neighbors.shrink_to_fit();
        UnitDiskGraph {
            positions,
            radius,
            offsets,
            neighbors,
            max_degree,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The communication radius `R_T` the graph was built with.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// All node positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Position of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn position(&self, v: NodeId) -> Point {
        self.positions[v]
    }

    /// Euclidean distance `δ(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.positions[u].distance(self.positions[v])
    }

    /// Sorted neighbor list of `v` (nodes within `R_T`, excluding `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Whether `u` and `v` are adjacent (`δ(u, v) ≤ R_T`, `u ≠ v`).
    pub fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Whether the whole graph is connected (empty and singleton graphs are
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.len()
    }

    /// BFS hop distances from `source`; `None` for unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[source] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v].expect("queued node has distance");
            for &u in self.neighbors(v) {
                if dist[u].is_none() {
                    dist[u] = Some(dv + 1);
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// The graph diameter in hops, or `None` if disconnected or empty.
    pub fn diameter(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0;
        for v in 0..self.len() {
            for d in self.bfs_distances(v) {
                best = best.max(d?);
            }
        }
        Some(best)
    }

    /// Rebuilds the graph with a different radius over the same positions.
    pub fn with_radius(&self, radius: f64) -> UnitDiskGraph {
        UnitDiskGraph::new(self.positions.clone(), radius)
    }

    /// Connected components as sorted node-id lists, ordered by their
    /// smallest member.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; self.len()];
        let mut components = Vec::new();
        for start in 0..self.len() {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if !seen[u] {
                        seen[u] = true;
                        comp.push(u);
                        stack.push(u);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// Mean degree over all nodes (0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.neighbors.len() as f64 / self.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;

    fn path3() -> UnitDiskGraph {
        UnitDiskGraph::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.9, 0.0),
                Point::new(1.8, 0.0),
            ],
            1.0,
        )
    }

    #[test]
    #[should_panic(expected = "extent overflows f64")]
    fn an_extent_that_overflows_f64_is_rejected() {
        let _ = UnitDiskGraph::new(
            vec![Point::new(-1.0e308, 0.0), Point::new(1.0e308, 0.0)],
            1.0,
        );
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let g = UnitDiskGraph::new(placement::uniform(80, 4.0, 4.0, 3), 1.0);
        for v in 0..g.len() {
            assert!(!g.are_adjacent(v, v));
            for &u in g.neighbors(v) {
                assert!(g.are_adjacent(u, v));
                assert!(g.are_adjacent(v, u));
            }
        }
    }

    #[test]
    fn adjacency_matches_distance_threshold() {
        // A lattice of spacing `radius` away from the origin puts hundreds
        // of pairs exactly on the threshold, next to cell boundaries.
        let lattice: Vec<Point> = placement::jittered_grid(50, 7, 0.5, 0.0, 0)
            .into_iter()
            .map(|p| Point::new(p.x + 0.37, p.y - 1.9))
            .collect();
        for (pts, r) in [(placement::uniform(60, 3.0, 3.0, 8), 1.0), (lattice, 0.5)] {
            let g = UnitDiskGraph::new(pts, r);
            for u in 0..g.len() {
                for v in 0..g.len() {
                    if u != v {
                        let within = g.position(u).distance_squared(g.position(v)) <= r * r;
                        assert_eq!(g.are_adjacent(u, v), within);
                    }
                }
            }
        }
    }

    #[test]
    fn path_graph_structure() {
        let g = path3();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path3();
        assert_eq!(g.bfs_distances(0), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 1.0);
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.bfs_distances(0)[1], None);
    }

    #[test]
    fn edges_iterator_is_consistent() {
        let g = UnitDiskGraph::new(placement::uniform(40, 3.0, 3.0, 5), 1.0);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.are_adjacent(u, v));
        }
    }

    #[test]
    fn with_radius_rebuilds() {
        let g = path3();
        let g2 = g.with_radius(2.0);
        assert!(g2.are_adjacent(0, 2));
        assert_eq!(g2.max_degree(), 2);
        assert_eq!(g2.edge_count(), 3);
    }

    #[test]
    fn components_partition_the_graph() {
        let g = UnitDiskGraph::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.5, 0.0),
                Point::new(20.0, 0.0),
            ],
            1.0,
        );
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), g.len());
    }

    #[test]
    fn connected_graph_has_one_component() {
        let g = path3();
        assert_eq!(g.components().len(), 1);
        assert!((g.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let e = UnitDiskGraph::new(vec![], 1.0);
        assert!(e.is_empty());
        assert!(e.is_connected());
        assert_eq!(e.max_degree(), 0);
        let s = UnitDiskGraph::new(vec![Point::ORIGIN], 1.0);
        assert!(s.is_connected());
        assert_eq!(s.diameter(), Some(0));
    }
}
