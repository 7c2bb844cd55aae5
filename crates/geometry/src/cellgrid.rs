//! A dense cell grid over a *fixed* point set.
//!
//! Node positions never move, so the crate's one spatial index binds once
//! to the point set — computing the bounding box, a dense `rows × cols`
//! cell table, and every node's home cell — and afterwards only inserts
//! members and clears them all. Its two users differ only in the members
//! they insert: [`UnitDiskGraph::new`](crate::UnitDiskGraph::new) inserts
//! every node once and walks each node's 3×3 window to build the
//! adjacency, and the SINR resolver clears the grid and inserts the slot's
//! transmitters at the start of each slot it bounds.
//!
//! * each cell stores its members as packed [`CellEntry`] records
//!   (`x`, `y`, `id`), so interference summation streams one contiguous
//!   slice per cell instead of chasing `positions[id]` through the whole
//!   point array — the structure-of-arrays layout the resolver reads;
//! * every bucket is sized at bind time for the nodes whose home cell it
//!   is, so insert and clear never allocate;
//! * the occupied-cell list names each non-empty cell exactly once, so a
//!   scan over it is linear in the number of non-empty cells.
//!
//! Cell coordinates are plain integers into the dense table, so the
//! resolver's near/far classification is index arithmetic — no hashing.
//!
//! # Example
//!
//! ```
//! use sinr_geometry::{CellGrid, Point};
//!
//! let pts = vec![Point::new(0.2, 0.2), Point::new(0.4, 0.1), Point::new(3.5, 3.5)];
//! let mut grid = CellGrid::try_bind(&pts, 1.0).unwrap();
//! grid.insert(0);
//! grid.insert(2);
//! assert_eq!(grid.len(), 2);
//! assert_eq!(grid.occupied(), &[grid.cell_of(0), grid.cell_of(2)]);
//! grid.clear_members();
//! assert!(grid.is_empty() && grid.occupied().is_empty());
//! ```

use crate::cast;
use crate::point::Point;
use crate::NodeId;

/// One grid member: its coordinates copied next to its id, so per-cell
/// scans touch a single contiguous slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEntry {
    /// x coordinate of the member (copied from the bound point set).
    pub x: f64,
    /// y coordinate of the member.
    pub y: f64,
    /// The member's node id.
    pub id: NodeId,
}

/// Dense grids refuse to allocate more than `4·n + 4096` cells — beyond
/// that (pathologically scattered point sets) a dense table wastes memory
/// and scan time, and callers should bind a coarser cell side or do
/// without the grid.
pub const MAX_DENSE_CELLS_PER_NODE: usize = 4;

/// A dense cell grid bound to a fixed point set (see module docs).
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    cols: i64,
    rows: i64,
    /// Member records per cell, indexed densely by `cy * cols + cx`.
    cells: Vec<Vec<CellEntry>>,
    /// The non-empty cells, each once, in the order they received their
    /// first member since the last clear.
    occupied: Vec<u32>,
    /// Home cell of every node of the bound point set.
    node_cell: Vec<u32>,
    /// Coordinates copied from the bound point set (flat, id-indexed).
    xs: Vec<f64>,
    ys: Vec<f64>,
    members: usize,
    /// Bound-node population of the densest 3×3 cell neighborhood.
    max_window_pop: usize,
}

impl CellGrid {
    /// Binds a grid of side `cell` to `points`, with no members yet.
    ///
    /// Returns `None` when the point set's bounding box would need more
    /// than `4·n + 4096` cells — a dense table would be mostly empty air —
    /// including a box whose extent overflows `f64`.
    /// The SINR resolver then runs without a grid, and
    /// [`UnitDiskGraph::new`](crate::UnitDiskGraph::new) doubles the side
    /// until the bind succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not finite and strictly positive, or any point
    /// has a non-finite coordinate.
    pub fn try_bind(points: &[Point], cell: f64) -> Option<CellGrid> {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell side must be positive and finite"
        );
        let n = points.len();
        let mut min_x = 0.0f64;
        let mut min_y = 0.0f64;
        let mut max_x = 0.0f64;
        let mut max_y = 0.0f64;
        for (id, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {id} has non-finite coordinates");
            if id == 0 {
                (min_x, min_y, max_x, max_y) = (p.x, p.y, p.x, p.y);
            } else {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
        }
        // Cell indices are packed into `u32`; refuse point sets or grids
        // that could not be indexed losslessly. Unreachable in practice —
        // 2³² nodes or cells would need hundreds of GiB — but it makes
        // every `as u32` below provably in range.
        if u32::try_from(n).is_err() {
            return None;
        }
        let budget = MAX_DENSE_CELLS_PER_NODE
            .saturating_mul(n)
            .saturating_add(4096);
        // Each axis's cell count is checked as an `f64`, before the cast:
        // a span that needs more cells than the budget, or one that
        // overflows `f64` (an infinite count fails the comparison), is
        // refused instead of saturating the cast.
        let axis_cells = |span: f64| {
            let cells = (span / cell).floor() + 1.0;
            (cells <= budget as f64).then(|| cast::floor_i64(cells))
        };
        let cols = axis_cells(max_x - min_x)?;
        let rows = axis_cells(max_y - min_y)?;
        let cell_count = usize::try_from(cols.checked_mul(rows)?).ok()?;
        if cell_count > budget || u32::try_from(cell_count).is_err() {
            return None;
        }
        let mut node_cell = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for p in points {
            let cx = cast::floor_i64((p.x - min_x) / cell).clamp(0, cols - 1);
            let cy = cast::floor_i64((p.y - min_y) / cell).clamp(0, rows - 1);
            node_cell.push((cy * cols + cx) as u32);
            xs.push(p.x);
            ys.push(p.y);
        }
        // Size each bucket for every node that maps to its cell — the
        // hard membership bound, since a node is inserted at most once.
        // Total reserved capacity is exactly n entries, and no insert
        // can ever grow a bucket afterwards.
        let mut bucket_cap = vec![0usize; cell_count];
        for &c in &node_cell {
            bucket_cap[c as usize] += 1;
        }
        // The densest 3×3 cell neighborhood, by bound nodes. Callers that
        // collect potential senders (the Chebyshev ≤ 1 cells around a
        // receiver) can pre-size their buffers to this hard bound and
        // never grow them during a scan.
        let mut max_window_pop = 0usize;
        for cy in 0..rows {
            for cx in 0..cols {
                let mut pop = 0usize;
                for ny in (cy - 1).max(0)..=(cy + 1).min(rows - 1) {
                    for nx in (cx - 1).max(0)..=(cx + 1).min(cols - 1) {
                        pop += bucket_cap[(ny * cols + nx) as usize];
                    }
                }
                max_window_pop = max_window_pop.max(pop);
            }
        }
        let cells: Vec<Vec<CellEntry>> = bucket_cap.into_iter().map(Vec::with_capacity).collect();
        Some(CellGrid {
            cell,
            cols,
            rows,
            cells,
            occupied: Vec::with_capacity(cell_count.min(n)),
            node_cell,
            xs,
            ys,
            members: 0,
            max_window_pop,
        })
    }

    /// Nodes of the bound point set in the densest 3×3 cell neighborhood
    /// — an upper bound on how many members any Chebyshev ≤ 1 window scan
    /// can yield, fixed at bind time.
    pub fn max_window_population(&self) -> usize {
        self.max_window_pop
    }

    /// The cell side the grid was bound with.
    pub fn cell_side(&self) -> f64 {
        self.cell
    }

    /// Number of nodes in the bound point set.
    pub fn bound_len(&self) -> usize {
        self.node_cell.len()
    }

    /// Grid dimensions as `(rows, cols)`.
    pub fn dims(&self) -> (i64, i64) {
        (self.rows, self.cols)
    }

    /// Number of current members.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether the grid has no members.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Home cell index of node `id` (valid whether or not it is a member).
    pub fn cell_of(&self, id: NodeId) -> u32 {
        self.node_cell[id]
    }

    /// Flat home-cell slice for the whole bound point set, id-indexed.
    pub fn node_cells(&self) -> &[u32] {
        &self.node_cell
    }

    /// Integer cell coordinates `(cx, cy)` of a dense cell index.
    pub fn cell_coords(&self, cell: u32) -> (i64, i64) {
        let c = cell as i64;
        (c % self.cols, c / self.cols)
    }

    /// Members of cell `cell`, as packed records.
    pub fn entries(&self, cell: u32) -> &[CellEntry] {
        &self.cells[cell as usize]
    }

    /// The non-empty cells, each exactly once, in the order they received
    /// their first member since the last [`CellGrid::clear_members`].
    pub fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// Verifies that `points` still looks like the bound point set — a
    /// cheap spot check (length plus first/last coordinates), relied on by
    /// callers that cache a `CellGrid` keyed on a borrowed graph.
    pub fn binds(&self, points: &[Point]) -> bool {
        if points.len() != self.node_cell.len() {
            return false;
        }
        match (points.first(), points.last()) {
            (Some(f), Some(l)) => {
                let n = points.len();
                f.x == self.xs[0]
                    && f.y == self.ys[0]
                    && l.x == self.xs[n - 1]
                    && l.y == self.ys[n - 1]
            }
            _ => true,
        }
    }

    /// Adds node `id` as a member.
    ///
    /// Allocation-free: every bucket was sized at bind time for all the
    /// nodes whose home cell it is.
    ///
    /// # Panics
    ///
    /// Debug-panics if `id` is already a member: callers insert a node at
    /// most once between clears.
    // lint:hot — grid refill, runs once per transmitter of a bounded slot
    pub fn insert(&mut self, id: NodeId) {
        let cell = self.node_cell[id];
        let bucket = &mut self.cells[cell as usize];
        debug_assert!(
            bucket.iter().all(|e| e.id != id),
            "node {id} inserted twice"
        );
        if bucket.is_empty() {
            self.occupied.push(cell);
        }
        bucket.push(CellEntry {
            x: self.xs[id],
            y: self.ys[id],
            id,
        });
        self.members += 1;
    }

    /// Removes every member while keeping all cell capacity, so a refill
    /// allocates nothing. Costs one step per non-empty cell.
    // lint:hot — grid refill, runs once per bounded slot
    pub fn clear_members(&mut self) {
        for &c in &self.occupied {
            self.cells[c as usize].clear();
        }
        self.occupied.clear();
        self.members = 0;
    }

    /// Calls `f(cell_index, chebyshev_cell_distance)` for every dense cell
    /// within Chebyshev distance `reach` of `cell` (clipped to the grid),
    /// in row-major order. Pure index arithmetic — visits empty cells too;
    /// intended for stamping passes where the caller filters.
    pub fn for_each_window_cell<F: FnMut(u32, i64)>(&self, cell: u32, reach: i64, mut f: F) {
        debug_assert!(reach >= 0, "window reach must be non-negative");
        let (cx, cy) = self.cell_coords(cell);
        let x0 = (cx - reach).max(0);
        let x1 = (cx + reach).min(self.cols - 1);
        let y0 = (cy - reach).max(0);
        let y1 = (cy + reach).min(self.rows - 1);
        for gy in y0..=y1 {
            let base = gy * self.cols;
            let dy = (gy - cy).abs();
            for gx in x0..=x1 {
                f((base + gx) as u32, dy.max((gx - cx).abs()));
            }
        }
    }

    /// Chebyshev cell distance between two dense cell indices.
    pub fn cheb(&self, a: u32, b: u32) -> i64 {
        let (ax, ay) = self.cell_coords(a);
        let (bx, by) = self.cell_coords(b);
        (ax - bx).abs().max((ay - by).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![
            Point::new(0.2, 0.2),
            Point::new(0.4, 0.1), // same cell as 0
            Point::new(1.5, 0.5),
            Point::new(0.5, 2.5),
            Point::new(3.9, 3.9),
        ]
    }

    #[test]
    fn bind_assigns_home_cells() {
        let g = CellGrid::try_bind(&pts(), 1.0).unwrap();
        assert_eq!(g.bound_len(), 5);
        assert_eq!(g.cell_of(0), g.cell_of(1));
        assert_ne!(g.cell_of(0), g.cell_of(2));
        let (rows, cols) = g.dims();
        assert_eq!((rows, cols), (4, 4));
        assert!(g.is_empty());
        // Coordinates round-trip through the dense index.
        for id in 0..5 {
            let (cx, cy) = g.cell_coords(g.cell_of(id));
            assert!(cx >= 0 && cx < cols && cy >= 0 && cy < rows);
        }
    }

    #[test]
    fn entries_carry_coordinates() {
        let p = pts();
        let mut g = CellGrid::try_bind(&p, 1.0).unwrap();
        g.insert(3);
        let e = g.entries(g.cell_of(3))[0];
        assert_eq!((e.x, e.y, e.id), (p[3].x, p[3].y, 3));
    }

    #[test]
    fn clear_members_resets_everything() {
        let mut g = CellGrid::try_bind(&pts(), 1.0).unwrap();
        for id in 0..5 {
            g.insert(id);
        }
        assert_eq!(g.len(), 5);
        g.clear_members();
        assert!(g.is_empty());
        assert!(g.occupied().is_empty());
        for id in 0..5 {
            assert!(g.entries(g.cell_of(id)).is_empty());
        }
        g.insert(2); // reusable after clearing
        assert_eq!(g.entries(g.cell_of(2)).len(), 1);
        assert_eq!(g.occupied(), &[g.cell_of(2)]);
    }

    #[test]
    fn occupied_names_each_non_empty_cell_once_after_a_refill() {
        // 40 nodes, two to a cell, along a line of 20 cells.
        let p: Vec<Point> = (0..40)
            .map(|i| Point::new((i / 2) as f64 + 0.25 + 0.5 * (i % 2) as f64, 0.5))
            .collect();
        let mut g = CellGrid::try_bind(&p, 1.0).unwrap();
        let refills: [&[NodeId]; 4] = [
            &[0, 1, 2, 3, 38, 39],
            &[1, 5, 4, 39],
            &[],
            &[7, 6, 0, 21, 20, 1],
        ];
        for members in refills {
            g.clear_members();
            for &id in members {
                g.insert(id);
            }
            let mut expected: Vec<u32> = members.iter().map(|&id| g.cell_of(id)).collect();
            expected.sort_unstable();
            expected.dedup();
            let mut listed = g.occupied().to_vec();
            listed.sort_unstable();
            assert_eq!(listed, expected, "refill {members:?}");
            assert_eq!(listed.len(), g.occupied().len(), "a cell listed twice");
            let held: usize = g.occupied().iter().map(|&c| g.entries(c).len()).sum();
            assert_eq!(held, members.len());
        }
    }

    #[test]
    fn window_clips_to_grid_and_reports_cheb() {
        let g = CellGrid::try_bind(&pts(), 1.0).unwrap();
        // Corner cell: window clipped to the grid.
        let corner = g.cell_of(0);
        let mut seen = Vec::new();
        g.for_each_window_cell(corner, 1, |c, d| seen.push((c, d)));
        assert_eq!(seen.len(), 4, "2×2 clipped window at the corner");
        for &(c, d) in &seen {
            assert_eq!(d, g.cheb(corner, c));
            assert!(d <= 1);
        }
        // Full window away from edges covers (2r+1)².
        let mut count = 0;
        g.for_each_window_cell(g.cell_of(2), 1, |_, _| count += 1);
        assert_eq!(count, 6, "3 wide × 2 tall at the bottom edge");
    }

    #[test]
    fn bind_refuses_pathological_scatter() {
        let p = vec![Point::new(0.0, 0.0), Point::new(1.0e5, 1.0e5)];
        assert!(CellGrid::try_bind(&p, 1.0).is_none());
        assert!(CellGrid::try_bind(&p, 1.0e5).is_some());
        // 10³⁰⁰ cells along one axis would saturate the integer cast; the
        // f64 count is refused first, in debug and release builds alike.
        let wide = vec![Point::new(0.0, 0.0), Point::new(1.0e300, 0.0)];
        let tall = vec![Point::new(0.0, 0.0), Point::new(0.0, 1.0e300)];
        assert!(CellGrid::try_bind(&wide, 1.0).is_none());
        assert!(CellGrid::try_bind(&tall, 1.0).is_none());
        assert_eq!(CellGrid::try_bind(&wide, 3.0e297).unwrap().dims(), (1, 334));
        // An extent that overflows f64 never binds, at any side.
        let overflowing = vec![Point::new(-1.0e308, 0.0), Point::new(1.0e308, 0.0)];
        assert!(CellGrid::try_bind(&overflowing, 1.0).is_none());
        assert!(CellGrid::try_bind(&overflowing, f64::MAX).is_none());
    }

    #[test]
    fn binds_spot_checks_the_point_set() {
        let p = pts();
        let g = CellGrid::try_bind(&p, 1.0).unwrap();
        assert!(g.binds(&p));
        assert!(!g.binds(&p[..4]));
        let mut moved = p.clone();
        moved[0] = Point::new(9.0, 9.0);
        assert!(!g.binds(&moved));
        let empty: Vec<Point> = Vec::new();
        let ge = CellGrid::try_bind(&empty, 1.0).unwrap();
        assert!(ge.binds(&empty));
    }

    #[test]
    fn empty_point_set_binds() {
        let g = CellGrid::try_bind(&[], 1.0).unwrap();
        assert_eq!(g.bound_len(), 0);
        assert!(g.is_empty());
        assert_eq!(g.dims(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_rejected() {
        let _ = CellGrid::try_bind(&[], 0.0);
    }
}
