#![warn(missing_docs)]

//! Geometric substrate for the SINR node-coloring reproduction.
//!
//! The paper models a wireless network as nodes placed in the Euclidean
//! plane; communication range `R_T` induces a unit-disk graph (UDG), and all
//! of the algorithm's constants are driven by *packing bounds* `φ(R)` — the
//! maximum number of mutually independent nodes inside a disk of radius `R`.
//!
//! This crate provides:
//!
//! * [`Point`] — a 2-D point with distance arithmetic.
//! * [`Bbox`] — axis-aligned bounding boxes for deployment areas.
//! * [`CellGrid`] — the one spatial index: a dense grid bound to a fixed
//!   point set, filled by allocation-free `O(1)` inserts and emptied in
//!   one step per non-empty cell. It builds the unit-disk graph's
//!   adjacency and holds the SINR resolver's transmitters.
//! * [`placement`] — deterministic, seeded node-placement generators
//!   (uniform random, jittered grid, clustered, line).
//! * [`UnitDiskGraph`] — the communication graph `G = (V, E, R_T)`.
//! * [`packing`] — the packing bound `φ(R)` from the paper (footnote 5) and
//!   greedy maximal-independent-set helpers used to validate it.
//! * [`greedy`] — a centralized greedy `(Δ+1)`-coloring baseline.
//!
//! # Example
//!
//! ```
//! use sinr_geometry::{placement, UnitDiskGraph};
//!
//! let pts = placement::uniform(64, 10.0, 10.0, 42);
//! let g = UnitDiskGraph::new(pts, 1.0);
//! assert_eq!(g.len(), 64);
//! assert!(g.max_degree() < 64);
//! ```

pub mod bbox;
pub mod cast;
pub mod cellgrid;
pub mod graph;
pub mod greedy;
pub mod packing;
pub mod placement;
pub mod point;

pub use bbox::Bbox;
pub use cellgrid::{CellEntry, CellGrid};
pub use graph::UnitDiskGraph;
pub use point::Point;

/// Identifier of a node in a placement / graph: the index into the point set.
pub type NodeId = usize;
