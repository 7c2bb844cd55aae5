//! Umbrella crate for the SINR node-coloring reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests (in
//! `tests/`) and the runnable examples (in `examples/`). The actual library
//! code lives in the member crates:
//!
//! * [`sinr_geometry`] — points, the dense cell grid, placements, unit-disk
//!   graphs.
//! * [`sinr_model`] — the SINR physical model and baseline interference models.
//! * [`sinr_radiosim`] — the slot-synchronous radio network simulator.
//! * [`sinr_coloring`] — the MW coloring algorithm tuned for SINR (the paper's
//!   main contribution).
//! * [`sinr_mac`] — TDMA MAC scheduling and single-round simulation built on
//!   top of a coloring.

pub use sinr_coloring as coloring;
pub use sinr_geometry as geometry;
pub use sinr_mac as mac;
pub use sinr_model as model;
pub use sinr_radiosim as radiosim;
