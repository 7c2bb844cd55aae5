#![warn(missing_docs)]

//! TDMA MAC scheduling and message-passing simulation on top of SINR
//! colorings — §V of the paper.
//!
//! Two results are implemented here:
//!
//! * **Theorem 3.** For `d = (32·(α−1)/(α−2)·β)^{1/α}`, a
//!   `(d+1, V)`-coloring used as a TDMA schedule (each color ↔ one slot of
//!   a frame of `V` slots) is *interference-free under SINR*: in its slot,
//!   every node reaches all of its neighbors. See [`tdma`] and [`guard`].
//! * **Corollary 1.** Any uniform point-to-point message-passing algorithm
//!   with round complexity `τ` can be simulated in the SINR model in
//!   `O(Δ(log n + τ))` slots (general algorithms: one frame per round with
//!   `O(sΔ log n)`-bit bundled messages, or `O(Δ²τ)` slots with small
//!   messages). See [`srs`] and the sample algorithms in [`mp`].
//!
//! # Example
//!
//! ```
//! use sinr_coloring::distance_d::color_at_distance;
//! use sinr_geometry::placement;
//! use sinr_mac::guard::theorem3_distance_factor;
//! use sinr_mac::tdma::{broadcast_audit, TdmaSchedule};
//! use sinr_model::SinrConfig;
//! use sinr_radiosim::WakeupSchedule;
//!
//! let cfg = SinrConfig::default_unit();
//! let pts = placement::uniform(20, 5.0, 5.0, 3);
//! // Build a (d+1, V)-coloring as Theorem 3 requires.
//! let d1 = theorem3_distance_factor(&cfg);
//! let result = color_at_distance(&pts, &cfg, d1, 7, WakeupSchedule::Synchronous);
//! let schedule = TdmaSchedule::from_colors(result.colors().expect("colored"));
//! let audit = broadcast_audit(&sinr_geometry::UnitDiskGraph::new(pts, cfg.r_t()), &cfg, &schedule);
//! assert!(audit.is_interference_free()); // Theorem 3 holds
//! ```

pub mod aloha;
pub mod guard;
pub mod mp;
pub mod srs;
pub mod tdma;

pub use srs::{simulate_general_bundled, simulate_general_unicast, simulate_uniform, SrsRun};
pub use tdma::{broadcast_audit, BroadcastAudit, TdmaSchedule};
