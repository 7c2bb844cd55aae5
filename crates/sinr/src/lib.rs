#![warn(missing_docs)]

//! The SINR physical interference model (and baseline models) of the paper.
//!
//! Under the SINR constraints (§II of the paper), a node `u` successfully
//! receives a message from a sender `v` iff
//!
//! ```text
//!            P / δ(u,v)^α
//! ───────────────────────────────────  ≥  β
//!  N + Σ_{w ∈ V\{v}} P / δ(u,w)^α
//! ```
//!
//! where `P` is the (uniform) transmission power, `α > 2` the path-loss
//! exponent, `β ≥ 1` the decoding threshold, and `N` the ambient noise. The
//! paper additionally requires `δ(u,v) ≤ R_T = (P/(2Nβ))^{1/α}` so that the
//! received signal is comfortably above noise.
//!
//! This crate provides:
//!
//! * [`SinrConfig`] — the physical parameters plus every derived radius and
//!   constant the paper defines (`R_max`, `R_T`, `R_I`, the Theorem-3 guard
//!   distance, the Lemma-3 interference budget).
//! * [`interference`] — received power, aggregate interference, SINR
//!   evaluation, and the *probabilistic interference* `Ψ` of §IV.
//! * [`model`] — the [`InterferenceModel`] trait, [`GraphModel`] (the
//!   graph-based model the original MW analysis assumed), and
//!   [`IdealModel`] (collision-free message passing, the substrate simulated
//!   by Corollary 1).
//! * [`resolver`] — [`SinrModel`], the paper's physical model: an exact
//!   kernel, plus grid-tiled interference bounds that it builds once the
//!   slots it resolves are dense enough to pay for them (tables are
//!   identical either way; see `docs/PERFORMANCE.md`).
//!
//! # Example
//!
//! ```
//! use sinr_model::SinrConfig;
//!
//! let cfg = SinrConfig::with_unit_range(4.0, 1.5, 2.0);
//! assert!((cfg.r_t() - 1.0).abs() < 1e-12);
//! assert!(cfg.r_i() >= 2.0 * cfg.r_t()); // paper: R_I ≥ 2 R_T
//! ```

pub mod config;
pub mod fading;
pub mod interference;
mod kernel;
pub mod model;
pub mod power;
pub mod resolver;

pub use config::SinrConfig;
pub use fading::FadingSinrModel;
pub use model::{GraphModel, IdealModel, InterferenceModel, ReceptionTable, TxDelta};
pub use power::{NonUniformSinrModel, PowerAssignment};
pub use resolver::{FastSinrModel, ResolverStats, SinrModel};
