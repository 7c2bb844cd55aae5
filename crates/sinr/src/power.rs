//! Non-uniform transmission power.
//!
//! The paper assumes uniform power (footnote 3) and only ever scales it
//! globally (§V, the `O(d^α P)` trick — covered by
//! [`SinrConfig::scaled_range`]). Real deployments mix power levels, and
//! power control is the classic answer to the near–far problem, so the
//! library also ships a per-node-power SINR resolver as an extension.

use crate::config::SinrConfig;
use crate::model::{InterferenceModel, ReceptionTable};
use sinr_geometry::{NodeId, UnitDiskGraph};

/// A per-node transmission power vector.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAssignment {
    powers: Vec<f64>,
}

impl PowerAssignment {
    /// Uniform power `p` for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly positive and finite.
    pub fn uniform(n: usize, p: f64) -> Self {
        assert!(p.is_finite() && p > 0.0, "power must be positive");
        PowerAssignment { powers: vec![p; n] }
    }

    /// Explicit per-node powers.
    ///
    /// # Panics
    ///
    /// Panics if any power is not strictly positive and finite.
    pub fn from_vec(powers: Vec<f64>) -> Self {
        assert!(
            powers.iter().all(|p| p.is_finite() && *p > 0.0),
            "all powers must be positive"
        );
        PowerAssignment { powers }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Whether the assignment covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Power of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn power(&self, v: NodeId) -> f64 {
        self.powers[v]
    }

    /// Sets the power of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `p` is not strictly positive.
    pub fn set(&mut self, v: NodeId, p: f64) {
        assert!(p.is_finite() && p > 0.0, "power must be positive");
        self.powers[v] = p;
    }

    /// The decoding range of node `v` under `cfg`'s noise and threshold:
    /// `(P_v/(2Nβ))^{1/α}` — the per-node analogue of `R_T`.
    pub fn range_of(&self, cfg: &SinrConfig, v: NodeId) -> f64 {
        (self.powers[v] / (2.0 * cfg.noise() * cfg.beta())).powf(1.0 / cfg.alpha())
    }
}

/// SINR reception with per-node powers.
///
/// Unlike [`SinrModel`](crate::SinrModel) this resolver ignores the
/// graph's adjacency (which encodes a single uniform range) and derives
/// each sender's reach from its own power; the graph supplies positions
/// only. Resolution is `O(n·|tx|)`.
#[derive(Debug, Clone)]
pub struct NonUniformSinrModel {
    cfg: SinrConfig,
    powers: PowerAssignment,
}

impl NonUniformSinrModel {
    /// Creates the model; `powers` must cover every node that will appear
    /// in `resolve` calls.
    pub fn new(cfg: SinrConfig, powers: PowerAssignment) -> Self {
        NonUniformSinrModel { cfg, powers }
    }

    /// The power assignment.
    pub fn powers(&self) -> &PowerAssignment {
        &self.powers
    }
}

impl InterferenceModel for NonUniformSinrModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        assert_eq!(
            self.powers.len(),
            g.len(),
            "power assignment must cover every node"
        );
        let positions = g.positions();
        let alpha = self.cfg.alpha();
        let mut is_tx = vec![false; g.len()];
        for &t in transmitting {
            is_tx[t] = true;
        }
        let mut pairs = Vec::new();
        for u in 0..g.len() {
            if is_tx[u] || transmitting.is_empty() {
                continue;
            }
            // Total received power at u from all transmitters.
            let mut total = 0.0;
            for &w in transmitting {
                let d = positions[u].distance(positions[w]);
                total += if d <= 0.0 {
                    f64::INFINITY
                } else {
                    self.powers.power(w) / d.powf(alpha)
                };
            }
            let mut best: Option<(f64, NodeId)> = None;
            for &v in transmitting {
                let d = positions[u].distance(positions[v]);
                if d <= 0.0 || d > self.powers.range_of(&self.cfg, v) {
                    continue;
                }
                let signal = self.powers.power(v) / d.powf(alpha);
                let sinr = signal / (self.cfg.noise() + (total - signal).max(0.0));
                if sinr >= self.cfg.beta() && best.is_none_or(|(bs, _)| sinr > bs) {
                    best = Some((sinr, v));
                }
            }
            if let Some((_, v)) = best {
                pairs.push((u, v));
            }
        }
        ReceptionTable::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "sinr-nonuniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinrModel;
    use sinr_geometry::Point;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    #[test]
    fn uniform_powers_match_the_uniform_model() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.7, 0.0),
            Point::new(1.5, 0.3),
            Point::new(2.2, 1.0),
            Point::new(0.4, 0.9),
        ];
        let g = UnitDiskGraph::new(pts, cfg().r_t());
        let uniform = SinrModel::new(cfg());
        let nonuni = NonUniformSinrModel::new(cfg(), PowerAssignment::uniform(5, cfg().power()));
        for tx in [vec![0], vec![0, 2], vec![1, 3, 4]] {
            assert_eq!(
                uniform.resolve(&g, &tx),
                nonuni.resolve(&g, &tx),
                "tx = {tx:?}"
            );
        }
    }

    #[test]
    fn boosted_power_extends_reach() {
        // Sender at distance 1.5 > R_T = 1: silent at power 1, heard at
        // power 1.5^α · 2.
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.5, 0.0)];
        let g = UnitDiskGraph::new(pts, cfg().r_t());
        let weak = NonUniformSinrModel::new(cfg(), PowerAssignment::uniform(2, 1.0));
        assert!(weak.resolve(&g, &[1]).is_empty());
        let mut powers = PowerAssignment::uniform(2, 1.0);
        powers.set(1, 2.0 * 1.5f64.powi(4));
        let strong = NonUniformSinrModel::new(cfg(), powers);
        assert_eq!(strong.resolve(&g, &[1]).unique_sender(0), Some(1));
    }

    #[test]
    fn near_far_problem_and_power_control_fix() {
        // Receiver at origin; far sender at 0.9, near interferer at 0.3
        // (transmitting to someone else). Equal powers: the near node
        // drowns the far sender. Lowering the near node's power restores
        // the far link — the classic power-control win.
        let pts = vec![
            Point::new(0.0, 0.0),  // receiver
            Point::new(0.9, 0.0),  // far sender
            Point::new(0.0, 0.3),  // near interferer
            Point::new(0.0, 0.35), // the interferer's own receiver
        ];
        let g = UnitDiskGraph::new(pts, cfg().r_t());
        let equal = NonUniformSinrModel::new(cfg(), PowerAssignment::uniform(4, 1.0));
        let table = equal.resolve(&g, &[1, 2]);
        assert_eq!(table.unique_sender(0), Some(2), "near node captures");
        // Power control: the near pair needs far less power for its short
        // link; dial it down.
        let mut powers = PowerAssignment::uniform(4, 1.0);
        powers.set(2, 0.001);
        let controlled = NonUniformSinrModel::new(cfg(), powers);
        let table = controlled.resolve(&g, &[1, 2]);
        assert_eq!(table.unique_sender(0), Some(1), "far sender decodes");
        assert_eq!(table.unique_sender(3), Some(2), "short link still works");
    }

    #[test]
    fn range_of_scales_with_power() {
        let powers = PowerAssignment::from_vec(vec![1.0, 16.0]);
        let c = cfg();
        let r0 = powers.range_of(&c, 0);
        let r1 = powers.range_of(&c, 1);
        assert!((r0 - 1.0).abs() < 1e-12);
        assert!((r1 - 2.0).abs() < 1e-12, "16x power doubles range at α=4");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_power() {
        let _ = PowerAssignment::from_vec(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn rejects_mismatched_assignment() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)];
        let g = UnitDiskGraph::new(pts, 1.0);
        let model = NonUniformSinrModel::new(cfg(), PowerAssignment::uniform(1, 1.0));
        let _ = model.resolve(&g, &[0]);
    }
}
