//! Rayleigh-fading extension of the SINR model.
//!
//! The paper's model is deterministic path loss (`P/δ^α`). Real channels
//! fluctuate; the standard stochastic refinement multiplies every received
//! power by an independent exponential(1) *fading gain* per transmission
//! (Rayleigh fading of the amplitude). Reception then becomes a random
//! event even for a lone in-range sender — a robustness stress the MW
//! analysis does not cover, measured in experiment E18.

use crate::config::SinrConfig;
use crate::model::{InterferenceModel, ReceptionTable};
use sinr_geometry::{NodeId, UnitDiskGraph};
use std::cell::Cell;

/// SINR reception with per-(slot, link) exponential fading gains.
///
/// Gains are derived deterministically from `(seed, invocation counter,
/// receiver, sender)`, so runs remain reproducible: the engine calls
/// `resolve` once per slot, and the counter plays the role of the slot
/// index.
///
/// `severity ∈ [0, 1]` interpolates between the deterministic model (0)
/// and full Rayleigh fading (1): the gain used is
/// `(1 − severity) + severity·X`, `X ~ Exp(1)`.
#[derive(Debug)]
pub struct FadingSinrModel {
    cfg: SinrConfig,
    seed: u64,
    severity: f64,
    invocation: Cell<u64>,
}

impl FadingSinrModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is outside `[0, 1]`.
    pub fn new(cfg: SinrConfig, seed: u64, severity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&severity),
            "fading severity must be in [0, 1]"
        );
        FadingSinrModel {
            cfg,
            seed,
            severity,
            invocation: Cell::new(0),
        }
    }

    /// The underlying physical configuration.
    pub fn config(&self) -> &SinrConfig {
        &self.cfg
    }

    /// The fading gain for link `(receiver, sender)` in invocation `t`.
    fn gain(&self, t: u64, receiver: NodeId, sender: NodeId) -> f64 {
        // SplitMix64 over the tuple gives an i.i.d.-quality uniform draw.
        let mut z = self
            .seed
            .wrapping_add(t.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((receiver as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((sender as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Uniform in (0, 1]; exponential via inverse CDF.
        let u = ((z >> 11) as f64 + 1.0) / (u64::MAX >> 11) as f64;
        let x = -u.ln();
        (1.0 - self.severity) + self.severity * x
    }
}

impl InterferenceModel for FadingSinrModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let t = self.invocation.get();
        self.invocation.set(t + 1);
        let positions = g.positions();
        let alpha = self.cfg.alpha();
        let mut is_tx = vec![false; g.len()];
        for &v in transmitting {
            is_tx[v] = true;
        }
        let mut pairs = Vec::new();
        let mut candidate_mark = vec![false; g.len()];
        for &tx in transmitting {
            for &u in g.neighbors(tx) {
                if is_tx[u] || candidate_mark[u] {
                    continue;
                }
                candidate_mark[u] = true;
                // Faded received powers at u from every transmitter.
                let powers: Vec<(NodeId, f64)> = transmitting
                    .iter()
                    .map(|&w| {
                        let d = positions[u].distance(positions[w]);
                        let p = if d <= 0.0 {
                            f64::INFINITY
                        } else {
                            self.cfg.power() * self.gain(t, u, w) / d.powf(alpha)
                        };
                        (w, p)
                    })
                    .collect();
                let total: f64 = powers.iter().map(|&(_, p)| p).sum();
                let mut best: Option<(f64, NodeId)> = None;
                for &(v, signal) in &powers {
                    if !g.are_adjacent(u, v) {
                        continue; // the paper's R_T decoding-range rule
                    }
                    let sinr = signal / (self.cfg.noise() + (total - signal).max(0.0));
                    if sinr >= self.cfg.beta() && best.is_none_or(|(bs, _)| sinr > bs) {
                        best = Some((sinr, v));
                    }
                }
                if let Some((_, v)) = best {
                    pairs.push((u, v));
                }
            }
        }
        ReceptionTable::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "sinr-fading"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinrModel;
    use sinr_geometry::{placement, Point};

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    #[test]
    fn zero_severity_matches_deterministic_model() {
        let g = UnitDiskGraph::new(placement::uniform(30, 3.0, 3.0, 2), cfg().r_t());
        let det = SinrModel::new(cfg());
        let fad = FadingSinrModel::new(cfg(), 9, 0.0);
        for tx in [vec![0], vec![1, 5, 9], vec![2, 3, 4, 5, 6]] {
            assert_eq!(det.resolve(&g, &tx), fad.resolve(&g, &tx), "tx={tx:?}");
        }
    }

    #[test]
    fn full_fading_sometimes_drops_a_clear_link() {
        // A lone sender at mid range: deterministic model always delivers;
        // Rayleigh fading must fail occasionally over many slots.
        let g = UnitDiskGraph::new(
            vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0)],
            cfg().r_t(),
        );
        let fad = FadingSinrModel::new(cfg(), 3, 1.0);
        let mut failures = 0;
        let trials = 500;
        for _ in 0..trials {
            if fad.resolve(&g, &[1]).is_empty() {
                failures += 1;
            }
        }
        assert!(failures > 0, "fading never dropped the link");
        assert!(failures < trials, "fading always dropped the link");
    }

    #[test]
    fn severity_increases_loss() {
        let g = UnitDiskGraph::new(
            vec![Point::new(0.0, 0.0), Point::new(0.95, 0.0)],
            cfg().r_t(),
        );
        let loss = |severity: f64| -> usize {
            let fad = FadingSinrModel::new(cfg(), 3, severity);
            (0..400)
                .filter(|_| fad.resolve(&g, &[1]).is_empty())
                .count()
        };
        let low = loss(0.2);
        let high = loss(1.0);
        assert!(
            high > low,
            "severity 1.0 lost {high} <= severity 0.2 lost {low}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let g = UnitDiskGraph::new(placement::uniform(20, 2.5, 2.5, 4), cfg().r_t());
        let run = |seed: u64| -> Vec<usize> {
            let fad = FadingSinrModel::new(cfg(), seed, 0.7);
            (0..50)
                .map(|_| fad.resolve(&g, &[0, 7, 13]).len())
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn invocations_decorrelate_slots() {
        // The same transmitter set must not produce identical outcomes
        // every slot under fading (each invocation draws fresh gains).
        let g = UnitDiskGraph::new(
            vec![Point::new(0.0, 0.0), Point::new(0.97, 0.0)],
            cfg().r_t(),
        );
        let fad = FadingSinrModel::new(cfg(), 11, 1.0);
        let outcomes: Vec<usize> = (0..100).map(|_| fad.resolve(&g, &[1]).len()).collect();
        assert!(outcomes.contains(&0));
        assert!(outcomes.contains(&1));
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn rejects_out_of_range_severity() {
        let _ = FadingSinrModel::new(cfg(), 0, 1.5);
    }
}
