//! A reference resolver: the naive SINR model written as plain per-slot
//! loops, kept only as a test oracle for the shipped model — the way
//! the reference stepper in `crates/radiosim/tests/reference/` is the
//! oracle for the slot engine.
//!
//! Every slot it allocates a fresh transmitter bitmap, candidate marks,
//! candidate list and pair list, and tests adjacency by binary-searching
//! the graph's adjacency list. It shares no code with the exact kernel
//! that `SinrModel` runs, with or without its grid, so a fault in that kernel's
//! discovery, scratch reset, interference sum or adjacency test shows up
//! as a table that differs from this one.

use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::interference::{received_power, sinr_from_total};
use sinr_model::{InterferenceModel, ReceptionTable, SinrConfig};

/// The oracle: receiver `u` decodes sender `v` iff `δ(u, v) ≤ R_T` and the
/// SINR against *all* simultaneous transmitters plus ambient noise is at
/// least `β`; the strongest qualifying sender is delivered.
#[derive(Debug, Clone)]
pub struct ReferenceSinrModel {
    cfg: SinrConfig,
}

impl ReferenceSinrModel {
    /// Creates the oracle.
    pub fn new(cfg: SinrConfig) -> Self {
        ReferenceSinrModel { cfg }
    }

    /// Decodes one candidate receiver `u`: the strongest sender within
    /// `R_T` whose SINR against the whole transmitter set clears `β`.
    fn decode_at(&self, g: &UnitDiskGraph, transmitting: &[NodeId], u: NodeId) -> Option<NodeId> {
        let positions = g.positions();
        // Total received power at u from every transmitter.
        let total: f64 = transmitting
            .iter()
            .map(|&w| {
                received_power(
                    self.cfg.power(),
                    positions[u].distance(positions[w]),
                    self.cfg.alpha(),
                )
            })
            .sum();
        // Best decodable sender among transmitters within R_T.
        let mut best: Option<(f64, NodeId)> = None;
        for &v in transmitting {
            if g.are_adjacent(u, v) {
                let s = sinr_from_total(&self.cfg, positions[u], positions[v], total);
                if s >= self.cfg.beta() && best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, v));
                }
            }
        }
        best.map(|(_, v)| v)
    }
}

impl InterferenceModel for ReferenceSinrModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        debug_assert!(
            (g.radius() - self.cfg.r_t()).abs() < 1e-9 * self.cfg.r_t().max(1.0),
            "graph radius {} does not match configured R_T {}",
            g.radius(),
            self.cfg.r_t()
        );
        let mut is_tx = vec![false; g.len()];
        for &t in transmitting {
            debug_assert!(!is_tx[t], "node {t} transmits twice in one slot");
            is_tx[t] = true;
        }

        // Candidate receivers: non-transmitting neighbors of any transmitter,
        // in discovery order (per transmitter, then per neighbor).
        let mut candidates = Vec::new();
        let mut candidate_mark = vec![false; g.len()];
        for &t in transmitting {
            for &u in g.neighbors(t) {
                if !is_tx[u] && !candidate_mark[u] {
                    candidate_mark[u] = true;
                    candidates.push(u);
                }
            }
        }

        let pairs = candidates
            .iter()
            .filter_map(|&u| self.decode_at(g, transmitting, u).map(|v| (u, v)))
            .collect();
        ReceptionTable::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "sinr-reference"
    }
}
