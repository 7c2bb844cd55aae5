//! TDMA frames from colorings, and the SINR broadcast audit.

use crate::mp::UniformAlgorithm;
use crate::srs::simulate_uniform;
use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::SinrConfig;
use std::collections::BTreeMap;

/// A TDMA schedule: each node owns one slot of a repeating frame,
/// derived from its color ("associating each color `c` with a time slot
/// `t_c` where nodes colored `c` can transmit", §V).
///
/// Colors are compacted to a dense `0..frame_len` range (the MW palette is
/// sparse); compaction preserves the "same slot ⇒ same color" property that
/// Theorem 3's proof needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdmaSchedule {
    slot_of: Vec<usize>,
    frame_len: usize,
}

impl TdmaSchedule {
    /// Builds the schedule from a color assignment (`colors[v]` = color of
    /// node `v`).
    ///
    /// # Panics
    ///
    /// Panics if `colors` is empty.
    pub fn from_colors(colors: &[usize]) -> Self {
        assert!(!colors.is_empty(), "cannot schedule zero nodes");
        let mut distinct: Vec<usize> = colors.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let index: BTreeMap<usize, usize> =
            distinct.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let slot_of = colors.iter().map(|c| index[c]).collect();
        TdmaSchedule {
            slot_of,
            frame_len: distinct.len(),
        }
    }

    /// Number of slots per frame (`V`, the number of distinct colors).
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the schedule covers zero nodes (never true for constructed
    /// schedules).
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// The frame slot assigned to node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn slot_of(&self, v: NodeId) -> usize {
        self.slot_of[v]
    }
}

/// Result of driving one full TDMA frame through the SINR model with
/// *every* node transmitting in its slot.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastAudit {
    /// Sender→neighbor links attempted (`Σ_v deg(v)`).
    pub links_attempted: u64,
    /// Links on which the neighbor decoded the sender.
    pub links_delivered: u64,
    /// Nodes whose broadcast reached *all* neighbors (the paper's
    /// "successful transmission").
    pub full_broadcasts: usize,
    /// Total nodes with at least one neighbor.
    pub broadcasters: usize,
}

impl BroadcastAudit {
    /// Fraction of links delivered (1.0 when nothing was attempted).
    pub fn link_success_rate(&self) -> f64 {
        if self.links_attempted == 0 {
            1.0
        } else {
            self.links_delivered as f64 / self.links_attempted as f64
        }
    }

    /// Whether every node's broadcast reached every neighbor — the
    /// Theorem-3 guarantee.
    pub fn is_interference_free(&self) -> bool {
        self.links_delivered == self.links_attempted
    }

    /// Exports the audit as Theorem-3 probe metrics (`probe.thm3.*`): the
    /// audited link count, failed links as violations, and the link
    /// success rate — same violations-as-metrics discipline as the MW
    /// probes.
    pub fn export_into(&self, rec: &mut dyn sinr_obs::Recorder) {
        use sinr_obs::keys;
        rec.counter_add(keys::PROBE_THM3_LINKS, self.links_attempted);
        rec.counter_add(
            keys::PROBE_THM3_VIOLATIONS,
            self.links_attempted - self.links_delivered,
        );
        rec.gauge_set(keys::PROBE_THM3_LINK_SUCCESS_RATE, self.link_success_rate());
    }
}

/// Runs one TDMA frame under the SINR model: in slot `t` all nodes with
/// that slot transmit simultaneously; counts which neighbors decode them.
/// The frame is one SRS round of a beacon that every node sends.
///
/// Theorem 3: if the schedule came from a `(d+1, V)`-coloring with
/// `d = (32·(α−1)/(α−2)·β)^{1/α}`, the audit reports 100% delivery.
///
/// # Panics
///
/// Panics if the schedule does not cover exactly the nodes of `g`, or the
/// graph radius does not match `cfg.r_t()`.
pub fn broadcast_audit(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
) -> BroadcastAudit {
    let mut beacons: Vec<Beacon> = (0..g.len()).map(|_| Beacon(Vec::new())).collect();
    let run = simulate_uniform(g, cfg, schedule, &mut beacons, 1);
    let mut heard = vec![0; g.len()];
    for &sender in beacons.iter().flat_map(|b| &b.0) {
        heard[sender] += 1;
    }
    let broadcasters = (0..g.len()).filter(|&v| g.degree(v) > 0);
    let full = broadcasters.clone().filter(|&v| heard[v] == g.degree(v));
    BroadcastAudit {
        links_attempted: run.deliveries_expected,
        links_delivered: run.deliveries_made,
        full_broadcasts: full.count(),
        broadcasters: broadcasters.count(),
    }
}

/// Beacons in every round and records whom it heard.
struct Beacon(Vec<NodeId>);

impl UniformAlgorithm for Beacon {
    type Msg = ();

    fn send(&mut self, _round: usize) -> Option<()> {
        Some(())
    }

    fn receive(&mut self, _round: usize, msgs: &[(NodeId, ())]) {
        self.0.extend(msgs.iter().map(|&(sender, ())| sender));
    }

    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::{placement, Point};
    use sinr_model::InterferenceModel;

    #[test]
    fn compaction_preserves_classes() {
        let s = TdmaSchedule::from_colors(&[0, 52, 0, 104, 52]);
        assert_eq!(s.frame_len(), 3);
        assert_eq!(s.slot_of(0), s.slot_of(2));
        assert_eq!(s.slot_of(1), s.slot_of(4));
        assert_ne!(s.slot_of(0), s.slot_of(3));
        let slots: Vec<usize> = (0..5).map(|v| s.slot_of(v)).collect();
        assert_eq!(slots, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn compaction_keeps_color_order() {
        let s = TdmaSchedule::from_colors(&[7, 3, 9]);
        assert_eq!(s.slot_of(1), 0); // color 3 -> slot 0
        assert_eq!(s.slot_of(0), 1);
        assert_eq!(s.slot_of(2), 2);
    }

    #[test]
    fn lone_pair_schedule_is_clean() {
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)], cfg.r_t());
        let s = TdmaSchedule::from_colors(&[0, 1]);
        let audit = broadcast_audit(&g, &cfg, &s);
        assert!(audit.is_interference_free());
        assert_eq!(audit.links_attempted, 2);
        assert_eq!(audit.full_broadcasts, 2);
    }

    #[test]
    fn same_slot_neighbors_collide() {
        let cfg = SinrConfig::default_unit();
        // Receiver node 1 sits between two same-slot transmitters: the
        // strongest-signal tie gives SINR ~1 < beta, nothing decodes.
        let g = UnitDiskGraph::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.9, 0.0),
                Point::new(1.8, 0.0),
            ],
            cfg.r_t(),
        );
        // Improper "coloring": ends share a slot.
        let s = TdmaSchedule::from_colors(&[0, 1, 0]);
        let audit = broadcast_audit(&g, &cfg, &s);
        assert!(!audit.is_interference_free());
        assert!(audit.link_success_rate() < 1.0);
    }

    #[test]
    fn distance2_coloring_is_not_enough_under_sinr() {
        // The §V observation: "under the SINR additive constraints such a
        // [distance-2] coloring does not allow us to avoid interferences."
        // Construction: a sender with a receiver near the edge of its
        // range, plus six same-color transmitters on a ring of radius 2.05
        // around the sender — pairwise distances all exceed 2·R_T, so the
        // coloring is distance-2 proper, yet the additive interference at
        // the receiver breaks the link.
        let cfg = SinrConfig::default_unit(); // R_T = 1
        let mut pts = vec![Point::new(0.0, 0.0), Point::new(0.98, 0.0)];
        for k in 0..6 {
            let theta = (30.0 + 60.0 * k as f64).to_radians();
            pts.push(Point::new(2.05 * theta.cos(), 2.05 * theta.sin()));
        }
        // Color 0 = sender + ring (all pairwise > 2·R_T apart); receiver 1.
        let colors = vec![0, 1, 0, 0, 0, 0, 0, 0];
        assert!(sinr_coloring::verify::is_distance_coloring(
            &pts,
            &colors,
            2.0 * cfg.r_t()
        ));
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        assert!(g.are_adjacent(0, 1), "receiver must be in range of sender");
        let audit = broadcast_audit(&g, &cfg, &TdmaSchedule::from_colors(&colors));
        assert!(
            !audit.is_interference_free(),
            "distance-2 TDMA unexpectedly survived SINR: {audit:?}"
        );
        // Sanity: in the *graph-based* model the ring is invisible to the
        // receiver (not neighbors), so the same slot assignment would work —
        // this is precisely the gap between the two models.
        let table = sinr_model::GraphModel::new().resolve(&g, &[0, 2, 3, 4, 5, 6, 7]);
        assert_eq!(table.unique_sender(1), Some(0));
    }

    #[test]
    fn audit_counts_links_exactly() {
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(placement::uniform(25, 4.0, 4.0, 2), cfg.r_t());
        // Rainbow schedule: every node alone in its slot -> no interference.
        let colors: Vec<usize> = (0..25).collect();
        let audit = broadcast_audit(&g, &cfg, &TdmaSchedule::from_colors(&colors));
        let total_links: u64 = (0..25).map(|v| g.degree(v) as u64).sum();
        assert_eq!(audit.links_attempted, total_links);
        assert!(audit.is_interference_free());
        assert_eq!(
            audit.broadcasters,
            (0..25).filter(|&v| g.degree(v) > 0).count()
        );
    }

    #[test]
    fn audit_exports_thm3_probe_metrics() {
        let audit = BroadcastAudit {
            links_attempted: 10,
            links_delivered: 8,
            full_broadcasts: 3,
            broadcasters: 5,
        };
        let mut rec = sinr_obs::FullRecorder::new();
        audit.export_into(&mut rec);
        let reg = rec.registry();
        assert_eq!(reg.counter("probe.thm3.links"), Some(10));
        assert_eq!(reg.counter("probe.thm3.violations"), Some(2));
        let rate = reg.gauge("probe.thm3.link_success_rate").unwrap();
        assert!((rate - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not match R_T")]
    fn audit_rejects_a_graph_built_at_another_radius() {
        // The links of a graph built at 2·R_T are longer than any SINR
        // reception reaches: audited, they would read as lost.
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(placement::uniform(40, 4.0, 4.0, 2), 2.0 * cfg.r_t());
        let colors: Vec<usize> = (0..40).collect();
        let _ = broadcast_audit(&g, &cfg, &TdmaSchedule::from_colors(&colors));
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn mismatched_schedule_panics() {
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(vec![Point::ORIGIN], cfg.r_t());
        let s = TdmaSchedule::from_colors(&[0, 1]);
        let _ = broadcast_audit(&g, &cfg, &s);
    }
}
