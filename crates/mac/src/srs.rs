//! Single Round Simulation (SRS): executing message-passing algorithms in
//! the SINR model over a TDMA schedule — the machinery behind Corollary 1.
//!
//! Each message-passing *round* is expanded into one TDMA *frame*: in its
//! slot, every node with a pending round-message broadcasts it; after the
//! frame, all nodes advance to the next round together. With a Theorem-3
//! compliant schedule every delivery succeeds, so the simulation is a
//! faithful lock-step execution using `τ · V` slots (`V = O(Δ)` colors ⇒
//! `O(Δτ)` slots, plus the `O(Δ log n)` coloring setup = Corollary 1).

use crate::mp::{GeneralAlgorithm, UniformAlgorithm};
use crate::tdma::TdmaSchedule;
use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};

/// Statistics from an SRS execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrsRun {
    /// Message-passing rounds executed.
    pub rounds: usize,
    /// SINR slots consumed (`rounds × frame_len`).
    pub slots: u64,
    /// Point-to-point deliveries the ideal channel would have made.
    pub deliveries_expected: u64,
    /// Deliveries that actually succeeded under SINR.
    pub deliveries_made: u64,
    /// Radio transmissions spent (one per sender per occupied slot) —
    /// with a per-message bit size this yields the Corollary-1
    /// bandwidth figures (bundled: `O(sΔ log n)` bits each; unicast:
    /// `O(s log n)` bits each).
    pub transmissions: u64,
    /// Whether every node reported done.
    pub all_done: bool,
}

impl SrsRun {
    /// Whether the SINR execution delivered every message the ideal
    /// channel would have — lock-step faithfulness.
    pub fn is_faithful(&self) -> bool {
        self.deliveries_made == self.deliveries_expected
    }
}

/// Simulates a *uniform* algorithm in the SINR model over `schedule`.
///
/// Runs until all nodes are done or `max_rounds` rounds elapse.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`.
pub fn simulate_uniform<A: UniformAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    assert_eq!(nodes.len(), g.len(), "one algorithm instance per node");
    assert_eq!(schedule.len(), g.len(), "schedule must cover every node");
    let model = SinrModel::new(*cfg);
    let mut run = SrsRun {
        rounds: 0,
        slots: 0,
        deliveries_expected: 0,
        deliveries_made: 0,
        transmissions: 0,
        all_done: false,
    };

    for round in 0..max_rounds {
        if nodes.iter().all(|n| n.is_done()) {
            run.all_done = true;
            return run;
        }
        run.rounds = round + 1;
        // Collect this round's broadcasts.
        let outgoing: Vec<Option<A::Msg>> = nodes.iter_mut().map(|n| n.send(round)).collect();
        let mut inboxes: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); g.len()];

        // One TDMA frame: slot t carries the senders colored t.
        for t in 0..schedule.frame_len() {
            run.slots += 1;
            let tx: Vec<NodeId> = schedule
                .transmitters_in(t)
                .into_iter()
                .filter(|&v| outgoing[v].is_some())
                .collect();
            if tx.is_empty() {
                continue;
            }
            run.transmissions += tx.len() as u64;
            for &v in &tx {
                run.deliveries_expected += g.degree(v) as u64;
            }
            let table = model.resolve(g, &tx);
            for (receiver, sender) in table.iter() {
                let msg = outgoing[sender]
                    .as_ref()
                    .expect("scheduled sender has a message")
                    .clone();
                inboxes[receiver].push((sender, msg));
                run.deliveries_made += 1;
            }
        }

        for v in 0..g.len() {
            inboxes[v].sort_unstable_by_key(|&(s, _)| s);
            nodes[v].receive(round, &inboxes[v]);
        }
    }
    run.all_done = nodes.iter().all(|n| n.is_done());
    run
}

/// Simulates a *general* algorithm by bundling all per-neighbor messages
/// of a round into one broadcast (the `O(Δ(log n + τ))`-time,
/// `O(sΔ log n)`-bit variant of Corollary 1); receivers extract the part
/// addressed to them.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, or
/// an algorithm sends to a non-neighbor.
pub fn simulate_general_bundled<A: GeneralAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    assert_eq!(nodes.len(), g.len(), "one algorithm instance per node");
    assert_eq!(schedule.len(), g.len(), "schedule must cover every node");
    let model = SinrModel::new(*cfg);
    let mut run = SrsRun {
        rounds: 0,
        slots: 0,
        deliveries_expected: 0,
        deliveries_made: 0,
        transmissions: 0,
        all_done: false,
    };

    for round in 0..max_rounds {
        if nodes.iter().all(|n| n.is_done()) {
            run.all_done = true;
            return run;
        }
        run.rounds = round + 1;
        // The bundle is the full addressed list; the radio broadcasts it.
        let bundles: Vec<Vec<(NodeId, A::Msg)>> = nodes.iter_mut().map(|n| n.send(round)).collect();
        for (sender, bundle) in bundles.iter().enumerate() {
            for &(to, _) in bundle {
                assert!(
                    g.are_adjacent(sender, to),
                    "node {sender} sent to non-neighbor {to}"
                );
            }
        }
        let mut inboxes: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); g.len()];

        for t in 0..schedule.frame_len() {
            run.slots += 1;
            let tx: Vec<NodeId> = schedule
                .transmitters_in(t)
                .into_iter()
                .filter(|&v| !bundles[v].is_empty())
                .collect();
            if tx.is_empty() {
                continue;
            }
            run.transmissions += tx.len() as u64;
            for &v in &tx {
                run.deliveries_expected += bundles[v].len() as u64;
            }
            let table = model.resolve(g, &tx);
            for (receiver, sender) in table.iter() {
                // The receiver decodes the whole bundle and keeps its part.
                for &(to, ref msg) in &bundles[sender] {
                    if to == receiver {
                        inboxes[receiver].push((sender, msg.clone()));
                        run.deliveries_made += 1;
                    }
                }
            }
        }

        for v in 0..g.len() {
            inboxes[v].sort_unstable_by_key(|&(s, _)| s);
            nodes[v].receive(round, &inboxes[v]);
        }
    }
    run.all_done = nodes.iter().all(|n| n.is_done());
    run
}

/// Simulates a *general* algorithm with per-neighbor *unicast* slots: each
/// round uses as many TDMA frames as the longest pending list (≤ Δ),
/// sending one small addressed message per frame — the `O(Δ²τ)`-time,
/// `O(s log n)`-bit variant of Corollary 1.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, or
/// an algorithm sends to a non-neighbor.
pub fn simulate_general_unicast<A: GeneralAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    assert_eq!(nodes.len(), g.len(), "one algorithm instance per node");
    assert_eq!(schedule.len(), g.len(), "schedule must cover every node");
    let model = SinrModel::new(*cfg);
    let mut run = SrsRun {
        rounds: 0,
        slots: 0,
        deliveries_expected: 0,
        deliveries_made: 0,
        transmissions: 0,
        all_done: false,
    };

    for round in 0..max_rounds {
        if nodes.iter().all(|n| n.is_done()) {
            run.all_done = true;
            return run;
        }
        run.rounds = round + 1;
        let mut pending: Vec<Vec<(NodeId, A::Msg)>> =
            nodes.iter_mut().map(|n| n.send(round)).collect();
        for (sender, list) in pending.iter().enumerate() {
            for &(to, _) in list {
                assert!(
                    g.are_adjacent(sender, to),
                    "node {sender} sent to non-neighbor {to}"
                );
            }
            run.deliveries_expected += list.len() as u64;
        }
        let mut inboxes: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); g.len()];

        // Sub-rounds: one frame per pending message index.
        while pending.iter().any(|l| !l.is_empty()) {
            for t in 0..schedule.frame_len() {
                run.slots += 1;
                let tx: Vec<NodeId> = schedule
                    .transmitters_in(t)
                    .into_iter()
                    .filter(|&v| !pending[v].is_empty())
                    .collect();
                if tx.is_empty() {
                    continue;
                }
                run.transmissions += tx.len() as u64;
                let table = model.resolve(g, &tx);
                for &v in &tx {
                    // The head-of-line message is transmitted and consumed
                    // whether or not it got through (senders have no
                    // feedback channel; Theorem-3 schedules never lose it).
                    let (to, msg) = pending[v].remove(0);
                    if table.heard_by(to).iter().any(|&(_, s)| s == v) {
                        inboxes[to].push((v, msg));
                        run.deliveries_made += 1;
                    }
                }
            }
        }

        for v in 0..g.len() {
            inboxes[v].sort_unstable_by_key(|&(s, _)| s);
            nodes[v].receive(round, &inboxes[v]);
        }
    }
    run.all_done = nodes.iter().all(|n| n.is_done());
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mp::{
        run_general_ideal, run_uniform_ideal, BfsLayers, Convergecast, EchoDegrees, Flooding,
        MaxIdElection,
    };
    use sinr_coloring::distance_d::color_at_distance;
    use sinr_geometry::{placement, Point};
    use sinr_radiosim::WakeupSchedule;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    /// A Theorem-3 compliant schedule for the given points.
    fn guarded_schedule(pts: &[Point]) -> TdmaSchedule {
        let factor = crate::guard::theorem3_distance_factor(&cfg());
        let result = color_at_distance(pts, &cfg(), factor, 11, WakeupSchedule::Synchronous);
        TdmaSchedule::from_colors(result.colors().expect("coloring completed"))
    }

    #[test]
    fn srs_flooding_is_faithful_and_matches_ideal_rounds() {
        let pts = placement::uniform(24, 3.0, 3.0, 8);
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        if !g.is_connected() {
            // The fixed seed gives a connected instance; guard anyway.
            return;
        }
        let schedule = guarded_schedule(&pts);

        let mut ideal: Vec<Flooding> = (0..g.len()).map(|v| Flooding::new(v == 0)).collect();
        let ideal_run = run_uniform_ideal(&g, &mut ideal, 100);

        let mut sinr: Vec<Flooding> = (0..g.len()).map(|v| Flooding::new(v == 0)).collect();
        let run = simulate_uniform(&g, &cfg(), &schedule, &mut sinr, 100);

        assert!(run.all_done);
        assert!(run.is_faithful(), "{run:?}");
        assert_eq!(run.rounds, ideal_run.rounds, "lock-step round count");
        assert_eq!(run.slots, run.rounds as u64 * schedule.frame_len() as u64);
    }

    #[test]
    fn srs_bfs_matches_graph_distances() {
        let pts = placement::uniform(20, 2.5, 2.5, 4);
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        let schedule = guarded_schedule(&pts);
        let mut nodes: Vec<BfsLayers> = (0..g.len()).map(|v| BfsLayers::new(v == 0)).collect();
        let run = simulate_uniform(&g, &cfg(), &schedule, &mut nodes, 100);
        assert!(run.is_faithful());
        let expect = g.bfs_distances(0);
        for v in 0..g.len() {
            if expect[v].is_some() {
                assert_eq!(nodes[v].distance(), expect[v], "node {v}");
            }
        }
    }

    #[test]
    fn srs_election_agrees_on_max_id() {
        let pts: Vec<Point> = (0..12).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect();
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        let schedule = guarded_schedule(&pts);
        let diam = g.diameter().unwrap();
        let mut nodes: Vec<MaxIdElection> = (0..g.len())
            .map(|v| MaxIdElection::new(v, diam + 1))
            .collect();
        let run = simulate_uniform(&g, &cfg(), &schedule, &mut nodes, diam + 2);
        assert!(run.all_done);
        assert!(run.is_faithful());
        assert!(nodes.iter().all(|n| n.leader() == g.len() - 1));
    }

    #[test]
    fn srs_general_bundled_delivers_addressed_messages() {
        let pts = placement::uniform(16, 2.0, 2.0, 9);
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        let schedule = guarded_schedule(&pts);
        let mut nodes: Vec<EchoDegrees> = (0..g.len())
            .map(|v| EchoDegrees::new(v, g.neighbors(v).to_vec()))
            .collect();
        let run = simulate_general_bundled(&g, &cfg(), &schedule, &mut nodes, 10);
        assert!(run.all_done, "{run:?}");
        assert!(run.is_faithful());
        for (v, node) in nodes.iter().enumerate() {
            let expect: Vec<(NodeId, usize)> =
                g.neighbors(v).iter().map(|&u| (u, g.degree(u))).collect();
            assert_eq!(node.received, expect, "node {v}");
        }
    }

    #[test]
    fn srs_general_unicast_matches_bundled_results() {
        let pts = placement::uniform(16, 2.0, 2.0, 9);
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        let schedule = guarded_schedule(&pts);
        let mk = || -> Vec<EchoDegrees> {
            (0..g.len())
                .map(|v| EchoDegrees::new(v, g.neighbors(v).to_vec()))
                .collect()
        };
        let mut a = mk();
        let run_a = simulate_general_bundled(&g, &cfg(), &schedule, &mut a, 10);
        let mut b = mk();
        let run_b = simulate_general_unicast(&g, &cfg(), &schedule, &mut b, 10);
        assert!(run_a.is_faithful() && run_b.is_faithful());
        for v in 0..g.len() {
            assert_eq!(a[v].received, b[v].received, "node {v}");
        }
        // Unicast pays more slots: one frame per pending message index
        // (Δ frames per round) vs one frame per round.
        assert!(run_b.slots >= run_a.slots);
    }

    #[test]
    fn srs_general_simulators_match_the_ideal_convergecast() {
        for seed in [6, 9, 13] {
            let pts = placement::uniform(40, 3.0, 3.0, seed);
            let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
            let schedule = guarded_schedule(&pts);
            let values: Vec<u64> = (0..g.len()).map(|v| v as u64 + 1).collect();
            let mut ideal = Convergecast::build_tree(&g, 0, &values);
            let ideal_run = run_general_ideal(&g, &mut ideal, 100);
            assert!(ideal_run.all_done, "seed {seed}");
            let mut bundled = Convergecast::build_tree(&g, 0, &values);
            let run_b = simulate_general_bundled(&g, &cfg(), &schedule, &mut bundled, 100);
            let mut unicast = Convergecast::build_tree(&g, 0, &values);
            let run_u = simulate_general_unicast(&g, &cfg(), &schedule, &mut unicast, 100);
            for (run, nodes) in [(run_b, &bundled), (run_u, &unicast)] {
                assert!(run.all_done && run.is_faithful(), "seed {seed}: {run:?}");
                assert_eq!(
                    run.rounds, ideal_run.rounds,
                    "seed {seed}: lock-step rounds"
                );
                for v in 0..g.len() {
                    assert_eq!(
                        nodes[v].aggregate(),
                        ideal[v].aggregate(),
                        "seed {seed}, node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn srs_with_improper_schedule_loses_messages() {
        // Everyone in the same slot: massive collisions, flooding stalls
        // far short of full faithfulness.
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.5, 0.0)).collect();
        let g = UnitDiskGraph::new(pts, cfg().r_t());
        let schedule = TdmaSchedule::from_colors(&[0; 10]);
        let mut nodes: Vec<Flooding> = (0..10).map(|v| Flooding::new(v == 0)).collect();
        let run = simulate_uniform(&g, &cfg(), &schedule, &mut nodes, 5);
        assert!(!run.is_faithful());
    }

    #[test]
    fn srs_slot_accounting() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 0.8, 0.0)).collect();
        let g = UnitDiskGraph::new(pts.clone(), cfg().r_t());
        let schedule = guarded_schedule(&pts);
        let mut nodes: Vec<Flooding> = (0..6).map(|v| Flooding::new(v == 0)).collect();
        let run = simulate_uniform(&g, &cfg(), &schedule, &mut nodes, 100);
        assert_eq!(run.slots, run.rounds as u64 * schedule.frame_len() as u64);
        // Corollary 1 shape: slots ≤ frame_len × (ideal rounds).
        let mut ideal: Vec<Flooding> = (0..6).map(|v| Flooding::new(v == 0)).collect();
        let ideal_run = run_uniform_ideal(&g, &mut ideal, 100);
        assert!(run.slots <= (schedule.frame_len() * ideal_run.rounds.max(1)) as u64);
    }
}
