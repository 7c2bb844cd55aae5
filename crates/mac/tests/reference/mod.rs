//! The slot loops that ran the MAC before it moved onto the slot engine,
//! kept only as a test oracle for it — the way the reference stepper in
//! `crates/radiosim/tests/reference/` is the oracle for the engine.
//!
//! Each loop picks a slot's transmitters off the schedule, resolves them
//! through `InterferenceModel::resolve` and fills the inboxes itself.
//! They are the library's loops as they were, except that a slot's
//! transmitters are read off `slot_of`. The unicast loop runs a round's
//! frames only while some message is pending, so its slot counts differ
//! from the library's, which spends `max(Δ, 1)` frames on every round;
//! every other figure must agree.

use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_mac::mp::{GeneralAlgorithm, UniformAlgorithm};
use sinr_mac::{BroadcastAudit, SrsRun, TdmaSchedule};
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};

/// Reference for `simulate_uniform`.
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
            let tx: Vec<NodeId> = (0..schedule.len())
                .filter(|&v| schedule.slot_of(v) == t)
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

/// Reference for `simulate_general_bundled`.
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
            let tx: Vec<NodeId> = (0..schedule.len())
                .filter(|&v| schedule.slot_of(v) == t)
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

/// Reference for `simulate_general_unicast`, as it ran before every
/// round got `max(Δ, 1)` frames.
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
                let tx: Vec<NodeId> = (0..schedule.len())
                    .filter(|&v| schedule.slot_of(v) == t)
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

/// Reference for `broadcast_audit`.
pub fn broadcast_audit(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
) -> BroadcastAudit {
    assert_eq!(schedule.len(), g.len(), "schedule must cover every node");
    let model = SinrModel::new(*cfg);
    let mut links_attempted = 0u64;
    let mut links_delivered = 0u64;
    let mut full_broadcasts = 0usize;
    let mut broadcasters = 0usize;

    for t in 0..schedule.frame_len() {
        let tx: Vec<NodeId> = (0..schedule.len())
            .filter(|&v| schedule.slot_of(v) == t)
            .collect();
        if tx.is_empty() {
            continue;
        }
        let table = model.resolve(g, &tx);
        for &v in &tx {
            let degree = g.degree(v) as u64;
            if degree == 0 {
                continue;
            }
            broadcasters += 1;
            links_attempted += degree;
            let delivered = g
                .neighbors(v)
                .iter()
                .filter(|&&u| table.heard_by(u).iter().any(|&(_, s)| s == v))
                .count() as u64;
            links_delivered += delivered;
            if delivered == degree {
                full_broadcasts += 1;
            }
        }
    }
    BroadcastAudit {
        links_attempted,
        links_delivered,
        full_broadcasts,
        broadcasters,
    }
}
