//! Property-based tests for the simulation engine's invariants.

use proptest::prelude::*;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::{GraphModel, IdealModel, SinrConfig, SinrModel};
use sinr_obs::ObsEvent;
use sinr_radiosim::{Action, NodeCtx, Protocol, Simulator, SlotRng, WakeupSchedule};

mod reference;
use reference::ReferenceSim;

/// A protocol that transmits with a per-node probability and records
/// everything it hears.
#[derive(Debug, Clone)]
struct Chatter {
    p: f64,
    rounds: u64,
    acted: u64,
    heard: Vec<(u64, NodeId)>,
}

impl Protocol for Chatter {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.acted += 1;
        if rng.chance(self.p) {
            Action::Transmit(ctx.global_slot)
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        for &(s, slot_stamp) in received {
            // Messages carry the slot they were sent in; delivery must be
            // same-slot.
            assert_eq!(slot_stamp, ctx.global_slot);
            self.heard.push((ctx.global_slot, s));
        }
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..4.0f64, 0.0..4.0f64).prop_map(|(x, y)| Point::new(x, y)),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_invariants_hold_for_random_runs(
        pts in arb_points(),
        seed in 0u64..500,
        p in 0.05..0.9f64,
        model_pick in 0usize..3,
        window in 1u64..30,
    ) {
        let cfg = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let n = graph.len();
        let rounds = 25u64;
        let mk = |_: NodeId| Chatter { p, rounds, acted: 0, heard: Vec::new() };
        let schedule = WakeupSchedule::UniformRandom { window };

        let run_once = || {
            let mut sim: Simulator<Chatter, Box<dyn sinr_model::InterferenceModel>> =
                Simulator::new(
                    graph.clone(),
                    match model_pick {
                        0 => Box::new(SinrModel::new(cfg)),
                        1 => Box::new(GraphModel::new()),
                        _ => Box::new(IdealModel::new()),
                    },
                    schedule,
                    seed,
                    mk,
                );
            let outcome = sim.run(10_000);
            (outcome, sim)
        };

        let (outcome, sim) = run_once();
        prop_assert!(outcome.all_done);
        let stats = sim.stats();

        // 1. Activity partition: every awake slot is tx or listen.
        for v in 0..n {
            let awake = outcome.slots.saturating_sub(stats.wake_slot[v]);
            prop_assert_eq!(stats.tx_slots[v] + stats.listen_slots[v], awake);
        }
        // 2. Aggregates match per-node counters.
        prop_assert_eq!(stats.transmissions, stats.tx_slots.iter().sum::<u64>());
        // 3. Channel-load histogram covers every slot exactly once.
        prop_assert_eq!(stats.concurrent_tx().iter().sum::<u64>(), outcome.slots);
        // 4. Receptions only from adjacent senders, never self.
        for v in 0..n {
            for &(_, s) in &sim.node(v).heard {
                prop_assert!(s != v);
                prop_assert!(graph.are_adjacent(v, s));
            }
        }
        // 5. Total receptions match.
        let total_heard: usize = (0..n).map(|v| sim.node(v).heard.len()).sum();
        prop_assert_eq!(stats.receptions, total_heard as u64);

        // 6. Determinism: a second run is identical.
        let (outcome2, sim2) = run_once();
        prop_assert_eq!(outcome, outcome2);
        prop_assert_eq!(stats, sim2.stats());
        for v in 0..n {
            prop_assert_eq!(&sim.node(v).heard, &sim2.node(v).heard);
        }
    }

    /// Engine-vs-oracle differential: the engine reads activity and done
    /// bits from its packed `NodeFlags` column and skips idle nodes, while
    /// the reference stepper queries the protocol live and never skips.
    /// Both must produce identical outcomes, stats, and inbox histories,
    /// with and without a recorder attached, and the recorded run must
    /// emit exactly the oracle's events. Some masks make nodes done at
    /// construction, which the engine accounts in slot 0.
    #[test]
    fn fused_flag_column_matches_phased_live_queries(
        pts in arb_points(),
        seed in 0u64..500,
        p in 0.05..0.9f64,
        rounds in 1u64..20,
        born_done in (any::<bool>(), 0u64..1 << 20)
            .prop_map(|(on, mask)| if on { mask } else { 0 }),
    ) {
        let cfg = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let n = graph.len();
        let schedule = WakeupSchedule::UniformRandom { window: 10 };
        let mk = |v: NodeId| Quieting {
            p,
            rounds,
            born_done: born_done >> v & 1 == 1,
            acted: 0,
            heard: Vec::new(),
        };
        let mk_sim = || Simulator::new(graph.clone(), SinrModel::new(cfg), schedule, seed, mk);

        let mut oracle = ReferenceSim::new(graph.clone(), SinrModel::new(cfg), schedule, seed, mk);
        let oracle_out = oracle.run(5_000);
        prop_assert!(oracle_out.all_done);

        let mut plain = mk_sim();
        let plain_out = plain.run(5_000);

        let mut recorded = mk_sim();
        let mut rec = sinr_obs::FullRecorder::with_ring_capacity(1 << 16);
        let recorded_out = recorded.run_recorded(5_000, &mut rec, |_, _, _| {});

        prop_assert_eq!(plain_out, oracle_out);
        prop_assert_eq!(recorded_out, oracle_out);
        prop_assert_eq!(plain.stats(), oracle.stats());
        prop_assert_eq!(recorded.stats(), oracle.stats());
        for v in 0..n {
            prop_assert_eq!(&plain.node(v).heard, &oracle.node(v).heard);
            prop_assert_eq!(&recorded.node(v).heard, &oracle.node(v).heard);
        }
        prop_assert_eq!(rec.events_dropped(), 0);
        let events: Vec<(u64, ObsEvent)> = rec.events().copied().collect();
        prop_assert_eq!(&events[..], oracle.events());
    }
}

/// Like [`Chatter`], but deactivates for good once it has acted `rounds`
/// times: its terminal state is silent, so the activity gates (live
/// `is_active()` in the reference stepper, the cached ACTIVE flag bit in
/// the engine) actually discriminate between nodes mid-run. A
/// `born_done` node is done at construction but still acts `rounds`
/// times.
#[derive(Debug, Clone)]
struct Quieting {
    p: f64,
    rounds: u64,
    born_done: bool,
    acted: u64,
    heard: Vec<(u64, NodeId)>,
}

impl Protocol for Quieting {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.acted += 1;
        if rng.chance(self.p) {
            Action::Transmit(ctx.global_slot)
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        for &(s, slot_stamp) in received {
            assert_eq!(slot_stamp, ctx.global_slot);
            self.heard.push((ctx.global_slot, s));
        }
    }
    fn is_done(&self) -> bool {
        self.born_done || self.acted >= self.rounds
    }
    fn is_active(&self) -> bool {
        self.acted < self.rounds
    }
    fn empty_end_slot_is_noop(&self) -> bool {
        // `end_slot` only appends receptions, so an empty inbox really is
        // a no-op in every state — this opts the differential test into
        // the engine's idle-skip path, which the reference stepper never
        // takes.
        true
    }
}

/// Counts `end_slot` calls and flips its idle report mid-run, so the
/// engine's skip decision is directly observable: with nothing ever
/// transmitted, the callback must run exactly while the protocol reports
/// it as meaningful — and in the reference stepper, every slot.
#[derive(Debug)]
struct IdleAware {
    rounds: u64,
    acted: u64,
    end_calls: u64,
}

impl Protocol for IdleAware {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, _ctx: &NodeCtx, _rng: &mut R) -> Action<u64> {
        self.acted += 1;
        Action::Listen
    }
    fn end_slot(&mut self, _ctx: &NodeCtx, _received: &[(NodeId, u64)]) {
        self.end_calls += 1;
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
    fn empty_end_slot_is_noop(&self) -> bool {
        self.acted > 4
    }
}

#[test]
fn idle_skip_elides_exactly_the_reported_noops() {
    let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let mk = |_: NodeId| IdleAware {
        rounds: 20,
        acted: 0,
        end_calls: 0,
    };
    let mk_sim = || {
        Simulator::new(
            graph.clone(),
            IdealModel::new(),
            WakeupSchedule::Synchronous,
            9,
            mk,
        )
    };

    // `end_slot` runs only while the idle report is false — the action
    // pass refreshes the cached bit after `begin_slot`, so the flip after
    // the 5th action (acted > 4) takes effect the same slot. A recorder
    // rides the same passes, so it sees the same 4 calls.
    let mut plain = mk_sim();
    let plain_out = plain.run(100);
    assert!(plain_out.all_done);
    assert_eq!(plain_out.slots, 20);
    let mut recorded = mk_sim();
    let mut rec = sinr_obs::FullRecorder::new();
    let recorded_out = recorded.run_recorded(100, &mut rec, |_, _, _| {});
    assert_eq!(recorded_out, plain_out);
    for v in 0..graph.len() {
        assert_eq!(plain.node(v).end_calls, 4, "node {v}");
        assert_eq!(recorded.node(v).end_calls, 4, "node {v}, recorded");
    }

    // The reference stepper calls `end_slot` every slot, idle report or
    // not: same outcome, full call count.
    let mut oracle = ReferenceSim::new(
        graph.clone(),
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        9,
        mk,
    );
    assert_eq!(oracle.run(100), plain_out);
    assert_eq!(oracle.stats(), plain.stats());
    for v in 0..graph.len() {
        assert_eq!(oracle.node(v).end_calls, 20, "node {v}");
    }
}

/// Even ids are done at construction (their output is fixed before the
/// run starts); odd ids transmit once in their first awake slot and then
/// decide. Every node keeps listening and records what it hears.
#[derive(Debug)]
struct BornDone {
    born_done: bool,
    fired: bool,
    heard: Vec<(u64, NodeId)>,
}

impl BornDone {
    fn new(born_done: bool) -> Self {
        BornDone {
            born_done,
            fired: false,
            heard: Vec::new(),
        }
    }
}

impl Protocol for BornDone {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, _rng: &mut R) -> Action<u64> {
        if self.born_done || self.fired {
            Action::Listen
        } else {
            self.fired = true;
            Action::Transmit(ctx.global_slot)
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        self.heard
            .extend(received.iter().map(|&(s, _)| (ctx.global_slot, s)));
    }
    fn is_done(&self) -> bool {
        self.born_done || self.fired
    }
}

#[test]
fn nodes_done_at_construction_are_reported_in_slot_zero() {
    // Eight nodes on a line, 0.4 apart: each hears its two nearest
    // neighbours on either side. The wake window puts some even nodes to
    // sleep through slot 0 while an odd node and an even listener next to
    // it are awake, so slot 0 has receptions.
    let pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 0.4, 0.0)).collect();
    let graph = UnitDiskGraph::new(pts, 1.0);
    let n = graph.len();
    let schedule = WakeupSchedule::UniformRandom { window: 3 };
    let seed = 4;
    let wake = schedule.wake_slots(n, seed);
    assert!(
        (0..n).any(|v| v.is_multiple_of(2) && wake[v] > 0),
        "an even node sleeps through slot 0: {wake:?}"
    );
    let mk = |v: NodeId| BornDone::new(v.is_multiple_of(2));
    let mk_sim = || Simulator::new(graph.clone(), IdealModel::new(), schedule, seed, mk);

    let mut plain = mk_sim();
    let mut done_per_slot = Vec::new();
    let out = plain.run_observed(100, |_, view| done_per_slot.push(view.newly_done.to_vec()));
    assert!(out.all_done);
    let mut oracle = ReferenceSim::new(graph.clone(), IdealModel::new(), schedule, seed, mk);
    let oracle_done: Vec<Vec<NodeId>> = (0..out.slots).map(|_| oracle.step()).collect();
    assert_eq!(done_per_slot, oracle_done);
    assert_eq!(plain.stats(), oracle.stats());
    let slot0_done = &done_per_slot[0];
    for v in (0..n).step_by(2) {
        assert_eq!(plain.stats().done_slot[v], Some(0), "node {v}");
        assert!(slot0_done.contains(&v), "node {v} in slot 0's newly_done");
    }
    assert!(
        slot0_done.windows(2).all(|w| w[0] < w[1]),
        "slot 0's newly_done is ascending: {slot0_done:?}"
    );

    let mut recorded = mk_sim();
    let mut rec = sinr_obs::FullRecorder::new();
    let rec_out = recorded.run_recorded(100, &mut rec, |_, _, _| {});
    assert_eq!(rec_out, out);
    assert_eq!(recorded.stats(), plain.stats());
    let slot0: Vec<&ObsEvent> = rec
        .events()
        .filter(|(s, _)| *s == 0)
        .map(|(_, e)| e)
        .collect();
    let last_rx = slot0
        .iter()
        .rposition(|e| matches!(e, ObsEvent::Receive { .. }))
        .expect("slot 0 has receptions");
    for v in (0..n).step_by(2) {
        let at = slot0
            .iter()
            .position(|e| **e == ObsEvent::Done { node: v })
            .unwrap_or_else(|| panic!("node {v} has a Done event in slot 0"));
        assert!(at > last_rx, "node {v}: Done after slot 0's receptions");
    }

    // With every node done at construction, `run` still executes slot 0
    // before it sees that the run is over.
    let mut all = Simulator::new(graph.clone(), IdealModel::new(), schedule, seed, |_| {
        BornDone::new(true)
    });
    let all_out = all.run(100);
    assert!(all_out.all_done);
    assert_eq!(all_out.slots, 1);
    assert!(all.stats().done_slot.iter().all(|&d| d == Some(0)));
}
