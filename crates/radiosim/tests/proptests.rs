//! Property-based tests for the simulation engine's invariants.

use proptest::prelude::*;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::{GraphModel, IdealModel, SinrConfig, SinrModel};
use sinr_obs::ObsEvent;
use sinr_radiosim::{Action, NodeCtx, Protocol, Quiet, Simulator, SlotRng, WakeupSchedule};

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
    /// bits from its packed `NodeFlags` column and parks nodes on their
    /// [`Quiet`] promises, while the reference stepper queries the
    /// protocol live, runs every callback every slot and never parks.
    /// Both must produce identical outcomes, stats, node states and inbox
    /// histories, with and without a recorder attached, and the recorded
    /// run must emit exactly the oracle's events. A third engine runs the
    /// same slots in segments of random length, so parked nodes are
    /// caught up between calls and then stay parked. Some masks make
    /// nodes done at construction, which the engine accounts in slot 0;
    /// others make nodes send only noise, which every receiver ignores.
    #[test]
    fn parked_engine_matches_the_reference_stepper(
        pts in arb_points(),
        seed in 0u64..500,
        coins in (0.05..0.9f64, 0usize..4, 0.05..0.9f64).prop_map(|(p, kind, q)| {
            [p, [0.0, 1.0, q, p][kind]]
        }),
        (rounds, done_at) in (1u64..60).prop_flat_map(|r| (Just(r), 1..r + 1)),
        masks in (any::<bool>(), 0u64..1 << 20, 0u64..1 << 20)
            .prop_map(|(on, born, noisy)| (if on { born } else { 0 }, noisy)),
    ) {
        let (born_done, noisy) = masks;
        let cfg = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let n = graph.len();
        let schedule = WakeupSchedule::UniformRandom { window: 10 };
        let mk = |v: NodeId| {
            Promiser::new(coins, rounds, done_at, born_done >> v & 1 == 1, noisy >> v & 1 == 1)
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

        let mut segmented = mk_sim();
        let mut slots = 0;
        while !segmented.all_done() {
            slots += segmented.run(1 + seed % 7).slots;
        }

        prop_assert_eq!(plain_out, oracle_out);
        prop_assert_eq!(recorded_out, oracle_out);
        prop_assert_eq!(slots, oracle_out.slots);
        for sim in [&plain, &recorded, &segmented] {
            prop_assert_eq!(sim.stats(), oracle.stats());
            for v in 0..n {
                prop_assert_eq!(sim.node(v).state(), oracle.node(v).state(), "node {}", v);
            }
        }
        prop_assert_eq!(rec.events_dropped(), 0);
        let events: Vec<(u64, ObsEvent)> = rec.events().copied().collect();
        prop_assert_eq!(&events[..], oracle.events());
    }
}

/// A protocol with deadlines, two coins and noise: it alternates between
/// two phases with their own send probabilities, each lasting a random
/// number of slots drawn in its last slot, which is therefore not quiet.
/// A node marked `noisy` sends only noise, which `end_slot` ignores; any
/// other reception is recorded and extends the current phase, and one
/// stamped with a multiple of 3 also switches the phase. The node is done
/// once it has acted `done_at` times and goes silent at `rounds`.
#[derive(Debug, Clone)]
struct Promiser {
    coins: [f64; 2],
    phase: usize,
    /// Slots left in the current phase, its last slot included.
    left: u64,
    rounds: u64,
    done_at: u64,
    born_done: bool,
    noisy: bool,
    acted: u64,
    heard: Vec<(u64, NodeId)>,
    begin_calls: u64,
    end_calls: u64,
}

/// A slot stamp and whether the message is noise.
type Stamped = (u64, bool);

impl Promiser {
    fn new(coins: [f64; 2], rounds: u64, done_at: u64, born_done: bool, noisy: bool) -> Self {
        Promiser {
            coins,
            phase: 0,
            left: 3,
            rounds,
            done_at,
            born_done,
            noisy,
            acted: 0,
            heard: Vec::new(),
            begin_calls: 0,
            end_calls: 0,
        }
    }

    /// Everything but the callback counts, which parking changes.
    fn state(&self) -> (usize, u64, u64, &[(u64, NodeId)]) {
        (self.phase, self.left, self.acted, &self.heard)
    }
}

impl Protocol for Promiser {
    type Message = Stamped;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<Stamped> {
        self.begin_calls += 1;
        self.acted += 1;
        self.left -= 1;
        if self.left == 0 {
            self.phase ^= 1;
            self.left = 1 + rng.pick(12);
        }
        if rng.chance(self.coins[self.phase]) {
            Action::Transmit((ctx.global_slot, self.noisy))
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, Stamped)]) {
        self.end_calls += 1;
        for &(s, (stamp, noise)) in received {
            assert_eq!(stamp, ctx.global_slot);
            if noise {
                continue;
            }
            self.heard.push((ctx.global_slot, s));
            self.left += 2;
            if stamp % 3 == 0 {
                self.phase ^= 1;
            }
        }
    }
    fn is_done(&self) -> bool {
        self.born_done || self.acted >= self.done_at
    }
    fn is_active(&self) -> bool {
        self.acted < self.rounds
    }
    fn quiet(&self) -> Option<Quiet> {
        // Quiet up to the phase's last slot, and before the slots that
        // make the node done or silent.
        let mut slots = (self.left - 1).min(self.rounds - self.acted - 1);
        if self.acted < self.done_at {
            slots = slots.min(self.done_at - self.acted - 1);
        }
        Some(Quiet {
            coin: self.coins[self.phase],
            slots,
        })
    }
    fn heeds(&self, _sender: NodeId, msg: &Stamped) -> bool {
        !msg.1
    }
    fn skip_quiet(&mut self, slots: u64) {
        self.acted += slots;
        self.left -= slots;
    }
}

/// Listens with coin 0 and promises the next `every − 1` slots quiet after
/// each callback, up to the slot that makes it done and silent; a node
/// with `every == 0` promises nothing.
#[derive(Debug)]
struct Ticker {
    every: u64,
    rounds: u64,
    acted: u64,
    begin_calls: u64,
    end_calls: u64,
}

impl Protocol for Ticker {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, _ctx: &NodeCtx, _rng: &mut R) -> Action<u64> {
        self.begin_calls += 1;
        self.acted += 1;
        Action::Listen
    }
    fn end_slot(&mut self, _ctx: &NodeCtx, _received: &[(NodeId, u64)]) {
        self.end_calls += 1;
    }
    fn is_done(&self) -> bool {
        self.acted >= self.rounds
    }
    fn is_active(&self) -> bool {
        self.acted < self.rounds
    }
    fn quiet(&self) -> Option<Quiet> {
        (self.every > 0).then(|| Quiet {
            coin: 0.0,
            slots: (self.every - 1).min(self.rounds - self.acted - 1),
        })
    }
    fn skip_quiet(&mut self, slots: u64) {
        self.acted += slots;
    }
}

#[test]
fn parking_makes_exactly_the_promised_calls() {
    // Ten isolated nodes: nothing is ever received, so only the promises
    // decide which slots the engine visits.
    let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let mk = |v: NodeId| Ticker {
        every: v as u64 % 5,
        rounds: 20,
        acted: 0,
        begin_calls: 0,
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
    // Visits at slot 0, then every `every` slots, then slot 19, where
    // the 20th action makes the node done and silent: with `every = 4`
    // that is slots 0, 4, 8, 12, 16 and 19. Without a promise, or with
    // `every = 1`, every slot. A node that goes silent in `begin_slot`
    // gets no `end_slot`, so each node has one `end_slot` call fewer.
    let expected = |every: u64| match every {
        0 | 1 => 20,
        e => 1 + 18 / e + 1,
    };

    let mut plain = mk_sim();
    let plain_out = plain.run(100);
    assert!(plain_out.all_done);
    assert_eq!(plain_out.slots, 20);
    let mut recorded = mk_sim();
    let mut rec = sinr_obs::FullRecorder::new();
    let recorded_out = recorded.run_recorded(100, &mut rec, |_, _, _| {});
    assert_eq!(recorded_out, plain_out);
    for sim in [&plain, &recorded] {
        assert_eq!(sim.stats(), recorded.stats());
        for v in 0..graph.len() {
            let node = sim.node(v);
            assert_eq!(node.acted, 20, "node {v}: quiet slots are applied");
            assert_eq!(node.begin_calls, expected(node.every), "node {v}");
            assert_eq!(node.end_calls, node.begin_calls - 1, "node {v}");
        }
    }

    // The reference stepper runs every callback every slot: same outcome
    // and stats, full call counts.
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
        assert_eq!(oracle.node(v).begin_calls, 20, "node {v}");
        assert_eq!(oracle.node(v).end_calls, 19, "node {v}");
    }
}

#[test]
fn coins_beyond_the_draw_ahead_horizon_stay_exact() {
    // Rare coins on three isolated nodes and one pair of neighbours over
    // more slots than one draw-ahead covers: nodes are revisited at the
    // horizon, transmit at their first success and hear each other.
    let pts = vec![
        Point::new(0.0, 0.0),
        Point::new(5.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(15.0, 0.0),
        Point::new(15.5, 0.0),
    ];
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let mk = |v: NodeId| Promiser {
        left: 12_000,
        ..Promiser::new([2e-4 * (v + 1) as f64, 1e-3], 12_000, 11_000, false, false)
    };
    let mut sim = Simulator::new(
        graph.clone(),
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        3,
        mk,
    );
    let mut oracle =
        ReferenceSim::new(graph, IdealModel::new(), WakeupSchedule::Synchronous, 3, mk);
    let out = sim.run(20_000);
    assert!(out.all_done);
    assert_eq!(oracle.run(20_000), out);
    assert_eq!(sim.stats(), oracle.stats());
    assert!(sim.stats().transmissions > 0);
    for v in 0..5 {
        assert_eq!(sim.node(v).state(), oracle.node(v).state(), "node {v}");
        assert!(
            sim.node(v).begin_calls < oracle.node(v).begin_calls / 100,
            "node {v} was parked for most of the run"
        );
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
