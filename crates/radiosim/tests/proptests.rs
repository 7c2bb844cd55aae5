//! Property-based tests for the simulation engine's invariants.

use proptest::prelude::*;
use proptest::TestCaseResult;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::{GraphModel, IdealModel, SinrConfig, SinrModel};
use sinr_obs::{keys, ObsEvent};
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

/// A slot cap above every run below, so an engine that never finishes
/// fails its comparison instead of hanging the test.
const MAX_SLOTS: u64 = 1 << 20;

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
    /// Some masks make nodes done at construction, which the engine
    /// accounts in slot 0; others make nodes send only noise, which every
    /// receiver ignores. See [`promisers_match_the_reference`].
    #[test]
    fn parked_engine_matches_the_reference_stepper(
        pts in arb_points(),
        seed in 0u64..500,
        coins in arb_coins(),
        (rounds, done_at) in (1u64..60).prop_flat_map(|r| (Just(r), 1..r + 1)),
        masks in (any::<bool>(), 0u64..1 << 20, 0u64..1 << 20)
            .prop_map(|(on, born, noisy)| (if on { born } else { 0 }, noisy)),
    ) {
        let (born_done, noisy) = masks;
        let mk = |v: NodeId| {
            Promiser::new(coins, rounds, done_at, born_done >> v & 1 == 1, noisy >> v & 1 == 1)
        };
        promisers_match_the_reference(pts, seed, WakeupSchedule::UniformRandom { window: 10 }, mk)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The same differential with wake slots that alias in the due
    /// calendar's 4096-bucket wheel: staggered steps around one, one and
    /// a half, two and three turns, and random windows of up to seven
    /// turns. Sleeping nodes of different turns then share a bucket with
    /// each other and with parked nodes, and must still wake in their
    /// own slot in ascending id order.
    #[test]
    fn wake_slots_that_alias_in_the_calendar_match_the_reference_stepper(
        pts in arb_points(),
        seed in 0u64..500,
        coins in arb_coins(),
        (rounds, done_at) in (1u64..200).prop_flat_map(|r| (Just(r), 1..r + 1)),
        schedule in (any::<bool>(), 0usize..6, 4_097u64..30_000).prop_map(|(staggered, i, window)| {
            if staggered {
                WakeupSchedule::Staggered { step: [4_095, 4_096, 4_097, 6_144, 8_192, 12_289][i] }
            } else {
                WakeupSchedule::UniformRandom { window }
            }
        }),
    ) {
        let mk = |_: NodeId| Promiser::new(coins, rounds, done_at, false, false);
        promisers_match_the_reference(pts, seed, schedule, mk)?;
    }
}

/// Two send probabilities for [`Promiser`]'s phases; the second may be
/// 0 (draws nothing), 1 (always sends) or equal to the first.
fn arb_coins() -> impl Strategy<Value = [f64; 2]> {
    (0.05..0.9f64, 0usize..4, 0.05..0.9f64).prop_map(|(p, kind, q)| [p, [0.0, 1.0, q, p][kind]])
}

/// Runs Promisers, `mk(v)` each, on `pts` under `schedule` until they are
/// done, and checks the engine against the reference stepper. Identical
/// outcomes, stats, node states and inbox histories, with and without a
/// recorder attached, and the recorded run must emit exactly the
/// oracle's events. A third engine runs the same slots in segments of
/// random length, so parked nodes are caught up between calls and then
/// stay parked.
fn promisers_match_the_reference(
    pts: Vec<Point>,
    seed: u64,
    schedule: WakeupSchedule,
    mk: impl Fn(NodeId) -> Promiser + Copy,
) -> TestCaseResult {
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let n = graph.len();
    let mk_sim = || Simulator::new(graph.clone(), SinrModel::new(cfg), schedule, seed, mk);

    let mut oracle = ReferenceSim::new(graph.clone(), SinrModel::new(cfg), schedule, seed, mk);
    let oracle_out = oracle.run(MAX_SLOTS);
    prop_assert!(oracle_out.all_done);

    let mut plain = mk_sim();
    let plain_out = plain.run(MAX_SLOTS);

    let mut recorded = mk_sim();
    let mut rec = sinr_obs::FullRecorder::with_ring_capacity(1 << 16);
    let recorded_out = recorded.run_recorded(MAX_SLOTS, &mut rec, |_, _, _| {});

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
    Ok(())
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

/// Transmits on `coin` and promises the next `every − 1` slots quiet
/// after each callback, up to the slot that makes it done and silent; a
/// node with `every == 0` promises nothing. A coin of 0 draws nothing, so
/// the node only listens.
#[derive(Debug)]
struct Ticker {
    every: u64,
    coin: f64,
    rounds: u64,
    acted: u64,
    begin_calls: u64,
    end_calls: u64,
}

impl Ticker {
    fn new(every: u64, coin: f64, rounds: u64) -> Self {
        Ticker {
            every,
            coin,
            rounds,
            acted: 0,
            begin_calls: 0,
            end_calls: 0,
        }
    }
}

impl Protocol for Ticker {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.begin_calls += 1;
        self.acted += 1;
        if rng.chance(self.coin) {
            Action::Transmit(ctx.global_slot)
        } else {
            Action::Listen
        }
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
            coin: self.coin,
            slots: (self.every - 1).min(self.rounds - self.acted - 1),
        })
    }
    fn skip_quiet(&mut self, slots: u64) {
        self.acted += slots;
    }
}

/// Runs ten isolated Tickers, `mk(v)` each, until they are done, plainly,
/// recorded and in segments of `segment` slots, and checks all three
/// against the reference stepper, which runs every callback every slot:
/// same outcome, stats and transmissions, and full call counts there.
/// `calls(v, node)` checks node `v`'s call counts in each of the three
/// engines. Returns the plain engine.
fn tickers_match_the_reference(
    mk: impl Fn(NodeId) -> Ticker + Copy,
    rounds: u64,
    segment: u64,
    calls: impl Fn(NodeId, &Ticker),
) -> Simulator<Ticker, IdealModel> {
    // Isolated nodes: nothing is ever received, so only the promises
    // and the coins decide which slots the engine visits.
    let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    let mk_sim = || {
        Simulator::new(
            graph.clone(),
            IdealModel::new(),
            WakeupSchedule::Synchronous,
            9,
            mk,
        )
    };
    let mut plain = mk_sim();
    let plain_out = plain.run(MAX_SLOTS);
    assert!(plain_out.all_done);
    assert_eq!(plain_out.slots, rounds);
    let mut recorded = mk_sim();
    let mut rec = sinr_obs::FullRecorder::new();
    let recorded_out = recorded.run_recorded(MAX_SLOTS, &mut rec, |_, _, _| {});
    assert_eq!(recorded_out, plain_out);
    let mut segmented = mk_sim();
    while !segmented.all_done() {
        segmented.run(segment);
    }

    let mut oracle = ReferenceSim::new(
        graph.clone(),
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        9,
        mk,
    );
    assert_eq!(oracle.run(MAX_SLOTS), plain_out);
    for sim in [&plain, &recorded, &segmented] {
        assert_eq!(sim.stats(), oracle.stats());
        for v in 0..graph.len() {
            let node = sim.node(v);
            assert_eq!(node.acted, rounds, "node {v}: quiet slots are applied");
            assert_eq!(node.end_calls, node.begin_calls - 1, "node {v}");
            calls(v, node);
        }
    }
    for v in 0..graph.len() {
        assert_eq!(oracle.node(v).begin_calls, rounds, "node {v}");
        assert_eq!(oracle.node(v).end_calls, rounds - 1, "node {v}");
    }
    plain
}

#[test]
fn parking_makes_exactly_the_promised_calls() {
    // Visits at slot 0, then every `every` slots, then the last slot,
    // where the last action makes the node done and silent: with
    // `every = 4` and 20 rounds that is slots 0, 4, 8, 12, 16 and 19.
    // Without a promise, or with `every = 1`, every slot. A node that
    // goes silent in `begin_slot` gets no `end_slot`, so each node has
    // one `end_slot` call fewer.
    let expected = |every: u64, rounds: u64| match every {
        0 | 1 => rounds,
        e => 1 + (rounds - 2) / e + 1,
    };
    tickers_match_the_reference(
        |v| Ticker::new(v as u64 % 5, 0.0, 20),
        20,
        3,
        |v, node| {
            assert_eq!(node.begin_calls, expected(node.every, 20), "node {v}");
        },
    );

    // Promises longer than three turns of the 4096-bucket due calendar:
    // each node waits in its bucket through the turns before its due
    // slot, in segments that end at, before and after due slots.
    let rounds = 40_000;
    let every = |v: NodeId| 12_289 + 1_024 * v as u64;
    tickers_match_the_reference(
        |v| Ticker::new(every(v), 0.0, rounds),
        rounds,
        4_096,
        |v, node| {
            assert_eq!(node.begin_calls, expected(every(v), rounds), "node {v}");
        },
    );

    // The same promises with rare coins: the draw-ahead horizon, not the
    // promise, bounds each park, and the node transmits at its first
    // success, so it runs at least once per horizon but far less often
    // than every slot.
    let plain = tickers_match_the_reference(
        |v| Ticker::new(every(v), 5e-5 * (v + 1) as f64, rounds),
        rounds,
        1_000,
        |v, node| {
            let calls = node.begin_calls;
            assert!(calls >= rounds / 4_097, "node {v}: {calls} calls");
            assert!(calls < rounds / 100, "node {v}: {calls} calls");
        },
    );
    assert!(plain.stats().transmissions > 0);
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

/// Counts up to a threshold, sending its counter with a rare coin, and
/// goes done and silent there. A heard counter above its own raises it,
/// as an MW reset can raise a negative counter toward χ ≤ 0: the coin
/// stays, and the promise, which runs to the threshold, ends sooner.
#[derive(Debug)]
struct Racer {
    coin: f64,
    counter: u64,
    threshold: u64,
    raises: u64,
}

impl Protocol for Racer {
    type Message = u64;
    fn begin_slot<R: SlotRng + ?Sized>(&mut self, _ctx: &NodeCtx, rng: &mut R) -> Action<u64> {
        self.counter += 1;
        if rng.chance(self.coin) {
            Action::Transmit(self.counter)
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, _ctx: &NodeCtx, received: &[(NodeId, u64)]) {
        for &(_, c) in received {
            if c > self.counter {
                self.counter = c;
                self.raises += 1;
            }
        }
    }
    fn is_done(&self) -> bool {
        self.counter >= self.threshold
    }
    fn is_active(&self) -> bool {
        self.counter < self.threshold
    }
    fn quiet(&self) -> Option<Quiet> {
        Some(Quiet {
            coin: self.coin,
            slots: self.threshold - self.counter - 1,
        })
    }
    fn skip_quiet(&mut self, slots: u64) {
        self.counter += slots;
    }
}

#[test]
fn a_heeded_reception_that_ends_the_promise_sooner_replays_the_coins() {
    // Ten neighbours whose counters start 2 500 apart. Each heard counter
    // above a node's own wakes it, raises it and re-parks it with the same
    // coin, so it keeps the slot its coins were drawn ahead to; near the
    // threshold its promise then ends before that slot, and the catch-up
    // at the earlier due slot must replay the coins, not restore the
    // generator drawn ahead.
    let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
    let graph = UnitDiskGraph::new(pts, 1.0);
    let mk = |v: NodeId| Racer {
        coin: 4e-4,
        counter: 2_500 * v as u64,
        threshold: 30_000,
        raises: 0,
    };
    let mut raises = 0;
    for seed in 0..6 {
        let mut sim = Simulator::new(
            graph.clone(),
            IdealModel::new(),
            WakeupSchedule::Synchronous,
            seed,
            mk,
        );
        let mut oracle = ReferenceSim::new(
            graph.clone(),
            IdealModel::new(),
            WakeupSchedule::Synchronous,
            seed,
            mk,
        );
        let out = sim.run(MAX_SLOTS);
        assert!(out.all_done, "seed {seed}");
        assert_eq!(oracle.run(MAX_SLOTS), out, "seed {seed}");
        assert_eq!(sim.stats(), oracle.stats(), "seed {seed}");
        for v in 0..graph.len() {
            assert_eq!(
                sim.node(v).counter,
                oracle.node(v).counter,
                "seed {seed} node {v}"
            );
            assert_eq!(
                sim.node(v).raises,
                oracle.node(v).raises,
                "seed {seed} node {v}"
            );
        }
        raises += (0..graph.len()).map(|v| sim.node(v).raises).sum::<u64>();
    }
    assert!(raises >= 30, "counters were raised {raises} times");
}

#[test]
fn the_work_ledger_follows_callbacks_not_nodes_times_slots() {
    // 4096 isolated nodes on a 64 × 64 grid, parked on coin-0 promises of
    // 2 500 slots for 10 000 slots. An engine that examined every node
    // every slot would visit 41 M nodes in one pass; the calendar, the
    // action set and the visit set examine each node only in the five
    // slots in which it runs.
    let pts: Vec<Point> = (0..4096)
        .map(|i| Point::new((i % 64) as f64 * 3.0, (i / 64) as f64 * 3.0))
        .collect();
    let graph = UnitDiskGraph::new(pts, 1.0);
    let n = graph.len() as u64;
    let mut sim = Simulator::new(
        graph,
        IdealModel::new(),
        WakeupSchedule::Synchronous,
        1,
        |_| Ticker::new(2_500, 0.0, 10_000),
    );
    let out = sim.run(MAX_SLOTS);
    assert!(out.all_done);
    assert_eq!(out.slots, 10_000);
    let mut rec = sinr_obs::FullRecorder::new();
    sim.export_metrics(&mut rec);
    let counter = |key: &str| {
        rec.registry()
            .counter(key)
            .unwrap_or_else(|| panic!("{key}"))
    };
    let visits = counter(keys::SIM_WORK_VISITS);
    let begin = counter(keys::SIM_WORK_BEGIN_SLOTS);
    let end = counter(keys::SIM_WORK_END_SLOTS);
    // Runs at slots 0, 2 500, 5 000, 7 500 and 9 999; the last one makes
    // the node done and silent in `begin_slot`, so it has no `end_slot`.
    assert_eq!(begin, 5 * n);
    assert_eq!(end, 4 * n);
    assert_eq!(counter(keys::SIM_WORK_PARKS), 4 * n);
    assert_eq!(counter(keys::SIM_WORK_COINS_AHEAD), 0);
    assert_eq!(counter(keys::SIM_WORK_COINS_REPLAYED), 0);
    assert_eq!(counter(keys::SIM_WORK_RX_LEFT_PARKED), 0);
    // Each run costs one calendar entry, one action bit and one visit
    // bit: the visits stay within twice the callbacks.
    assert_eq!(visits, 3 * 5 * n);
    assert!(visits <= 2 * (begin + end), "{visits} visits");
    assert!(visits * 500 < n * out.slots, "{visits} visits");
}
