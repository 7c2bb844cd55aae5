//! Single Round Simulation (SRS): executing message-passing algorithms in
//! the SINR model over a TDMA schedule — the machinery behind Corollary 1.
//!
//! Each message-passing *round* is expanded into TDMA *frames* and run on
//! the slot engine ([`Simulator`]): every node runs a TDMA node protocol
//! that, in frame `f` of a round, transmits its `f`-th packet of the round
//! in its own slot, and after the round's last slot hands the round's
//! messages to its algorithm. Uniform and bundled rounds take one frame;
//! unicast rounds take `max(Δ, 1)` frames, one per addressed message. With
//! a Theorem-3 compliant schedule every delivery succeeds, so the
//! simulation is a faithful lock-step execution using `τ · V` slots
//! (`V = O(Δ)` colors ⇒ `O(Δτ)` slots, plus the `O(Δ log n)` coloring
//! setup = Corollary 1).

use crate::mp::{GeneralAlgorithm, UniformAlgorithm};
use crate::tdma::TdmaSchedule;
use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::{SinrConfig, SinrModel};
use sinr_radiosim::{Action, NodeCtx, Protocol, Quiet, Simulator, SlotRng, WakeupSchedule};

/// Statistics from an SRS execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrsRun {
    /// Message-passing rounds executed.
    pub rounds: usize,
    /// SINR slots consumed (`rounds × frames × frame_len`).
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

/// Simulates a *uniform* algorithm in the SINR model over `schedule`,
/// one frame per round.
///
/// Runs until all nodes are done or `max_rounds` rounds elapse.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, or
/// the graph radius does not match `cfg.r_t()`.
pub fn simulate_uniform<A: UniformAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    run_tdma(g, cfg, schedule, 1, nodes, max_rounds, |alg, v| {
        Uniform(alg, g.degree(v) as u64)
    })
}

/// Simulates a *general* algorithm by bundling all per-neighbor messages
/// of a round into one broadcast (the `O(Δ(log n + τ))`-time,
/// `O(sΔ log n)`-bit variant of Corollary 1); receivers extract the part
/// addressed to them.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, the
/// graph radius does not match `cfg.r_t()`, or an algorithm sends to a
/// non-neighbor.
pub fn simulate_general_bundled<A: GeneralAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    run_tdma(g, cfg, schedule, 1, nodes, max_rounds, |alg, v| {
        General(alg, g, v)
    })
}

/// Simulates a *general* algorithm with per-neighbor *unicast* slots: each
/// round spends `max(Δ, 1)` TDMA frames, and in frame `f` a node sends its
/// `f`-th addressed message of the round, one small message per frame —
/// the `O(Δ²τ)`-time, `O(s log n)`-bit variant of Corollary 1. A node that
/// addresses more than `Δ` messages in one round sends several in a frame.
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, the
/// graph radius does not match `cfg.r_t()`, or an algorithm sends to a
/// non-neighbor.
pub fn simulate_general_unicast<A: GeneralAlgorithm>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    nodes: &mut [A],
    max_rounds: usize,
) -> SrsRun {
    let frames = g.max_degree().max(1);
    run_tdma(g, cfg, schedule, frames, nodes, max_rounds, |alg, v| {
        General(alg, g, v)
    })
}

/// Runs `nodes` on the slot engine, one [`TdmaNode`] per node of `g`:
/// rounds of `frames` frames of `schedule`, at most `max_rounds` of them,
/// until every node is done. `wrap(alg, v)` makes node `v`'s algorithm a
/// [`Rounds`].
///
/// # Panics
///
/// Panics if `nodes`/`schedule` do not cover exactly the nodes of `g`, or
/// the graph radius does not match `cfg.r_t()`.
fn run_tdma<'a, A, R: Rounds>(
    g: &UnitDiskGraph,
    cfg: &SinrConfig,
    schedule: &TdmaSchedule,
    frames: usize,
    nodes: &'a mut [A],
    max_rounds: usize,
    wrap: impl Fn(&'a mut A, NodeId) -> R,
) -> SrsRun {
    assert_eq!(nodes.len(), g.len(), "one algorithm instance per node");
    assert_eq!(schedule.len(), g.len(), "schedule must cover every node");
    let r_t = cfg.r_t();
    assert!(
        (g.radius() - r_t).abs() <= 1e-9 * r_t,
        "graph radius {} does not match R_T {r_t}",
        g.radius()
    );
    let frame_len = schedule.frame_len() as u64;
    let round_len = frames as u64 * frame_len;
    let mut rest = nodes;
    let model = SinrModel::new(*cfg);
    let mut sim = Simulator::new(g.clone(), model, WakeupSchedule::Synchronous, 0, |v| {
        // The engine makes its nodes in ascending id order.
        let (alg, tail) = std::mem::take(&mut rest).split_at_mut(1);
        rest = tail;
        let alg = wrap(&mut alg[0], v);
        TdmaNode {
            done: alg.is_done(),
            alg,
            slot: schedule.slot_of(v) as u64,
            frame_len,
            frames,
            round: 0,
            sent: false,
            packets: Vec::new(),
            inbox: Vec::new(),
            quiet: 0,
            owed: 0,
            kept: 0,
        }
    });
    // The engine runs its first slot even when every node starts done.
    let started_done = sim.nodes().iter().all(|n| n.done);
    let cap = (max_rounds as u64).saturating_mul(round_len);
    let outcome = sim.run(if started_done { 0 } else { cap });
    let tdma = sim.nodes();
    SrsRun {
        // Every node ends the same rounds, and there is at least one.
        rounds: tdma[0].round,
        slots: outcome.slots,
        deliveries_expected: tdma.iter().map(|n| n.owed).sum(),
        deliveries_made: tdma.iter().map(|n| n.kept).sum(),
        transmissions: sim.stats().transmissions,
        all_done: started_done || outcome.all_done,
    }
}

/// A round-based algorithm as a [`TdmaNode`] runs it.
trait Rounds {
    /// What one transmission carries.
    type Packet: Clone;
    /// What the algorithm receives.
    type Msg;
    /// Pushes the packets of `round` onto `out`, at most one per frame of
    /// the round's `frames`, and returns the deliveries they owe.
    fn send(&mut self, round: usize, frames: usize, out: &mut Vec<Self::Packet>) -> u64;
    /// Pushes what this node keeps of `packet` from `sender` onto `inbox`.
    fn keep(&self, sender: NodeId, packet: &Self::Packet, inbox: &mut Vec<(NodeId, Self::Msg)>);
    /// The algorithm's `receive`.
    fn receive(&mut self, round: usize, inbox: &[(NodeId, Self::Msg)]);
    /// The algorithm's `is_done`.
    fn is_done(&self) -> bool;
}

/// A uniform algorithm and its node's degree: its message, if any, is one
/// packet owed to every neighbor.
struct Uniform<'a, A>(&'a mut A, u64);

impl<A: UniformAlgorithm> Rounds for Uniform<'_, A> {
    type Packet = A::Msg;
    type Msg = A::Msg;

    fn send(&mut self, round: usize, _frames: usize, out: &mut Vec<A::Msg>) -> u64 {
        out.extend(self.0.send(round));
        self.1 * out.len() as u64
    }

    fn keep(&self, sender: NodeId, packet: &A::Msg, inbox: &mut Vec<(NodeId, A::Msg)>) {
        inbox.push((sender, packet.clone()));
    }

    fn receive(&mut self, round: usize, inbox: &[(NodeId, A::Msg)]) {
        self.0.receive(round, inbox);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// A general algorithm, its graph and its node: each addressed message
/// owes one delivery, and a receiver keeps the messages addressed to it.
struct General<'a, A>(&'a mut A, &'a UnitDiskGraph, NodeId);

impl<A: GeneralAlgorithm> Rounds for General<'_, A> {
    type Packet = Vec<(NodeId, A::Msg)>;
    type Msg = A::Msg;

    fn send(&mut self, round: usize, frames: usize, out: &mut Vec<Self::Packet>) -> u64 {
        let General(alg, g, me) = self;
        let list = alg.send(round);
        for &(to, _) in &list {
            assert!(
                g.are_adjacent(*me, to),
                "node {me} sent to non-neighbor {to}"
            );
        }
        // One packet a frame: the whole list in a bundled round of one
        // frame, one message each in a unicast round of Δ frames.
        let per_packet = list.len().div_ceil(frames).max(1);
        out.extend(list.chunks(per_packet).map(<[_]>::to_vec));
        list.len() as u64
    }

    fn keep(&self, sender: NodeId, packet: &Self::Packet, inbox: &mut Vec<(NodeId, A::Msg)>) {
        let me = self.2;
        let mine = packet.iter().filter(|&&(to, _)| to == me);
        inbox.extend(mine.map(|(_, msg)| (sender, msg.clone())));
    }

    fn receive(&mut self, round: usize, inbox: &[(NodeId, A::Msg)]) {
        self.0.receive(round, inbox);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// One node of a TDMA execution: in frame `f` of a round it transmits the
/// round's `f`-th packet in its own slot, and after the round's last slot
/// it hands the round's messages, sorted by sender, to its algorithm.
///
/// It must run only in its own slots and in the round's last slot, so in
/// between it parks on a coin of 0, which draws nothing, and absorbs what
/// it hears: the engine skips it until it is due. It queues a round's
/// packets at its first callback in the round, which the engine reaches
/// only while some node is not done, and its `is_done` answer changes
/// only at a round's end, so the engine stops at a round's start.
struct TdmaNode<R: Rounds> {
    alg: R,
    /// The node's slot in a frame, a frame's length, and a round's frames.
    slot: u64,
    frame_len: u64,
    frames: usize,
    /// The round in progress, and whether its packets are queued.
    round: usize,
    sent: bool,
    /// The round's packets not yet transmitted, the next one last.
    packets: Vec<R::Packet>,
    inbox: Vec<(NodeId, R::Msg)>,
    /// Quiet slots before the next slot the node must run.
    quiet: u64,
    /// The algorithm's `is_done` as of the last round's end.
    done: bool,
    /// Deliveries its packets owed, and messages it kept.
    owed: u64,
    kept: u64,
}

impl<R: Rounds> TdmaNode<R> {
    /// Queues the round's packets, once per round.
    fn start_round(&mut self) {
        if !self.sent {
            self.sent = true;
            self.packets.clear();
            self.owed += self.alg.send(self.round, self.frames, &mut self.packets);
            self.packets.reverse();
        }
    }
}

impl<R: Rounds> Protocol for TdmaNode<R> {
    type Message = R::Packet;

    fn begin_slot<G: SlotRng + ?Sized>(
        &mut self,
        ctx: &NodeCtx,
        _rng: &mut G,
    ) -> Action<R::Packet> {
        self.start_round();
        if ctx.global_slot % self.frame_len != self.slot {
            return Action::Listen;
        }
        self.packets.pop().map_or(Action::Listen, Action::Transmit)
    }

    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, R::Packet)]) {
        for (sender, packet) in received {
            self.alg.keep(*sender, packet, &mut self.inbox);
        }
        let t = ctx.global_slot;
        let round_len = self.frames as u64 * self.frame_len;
        let last = t - t % round_len + round_len - 1;
        if t == last {
            // The reference loops' unstable sort, so that messages from
            // one sender keep the same order as there.
            self.inbox.sort_unstable_by_key(|&(s, _)| s);
            self.alg.receive(self.round, &self.inbox);
            self.kept += self.inbox.len() as u64;
            self.inbox.clear();
            self.done = self.alg.is_done();
            self.round += 1;
            self.sent = false;
        }
        // Due at its next own slot, or at the round's last slot before it.
        let frame = t / self.frame_len + u64::from(t % self.frame_len >= self.slot);
        let own = frame * self.frame_len + self.slot;
        self.quiet = if t == last { own } else { own.min(last) } - t - 1;
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn quiet(&self) -> Option<Quiet> {
        let slots = self.quiet;
        Some(Quiet { coin: 0.0, slots })
    }

    /// A quiet slot's listen: the round starts if it has not, and the
    /// messages are kept.
    fn absorb(&mut self, ctx: &NodeCtx, _lag: u64, received: &[(NodeId, R::Packet)]) -> bool {
        self.start_round();
        self.end_slot(ctx, received);
        true
    }
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
        // Unicast pays more slots: Δ frames per round, one per addressed
        // message, vs one frame per round.
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
            let frames = g.max_degree().max(1) as u64;
            assert_eq!(
                run_u.slots,
                run_u.rounds as u64 * frames * schedule.frame_len() as u64,
                "seed {seed}: every unicast round spends max(Δ, 1) frames"
            );
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
