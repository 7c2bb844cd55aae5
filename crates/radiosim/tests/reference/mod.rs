//! A reference stepper: the slot semantics of the simulator written as
//! plain O(n) loops, kept only as a test oracle for the engine — the way
//! the reference resolver in `crates/sinr/tests/reference/` is the oracle
//! for `SinrModel`.
//!
//! Every slot it wakes the nodes due, asks every awake active node for an
//! action, resolves the transmitter set with no delta, calls `end_slot`
//! on every awake active node (never parking one), and then
//! polls `is_done()` on every node. Activity and termination are live
//! protocol queries; nothing is cached. Per-node RNG seeds and wake slots
//! are derived exactly as the engine derives them, so the two must agree
//! on every outcome, statistic, inbox and event.

use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::InterferenceModel;
use sinr_obs::ObsEvent;
use sinr_radiosim::protocol::RandSlotRng;
use sinr_radiosim::{Action, NodeCtx, Protocol, RunOutcome, SimStats, WakeupSchedule};
use sinr_rng::rngs::StdRng;
use sinr_rng::SeedableRng;

/// The oracle simulator. Records the engine's event vocabulary into a
/// plain vector instead of a recorder.
pub struct ReferenceSim<P: Protocol, M: InterferenceModel> {
    graph: UnitDiskGraph,
    model: M,
    nodes: Vec<P>,
    wake: Vec<u64>,
    rngs: Vec<StdRng>,
    done: Vec<bool>,
    slot: u64,
    stats: SimStats,
    events: Vec<(u64, ObsEvent)>,
}

impl<P: Protocol, M: InterferenceModel> ReferenceSim<P, M> {
    /// Same arguments as `Simulator::new`.
    pub fn new(
        graph: UnitDiskGraph,
        model: M,
        schedule: WakeupSchedule,
        seed: u64,
        make_node: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = graph.len();
        let wake = schedule.wake_slots(n, seed);
        ReferenceSim {
            nodes: (0..n).map(make_node).collect(),
            rngs: (0..n)
                .map(|v| StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v as u64))
                .collect(),
            done: vec![false; n],
            slot: 0,
            stats: SimStats::new(wake.clone()),
            wake,
            graph,
            model,
            events: Vec::new(),
        }
    }

    /// The protocol instance of node `v`.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v]
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Every event so far, in emission order.
    pub fn events(&self) -> &[(u64, ObsEvent)] {
        &self.events
    }

    fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Runs until every node is done or `max_slots` slots have executed,
    /// checking for termination before each slot like `Simulator::run`.
    pub fn run(&mut self, max_slots: u64) -> RunOutcome {
        let start = self.slot;
        while self.slot - start < max_slots && !self.all_done() {
            self.step();
        }
        RunOutcome {
            all_done: self.all_done(),
            slots: self.slot - start,
        }
    }

    /// Executes one slot; returns the nodes that decided in it, ascending.
    pub fn step(&mut self) -> Vec<NodeId> {
        let n = self.graph.len();
        let slot = self.slot;
        let ctx = |v: NodeId| NodeCtx {
            id: v,
            global_slot: slot,
            local_slot: slot - self.wake[v],
        };
        let awake = |v: NodeId| self.wake[v] <= slot;

        for v in 0..n {
            if self.wake[v] == slot {
                self.nodes[v].on_wake(&ctx(v));
                self.events.push((slot, ObsEvent::Wake { node: v }));
            }
        }

        let mut msgs: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();
        let mut tx = Vec::new();
        for (v, msg) in msgs.iter_mut().enumerate() {
            if awake(v) && self.nodes[v].is_active() {
                let mut rng = RandSlotRng(&mut self.rngs[v]);
                if let Action::Transmit(m) = self.nodes[v].begin_slot(&ctx(v), &mut rng) {
                    tx.push(v);
                    *msg = Some(m);
                    self.events.push((slot, ObsEvent::Transmit { node: v }));
                }
            }
        }
        for &t in &tx {
            self.stats.tx_slots[t] += 1;
        }
        for (v, msg) in msgs.iter().enumerate() {
            if awake(v) && self.nodes[v].is_active() && msg.is_none() {
                self.stats.listen_slots[v] += 1;
            }
        }

        let table = self.model.resolve(&self.graph, &tx);
        self.stats.transmissions += tx.len() as u64;
        self.stats.record_channel_load(tx.len());

        for v in 0..n {
            if !awake(v) || !self.nodes[v].is_active() {
                continue;
            }
            let mut inbox = Vec::new();
            for &(_, sender) in table.heard_by(v) {
                let m = msgs[sender].clone().expect("sender transmitted");
                inbox.push((sender, m));
                self.events.push((
                    slot,
                    ObsEvent::Receive {
                        receiver: v,
                        sender,
                    },
                ));
            }
            self.stats.receptions += inbox.len() as u64;
            self.nodes[v].end_slot(&ctx(v), &inbox);
        }

        let mut newly_done = Vec::new();
        for v in 0..n {
            if !self.done[v] && self.nodes[v].is_done() {
                self.done[v] = true;
                self.stats.done_slot[v] = Some(slot);
                newly_done.push(v);
                self.events.push((slot, ObsEvent::Done { node: v }));
            }
        }

        self.slot += 1;
        self.stats.slots = self.slot;
        newly_done
    }
}
