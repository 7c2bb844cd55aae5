//! Integration: parking MW nodes on their quiet promises changes nothing.
//!
//! The engine skips a node between the slots it must run — its next
//! transmission, the end of its promise, a reception it heeds — and
//! replays the skipped coins when it catches the node up. Here a whole MW
//! coloring runs twice on the same instance: once with `MwNode`, which
//! the engine parks, and once wrapped in [`Eager`], which promises nothing
//! and so is visited every slot. Outcome, statistics, every node's
//! diagnostics and the engine's event stream must agree exactly, for both
//! resolvers and for synchronous and random wake-up.

use sinr_coloring::mw::MwNode;
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::{FullRecorder, ObsEvent, SpanRecord};
use sinr_radiosim::{
    Action, NodeCtx, Protocol, RunOutcome, SimStats, Simulator, SlotRng, WakeupSchedule,
};

/// Forwards every callback to the wrapped protocol and promises nothing,
/// so the engine runs it every slot.
struct Eager<P>(P);

impl<P: Protocol> Protocol for Eager<P> {
    type Message = P::Message;
    fn on_wake(&mut self, ctx: &NodeCtx) {
        self.0.on_wake(ctx);
    }
    fn begin_slot<R: SlotRng + ?Sized>(
        &mut self,
        ctx: &NodeCtx,
        rng: &mut R,
    ) -> Action<Self::Message> {
        self.0.begin_slot(ctx, rng)
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, Self::Message)]) {
        self.0.end_slot(ctx, received);
    }
    fn is_done(&self) -> bool {
        self.0.is_done()
    }
    fn is_active(&self) -> bool {
        self.0.is_active()
    }
}

/// The per-node diagnostics a finished run reports.
type NodeDiag = (
    Option<usize>,
    Option<NodeId>,
    Option<usize>,
    u32,
    u32,
    [u64; 5],
);

fn diag(node: &MwNode) -> NodeDiag {
    (
        node.color(),
        node.leader(),
        node.cluster_color(),
        node.levels_entered(),
        node.resets(),
        node.phase_slots(),
    )
}

/// Everything one run produces that the comparison covers.
struct Run {
    outcome: RunOutcome,
    stats: SimStats,
    nodes: Vec<NodeDiag>,
    events: Vec<(u64, ObsEvent)>,
    spans: Vec<SpanRecord>,
}

/// Runs MW on `graph`, plain and recorded, with `wrap` applied to every
/// node; returns the recorded run, after checking the plain one agrees.
fn run<P: Protocol, M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: impl Fn() -> M,
    params: MwParams,
    schedule: WakeupSchedule,
    wrap: impl Fn(MwNode) -> P,
    inner: impl Fn(&P) -> &MwNode,
) -> Run {
    let sim = || {
        Simulator::new(graph.clone(), model(), schedule, 11, |id| {
            let mut node = MwNode::new(id, params);
            node.reserve(graph.degree(id));
            wrap(node)
        })
    };
    let cap = 200_000;
    let mut plain = sim();
    let plain_outcome = plain.run(cap);
    let mut recorded = sim();
    let mut rec = FullRecorder::with_ring_capacity(1 << 20);
    let outcome = recorded.run_recorded(cap, &mut rec, |_, _, _| {});
    assert!(outcome.all_done, "the run colors every node");
    assert_eq!(rec.events_dropped(), 0);
    assert_eq!(rec.spans_dropped(), 0);
    let nodes: Vec<NodeDiag> = recorded.nodes().iter().map(|p| diag(inner(p))).collect();
    assert_eq!(plain_outcome, outcome, "plain and recorded runs agree");
    assert_eq!(plain.stats(), recorded.stats());
    let plain_nodes: Vec<NodeDiag> = plain.nodes().iter().map(|p| diag(inner(p))).collect();
    assert_eq!(plain_nodes, nodes);
    Run {
        outcome,
        stats: recorded.stats().clone(),
        nodes,
        events: rec.events().copied().collect(),
        spans: rec.spans().cloned().collect(),
    }
}

fn compare<M: InterferenceModel>(graph: &UnitDiskGraph, model: impl Fn() -> M + Copy) {
    let cfg = SinrConfig::default_unit();
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    for schedule in [
        WakeupSchedule::Synchronous,
        WakeupSchedule::UniformRandom { window: 400 },
    ] {
        let parked = run(graph, model, params, schedule, |n| n, |n| n);
        let eager = run(graph, model, params, schedule, Eager, |e| &e.0);
        assert!(parked.stats.transmissions > 0);
        assert_eq!(parked.outcome, eager.outcome, "{schedule:?}");
        assert_eq!(parked.stats, eager.stats, "{schedule:?}");
        assert_eq!(parked.nodes, eager.nodes, "{schedule:?}");
        assert_eq!(parked.events, eager.events, "{schedule:?}");
        assert_eq!(parked.spans, eager.spans, "{schedule:?}");
    }
}

fn instance() -> UnitDiskGraph {
    let cfg = SinrConfig::default_unit();
    UnitDiskGraph::new(placement::uniform(90, 4.0, 4.0, 21), cfg.r_t())
}

#[test]
fn parked_mw_matches_eager_mw_under_the_naive_resolver() {
    let cfg = SinrConfig::default_unit();
    compare(&instance(), || SinrModel::with_grid(cfg, None));
}

#[test]
fn parked_mw_matches_eager_mw_under_the_auto_resolver() {
    let cfg = SinrConfig::default_unit();
    compare(&instance(), || SinrModel::new(cfg));
}
