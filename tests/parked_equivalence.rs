//! Integration: parking MW nodes on their quiet promises, and prefetching
//! receivers, change nothing.
//!
//! The engine skips a node between the slots it must run — its next
//! transmission, the end of its promise, a reception it heeds — and
//! replays the skipped coins when it catches the node up. Here a whole MW
//! coloring runs twice on the same instance: once with `MwNode`, which
//! the engine parks, and once wrapped in [`Eager`], which promises nothing
//! and so is visited every slot. Outcome, statistics, every node's
//! diagnostics and the engine's event stream must agree exactly, for both
//! resolvers and for synchronous and random wake-up.
//!
//! The engine also picks, from the size of the node array, a delivery
//! pass that prefetches receivers ahead of their turn. The instance is
//! too small for it, so the coloring runs once more with every node
//! wrapped in [`Fat`], which forwards everything and is padded until the
//! engine picks that pass. It must agree with the plain run in all of the
//! above, and in the engine's exported work ledger too.

use sinr_coloring::mw::MwNode;
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::{keys, FullRecorder, ObsEvent, Registry, SpanRecord};
use sinr_radiosim::{
    Action, NodeCtx, Protocol, Quiet, RunOutcome, SimStats, Simulator, SlotRng, WakeupSchedule,
    PREFETCH_MIN_NODE_BYTES,
};
use std::cell::Cell;

/// The nodes of [`instance`].
const NODES: usize = 90;

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

/// The padding that makes an array of [`NODES`] [`Fat`] nodes reach
/// [`PREFETCH_MIN_NODE_BYTES`].
const FAT_PAD: usize = PREFETCH_MIN_NODE_BYTES / NODES + 1;

/// Forwards every callback to the wrapped protocol, its promises and
/// prefetch hints included, and counts the hints. Padded so that an
/// array of [`NODES`] of them makes the engine pick the delivery pass
/// that prefetches receivers.
struct Fat<P> {
    inner: P,
    hints: Cell<u64>,
    _pad: [u8; FAT_PAD],
}

impl<P> Fat<P> {
    fn new(inner: P) -> Self {
        Fat {
            inner,
            hints: Cell::new(0),
            _pad: [0; FAT_PAD],
        }
    }
}

impl<P: Protocol> Protocol for Fat<P> {
    type Message = P::Message;
    fn on_wake(&mut self, ctx: &NodeCtx) {
        self.inner.on_wake(ctx);
    }
    fn begin_slot<R: SlotRng + ?Sized>(
        &mut self,
        ctx: &NodeCtx,
        rng: &mut R,
    ) -> Action<Self::Message> {
        self.inner.begin_slot(ctx, rng)
    }
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, Self::Message)]) {
        self.inner.end_slot(ctx, received);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
    fn quiet(&self) -> Option<Quiet> {
        self.inner.quiet()
    }
    fn heeds(&self, sender: NodeId, msg: &Self::Message) -> bool {
        self.inner.heeds(sender, msg)
    }
    fn deaf(&self) -> bool {
        self.inner.deaf()
    }
    fn skip_quiet(&mut self, slots: u64) {
        self.inner.skip_quiet(slots);
    }
    fn absorb(&mut self, ctx: &NodeCtx, lag: u64, received: &[(NodeId, Self::Message)]) -> bool {
        self.inner.absorb(ctx, lag, received)
    }
    fn prefetch(&self) {
        self.hints.set(self.hints.get() + 1);
        self.inner.prefetch();
    }
}

/// A protocol under comparison: the MW node it runs, and the prefetch
/// hints it was given.
trait Wraps: Protocol {
    fn mw(&self) -> &MwNode;
    fn hints(&self) -> u64 {
        0
    }
}

impl Wraps for MwNode {
    fn mw(&self) -> &MwNode {
        self
    }
}

impl Wraps for Eager<MwNode> {
    fn mw(&self) -> &MwNode {
        &self.0
    }
}

impl Wraps for Fat<MwNode> {
    fn mw(&self) -> &MwNode {
        &self.inner
    }
    fn hints(&self) -> u64 {
        self.hints.get()
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
    /// What [`Simulator::export_metrics`] exports: the `sim.*` totals,
    /// the `sim.work.*` ledger and the resolver's counters.
    exported: Registry,
    /// Prefetch hints the nodes were given.
    hints: u64,
}

/// The metrics `sim` exports after a run.
fn exported_metrics<P: Protocol, M: InterferenceModel>(sim: &Simulator<P, M>) -> Registry {
    let mut rec = FullRecorder::new();
    sim.export_metrics(&mut rec);
    rec.registry().clone()
}

/// Runs MW on `graph`, plain and recorded, with `wrap` applied to every
/// node; returns the recorded run, after checking the plain one agrees.
fn run<P: Wraps, M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: impl Fn() -> M,
    params: MwParams,
    schedule: WakeupSchedule,
    wrap: impl Fn(MwNode) -> P,
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
    let nodes: Vec<NodeDiag> = recorded.nodes().iter().map(|p| diag(p.mw())).collect();
    assert_eq!(plain_outcome, outcome, "plain and recorded runs agree");
    assert_eq!(plain.stats(), recorded.stats());
    let plain_nodes: Vec<NodeDiag> = plain.nodes().iter().map(|p| diag(p.mw())).collect();
    assert_eq!(plain_nodes, nodes);
    let exported = exported_metrics(&recorded);
    assert_eq!(exported, exported_metrics(&plain));
    let hints = |sim: &Simulator<P, M>| sim.nodes().iter().map(Wraps::hints).sum::<u64>();
    assert_eq!(hints(&plain), hints(&recorded));
    Run {
        outcome,
        stats: recorded.stats().clone(),
        nodes,
        events: rec.events().copied().collect(),
        spans: rec.spans().cloned().collect(),
        exported,
        hints: hints(&recorded),
    }
}

/// The wake-up schedules every comparison covers.
const SCHEDULES: [WakeupSchedule; 2] = [
    WakeupSchedule::Synchronous,
    WakeupSchedule::UniformRandom { window: 400 },
];

fn params(graph: &UnitDiskGraph) -> MwParams {
    MwParams::practical(&SinrConfig::default_unit(), graph.len(), graph.max_degree())
}

fn compare<M: InterferenceModel>(graph: &UnitDiskGraph, model: impl Fn() -> M + Copy) {
    let params = params(graph);
    for schedule in SCHEDULES {
        let parked = run(graph, model, params, schedule, |n| n);
        let eager = run(graph, model, params, schedule, Eager);
        assert!(parked.stats.transmissions > 0);
        assert_eq!(parked.outcome, eager.outcome, "{schedule:?}");
        assert_eq!(parked.stats, eager.stats, "{schedule:?}");
        assert_eq!(parked.nodes, eager.nodes, "{schedule:?}");
        assert_eq!(parked.events, eager.events, "{schedule:?}");
        assert_eq!(parked.spans, eager.spans, "{schedule:?}");
    }
}

/// Runs the coloring with plain and with [`Fat`] nodes, which the engine
/// delivers to with its prefetching pass, and checks that they agree.
fn compare_prefetching<M: InterferenceModel>(graph: &UnitDiskGraph, model: impl Fn() -> M + Copy) {
    // The plain array stays below the size from which the engine
    // prefetches, and the padded one reaches it.
    assert_eq!(graph.len(), NODES);
    assert!(NODES * std::mem::size_of::<MwNode>() < PREFETCH_MIN_NODE_BYTES);
    assert!(NODES * std::mem::size_of::<Fat<MwNode>>() >= PREFETCH_MIN_NODE_BYTES);
    let params = params(graph);
    for schedule in SCHEDULES {
        let plain = run(graph, model, params, schedule, |n| n);
        let fat = run(graph, model, params, schedule, Fat::new);
        assert!(fat.hints > 0, "{schedule:?}: the prefetching pass ran");
        assert!(fat.stats.receptions > 0);
        assert_eq!(plain.outcome, fat.outcome, "{schedule:?}");
        assert_eq!(plain.stats, fat.stats, "{schedule:?}");
        assert_eq!(plain.nodes, fat.nodes, "{schedule:?}");
        assert_eq!(plain.events, fat.events, "{schedule:?}");
        assert_eq!(plain.spans, fat.spans, "{schedule:?}");
        assert!(plain.exported.counter(keys::SIM_WORK_ABSORBED) > Some(0));
        assert_eq!(plain.exported, fat.exported, "{schedule:?}");
    }
}

fn instance() -> UnitDiskGraph {
    let cfg = SinrConfig::default_unit();
    UnitDiskGraph::new(placement::uniform(NODES, 4.0, 4.0, 21), cfg.r_t())
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

#[test]
fn prefetching_delivery_matches_plain_delivery_under_the_naive_resolver() {
    let cfg = SinrConfig::default_unit();
    compare_prefetching(&instance(), || SinrModel::with_grid(cfg, None));
}

#[test]
fn prefetching_delivery_matches_plain_delivery_under_the_auto_resolver() {
    let cfg = SinrConfig::default_unit();
    compare_prefetching(&instance(), || SinrModel::new(cfg));
}
