//! Pluggable per-slot reception resolution: the [`InterferenceModel`]
//! trait, the graph-based model, and an ideal collision-free model. The
//! SINR physical model, [`SinrModel`](crate::SinrModel), lives in
//! [`resolver`](crate::resolver).

use crate::resolver::ResolverStats;
use sinr_geometry::{NodeId, UnitDiskGraph};

/// The outcome of one time slot: which receivers heard which senders.
///
/// Stored sparsely as `(receiver, sender)` pairs sorted by receiver, since
/// in interference-limited slots only a few receptions succeed. Under
/// models with `β ≥ 1` each receiver hears at most one sender; the ideal
/// model may deliver several.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReceptionTable {
    pairs: Vec<(NodeId, NodeId)>,
}

impl ReceptionTable {
    /// Builds a table from `(receiver, sender)` pairs (sorts them).
    pub fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        ReceptionTable { pairs }
    }

    /// Empties the table while keeping its buffer capacity, so a reused
    /// table never reallocates once it has grown to the slot's working
    /// size.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// Takes the pair buffer out, leaving the table empty, so a resolver
    /// can fill a caller-owned table in place without allocating a fresh
    /// `Vec` per slot (see [`InterferenceModel::resolve_delta_into`]).
    pub fn take_pairs(&mut self) -> Vec<(NodeId, NodeId)> {
        std::mem::take(&mut self.pairs)
    }

    /// Builds a table from pairs already sorted by receiver, as the exact
    /// kernel emits them: checked in debug builds, never sorted.
    pub(crate) fn from_sorted_pairs(pairs: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(pairs.is_sorted(), "reception pairs out of order");
        ReceptionTable { pairs }
    }

    /// All senders heard by `receiver` this slot, in ascending id order.
    pub fn heard_by(&self, receiver: NodeId) -> &[(NodeId, NodeId)] {
        let start = self.pairs.partition_point(|&(r, _)| r < receiver);
        let end = self.pairs.partition_point(|&(r, _)| r <= receiver);
        &self.pairs[start..end]
    }

    /// The unique sender heard by `receiver`, if exactly one was heard.
    pub fn unique_sender(&self, receiver: NodeId) -> Option<NodeId> {
        match self.heard_by(receiver) {
            [(_, s)] => Some(*s),
            _ => None,
        }
    }

    /// Iterator over all `(receiver, sender)` receptions of the slot.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pairs.iter().copied()
    }

    /// The full reception list, sorted by receiver (then sender).
    ///
    /// Exposed so delivery loops can merge-join the table against an
    /// ascending receiver sweep instead of binary-searching
    /// [`ReceptionTable::heard_by`] once per node.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Total number of successful receptions.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing was received this slot.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether `sender` was heard by *every* neighbor of `sender` in `g` —
    /// the paper's notion of a *successful transmission* ("a message is
    /// received by all its neighbors", §IV).
    pub fn is_successful_broadcast(&self, g: &UnitDiskGraph, sender: NodeId) -> bool {
        g.neighbors(sender)
            .iter()
            .all(|&u| self.heard_by(u).iter().any(|&(_, s)| s == sender))
    }
}

/// The change in the transmitter set since the previous resolved slot:
/// `started` are nodes transmitting now that were silent last slot,
/// `stopped` nodes silent now that transmitted last slot.
///
/// No model reads it. A slot's receptions depend on that slot's
/// transmitters alone, and [`SinrModel`](crate::SinrModel) refills its
/// grid from them, so the slot engine passes an empty delta. The type and
/// the `resolve_delta*` entry points stay only while the benchmark
/// package implements them, and go with its next change (ROADMAP.md).
#[derive(Debug, Clone, Copy)]
pub struct TxDelta<'a> {
    /// Nodes that began transmitting this slot.
    pub started: &'a [NodeId],
    /// Nodes that ceased transmitting this slot.
    pub stopped: &'a [NodeId],
}

/// A per-slot reception resolver.
///
/// Given the communication graph (positions + `R_T` adjacency) and the set
/// of nodes transmitting in the current slot, decides which listeners
/// successfully decode which senders. All models are half-duplex: a
/// transmitting node never receives.
pub trait InterferenceModel {
    /// Resolves one slot.
    ///
    /// `transmitting` must contain valid node ids of `g` (duplicates are not
    /// allowed). Listeners are all non-transmitting nodes.
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable;

    /// Resolves one slot, additionally handing the model the transmitter-set
    /// change since the slot it last resolved (see [`TxDelta`], which no
    /// model reads).
    ///
    /// The default ignores the delta and calls [`InterferenceModel::resolve`].
    /// Implementations must return exactly what `resolve(g, transmitting)`
    /// would.
    fn resolve_delta(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
    ) -> ReceptionTable {
        let _ = delta;
        self.resolve(g, transmitting)
    }

    /// Resolves one slot into a caller-owned table, recycling its buffer.
    ///
    /// Semantically identical to `*out = self.resolve_delta(g,
    /// transmitting, delta)` — and that is the default.
    /// [`SinrModel`](crate::SinrModel) overrides it to refill `out`'s
    /// existing allocation, so a driver that keeps one table across slots
    /// performs zero allocations per steady-state slot (the dynamic
    /// counterpart of the static hot-path rule L8; `tests/alloc_profile.rs`
    /// enforces it).
    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        *out = self.resolve_delta(g, transmitting, delta);
    }

    /// Short model name for reports.
    fn name(&self) -> &'static str;

    /// Cumulative resolver statistics, for models that track them
    /// (see [`SinrModel`](crate::SinrModel)); `None` otherwise.
    fn resolver_stats(&self) -> Option<ResolverStats> {
        None
    }
}

impl<M: InterferenceModel + ?Sized> InterferenceModel for Box<M> {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        (**self).resolve(g, transmitting)
    }

    fn resolve_delta(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
    ) -> ReceptionTable {
        (**self).resolve_delta(g, transmitting, delta)
    }

    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        (**self).resolve_delta_into(g, transmitting, delta, out)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        (**self).resolver_stats()
    }
}

/// The graph-based model of the original MW analysis: a node hears a
/// message iff *exactly one* of its neighbors transmits (and it is silent
/// itself). Interference is purely local.
#[derive(Debug, Clone, Default)]
pub struct GraphModel;

impl GraphModel {
    /// Creates the graph-based model.
    pub fn new() -> Self {
        GraphModel
    }
}

impl InterferenceModel for GraphModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let mut is_tx = vec![false; g.len()];
        for &t in transmitting {
            debug_assert!(!is_tx[t], "node {t} transmits twice in one slot");
            is_tx[t] = true;
        }
        // Count transmitting neighbors per listener.
        let mut count = vec![0u32; g.len()];
        let mut last_sender = vec![0usize; g.len()];
        for &t in transmitting {
            for &u in g.neighbors(t) {
                count[u] += 1;
                last_sender[u] = t;
            }
        }
        let pairs = (0..g.len())
            .filter(|&u| !is_tx[u] && count[u] == 1)
            .map(|u| (u, last_sender[u]))
            .collect();
        ReceptionTable::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "graph"
    }
}

/// An ideal collision-free channel: every listener hears *every*
/// transmitting neighbor (still half-duplex).
///
/// This is the point-to-point message-passing substrate whose simulation
/// cost Corollary 1 bounds; it also provides round-count floors in the
/// experiments.
#[derive(Debug, Clone, Default)]
pub struct IdealModel;

impl IdealModel {
    /// Creates the ideal model.
    pub fn new() -> Self {
        IdealModel
    }
}

impl InterferenceModel for IdealModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let mut is_tx = vec![false; g.len()];
        for &t in transmitting {
            debug_assert!(!is_tx[t], "node {t} transmits twice in one slot");
            is_tx[t] = true;
        }
        let mut pairs = Vec::new();
        for &t in transmitting {
            for &u in g.neighbors(t) {
                if !is_tx[u] {
                    pairs.push((u, t));
                }
            }
        }
        ReceptionTable::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SinrConfig;
    use crate::SinrModel;
    use sinr_geometry::Point;

    fn graph(pts: Vec<Point>) -> UnitDiskGraph {
        UnitDiskGraph::new(pts, 1.0)
    }

    fn sinr_model() -> SinrModel {
        SinrModel::new(SinrConfig::default_unit())
    }

    #[test]
    fn lone_transmitter_reaches_all_neighbors_in_all_models() {
        let g = graph(vec![
            Point::new(0.0, 0.0),
            Point::new(0.8, 0.0),
            Point::new(-0.8, 0.0),
            Point::new(5.0, 5.0),
        ]);
        for model in [
            Box::new(sinr_model()) as Box<dyn InterferenceModel>,
            Box::new(GraphModel::new()),
            Box::new(IdealModel::new()),
        ] {
            let table = model.resolve(&g, &[0]);
            assert_eq!(table.unique_sender(1), Some(0), "{}", model.name());
            assert_eq!(table.unique_sender(2), Some(0), "{}", model.name());
            assert_eq!(table.unique_sender(3), None, "{}", model.name());
            assert!(table.is_successful_broadcast(&g, 0));
        }
    }

    #[test]
    fn transmitters_never_receive() {
        let g = graph(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for model in [
            Box::new(sinr_model()) as Box<dyn InterferenceModel>,
            Box::new(GraphModel::new()),
            Box::new(IdealModel::new()),
        ] {
            let table = model.resolve(&g, &[0, 1]);
            assert!(table.is_empty(), "{}", model.name());
        }
    }

    #[test]
    fn graph_model_collision_on_two_neighbors() {
        // u has two transmitting neighbors -> collision in the graph model.
        let g = graph(vec![
            Point::new(0.0, 0.0),  // u
            Point::new(0.9, 0.0),  // tx
            Point::new(-0.9, 0.0), // tx
        ]);
        let table = GraphModel::new().resolve(&g, &[1, 2]);
        assert_eq!(table.unique_sender(0), None);
        // Ideal model delivers both.
        let ideal = IdealModel::new().resolve(&g, &[1, 2]);
        assert_eq!(ideal.heard_by(0).len(), 2);
    }

    #[test]
    fn sinr_model_captures_far_interference_graph_model_does_not() {
        // Receiver at origin, sender at 0.95. A wall of interferers just
        // outside the receiver's R_T disk is invisible to the graph model
        // but kills the SINR.
        let mut pts = vec![Point::new(0.0, 0.0), Point::new(0.95, 0.0)];
        for k in 0..12 {
            let theta = k as f64 * std::f64::consts::TAU / 12.0;
            pts.push(Point::new(1.2 * theta.cos(), 1.2 * theta.sin()));
        }
        let g = graph(pts);
        let tx: Vec<NodeId> = (1..g.len()).collect();
        // Graph model: interferers are not neighbors of node 0, so only the
        // sender counts -> success.
        let gt = GraphModel::new().resolve(&g, &tx);
        assert_eq!(gt.unique_sender(0), Some(1));
        // SINR model: aggregate far interference breaks the link.
        let st = sinr_model().resolve(&g, &tx);
        assert_eq!(st.unique_sender(0), None);
    }

    #[test]
    fn sinr_model_near_capture() {
        // A very close sender survives one distant interferer.
        let g = graph(vec![
            Point::new(0.0, 0.0),
            Point::new(0.2, 0.0),
            Point::new(0.9, 0.0),
        ]);
        let table = sinr_model().resolve(&g, &[1, 2]);
        // Node 0 decodes node 1 (strong), not node 2.
        assert_eq!(table.unique_sender(0), Some(1));
    }

    #[test]
    fn at_most_one_sender_decodable_with_beta_ge_one() {
        let g = graph(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(0.0, 0.5),
            Point::new(-0.5, 0.0),
        ]);
        let table = sinr_model().resolve(&g, &[1, 2, 3]);
        assert!(table.heard_by(0).len() <= 1);
    }

    #[test]
    fn reception_table_queries() {
        let t = ReceptionTable::from_pairs(vec![(2, 7), (0, 3), (2, 5)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.unique_sender(0), Some(3));
        assert_eq!(t.unique_sender(1), None);
        assert_eq!(t.unique_sender(2), None); // heard two
        assert_eq!(t.heard_by(2), &[(2, 5), (2, 7)]);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![(0, 3), (2, 5), (2, 7)]);
    }

    #[test]
    fn empty_transmission_set() {
        let g = graph(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        for model in [
            Box::new(sinr_model()) as Box<dyn InterferenceModel>,
            Box::new(GraphModel::new()),
            Box::new(IdealModel::new()),
        ] {
            assert!(model.resolve(&g, &[]).is_empty());
        }
    }

    // A duplicate transmitter id would double-count interference (SINR) or
    // inflate the neighbor-transmission count into a phantom collision
    // (graph model): every model rejects duplicates in debug builds.
    #[cfg(debug_assertions)]
    mod duplicate_transmitters {
        use super::*;

        fn dup_graph() -> UnitDiskGraph {
            graph(vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0)])
        }

        #[test]
        #[should_panic(expected = "transmits twice")]
        fn sinr_model_rejects_duplicates() {
            let _ = sinr_model().resolve(&dup_graph(), &[0, 0]);
        }

        #[test]
        #[should_panic(expected = "transmits twice")]
        fn graph_model_rejects_duplicates() {
            let _ = GraphModel::new().resolve(&dup_graph(), &[0, 0]);
        }

        #[test]
        #[should_panic(expected = "transmits twice")]
        fn ideal_model_rejects_duplicates() {
            let _ = IdealModel::new().resolve(&dup_graph(), &[0, 0]);
        }
    }

    #[test]
    fn only_the_sinr_model_reports_resolver_stats() {
        assert_eq!(
            sinr_model().resolver_stats(),
            Some(ResolverStats::default())
        );
        assert!(GraphModel::new().resolver_stats().is_none());
        assert!(IdealModel::new().resolver_stats().is_none());
        // Box forwarding preserves the answer.
        let boxed: Box<dyn InterferenceModel> = Box::new(GraphModel::new());
        assert!(boxed.resolver_stats().is_none());
    }

    #[test]
    fn successful_broadcast_requires_all_neighbors() {
        // Sender 1 has neighbors 0 and 2; jam node 2's side so only 0 hears.
        let g = graph(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(1.8, 0.0),
            Point::new(2.4, 0.0),
        ]);
        let table = sinr_model().resolve(&g, &[1, 3]);
        assert!(!table.is_successful_broadcast(&g, 1));
        let alone = sinr_model().resolve(&g, &[1]);
        assert!(alone.is_successful_broadcast(&g, 1));
    }
}
