//! The slot-synchronous simulation engine.

use crate::protocol::{Action, NodeCtx, Protocol, RandSlotRng, SlotRng};
use crate::stats::SimStats;
use crate::wakeup::WakeupSchedule;
use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, ReceptionTable, ResolverStats, TxDelta};
use sinr_obs::alloc::{self, AllocSnapshot, AllocStats};
use sinr_obs::span::{names as span_names, SpanRecord, SpanTrack};
use sinr_obs::{keys, NoopRecorder, ObsEvent, Recorder, QUARTERS_PER_SLOT};
use sinr_rng::rngs::StdRng;
use sinr_rng::SeedableRng;

/// One node's slot-critical status bits, packed into a single byte.
///
/// The engine keeps one `Vec<NodeFlags>` — a dense structure-of-arrays
/// column — instead of separate `Vec<bool>`s for awake/active/done plus
/// per-slot `wake`/`is_active` probes. The slot passes then decide
/// "does this node need work?" from one byte load per node instead of
/// touching three bool arrays, the wake table, and a virtual call.
/// `tests/struct_sizes.rs` pins the size to 1 byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFlags(u8);

impl NodeFlags {
    /// The node's wake slot has passed (set once, when the due calendar
    /// releases the node at its wake slot).
    const AWAKE: u8 = 1;
    /// Cached `Protocol::is_active()`, refreshed after every protocol
    /// callback (the only place protocol state can change).
    const ACTIVE: u8 = 1 << 1;
    /// The node has reported `is_done()` (mirror of the old done bitmap).
    const DONE: u8 = 1 << 2;
    /// The node is parked on a [`Protocol::quiet`] promise: both passes
    /// skip it until its due slot or a reception it heeds, and its
    /// state and generator lag at its sync slot until then.
    const PARKED: u8 = 1 << 3;
    /// The node decided this slot — or before the run started, which
    /// counts as slot 0 — and is not yet accounted; the delivery pass
    /// records it in `newly_done` at its ascending-id turn. Never
    /// survives past the slot that accounts it.
    const JUST_DONE: u8 = 1 << 4;

    /// Both awake and (cached) active — the action/delivery gate.
    const RUNNABLE: u8 = Self::AWAKE | Self::ACTIVE;

    /// Whether the wake slot has passed.
    pub fn awake(self) -> bool {
        self.0 & Self::AWAKE != 0
    }

    /// The cached activity bit: [`Protocol::is_active`] as of the node's
    /// last callback, the only place it can change.
    pub fn active(self) -> bool {
        self.0 & Self::ACTIVE != 0
    }

    /// Whether the node has been recorded as done.
    pub fn done(self) -> bool {
        self.0 & Self::DONE != 0
    }

    /// Whether the node is parked on a [`Protocol::quiet`] promise: both
    /// passes skip it until its due slot or a reception it heeds.
    pub fn parked(self) -> bool {
        self.0 & Self::PARKED != 0
    }

    fn just_done(self) -> bool {
        self.0 & Self::JUST_DONE != 0
    }

    fn runnable(self) -> bool {
        self.0 & Self::RUNNABLE == Self::RUNNABLE
    }

    fn insert(&mut self, bits: u8) {
        self.0 |= bits;
    }

    fn remove(&mut self, bits: u8) {
        self.0 &= !bits;
    }

    fn set_active(&mut self, active: bool) {
        if active {
            self.insert(Self::ACTIVE);
        } else {
            self.remove(Self::ACTIVE);
        }
    }
}

/// How many coins a parked node draws ahead at most: a node whose coin
/// has not succeeded within this many slots is visited at the last one
/// and draws again. Bounds the work one park decision can cost.
const DRAW_AHEAD: u64 = 4096;

/// The first slot in `next..end`, at most [`DRAW_AHEAD`] of them, whose
/// `chance(coin)` succeeds on a copy of `rng`, where `rng` is positioned
/// at slot `next`'s draw; else the first slot not drawn. Every slot
/// before the returned one draws one failing coin. Leaves `at` positioned
/// at the returned slot's draw, before its coin, and returns the slot
/// with the number of coins drawn. A coin `≤ 0` draws nothing and never
/// succeeds, so every slot is known to fail: the slot is `u64::MAX` and
/// `at` is left alone.
// lint:hot — per-park loop, runs once per parked interval
fn draw_ahead(rng: &StdRng, at: &mut StdRng, coin: f64, next: u64, end: u64) -> (u64, u64) {
    if coin <= 0.0 {
        return (u64::MAX, 0);
    }
    let mut copy = rng.clone();
    let stop = end.min(next.saturating_add(DRAW_AHEAD));
    let mut t = next;
    while t < stop {
        let before = copy.clone();
        if RandSlotRng(&mut copy).chance(coin) {
            *at = before;
            return (t, t - next + 1);
        }
        t += 1;
    }
    *at = copy;
    (t, t - next)
}

/// Buckets of the due calendar's timer wheel: a node due at slot `s`
/// waits in bucket `s % WHEEL`. At least [`DRAW_AHEAD`], so a node
/// parked on a coin that can succeed is examined at most twice before
/// it is due; an entry due in a later turn of the wheel stays in its
/// bucket and is examined once per turn.
const WHEEL: u64 = 4096;

/// The empty link: an unlinked node, or an empty bucket.
const NIL: u32 = u32::MAX;

/// A node id as a calendar link. [`Simulator::new`] refuses graphs with
/// `NIL` nodes or more, so every id converts.
fn link_of(v: NodeId) -> u32 {
    u32::try_from(v).unwrap_or(NIL)
}

/// The due calendar: a timer wheel of [`WHEEL`] buckets keyed by due
/// slot, each bucket a circular doubly linked list threaded through
/// intrusive per-node links, so linking and unlinking a node cost O(1)
/// and a slot examines only its own bucket. Sleeping nodes wait in it at
/// their wake slot and parked nodes at their due slot; a node parked
/// with no due slot (`u64::MAX`) is never linked.
///
/// New entries go to the tail of their bucket and releasing a bucket
/// keeps the order of the entries it leaves, so the sleeping nodes of a
/// bucket, all linked in ascending id order at construction, stay in
/// ascending id order.
struct Calendar {
    /// Each bucket's first entry, or `NIL`.
    heads: Vec<u32>,
    /// Each node's successor and predecessor in its bucket (`NIL` while
    /// unlinked; a lone entry links to itself).
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Calendar {
    fn new(n: usize) -> Self {
        Calendar {
            heads: vec![NIL; WHEEL as usize],
            next: vec![NIL; n],
            prev: vec![NIL; n],
        }
    }

    fn bucket(slot: u64) -> usize {
        (slot % WHEEL) as usize
    }

    /// Appends node `v` to the tail of the bucket of `due`.
    fn link(&mut self, v: NodeId, due: u64) {
        debug_assert_eq!(self.next[v], NIL, "node {v} is linked twice");
        let b = Self::bucket(due);
        let vl = link_of(v);
        let h = self.heads[b];
        if h == NIL {
            self.heads[b] = vl;
            self.next[v] = vl;
            self.prev[v] = vl;
        } else {
            let t = self.prev[h as usize];
            self.next[t as usize] = vl;
            self.prev[v] = t;
            self.next[v] = h;
            self.prev[h as usize] = vl;
        }
    }

    /// Removes node `v` from the bucket of `due`, where it is linked.
    fn unlink(&mut self, v: NodeId, due: u64) {
        debug_assert_ne!(self.next[v], NIL, "node {v} is not linked");
        let b = Self::bucket(due);
        let vl = link_of(v);
        let nx = self.next[v];
        if nx == vl {
            self.heads[b] = NIL;
        } else {
            let p = self.prev[v];
            self.next[p as usize] = nx;
            self.prev[nx as usize] = p;
            if self.heads[b] == vl {
                self.heads[b] = nx;
            }
        }
        self.next[v] = NIL;
        self.prev[v] = NIL;
    }
}

/// Sets node `v`'s bit in a node bitset.
fn set_bit(bits: &mut [u64], v: NodeId) {
    bits[v / 64] |= 1 << (v % 64);
}

/// The engine's work ledger: deterministic counts of what its passes
/// did, exported as `sim.work.*` by [`Simulator::export_metrics`]. Unlike
/// [`SimStats`], which any correct engine reproduces, these describe how
/// much this engine did to get there.
#[derive(Default)]
struct WorkLedger {
    /// Set bits walked by the action and delivery passes, plus calendar
    /// entries examined.
    visits: u64,
    begin_slots: u64,
    end_slots: u64,
    parks: u64,
    coins_ahead: u64,
    coins_replayed: u64,
    /// Receptions counted and emitted at a parked receiver that heeded
    /// none of them and so stayed parked.
    rx_left_parked: u64,
}

/// Everything that happened in one simulated slot.
///
/// Borrows the simulator's reused slot buffers: building a view is free,
/// and the steady-state loop allocates nothing per slot (previously the
/// view owned a cloned transmitter list, a fresh table, and a fresh
/// done-list every slot). Observers needing to keep data past the slot
/// copy what they need (`view.transmitters.to_vec()`).
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    /// The slot that was just executed.
    pub slot: u64,
    /// Ids of the nodes that transmitted, ascending.
    pub transmitters: &'a [NodeId],
    /// The `(receiver, sender)` receptions the interference model granted.
    pub receptions: &'a ReceptionTable,
    /// Nodes that reported `is_done()` for the first time this slot,
    /// ascending.
    pub newly_done: &'a [NodeId],
    /// The nodes whose protocol state can have changed this slot,
    /// ascending: every awake node the delivery pass visited. Those are
    /// the nodes that ran `on_wake`, `begin_slot` or `end_slot` (a parked
    /// node is caught up first) or were polled for `is_done`, and the rare
    /// inactive receiver the table names. A parked receiver that heeds
    /// none of its receptions runs no callback and is not listed. Any
    /// other node changed at most as quiet slots change a node (see
    /// [`Protocol::quiet`]), so an observer that tracks protocol state
    /// need re-read only these nodes.
    pub ran: &'a [NodeId],
}

/// Per-phase heap-traffic attribution for a profiled run (see
/// [`Simulator::enable_alloc_profile`]). Counters only move when the
/// process runs under [`sinr_obs::alloc::CountingAlloc`]; in an
/// uninstrumented binary every field stays zero.
#[derive(Debug, Clone, Default)]
pub struct EngineAllocProfile {
    /// Traffic during the actions phase (wake-ups + node automata).
    pub actions: AllocStats,
    /// Traffic during channel resolution.
    pub resolve: AllocStats,
    /// Traffic during delivery, end-of-slot hooks, and termination scans.
    pub delivery: AllocStats,
    /// Allocation events per executed slot (all phases plus buffer
    /// rolling), indexed by slot offset since profiling was enabled. The
    /// buffer is preallocated to the requested capacity and **never
    /// grows** — recording must not itself allocate per slot.
    pub per_slot: Vec<u64>,
    /// Slots whose per-slot sample was dropped because the preallocated
    /// buffer was full (0 when the driver sizes it to the slot cap).
    pub dropped_slots: u64,
}

impl EngineAllocProfile {
    fn with_capacity(capacity_slots: usize) -> Self {
        EngineAllocProfile {
            per_slot: Vec::with_capacity(capacity_slots),
            ..EngineAllocProfile::default()
        }
    }

    /// Records one phase transition: attributes the traffic since `mark`
    /// to `phase` and returns the new mark.
    fn phase_mark(stats: &mut AllocStats, mark: AllocSnapshot) -> AllocSnapshot {
        let now = alloc::snapshot();
        stats.add_span(mark, now);
        now
    }

    /// Measured warmup length: the index of the last sampled slot that
    /// performed any allocation, plus one (0 if no sampled slot
    /// allocated). Slots past this point ran allocation-free.
    pub fn warmup_slots(&self) -> u64 {
        self.per_slot
            .iter()
            .rposition(|&a| a > 0)
            .map(|i| i as u64 + 1)
            .unwrap_or(0)
    }

    /// The steady-state window: the final quarter of the sampled slots,
    /// as `(start_index, length)`. Empty for runs shorter than 4 slots.
    pub fn steady_window(&self) -> (usize, usize) {
        let len = self.per_slot.len() / 4;
        (self.per_slot.len() - len, len)
    }

    /// Total allocation events inside the steady-state window.
    pub fn steady_allocs(&self) -> u64 {
        let (start, len) = self.steady_window();
        self.per_slot[start..start + len].iter().sum()
    }

    /// Mean allocation events per slot over the steady-state window
    /// (`None` when the window is empty). The zero-alloc gate pins this
    /// to exactly 0.
    pub fn steady_allocs_per_slot(&self) -> Option<f64> {
        let (_, len) = self.steady_window();
        if len == 0 {
            return None;
        }
        Some(self.steady_allocs() as f64 / len as f64)
    }

    /// The `n` heaviest-allocating sampled slots as `(slot_offset,
    /// allocs)`, heaviest first (ties broken by earlier slot). Slots with
    /// zero allocations are never reported.
    pub fn top_allocating_slots(&self, n: usize) -> Vec<(u64, u64)> {
        let mut hot: Vec<(u64, u64)> = self
            .per_slot
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a > 0)
            .map(|(i, &a)| (i as u64, a))
            .collect();
        hot.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        hot.truncate(n);
        hot
    }

    /// Sum of the phase-attributed allocation counts (actions + resolve +
    /// delivery).
    pub fn phase_allocs(&self) -> u64 {
        self.actions.allocs + self.resolve.allocs + self.delivery.allocs
    }
}

/// Result of [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether every node had decided when the run stopped.
    pub all_done: bool,
    /// Number of slots executed.
    pub slots: u64,
}

/// Drives one protocol instance per node against an interference model.
///
/// Deterministic: runs are a pure function of (graph, model, schedule, seed,
/// protocol construction). Each node has its own `StdRng` derived from the
/// seed and its id, so protocol behaviour does not depend on the engine's
/// iteration order.
///
/// Every slot runs the same steps whether or not a [`Recorder`] is
/// attached: the due calendar releases the nodes that wake or are due,
/// then two sequential passes in ascending id order — actions, then
/// delivery — each over a bitset of the nodes it must visit. A slot's
/// node work follows its events, not n; what is left of n is one load
/// per 64 nodes in each pass's bitset scan, so a slot costs
/// O(events + n/64). A recorder only receives the events and
/// spans those steps emit; with [`NoopRecorder`] the emission compiles
/// away. Both passes skip a node parked on a [`Protocol::quiet`] promise
/// until its due slot or a reception it heeds (see the [`Protocol`]
/// docs); every public entry point catches parked nodes up before it
/// returns.
pub struct Simulator<P: Protocol, M: InterferenceModel> {
    graph: UnitDiskGraph,
    model: M,
    nodes: Vec<P>,
    rngs: Vec<StdRng>,
    slot: u64,
    // Also the engine's one copy of the wake slots (`stats.wake_slot`).
    stats: SimStats,
    // The SoA status column: awake/active/done/tx/prev-tx, one byte per
    // node (see [`NodeFlags`]). Replaces three `Vec<bool>`s and the hot
    // loops' per-node `wake`/`is_active` probes.
    flags: Vec<NodeFlags>,
    done_count: usize,
    // Park state, read only while the node's PARKED bit is set: the slot
    // it must next run (`due`; a sleeping node's wake slot until it
    // wakes), the first slot not yet applied to it (`sync`; its
    // generator sits at that slot's draw), the coin it was parked with,
    // the first slot whose drawn-ahead coin is not known to fail
    // (`ahead`, reused when a heeded reception wakes it early), and the
    // generator the draw-ahead left at `ahead`'s draw (`ahead_rng`,
    // restored by a catch-up at `ahead` in place of replaying the coins).
    due: Vec<u64>,
    sync: Vec<u64>,
    coin: Vec<f64>,
    ahead: Vec<u64>,
    ahead_rng: Vec<StdRng>,
    // Sleeping nodes at their wake slot and parked nodes at their due
    // slot, so a slot finds the nodes it releases without a sweep.
    calendar: Calendar,
    // Node bitsets, one bit per node: the nodes the next action pass
    // runs (left runnable and unparked by delivery, or released by the
    // calendar), and the nodes this slot's delivery pass visits (woken,
    // ran `begin_slot`, named by the reception table, or done at
    // construction). Each pass zeroes the words it walks.
    act: Vec<u64>,
    visit: Vec<u64>,
    work: WorkLedger,
    // Dense per-slot buffers, reused across slots so the steady-state hot
    // loop performs no allocation. `tx_ids` keeps the executed slot's
    // transmitters until the next action pass, for the step view.
    tx_ids: Vec<NodeId>,
    tx_msg: Vec<Option<P::Message>>,
    inbox: Vec<(NodeId, P::Message)>,
    // Previous slot's resolver-stats snapshot, kept only while a recorder
    // is enabled: per-slot diffing of the cumulative counters yields the
    // resolver-internal fallback spans without touching the resolver
    // itself.
    prev_resolver: Option<ResolverStats>,
    // The last slot's reception table, newly-done list and ran list,
    // reused across slots (mem::take'd during the step, put back before
    // the view is built) so the steady-state loop allocates none of them.
    table: ReceptionTable,
    newly_done: Vec<NodeId>,
    ran: Vec<NodeId>,
    // Heap-traffic attribution, when enabled. Deliberately *not* routed
    // through the Recorder: the ledger bills the engine's own phases, and
    // a recorder's storage would be billed with them. Snapshot reads
    // touch only counters — never RNG, ordering, or control flow — so
    // enabling this cannot perturb a deterministic run.
    alloc_profile: Option<Box<EngineAllocProfile>>,
}

impl<P: Protocol, M: InterferenceModel> Simulator<P, M> {
    /// Creates a simulator; `make_node(id)` constructs the protocol
    /// instance for each node.
    ///
    /// # Panics
    ///
    /// Panics if the graph has `u32::MAX` nodes or more: the due
    /// calendar links nodes by 32-bit id.
    pub fn new(
        graph: UnitDiskGraph,
        model: M,
        schedule: WakeupSchedule,
        seed: u64,
        mut make_node: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = graph.len();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < NIL),
            "the due calendar links at most u32::MAX - 1 nodes"
        );
        let max_degree = graph.max_degree();
        let wake = schedule.wake_slots(n, seed);
        let nodes: Vec<P> = (0..n).map(&mut make_node).collect();
        let rngs: Vec<StdRng> = (0..n)
            .map(|v| StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v as u64))
            .collect();
        let words = n.div_ceil(64);
        let mut visit = vec![0; words];
        let flags = nodes
            .iter()
            .enumerate()
            .map(|(v, nd)| {
                let mut f = NodeFlags::default();
                f.set_active(nd.is_active());
                // A node done before the run starts, asleep or awake, is
                // accounted in slot 0 with the nodes that decide there.
                if nd.is_done() {
                    f.insert(NodeFlags::DONE | NodeFlags::JUST_DONE);
                    set_bit(&mut visit, v);
                }
                f
            })
            .collect();
        // Every node sleeps in the calendar until its wake slot, linked
        // in ascending id order so each slot wakes its nodes in that order.
        let mut calendar = Calendar::new(n);
        for (v, &w) in wake.iter().enumerate() {
            calendar.link(v, w);
        }
        let stats = SimStats::new(wake);
        Simulator {
            graph,
            model,
            nodes,
            ahead_rng: rngs.clone(),
            rngs,
            slot: 0,
            due: stats.wake_slot.clone(),
            stats,
            flags,
            done_count: 0,
            sync: vec![0; n],
            coin: vec![0.0; n],
            ahead: vec![0; n],
            calendar,
            act: vec![0; words],
            visit,
            work: WorkLedger::default(),
            // Hot-loop buffers are preallocated to their hard bounds (n
            // transmitters, max-degree receptions per inbox) so the
            // warmed-up slot loop never grows them.
            tx_ids: Vec::with_capacity(n),
            tx_msg: (0..n).map(|_| None).collect(),
            inbox: Vec::with_capacity(max_degree),
            prev_resolver: None,
            // Under SINR thresholds β ≥ 1 each node decodes at most one
            // sender per slot, so n pairs bounds the recycled table on
            // that path (permissive models may still grow it).
            table: ReceptionTable::from_pairs(Vec::with_capacity(n)),
            newly_done: Vec::with_capacity(n),
            ran: Vec::with_capacity(n),
            alloc_profile: None,
        }
    }

    /// Enables per-phase heap-traffic attribution for the next
    /// `capacity_slots` slots (the per-slot sample buffer is preallocated
    /// to that length and never grows, so profiling itself stays
    /// allocation-free per slot). Requires [`sinr_obs::alloc::CountingAlloc`]
    /// to be installed as the binary's global allocator to read nonzero
    /// numbers. Independent of the [`Recorder`].
    pub fn enable_alloc_profile(&mut self, capacity_slots: usize) {
        self.alloc_profile = Some(Box::new(EngineAllocProfile::with_capacity(capacity_slots)));
    }

    /// The accumulated allocation profile, if enabled.
    pub fn alloc_profile(&self) -> Option<&EngineAllocProfile> {
        self.alloc_profile.as_deref()
    }

    /// Takes the allocation profile out of the simulator (disables
    /// further profiling).
    pub fn take_alloc_profile(&mut self) -> Option<Box<EngineAllocProfile>> {
        self.alloc_profile.take()
    }

    /// The communication graph being simulated.
    pub fn graph(&self) -> &UnitDiskGraph {
        &self.graph
    }

    /// The interference model in use.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The protocol instances, indexed by node id.
    ///
    /// Exact between calls. Inside a run (from a `run_observed` or
    /// `run_recorded` observer) a parked node reads as of its last real
    /// slot: only state that quiet slots leave unchanged is current (see
    /// [`Protocol::quiet`]).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The protocol instance of node `v`, as [`Simulator::nodes`] sees it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v]
    }

    /// Statistics accumulated so far. Exact between calls; inside a run a
    /// parked node's `listen_slots` lag at its last real slot.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The next slot to be executed.
    pub fn current_slot(&self) -> u64 {
        self.slot
    }

    /// Whether every node has decided.
    pub fn all_done(&self) -> bool {
        self.done_count == self.flags.len()
    }

    fn ctx(&self, v: NodeId) -> NodeCtx {
        NodeCtx {
            id: v,
            global_slot: self.slot,
            local_slot: self.slot - self.stats.wake_slot[v],
        }
    }

    /// Executes one slot and returns what happened.
    pub fn step(&mut self) -> StepView<'_> {
        self.step_impl(&mut NoopRecorder);
        self.flush();
        self.view()
    }

    /// A view of the most recently executed slot, borrowing the reused
    /// slot buffers. Valid until the next `step` or `run*` call.
    fn view(&self) -> StepView<'_> {
        debug_assert!(self.slot > 0, "no slot executed yet");
        StepView {
            slot: self.slot - 1,
            transmitters: &self.tx_ids,
            receptions: &self.table,
            newly_done: &self.newly_done,
            ran: &self.ran,
        }
    }

    /// Executes one slot, streaming its events and spans into `rec`.
    /// Generic over the recorder so [`NoopRecorder`] monomorphizes the
    /// `enabled()` test to `false` and every emission site away; a
    /// `dyn Recorder` pays one virtual `enabled()` call per slot.
    fn step_impl<R: Recorder + ?Sized>(&mut self, rec: &mut R) {
        let slot = self.slot;
        let obs = rec.enabled();

        // Heap-traffic attribution (when enabled): the profile box is
        // moved out for the duration of the slot so the phase marks do
        // not alias the other `&mut self` uses, and restored at the end.
        let mut prof = self.alloc_profile.take();
        let prof_start = prof.as_ref().map(|_| alloc::snapshot());

        // 1. The calendar wakes this slot's sleeping nodes and releases
        // the parked nodes due now into the action set.
        self.release_due(slot, obs, rec);

        // 2. Actions, recorded into the dense reused buffers.
        self.phase_actions_fused(slot, obs, rec);
        let mut prof_mark = prof_start;
        if let (Some(p), Some(mark)) = (prof.as_deref_mut(), prof_mark) {
            prof_mark = Some(EngineAllocProfile::phase_mark(&mut p.actions, mark));
        }

        // Slot-time spans: each slot subdivides into quarter ticks —
        // actions [0,1), resolve [1,3), delivery [3,4) — so the engine's
        // phases render as adjacent blocks on one Perfetto track. The
        // quarter ticks are slot time, not wall time, so emitting them
        // cannot perturb the run.
        let q0 = slot * QUARTERS_PER_SLOT;
        if obs {
            rec.span(
                &SpanRecord::complete(SpanTrack::Engine, span_names::ENGINE_ACTIONS, q0, 1)
                    .with_arg("tx", count_i64(self.tx_ids.len())),
            );
        }

        // 3. Channel resolution into the recycled table. No model reads
        // the delta, so it is empty.
        let mut table = std::mem::take(&mut self.table);
        self.model.resolve_delta_into(
            &self.graph,
            &self.tx_ids,
            TxDelta {
                started: &[],
                stopped: &[],
            },
            &mut table,
        );
        self.stats.transmissions += self.tx_ids.len() as u64;
        self.stats.record_channel_load(self.tx_ids.len());
        if let (Some(p), Some(mark)) = (prof.as_deref_mut(), prof_mark) {
            prof_mark = Some(EngineAllocProfile::phase_mark(&mut p.resolve, mark));
        }
        if obs {
            rec.gauge_set(keys::SIM_SLOT_TRANSMITTERS, self.tx_ids.len() as f64);
            rec.span(&SpanRecord::complete(
                SpanTrack::Engine,
                span_names::ENGINE_RESOLVE,
                q0 + 1,
                2,
            ));
            self.emit_resolver_spans(q0 + 1, rec);
        }

        let rx_before = self.stats.receptions;

        // 4 + 5. Delivery, end-of-slot processing, and termination
        // bookkeeping for every node in the visit set.
        let mut newly_done = std::mem::take(&mut self.newly_done);
        let mut ran = std::mem::take(&mut self.ran);
        newly_done.clear();
        ran.clear();
        self.phase_delivery_fused(slot, &table, &mut newly_done, &mut ran, obs, rec);

        if let (Some(p), Some(mark)) = (prof.as_deref_mut(), prof_mark) {
            let _ = EngineAllocProfile::phase_mark(&mut p.delivery, mark);
        }

        if obs {
            // `newly_done` is ascending, so the Done events follow the
            // slot's Receive events in node order.
            for &v in &newly_done {
                rec.event(slot, &ObsEvent::Done { node: v });
            }
            let rx = self.stats.receptions.saturating_sub(rx_before);
            rec.span(
                &SpanRecord::complete(SpanTrack::Engine, span_names::ENGINE_DELIVERY, q0 + 3, 1)
                    .with_arg("rx", count_u64(rx))
                    .with_arg("done", count_i64(newly_done.len())),
            );
        }

        // 6. Drop the slot's messages (O(transmitters), not O(n)); the
        // transmitter list stays for the step view until the next action
        // pass clears it. Resolver statistics are read once at end of
        // run, not snapshotted per slot.
        for &t in &self.tx_ids {
            self.tx_msg[t] = None;
        }

        self.slot += 1;
        self.stats.slots = self.slot;

        // Put the reused slot buffers back for `view()` and the next step.
        self.table = table;
        self.newly_done = newly_done;
        self.ran = ran;

        if let (Some(p), Some(start)) = (prof.as_deref_mut(), prof_start) {
            let end = alloc::snapshot();
            let allocs = end.allocs.wrapping_sub(start.allocs);
            // `push` within the preallocated capacity never reallocates;
            // a full buffer drops samples rather than growing.
            if p.per_slot.len() < p.per_slot.capacity() {
                p.per_slot.push(allocs);
            } else {
                p.dropped_slots += 1;
            }
        }
        self.alloc_profile = prof;
    }

    /// Diffs the model's cumulative resolver counters against the previous
    /// slot's snapshot and emits a resolver-internal span for this slot's
    /// exact fallbacks.
    /// `q_resolve` is the resolve phase's first quarter-slot tick. Runs
    /// only while a recorder is enabled; models without resolver stats
    /// emit nothing.
    fn emit_resolver_spans<R: Recorder + ?Sized>(&mut self, q_resolve: u64, rec: &mut R) {
        let Some(cur) = self.model.resolver_stats() else {
            return;
        };
        if let Some(prev) = self.prev_resolver {
            let fallbacks = cur.exact_fallbacks.saturating_sub(prev.exact_fallbacks);
            if fallbacks > 0 {
                rec.span(
                    &SpanRecord::instant(
                        SpanTrack::Resolver,
                        span_names::RESOLVER_EXACT_FALLBACK,
                        q_resolve + 1,
                    )
                    .with_arg("candidates", count_u64(fallbacks)),
                );
            }
        }
        self.prev_resolver = Some(cur);
    }

    /// Slot phase 1: empties the calendar bucket of `slot` and releases
    /// its entries due now. A sleeping node wakes: `on_wake` runs, the
    /// Wake event is emitted, it joins the visit set and, if active, the
    /// action set. A parked node joins the action set, which catches it
    /// up and runs it. Entries due in a later turn of the wheel go back
    /// to the bucket in their order, so the sleeping nodes of a bucket
    /// stay in ascending id order and wake in it.
    // lint:hot — calendar release loop, runs every slot over one bucket
    fn release_due<R: Recorder + ?Sized>(&mut self, slot: u64, obs: bool, rec: &mut R) {
        let b = Calendar::bucket(slot);
        let head = std::mem::replace(&mut self.calendar.heads[b], NIL);
        if head == NIL {
            return;
        }
        let mut e = head;
        loop {
            let v = e as usize;
            // Read before `v` is released or relinked; the entries not yet
            // walked keep their links until their turn.
            let nx = self.calendar.next[v];
            self.calendar.next[v] = NIL;
            self.calendar.prev[v] = NIL;
            self.work.visits += 1;
            if self.due[v] != slot {
                debug_assert!(self.due[v] > slot, "node {v} was not released when due");
                self.calendar.link(v, self.due[v]);
            } else if self.flags[v].parked() {
                set_bit(&mut self.act, v);
            } else {
                let ctx = self.ctx(v);
                self.nodes[v].on_wake(&ctx);
                let active = self.nodes[v].is_active();
                self.flags[v].insert(NodeFlags::AWAKE);
                self.flags[v].set_active(active);
                set_bit(&mut self.visit, v);
                if active {
                    set_bit(&mut self.act, v);
                }
                if obs {
                    rec.event(slot, &ObsEvent::Wake { node: v });
                }
            }
            if nx == head {
                break;
            }
            e = nx;
        }
    }

    /// Slot phases 2 + 3a: one sequential pass over the action set, in
    /// ascending id order, decides each node's action, maintains the
    /// transmit buffers, accounts tx/listen activity, and emits the
    /// Transmit events. Every node in the set is awake and active; the
    /// ACTIVE bits are refreshed after every callback so the column stays
    /// exact. A parked node is in the set
    /// only at its due slot, where it catches up and runs: its coin
    /// succeeds there, or its promise or the draw-ahead horizon ends.
    /// Every node that runs joins the visit set, so delivery gives it
    /// its `end_slot` or polls its done-ness.
    // lint:hot — per-node action loop, runs every slot over the action set
    fn phase_actions_fused<R: Recorder + ?Sized>(&mut self, slot: u64, obs: bool, rec: &mut R) {
        self.tx_ids.clear();
        for w in 0..self.act.len() {
            let mut bits = std::mem::take(&mut self.act[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.work.visits += 1;
                let f = self.flags[v];
                debug_assert!(f.runnable(), "node {v} in the action set cannot run");
                if f.parked() {
                    debug_assert_eq!(self.due[v], slot, "node {v} released before it was due");
                    self.catch_up(v, slot);
                    self.flags[v].remove(NodeFlags::PARKED);
                }
                set_bit(&mut self.visit, v);
                let ctx = NodeCtx {
                    id: v,
                    global_slot: slot,
                    local_slot: slot - self.stats.wake_slot[v],
                };
                let mut rng = RandSlotRng(&mut self.rngs[v]);
                self.work.begin_slots += 1;
                let listened = match self.nodes[v].begin_slot(&ctx, &mut rng) {
                    Action::Transmit(msg) => {
                        self.tx_ids.push(v);
                        self.tx_msg[v] = Some(msg);
                        self.stats.tx_slots[v] += 1;
                        if obs {
                            rec.event(slot, &ObsEvent::Transmit { node: v });
                        }
                        false
                    }
                    Action::Listen => true,
                };
                // Activity is re-checked after begin_slot so a node that
                // deactivates inside the callback is not billed a listen
                // slot. Done transitions inside begin_slot are caught by
                // the delivery pass, which visits every node that ran here.
                let active = self.nodes[v].is_active();
                if listened && active {
                    self.stats.listen_slots[v] += 1;
                }
                self.flags[v].set_active(active);
            }
        }
    }

    /// Applies the quiet slots `sync[v]..slot` that parked node `v`
    /// skipped: lets the protocol skip them, bills them as listen slots,
    /// and brings its generator to `slot`'s draw. At `ahead[v]` that is
    /// the generator the draw-ahead left there, which is restored; before
    /// it, the coins are replayed on the real generator with the coin the
    /// node was parked with (each failed when drawn ahead). Leaves the
    /// PARKED bit alone.
    // lint:hot — catch-up loop, runs once per parked interval
    fn catch_up(&mut self, v: NodeId, slot: u64) {
        let k = slot - self.sync[v];
        if k == 0 {
            return;
        }
        let coin = self.coin[v];
        if slot == self.ahead[v] {
            // The restored copy is spent: a node parks again only through
            // a fresh draw-ahead, which rewrites it.
            std::mem::swap(&mut self.rngs[v], &mut self.ahead_rng[v]);
        } else if coin > 0.0 {
            let mut rng = RandSlotRng(&mut self.rngs[v]);
            for _ in 0..k {
                let hit = rng.chance(coin);
                debug_assert!(!hit, "node {v}: a coin drawn ahead as a failure succeeded");
            }
            self.work.coins_replayed += k;
        }
        self.nodes[v].skip_quiet(k);
        self.stats.listen_slots[v] += k;
        self.sync[v] = slot;
    }

    /// Parks node `v` after its visit in `slot` if it promises at least
    /// one quiet slot, and returns whether it did. Its coins are drawn
    /// ahead on a copy of its generator, and its due slot is the first
    /// success, the end of the promise or the draw-ahead horizon,
    /// whichever comes first; the calendar holds it there. `woken` marks
    /// a visit forced by a heeded reception while parked: that slot was
    /// quiet, so each slot since the last draw-ahead drew exactly one
    /// coin, and with the same coin that draw — its `ahead` and the
    /// generator kept there — still holds from here to its first success.
    fn park(&mut self, v: NodeId, slot: u64, woken: bool) -> bool {
        let Some(quiet) = self.nodes[v].quiet() else {
            return false;
        };
        let next = slot + 1;
        let end = next.saturating_add(quiet.slots);
        let ahead = if woken && self.coin[v].to_bits() == quiet.coin.to_bits() {
            debug_assert!(self.ahead[v] > slot, "a woken node was due later");
            self.ahead[v]
        } else {
            let (ahead, drawn) =
                draw_ahead(&self.rngs[v], &mut self.ahead_rng[v], quiet.coin, next, end);
            self.work.coins_ahead += drawn;
            ahead
        };
        let due = ahead.min(end);
        if due <= next {
            return false;
        }
        self.due[v] = due;
        self.sync[v] = next;
        self.coin[v] = quiet.coin;
        self.ahead[v] = ahead;
        if due != u64::MAX {
            self.calendar.link(v, due);
        }
        self.work.parks += 1;
        true
    }

    /// Runs this slot's `begin_slot` for a parked node a heeded reception
    /// woke, after taking it out of the calendar and catching it up
    /// through the previous slot. The slot is quiet and its coin was
    /// drawn ahead as a failure, so the node listens.
    fn wake_parked(&mut self, v: NodeId, ctx: &NodeCtx) {
        if self.due[v] != u64::MAX {
            self.calendar.unlink(v, self.due[v]);
        }
        self.catch_up(v, ctx.global_slot);
        let mut rng = RandSlotRng(&mut self.rngs[v]);
        self.work.begin_slots += 1;
        let action = self.nodes[v].begin_slot(ctx, &mut rng);
        debug_assert!(
            !action.is_transmit(),
            "node {v}: a quiet slot before its due slot transmitted"
        );
        debug_assert!(
            self.nodes[v].is_active(),
            "node {v}: a quiet slot deactivated it"
        );
        self.stats.listen_slots[v] += 1;
    }

    /// Catches every parked node up to the next slot, so node state,
    /// generators and statistics are exact between calls. The nodes stay
    /// parked: their drawn-ahead coins still hold.
    // lint:hot — flush loop, runs once per `step` and at the end of a run
    fn flush(&mut self) {
        let slot = self.slot;
        for v in 0..self.flags.len() {
            if self.flags[v].parked() {
                self.catch_up(v, slot);
            }
        }
    }

    /// Slot phases 4 + 5: one pass over the visit set, in ascending id
    /// order, merge-joins the sorted reception table against the visited
    /// nodes (no per-node binary search), emits the Receive events, runs
    /// `end_slot`, accounts every node that decided this slot into
    /// `newly_done`, and lists every awake node it visits in `ran` but a
    /// parked receiver that heeds nothing. The table's receivers join the
    /// set first.
    ///
    /// Every node that ran `begin_slot` this slot is in the set and gets
    /// its `end_slot` here, and its done-ness and park decision are taken
    /// after it; one that stays runnable and unparked joins the next
    /// action set. An awake inactive node is polled for done-ness only
    /// in a slot in which it had a callback, since `is_done` changes only
    /// inside one. Sleeping nodes are skipped unless a pending JUST_DONE
    /// needs accounting: nodes done at construction carry JUST_DONE into
    /// slot 0. A parked node is in the set only when the table names it:
    /// its receptions are counted and emitted, and it wakes only if it
    /// heeds one of them, which it is asked before any message is copied
    /// into its inbox; otherwise it stays parked and runs no callback.
    // lint:hot — per-node delivery loop, runs every slot over the visit set
    fn phase_delivery_fused<R: Recorder + ?Sized>(
        &mut self,
        slot: u64,
        table: &ReceptionTable,
        newly_done: &mut Vec<NodeId>,
        ran: &mut Vec<NodeId>,
        obs: bool,
        rec: &mut R,
    ) {
        let pairs = table.pairs();
        for &(r, _) in pairs {
            set_bit(&mut self.visit, r);
        }
        let mut p = 0usize;
        let mut inbox = std::mem::take(&mut self.inbox);
        for w in 0..self.visit.len() {
            let mut bits = std::mem::take(&mut self.visit[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.work.visits += 1;
                let f = self.flags[v];
                let mut fl = f;
                if f.awake() {
                    // Receptions granted to sleeping or inactive receivers
                    // are dropped undelivered and uncounted.
                    while p < pairs.len() && pairs[p].0 < v {
                        p += 1;
                    }
                    let first = p;
                    while p < pairs.len() && pairs[p].0 == v {
                        p += 1;
                    }
                    let rx = &pairs[first..p];
                    if f.active() && (!rx.is_empty() || !f.parked()) {
                        self.stats.receptions += rx.len() as u64;
                        if obs {
                            for &(_, sender) in rx {
                                rec.event(
                                    slot,
                                    &ObsEvent::Receive {
                                        receiver: v,
                                        sender,
                                    },
                                );
                            }
                        }
                        // A parked receiver is asked before anything is
                        // copied, so the messages it ignores never are.
                        let heeded = !f.parked()
                            || rx
                                .iter()
                                .any(|&(_, sender)| self.nodes[v].heeds(sender, self.sent(sender)));
                        if heeded {
                            ran.push(v);
                            inbox.clear();
                            for &(_, sender) in rx {
                                let msg = self.sent(sender);
                                inbox.push((sender, msg.clone()));
                            }
                            let ctx = NodeCtx {
                                id: v,
                                global_slot: slot,
                                local_slot: slot - self.stats.wake_slot[v],
                            };
                            if f.parked() {
                                self.wake_parked(v, &ctx);
                                fl.remove(NodeFlags::PARKED);
                            }
                            self.work.end_slots += 1;
                            self.nodes[v].end_slot(&ctx, &inbox);
                            let active = self.nodes[v].is_active();
                            fl.set_active(active);
                            if !f.done() && self.nodes[v].is_done() {
                                fl.insert(NodeFlags::DONE | NodeFlags::JUST_DONE);
                            }
                            if active && self.park(v, slot, f.parked()) {
                                fl.insert(NodeFlags::PARKED);
                            }
                        } else {
                            self.work.rx_left_parked += rx.len() as u64;
                        }
                    } else if !f.active() {
                        // An awake inactive node in the set had a callback
                        // this slot (`on_wake` or `begin_slot`) or is named
                        // by the table; one may have decided while going
                        // silent, so it is polled.
                        ran.push(v);
                        if !f.done() && self.nodes[v].is_done() {
                            fl.insert(NodeFlags::DONE | NodeFlags::JUST_DONE);
                        }
                    }
                }
                if fl.just_done() {
                    fl.remove(NodeFlags::JUST_DONE);
                    self.done_count += 1;
                    self.stats.done_slot[v] = Some(slot);
                    newly_done.push(v);
                }
                if fl.runnable() && !fl.parked() {
                    set_bit(&mut self.act, v);
                }
                self.flags[v] = fl;
            }
        }
        self.inbox = inbox;
    }

    /// The message `sender` transmitted this slot. The reception table
    /// is built from this slot's transmitters, so a reception from a
    /// node that did not transmit is a bug in the interference model.
    fn sent(&self, sender: NodeId) -> &P::Message {
        self.tx_msg[sender]
            .as_ref()
            .expect("reception from a node that transmitted")
    }

    /// Runs until every node is done or `max_slots` slots have executed.
    pub fn run(&mut self, max_slots: u64) -> RunOutcome {
        self.run_observed(max_slots, |_, _| {})
    }

    /// Like [`Simulator::run`], but calls `observe(&self, &view)` after
    /// every slot — the hook the experiment harness uses for per-slot
    /// audits (independence checks, interference measurements).
    ///
    /// The observer sees a parked node as of its last real slot (see
    /// [`Simulator::nodes`]): it should read only state that quiet slots
    /// leave unchanged, or the nodes that ran this slot, which
    /// [`StepView::ran`] lists. Those are the only nodes whose state can
    /// have changed since the previous slot, so an observer that tracks
    /// protocol state can follow them instead of sweeping all n nodes.
    /// The run catches every node up before it returns; that catch-up
    /// changes only what quiet slots change.
    pub fn run_observed(
        &mut self,
        max_slots: u64,
        mut observe: impl FnMut(&Self, &StepView<'_>),
    ) -> RunOutcome {
        self.run_recorded(max_slots, &mut NoopRecorder, |sim, view, _| {
            observe(sim, view)
        })
    }

    /// Like [`Simulator::run_observed`], but threads a [`Recorder`] through
    /// every slot: the engine streams wake/transmit/receive/done events
    /// and engine spans into it, and the observer gets it for
    /// protocol-level instrumentation (phase transitions, invariant
    /// probes). Recorded and unrecorded runs execute the same passes.
    ///
    /// The recorder only receives per-slot *events* here; call
    /// [`Simulator::export_metrics`] once after the run to flush the
    /// aggregate counters, so repeated `run_recorded` segments on one
    /// simulator never double-count.
    pub fn run_recorded<R: Recorder + ?Sized>(
        &mut self,
        max_slots: u64,
        rec: &mut R,
        mut observe: impl FnMut(&Self, &StepView<'_>, &mut R),
    ) -> RunOutcome {
        let start = self.slot;
        while self.slot - start < max_slots && !self.all_done() {
            self.step_impl(rec);
            // The view is rebuilt from the shared borrow so the observer
            // can also see the simulator itself.
            let view = self.view();
            observe(self, &view, rec);
            // Series sampling happens after the observer so the slot's
            // protocol-level metrics (mw.*, probe.*) are already recorded.
            rec.series_tick(view.slot);
        }
        self.flush();
        RunOutcome {
            all_done: self.all_done(),
            slots: self.slot - start,
        }
    }

    /// Exports the run's aggregate metrics into `rec` under the canonical
    /// `sim.*` / `resolver.*` keys (see `docs/OBS_SCHEMA.md`): slot,
    /// transmission, and reception totals, the channel-load histogram,
    /// the engine's `sim.work.*` ledger, and the resolver's fast-path
    /// counters if the model tracks them.
    ///
    /// Call once, after the run; counters are cumulative totals.
    pub fn export_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter_add(keys::SIM_SLOTS, self.stats.slots);
        rec.counter_add(keys::SIM_TRANSMISSIONS, self.stats.transmissions);
        rec.counter_add(keys::SIM_RECEPTIONS, self.stats.receptions);
        rec.counter_add(keys::SIM_DONE_NODES, self.stats.done_count() as u64);
        rec.histogram_merge(keys::SIM_CHANNEL_LOAD, &self.stats.channel_load);
        let w = &self.work;
        rec.counter_add(keys::SIM_WORK_VISITS, w.visits);
        rec.counter_add(keys::SIM_WORK_BEGIN_SLOTS, w.begin_slots);
        rec.counter_add(keys::SIM_WORK_END_SLOTS, w.end_slots);
        rec.counter_add(keys::SIM_WORK_PARKS, w.parks);
        rec.counter_add(keys::SIM_WORK_COINS_AHEAD, w.coins_ahead);
        rec.counter_add(keys::SIM_WORK_COINS_REPLAYED, w.coins_replayed);
        rec.counter_add(keys::SIM_WORK_RX_LEFT_PARKED, w.rx_left_parked);
        if let Some(rs) = self.model.resolver_stats() {
            rs.export_into(rec);
        }
    }
}

/// Span-argument conversion for counts: saturates instead of wrapping so a
/// pathological value can never corrupt a trace.
fn count_i64(x: usize) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Span-argument conversion for `u64` counters (saturating).
fn count_u64(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::{placement, Point};
    use sinr_model::{GraphModel, IdealModel};

    /// Transmits its id once at a fixed local slot, then is done.
    struct OneShot {
        fire_at: u64,
        fired: bool,
        heard: Vec<NodeId>,
    }

    impl Protocol for OneShot {
        type Message = NodeId;
        fn begin_slot<R: SlotRng + ?Sized>(
            &mut self,
            ctx: &NodeCtx,
            _rng: &mut R,
        ) -> Action<NodeId> {
            if ctx.local_slot == self.fire_at && !self.fired {
                self.fired = true;
                Action::Transmit(ctx.id)
            } else {
                Action::Listen
            }
        }
        fn end_slot(&mut self, _ctx: &NodeCtx, received: &[(NodeId, NodeId)]) {
            self.heard.extend(received.iter().map(|&(s, _)| s));
        }
        fn is_done(&self) -> bool {
            self.fired
        }
    }

    fn two_neighbors() -> UnitDiskGraph {
        UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)], 1.0)
    }

    #[test]
    fn staggered_transmissions_are_heard() {
        let g = two_neighbors();
        let mut sim = Simulator::new(g, IdealModel::new(), WakeupSchedule::Synchronous, 0, |id| {
            OneShot {
                fire_at: id as u64, // node 0 fires slot 0, node 1 slot 1
                fired: false,
                heard: Vec::new(),
            }
        });
        let outcome = sim.run(10);
        assert!(outcome.all_done);
        assert_eq!(sim.node(0).heard, vec![1]);
        assert_eq!(sim.node(1).heard, vec![0]);
        assert_eq!(sim.stats().transmissions, 2);
        assert_eq!(sim.stats().receptions, 2);
    }

    #[test]
    fn simultaneous_transmitters_hear_nothing() {
        let g = two_neighbors();
        let mut sim = Simulator::new(g, GraphModel::new(), WakeupSchedule::Synchronous, 0, |_| {
            OneShot {
                fire_at: 0,
                fired: false,
                heard: Vec::new(),
            }
        });
        sim.run(5);
        assert!(sim.node(0).heard.is_empty());
        assert!(sim.node(1).heard.is_empty());
    }

    #[test]
    #[should_panic(expected = "reception from a node that transmitted")]
    fn a_reception_from_a_silent_node_is_a_model_bug() {
        // Grants node 1 a message from node 0 in every slot, whoever
        // transmits.
        struct Phantom;
        impl InterferenceModel for Phantom {
            fn resolve(&self, _g: &UnitDiskGraph, _tx: &[NodeId]) -> ReceptionTable {
                ReceptionTable::from_pairs(vec![(1, 0)])
            }
            fn name(&self) -> &'static str {
                "phantom"
            }
        }
        let g = UnitDiskGraph::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0),
                Point::new(1.0, 0.0),
            ],
            1.0,
        );
        // Node 2 transmits in slot 0 while nodes 0 and 1 listen.
        let mut sim = Simulator::new(g, Phantom, WakeupSchedule::Synchronous, 0, |id| OneShot {
            fire_at: if id == 2 { 0 } else { 5 },
            fired: false,
            heard: Vec::new(),
        });
        sim.run(1);
    }

    #[test]
    fn sleeping_nodes_do_not_participate() {
        let g = two_neighbors();
        // Node 1 wakes at slot 3 (staggered step 3); node 0 fires at local 0.
        let mut sim = Simulator::new(
            g,
            IdealModel::new(),
            WakeupSchedule::Staggered { step: 3 },
            0,
            |_id| OneShot {
                fire_at: 0,
                fired: false,
                heard: Vec::new(),
            },
        );
        let _ = id_holder(&mut sim);
        sim.run(10);
        // Node 0 fired at slot 0 while node 1 slept: nothing heard.
        assert!(sim.node(1).heard.is_empty());
        // Node 1 fired at slot 3 (its local 0) while node 0 listened.
        assert_eq!(sim.node(0).heard, vec![1]);
    }

    // Helper that exists only to exercise the generic accessors.
    fn id_holder<P: Protocol, M: InterferenceModel>(sim: &mut Simulator<P, M>) -> u64 {
        sim.current_slot()
    }

    #[test]
    fn local_slot_is_relative_to_wake() {
        struct Probe {
            saw: Vec<(u64, u64)>,
        }
        impl Protocol for Probe {
            type Message = ();
            fn begin_slot<R: SlotRng + ?Sized>(
                &mut self,
                ctx: &NodeCtx,
                _rng: &mut R,
            ) -> Action<()> {
                self.saw.push((ctx.global_slot, ctx.local_slot));
                Action::Listen
            }
            fn end_slot(&mut self, _ctx: &NodeCtx, _r: &[(NodeId, ())]) {}
            fn is_done(&self) -> bool {
                self.saw.len() >= 3
            }
        }
        let g = two_neighbors();
        let mut sim = Simulator::new(
            g,
            IdealModel::new(),
            WakeupSchedule::Staggered { step: 2 },
            0,
            |_| Probe { saw: Vec::new() },
        );
        sim.run(10);
        // Done nodes stay active by default, so node 0 keeps observing
        // slots until the run ends; check the prefixes.
        assert_eq!(&sim.node(0).saw[..3], &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(&sim.node(1).saw[..3], &[(2, 0), (3, 1), (4, 2)]);
    }

    #[test]
    fn determinism_across_runs() {
        struct Rnd {
            txs: u32,
        }
        impl Protocol for Rnd {
            type Message = u32;
            fn begin_slot<R: SlotRng + ?Sized>(
                &mut self,
                _ctx: &NodeCtx,
                rng: &mut R,
            ) -> Action<u32> {
                if rng.chance(0.3) {
                    self.txs += 1;
                    Action::Transmit(self.txs)
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _ctx: &NodeCtx, _r: &[(NodeId, u32)]) {}
            fn is_done(&self) -> bool {
                self.txs >= 5
            }
        }
        let make = || {
            let g = UnitDiskGraph::new(placement::uniform(40, 3.0, 3.0, 2), 1.0);
            Simulator::new(
                g,
                GraphModel::new(),
                WakeupSchedule::Synchronous,
                11,
                |_| Rnd { txs: 0 },
            )
        };
        let mut a = make();
        let mut b = make();
        let oa = a.run(500);
        let ob = b.run(500);
        assert_eq!(oa, ob);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn run_stops_at_max_slots() {
        struct Never;
        impl Protocol for Never {
            type Message = ();
            fn begin_slot<R: SlotRng + ?Sized>(&mut self, _: &NodeCtx, _: &mut R) -> Action<()> {
                Action::Listen
            }
            fn end_slot(&mut self, _: &NodeCtx, _: &[(NodeId, ())]) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = two_neighbors();
        let mut sim = Simulator::new(g, IdealModel::new(), WakeupSchedule::Synchronous, 0, |_| {
            Never
        });
        let outcome = sim.run(17);
        assert!(!outcome.all_done);
        assert_eq!(outcome.slots, 17);
        assert_eq!(sim.stats().slots, 17);
    }

    #[test]
    fn trace_records_lifecycle() {
        use sinr_obs::FullRecorder;
        let g = two_neighbors();
        let mut sim = Simulator::new(g, IdealModel::new(), WakeupSchedule::Synchronous, 0, |id| {
            OneShot {
                fire_at: id as u64,
                fired: false,
                heard: Vec::new(),
            }
        });
        let mut rec = FullRecorder::new();
        let out = sim.run_recorded(10, &mut rec, |_, _, _| {});
        assert!(out.all_done);
        // Each event's place in the slot: Wake → Transmit → Receive → Done.
        let phase = |e: &ObsEvent| match e {
            ObsEvent::Wake { .. } => 0,
            ObsEvent::Transmit { .. } => 1,
            ObsEvent::Receive { .. } => 2,
            ObsEvent::Done { .. } => 3,
            other => panic!("not an engine event: {other:?}"),
        };
        let events: Vec<(u64, u8)> = rec.events().map(|(s, e)| (*s, phase(e))).collect();
        for kind in 0..4 {
            assert!(
                events.iter().any(|&(_, k)| k == kind),
                "kind {kind} missing: {events:?}"
            );
        }
        assert!(
            events.windows(2).all(|w| w[0] <= w[1]),
            "events are slot-major and in phase order within a slot: {events:?}"
        );
    }

    #[test]
    fn activity_accounting_partitions_awake_slots() {
        let g = two_neighbors();
        let mut sim = Simulator::new(
            g,
            IdealModel::new(),
            WakeupSchedule::Staggered { step: 3 },
            0,
            |id| OneShot {
                fire_at: id as u64 + 1,
                fired: false,
                heard: Vec::new(),
            },
        );
        let outcome = sim.run(20);
        let stats = sim.stats();
        for v in 0..2 {
            let awake = outcome.slots - stats.wake_slot[v];
            assert_eq!(
                stats.tx_slots[v] + stats.listen_slots[v],
                awake,
                "node {v}: every awake slot is tx or listen"
            );
            assert_eq!(stats.tx_slots[v], 1, "node {v} fired exactly once");
        }
        assert_eq!(
            stats.transmissions,
            stats.tx_slots.iter().sum::<u64>(),
            "global transmission count equals the per-node tx totals"
        );
    }

    #[test]
    fn recorded_runs_emit_engine_phase_spans_and_series_ticks() {
        use sinr_obs::{FullRecorder, SeriesConfig};
        let g = two_neighbors();
        let mut sim = Simulator::new(g, IdealModel::new(), WakeupSchedule::Synchronous, 0, |id| {
            OneShot {
                fire_at: id as u64,
                fired: false,
                heard: Vec::new(),
            }
        });
        let mut rec = FullRecorder::new();
        rec.enable_series(SeriesConfig::new(1).with_keys(vec![keys::SIM_SLOT_TRANSMITTERS]));
        let out = sim.run_recorded(10, &mut rec, |_, _, _| {});
        assert!(out.all_done);
        // Three engine spans per slot, in phase order within each slot.
        let spans: Vec<_> = rec.spans().collect();
        assert_eq!(spans.len() as u64, 3 * out.slots);
        assert_eq!(spans[0].name, span_names::ENGINE_ACTIONS);
        assert_eq!(spans[1].name, span_names::ENGINE_RESOLVE);
        assert_eq!(spans[2].name, span_names::ENGINE_DELIVERY);
        assert!(spans.iter().all(|s| s.track == SpanTrack::Engine));
        // Slot 0: node 0 transmits → tx arg 1; the gauge tracks the last
        // slot's transmitter count.
        assert_eq!(spans[0].args[0], Some(("tx", 1)));
        let series = rec.series().expect("series enabled");
        assert_eq!(series.len() as u64, out.slots);
        assert_eq!(
            series.column(keys::SIM_SLOT_TRANSMITTERS),
            Some(&[1.0, 1.0][..])
        );
    }

    #[test]
    fn observer_sees_every_slot() {
        let g = two_neighbors();
        let mut sim = Simulator::new(g, IdealModel::new(), WakeupSchedule::Synchronous, 0, |id| {
            OneShot {
                fire_at: id as u64,
                fired: false,
                heard: Vec::new(),
            }
        });
        let mut slots_seen = Vec::new();
        sim.run_observed(10, |_, view| slots_seen.push(view.slot));
        assert_eq!(slots_seen, vec![0, 1]); // done after slot 1
    }
}
