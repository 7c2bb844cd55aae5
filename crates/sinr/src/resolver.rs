//! The paper's physical model, [`SinrModel`]: the exact kernel
//! (`crate::kernel`), plus a grid of near/far interference bounds that
//! decides most candidates without the full sum. The grid only skips work,
//! never changes a table: [`SinrModel::new`] builds it once the slots it
//! resolves on a graph are dense enough to pay for it
//! ([`GRID_MIN_TX_PER_SLOT`]), and until then — or for good, when
//! [`CellGrid::try_bind`] refuses a point set too scattered for a dense
//! grid — every slot runs the exact decode alone. With the grid on, a
//! dense slot costs far less than the exact pass:
//!
//! 1. The model binds a dense [`CellGrid`] (cell side `R_T`) to the graph's
//!    point set **once**. A slot's receptions depend on that slot's
//!    transmitters alone (§II), so every slot the bounds decide (more than
//!    [`SMALL_SLOT_EXACT_CUTOFF`] transmitters) clears the grid and inserts
//!    its transmitters into packed per-cell entry lists: `O(k)` work into
//!    buffers sized at bind time, with no hashing. Smaller slots leave the
//!    members alone, since nothing reads them there.
//! 2. Near/far classification is shared per *cell* instead of recomputed
//!    per candidate: each occupied transmitter cell stamps itself into the
//!    near lists of the candidate cells inside its `(2·reach+1)²` window
//!    (pure dense-index arithmetic). A candidate receiver then walks its
//!    cell's near list, streaming each near cell's packed
//!    `(x, y, id)` entries for the exact near sum; everything not in the
//!    list is *far* and only counted. The far tail is bounded by
//!    `|far| · P / (reach·R_T)^α` — a Lemma-3-style conservative ring
//!    bound: every far transmitter sits strictly beyond `reach · R_T`, so
//!    its true contribution is strictly below the per-node cap (see
//!    `Distributed Node Coloring in the SINR Model`, Lemma 3, and the
//!    uniform-power tail bounds of Avin et al., arXiv:0906.2311).
//! 3. A sender is decoded from the bounds only when the *pessimistic*
//!    SINR (far tail fully charged) already clears `β` **and** no other
//!    sender clears `β` even *optimistically* (far tail zero). A slot
//!    verdict of "nothing decodable" requires every sender to fail
//!    optimistically. The bounds carry a relative slack of [`SUM_SLACK`]
//!    so they bracket the exact decode's floating-point sum (not just
//!    the real-valued one) regardless of summation order — which also
//!    makes the verdicts independent of the grid's *entry order*.
//!    Whenever the bounds disagree, the candidate falls back to the exact
//!    decode, so the produced [`ReceptionTable`] is bit-identical in every
//!    case — the grid is a pure strength reduction, never an
//!    approximation.
//!
//! All scratch state (the kernel's transmitter bitmap, candidate bitset,
//! link and pair buffers, the transmitter grid, the stamped near lists) lives
//! in one box behind a `RefCell` and is reused across slots, so the model
//! is `Send` but not `Sync`, and a steady-state slot resolved through
//! [`InterferenceModel::resolve_delta_into`] performs no allocation.

use crate::config::SinrConfig;
use crate::interference::{received_power, received_power_d2, sinr_from_signal};
use crate::kernel::{decode_exact, DecodeScratch, ExactCtx, ExactKernel};
use crate::model::{InterferenceModel, ReceptionTable, TxDelta};
use sinr_geometry::{CellGrid, NodeId, UnitDiskGraph};
use std::cell::RefCell;

/// Default near-window half-width, in grid cells (cell side = `R_T`).
///
/// Transmitters beyond `4·R_T` contribute at most `P/(4·R_T)^α` each —
/// under the default profile (`α = 4`, `R_T = 1`, `N = 1/(2β)`) that is
/// `< 1.2%` of the ambient noise per transmitter, so the optimistic and
/// pessimistic SINR bounds almost always agree and the exact fallback is
/// rare (the `ResolverStats` hit rate makes this observable).
pub const DEFAULT_NEAR_REACH_CELLS: i64 = 4;

/// At or below this many transmitters the exact `O(k)` sum is cheaper
/// than refilling the grid and stamping the slot's candidate cells, so
/// such slots skip the grid and leave its members as they are.
pub const SMALL_SLOT_EXACT_CUTOFF: usize = 12;

/// Slots [`SinrModel::new`] resolves on a graph without a grid before it
/// checks whether their size pays for one (see [`GRID_MIN_TX_PER_SLOT`]).
pub const GRID_SAMPLE_SLOTS: u32 = 64;

/// The grid break-even, in transmitters per resolved slot: [`SinrModel::new`]
/// builds the grid once a window of [`GRID_SAMPLE_SLOTS`] slots averages
/// more than this, and keeps it while it resolves that graph. Read off
/// alternated grid-on/grid-off runs (`docs/PERFORMANCE.md`, "Grid on or
/// off"): MW windows average 27.4 at `n = 1536`, where the grid lost, and
/// 36.6 at `n = 2048`, where it won; TDMA frames fall on the same sides.
pub const GRID_MIN_TX_PER_SLOT: u64 = 32;

/// Relative slack applied to the interference bounds so they bracket the
/// exact decode's *floating-point* sum, not just the real-valued one:
/// the near sum is accumulated in near-list/entry order (and from squared
/// distances) while the exact decode sums in `transmitting` order, so the
/// two can differ by accumulated rounding of roughly `k·ε` relative
/// (`ε = 2⁻⁵²`; below `10⁻⁹` for any realistic `k ≤ 10⁶`). Only
/// candidates whose SINR sits within the slack of `β` lose the fast path.
pub const SUM_SLACK: f64 = 1e-9;

/// Cumulative counters of a [`SinrModel`]: how its candidates were
/// decided, and what its grid did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Candidate receivers decided purely from the certified bounds.
    pub fast_path_hits: u64,
    /// Candidate receivers that needed the full exact interference sum
    /// (bound disagreement, a small slot below the grid cutoff, or a slot
    /// without a grid).
    pub exact_fallbacks: u64,
    /// Near-list entries examined during interference summation (one per
    /// near transmitter cell per fast-path candidate).
    pub cells_scanned: u64,
    /// Transmitters inserted into the grid: the sum of `k` over the slots
    /// the bounds decide, so nonzero exactly when the grid ran. The name
    /// is left from a start/stop delta that no model reads any more; the
    /// field stays while the benchmark package reads it, and goes with
    /// [`TxDelta`] (ROADMAP.md).
    pub delta_started: u64,
    /// Members cleared from the grid before each refill: the `k` of the
    /// previous slot the bounds decided. Named and kept like
    /// `delta_started`.
    pub delta_stopped: u64,
}
impl ResolverStats {
    /// Fraction of candidates decided on the fast path (`None` before any
    /// candidate was resolved).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.fast_path_hits + self.exact_fallbacks;
        if total == 0 {
            None
        } else {
            Some(self.fast_path_hits as f64 / total as f64)
        }
    }

    /// Adds another stats snapshot into this one (for aggregating across
    /// runs or seeds).
    pub fn merge(&mut self, other: &ResolverStats) {
        self.fast_path_hits += other.fast_path_hits;
        self.exact_fallbacks += other.exact_fallbacks;
        self.cells_scanned += other.cells_scanned;
        self.delta_started += other.delta_started;
        self.delta_stopped += other.delta_stopped;
    }

    /// Exports the counters (and the derived hit rate, when defined) into
    /// a recorder under the canonical `resolver.*` keys.
    pub fn export_into(&self, rec: &mut dyn sinr_obs::Recorder) {
        use sinr_obs::keys;
        rec.counter_add(keys::RESOLVER_FAST_PATH_HITS, self.fast_path_hits);
        rec.counter_add(keys::RESOLVER_EXACT_FALLBACKS, self.exact_fallbacks);
        rec.counter_add(keys::RESOLVER_CELLS_SCANNED, self.cells_scanned);
        rec.counter_add(keys::RESOLVER_DELTA_STARTED, self.delta_started);
        rec.counter_add(keys::RESOLVER_DELTA_STOPPED, self.delta_stopped);
        if let Some(rate) = self.hit_rate() {
            rec.gauge_set(keys::RESOLVER_HIT_RATE, rate);
        }
    }
}

/// "Not stamped this slot" marker in `GridState::cand_cell_idx`.
const NOT_STAMPED: u32 = u32::MAX;

/// One near cell of a candidate cell: the transmitter cell's dense index
/// plus whether it is close enough (Chebyshev ≤ 1) to hold decodable
/// senders for receivers in the candidate cell.
#[derive(Debug, Clone, Copy)]
struct NearRef {
    cell: u32,
    sender: bool,
}

/// The grid state: the bound transmitter grid, the window that weighs
/// building it, and the per-slot candidate-cell stamping scratch.
#[derive(Debug, Clone, Default)]
struct GridState {
    /// Dense grid bound to the current graph's point set; `None` before
    /// the first bind, while the model runs without one, or when
    /// [`CellGrid::try_bind`] refused the point set. Every slot without a
    /// grid is decoded exactly.
    grid: Option<CellGrid>,
    /// Whether the model still weighs building a grid for the bound
    /// graph, and the slots and transmitters of its current window.
    sampling: bool,
    sample_slots: u32,
    sample_tx: u64,
    /// Bind fingerprint: the positions slice pointer (0 before the first
    /// bind), its length, and the graph radius. [`UnitDiskGraph`]s are
    /// immutable, so a matching fingerprint (re-verified with
    /// [`CellGrid::binds`]'s endpoint spot check each slot when a grid is
    /// bound) identifies the bound graph.
    bound_ptr: usize,
    bound_len: usize,
    bound_radius: f64,
    /// Per-cell stamp: index into `near_refs` when the cell holds
    /// candidates this slot, [`NOT_STAMPED`] otherwise.
    cand_cell_idx: Vec<u32>,
    /// Candidate cells stamped this slot (indices into `cand_cell_idx`,
    /// unstamped at the start of the next slot).
    stamped: Vec<u32>,
    /// Near list per stamped candidate cell; pooled and reused.
    near_refs: Vec<Vec<NearRef>>,
}

impl GridState {
    /// Whether the state is bound to `g`'s point set and radius.
    fn is_bound_to(&self, g: &UnitDiskGraph) -> bool {
        let positions = g.positions();
        self.bound_ptr == positions.as_ptr() as usize
            && self.bound_len == positions.len()
            && self.bound_radius == g.radius()
            && self.grid.as_ref().is_none_or(|grid| grid.binds(positions))
    }

    /// Binds to `g` without a grid, sampling its slots when `sample`.
    fn bind(&mut self, g: &UnitDiskGraph, sample: bool) {
        let positions = g.positions();
        self.grid = None;
        self.bound_ptr = positions.as_ptr() as usize;
        self.bound_len = positions.len();
        self.bound_radius = g.radius();
        self.stamped.clear();
        self.sampling = sample;
        self.sample_slots = 0;
        self.sample_tx = 0;
    }

    /// Counts a slot of `k` transmitters; true when it closes a window
    /// that averaged more than [`GRID_MIN_TX_PER_SLOT`].
    fn sample(&mut self, k: usize) -> bool {
        self.sample_slots += 1;
        self.sample_tx += k as u64;
        if self.sample_slots < GRID_SAMPLE_SLOTS {
            return false;
        }
        self.sample_slots = 0;
        std::mem::take(&mut self.sample_tx) > GRID_MIN_TX_PER_SLOT * u64::from(GRID_SAMPLE_SLOTS)
    }

    /// Builds the grid over the bound graph `g` with a near window of
    /// `reach` cells unless [`CellGrid::try_bind`] refuses; stops sampling.
    fn build_grid(&mut self, g: &UnitDiskGraph, reach: i64) {
        let positions = g.positions();
        self.sampling = false;
        self.grid = CellGrid::try_bind(positions, g.radius());
        let Some(grid) = &self.grid else {
            return;
        };
        let (rows, cols) = grid.dims();
        let cell_count = (rows * cols) as usize;
        self.cand_cell_idx.clear();
        self.cand_cell_idx.resize(cell_count, NOT_STAMPED);
        // Build the whole near-reference list pool up front: one list per
        // possibly-stamped cell (distinct candidate cells,
        // ≤ min(n, cells)), each sized to its Chebyshev window bound.
        // Together with the `stamped` reservation this makes every later
        // stamping pass allocation-free — candidate-count records late in
        // a run would otherwise be the last allocating slots.
        let window_cap = (2 * reach + 1).pow(2) as usize;
        let lists = positions.len().min(cell_count);
        self.stamped.reserve(cell_count);
        self.near_refs
            .resize_with(lists, || Vec::with_capacity(window_cap));
        for list in &mut self.near_refs {
            let shortfall = window_cap.saturating_sub(list.capacity());
            list.reserve(shortfall);
        }
    }
}

/// The model's working state, reused across slots (interior mutability
/// keeps [`InterferenceModel::resolve`]'s `&self` signature).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The grid and its stamping scratch (see [`GridState`]).
    gs: GridState,
    /// The exact kernel's bitmaps, candidate list and decode buffers.
    kernel: ExactKernel,
    stats: ResolverStats,
}

/// Immutable per-slot context of every candidate of a grid slot: the
/// exact decode's inputs, the stamped near lists, and the precomputed
/// bounds.
struct SlotCtx<'a> {
    exact: ExactCtx<'a>,
    grid: &'a CellGrid,
    cand_cell_idx: &'a [u32],
    near_refs: &'a [Vec<NearRef>],
    far_cap: f64,
    k: usize,
}

/// Resolves one candidate receiver of a grid slot: the sender it
/// decodes, if any. A candidate the bounds decide counts as a fast-path
/// hit in `cs`; any other falls back to the exact decode.
///
/// Pure in `(ctx, u)`: the same candidate produces the same reception and
/// counter increments whatever slot or candidate came before it.
// lint:hot — resolver inner loop, runs once per candidate per slot
fn resolve_candidate(ctx: &SlotCtx<'_>, u: NodeId, cs: &mut DecodeScratch) -> Option<NodeId> {
    let exact = &ctx.exact;
    let grid = ctx.grid;
    let positions = exact.positions;
    let pu = positions[u];
    // The near/far split was already computed per *cell* during
    // stamping: this candidate's cell carries the list of occupied
    // transmitter cells within `reach`. Stream each near cell's packed
    // entries for the exact near sum; everything else is far and only
    // counted. Senders must lie within R_T = one cell side, so they live
    // in cells flagged `sender` (Chebyshev ≤ 1) and are collected for the
    // SINR evaluation below.
    let refs = &ctx.near_refs[ctx.cand_cell_idx[grid.cell_of(u) as usize] as usize];
    let mut near_sum = 0.0f64;
    let mut near_count = 0usize;
    cs.sender_buf.clear();
    for r in refs {
        let entries = grid.entries(r.cell);
        for e in entries {
            let dx = pu.x - e.x;
            let dy = pu.y - e.y;
            near_sum += received_power_d2(exact.power, dx * dx + dy * dy, exact.alpha);
            if r.sender {
                cs.sender_buf.push(e.id);
            }
        }
        near_count += entries.len();
    }
    cs.counts.cells += refs.len() as u64;
    let far_tail = (ctx.k - near_count) as f64 * ctx.far_cap;
    // [total_low, total_high] brackets the exact decode's floating-point
    // interference sum; SUM_SLACK absorbs the different summation order
    // (see its docs).
    let total_low = near_sum * (1.0 - SUM_SLACK);
    let total_high = (near_sum + far_tail) * (1.0 + SUM_SLACK);

    // `certified` clears β even pessimistically; `possible` counts
    // senders clearing β optimistically.
    let mut certified: Option<NodeId> = None;
    let mut possible = 0u64;
    for &v in &cs.sender_buf {
        let d2 = positions[v].distance_squared(pu);
        if d2 <= exact.adjacency_r2 {
            // One signal per link serves both bounds; `d2.sqrt()` is the
            // distance the exact decode takes.
            let signal = received_power(exact.power, d2.sqrt(), exact.alpha);
            let optimistic = sinr_from_signal(exact.noise, signal, total_low);
            if optimistic >= exact.beta {
                possible += 1;
                let pessimistic = sinr_from_signal(exact.noise, signal, total_high);
                if pessimistic >= exact.beta && certified.is_none() {
                    certified = Some(v);
                }
            }
        }
    }
    match certified {
        // v decodes even with the tail fully charged and no other sender
        // can reach β: the exact decode necessarily picks exactly v.
        Some(v) if possible == 1 => {
            cs.counts.fast_hits += 1;
            Some(v)
        }
        // No sender reaches β even with zero far tail.
        None if possible == 0 => {
            cs.counts.fast_hits += 1;
            None
        }
        // The bounds disagree: decode exactly.
        _ => decode_exact(exact, u, &mut cs.links),
    }
}
/// Stamps this slot's candidate cells and builds their near lists: every
/// occupied transmitter cell registers itself (with its sender flag) in
/// each stamped candidate cell inside its `(2·reach+1)²` window.
///
/// `near_refs` must hold at least as many pooled lists as there are
/// distinct candidate cells (the caller grows the pool beforehand, so
/// this stays allocation-free apart from amortized list growth).
// lint:hot — cell-stamping pass, runs once per grid slot
fn stamp_candidate_cells(
    grid: &CellGrid,
    candidates: &[NodeId],
    reach: i64,
    cand_cell_idx: &mut [u32],
    stamped: &mut Vec<u32>,
    near_refs: &mut [Vec<NearRef>],
) {
    for &u in candidates {
        let c = grid.cell_of(u);
        if cand_cell_idx[c as usize] == NOT_STAMPED {
            let idx = stamped.len() as u32;
            cand_cell_idx[c as usize] = idx;
            stamped.push(c);
            near_refs[idx as usize].clear();
        }
    }
    for &c in grid.occupied() {
        grid.for_each_window_cell(c, reach, |w, cheb| {
            let idx = cand_cell_idx[w as usize];
            if idx != NOT_STAMPED {
                near_refs[idx as usize].push(NearRef {
                    cell: c,
                    sender: cheb <= 1,
                });
            }
        });
    }
}

/// The paper's physical model: receiver `u` decodes sender `v` iff
/// `δ(u, v) ≤ R_T` and the SINR against *all* simultaneous transmitters
/// plus ambient noise is at least `β` (§II). With `β ≥ 1` at most one
/// sender can be decodable at any receiver, so the strongest qualifying
/// sender is delivered. Resolved exactly, with the grid bounds of the
/// [module docs](crate::resolver) once its slots are dense enough to pay
/// for them.
///
/// # Example
///
/// ```
/// use sinr_geometry::{Point, UnitDiskGraph};
/// use sinr_model::{InterferenceModel, SinrConfig, SinrModel};
///
/// let g = UnitDiskGraph::new(
///     vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(2.5, 0.0)],
///     1.0,
/// );
/// let cfg = SinrConfig::default_unit();
/// let table = SinrModel::new(cfg).resolve(&g, &[0, 2]);
/// assert_eq!(table.unique_sender(1), Some(0));
/// // Forcing the grid on changes the work a slot does, never its table.
/// assert_eq!(SinrModel::with_grid(cfg, Some(4)).resolve(&g, &[0, 2]), table);
/// ```
#[derive(Debug, Clone)]
pub struct SinrModel {
    cfg: SinrConfig,
    /// Near-window half-width of the grid, in cells of side `R_T`.
    near_reach: i64,
    /// `Some(on)` forces the grid on or off; `None` builds it once the
    /// resolved slots are dense enough (see [`GRID_MIN_TX_PER_SLOT`]).
    forced: Option<bool>,
    /// Boxed on the first slot: the model stays a few words by value, and
    /// a pristine one (kept for cloning) holds no heap.
    scratch: RefCell<Option<Box<Scratch>>>,
}

/// The former name of [`SinrModel`], kept while the benchmark package
/// still names it.
pub type FastSinrModel = SinrModel;

impl SinrModel {
    /// Creates the model from a physical configuration. It starts each
    /// graph without a grid and builds one once a window of
    /// [`GRID_SAMPLE_SLOTS`] slots averages more than [`GRID_MIN_TX_PER_SLOT`].
    pub fn new(cfg: SinrConfig) -> Self {
        SinrModel {
            cfg,
            near_reach: DEFAULT_NEAR_REACH_CELLS,
            forced: None,
            scratch: RefCell::default(),
        }
    }

    /// Creates the model with the grid forced: off for `None`, on for
    /// `Some(reach)` with a near window of `reach` cells of side `R_T`
    /// (wherever [`CellGrid::try_bind`] accepts the point set). Larger
    /// windows tighten the far-tail bound at the cost of summing more
    /// transmitters exactly; tables never depend on the choice.
    ///
    /// # Panics
    ///
    /// Panics if `reach < 1` (the window must cover the `R_T` disk).
    pub fn with_grid(cfg: SinrConfig, near_reach_cells: Option<i64>) -> Self {
        let near_reach = near_reach_cells.unwrap_or(DEFAULT_NEAR_REACH_CELLS);
        assert!(
            near_reach >= 1,
            "near window must cover at least the R_T disk"
        );
        SinrModel {
            near_reach,
            forced: Some(near_reach_cells.is_some()),
            ..Self::new(cfg)
        }
    }

    /// Forwards to [`SinrModel::new`] (`g` is unused); kept while the
    /// benchmark package still calls it.
    pub fn auto(cfg: SinrConfig, g: &UnitDiskGraph) -> Self {
        let _ = g;
        Self::new(cfg)
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SinrConfig {
        &self.cfg
    }

    /// Snapshot of the cumulative resolver statistics.
    pub fn stats(&self) -> ResolverStats {
        self.scratch
            .borrow()
            .as_ref()
            .map_or_else(Default::default, |s| s.stats)
    }

    /// Resets the cumulative statistics to zero.
    pub fn reset_stats(&self) {
        if let Some(s) = self.scratch.borrow_mut().as_mut() {
            s.stats = ResolverStats::default();
        }
    }

    /// Shared implementation of `resolve` and `resolve_delta_into`:
    /// fills `pairs` (cleared first) with the slot's receptions, sorted by
    /// receiver. The caller owns the buffer so a driver that recycles one
    /// table performs no allocation here once scratch capacities have
    /// grown to the instance's working size — the module contract above.
    fn resolve_inner(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        pairs: &mut Vec<(NodeId, NodeId)>,
    ) {
        let k = transmitting.len();
        let exact = ExactCtx::new(&self.cfg, g, transmitting);
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { gs, kernel, stats } = &mut **scratch.get_or_insert_with(Box::default);
        kernel.begin_slot(g, transmitting);

        let fresh = !gs.is_bound_to(g);
        if fresh {
            gs.bind(g, self.forced.is_none());
        }
        // A forced grid is built at bind; otherwise it waits for a dense
        // window, since below the break-even the exact pass alone beats
        // the grid's work.
        if (fresh && self.forced == Some(true)) || (gs.sampling && gs.sample(k)) {
            gs.build_grid(g, self.near_reach);
        }

        let counts = match &mut gs.grid {
            // Only a slot worth the bounds reads the grid, so only such a
            // slot refills it with its transmitters.
            Some(grid) if k > SMALL_SLOT_EXACT_CUTOFF => {
                stats.delta_stopped += grid.len() as u64;
                grid.clear_members();
                for &t in transmitting {
                    grid.insert(t);
                }
                stats.delta_started += k as u64;
                let grid = &*grid;
                // A candidate's sender scan yields at most the bound-node
                // population of its 3×3 cell window; size the collection
                // buffer to that bind-time bound once so a record-density
                // window late in the run cannot grow it.
                kernel.reserve_senders(grid.max_window_population());
                for &c in &gs.stamped {
                    gs.cand_cell_idx[c as usize] = NOT_STAMPED;
                }
                gs.stamped.clear();
                // Safety net only: the pool built at bind time already
                // holds one list per possibly-stamped cell, and lists are
                // indexed by stamped order (distinct candidate cells),
                // never by raw candidate count. A stamped cell collects at
                // most one reference per cell of its Chebyshev window, so
                // new lists are sized to that bound and never grow during
                // a pass.
                let window_cap = (2 * self.near_reach + 1).pow(2) as usize;
                let lists_needed = kernel.candidates().len().min(gs.cand_cell_idx.len());
                while gs.near_refs.len() < lists_needed {
                    gs.near_refs.push(Vec::with_capacity(window_cap));
                }
                stamp_candidate_cells(
                    grid,
                    kernel.candidates(),
                    self.near_reach,
                    &mut gs.cand_cell_idx,
                    &mut gs.stamped,
                    &mut gs.near_refs,
                );
                let ctx = SlotCtx {
                    exact,
                    grid,
                    cand_cell_idx: &gs.cand_cell_idx,
                    near_refs: &gs.near_refs,
                    // Far transmitters sit strictly beyond `near_reach`
                    // cells (two cells whose dense coordinates differ by
                    // more than `reach` in a coordinate are separated by
                    // more than `reach · cell` in that coordinate), so
                    // each contributes strictly less than this cap.
                    far_cap: received_power(
                        exact.power,
                        self.near_reach as f64 * g.radius(),
                        exact.alpha,
                    ),
                    k,
                };
                kernel.finish_slot(&exact, pairs, |u, cs| resolve_candidate(&ctx, u, cs))
            }
            // No grid, or a slot too small for it: every candidate is
            // decoded exactly.
            _ => kernel.finish_slot(&exact, pairs, |u, cs| {
                decode_exact(&exact, u, &mut cs.links)
            }),
        };
        stats.fast_path_hits += counts.fast_hits;
        stats.exact_fallbacks += counts.fallbacks;
        stats.cells_scanned += counts.cells;
    }
}

impl InterferenceModel for SinrModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let mut pairs = Vec::new();
        self.resolve_inner(g, transmitting, &mut pairs);
        ReceptionTable::from_sorted_pairs(pairs)
    }

    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        _delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        // Recycle the caller's buffer: once it has grown to the slot
        // working set, a steady-state slot allocates nothing.
        let mut pairs = out.take_pairs();
        self.resolve_inner(g, transmitting, &mut pairs);
        *out = ReceptionTable::from_sorted_pairs(pairs);
    }

    fn name(&self) -> &'static str {
        "sinr"
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geometry::Point;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    /// The model with the grid forced on at the default near window.
    fn grid_on(c: SinrConfig) -> SinrModel {
        SinrModel::with_grid(c, Some(DEFAULT_NEAR_REACH_CELLS))
    }

    /// The model with the grid forced off: the exact kernel alone.
    fn grid_off(c: SinrConfig) -> SinrModel {
        SinrModel::with_grid(c, None)
    }

    /// A deterministic pseudo-random scatter (LCG; no RNG dependency).
    fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * extent, next() * extent))
            .collect()
    }

    /// A scatter sized for roughly the given mean degree at `R_T = 1`.
    fn scatter_with_degree(n: usize, degree: f64, seed: u64) -> Vec<Point> {
        let extent = (n as f64 * std::f64::consts::PI / degree).sqrt();
        scatter(n, extent, seed)
    }

    fn spread_tx(n: usize, k: usize) -> Vec<NodeId> {
        (0..k).map(|i| i * n / k.max(1)).collect()
    }

    #[test]
    fn matches_naive_on_dense_scatter() {
        let c = cfg();
        for seed in 0..5u64 {
            let g = UnitDiskGraph::new(scatter(300, 8.0, seed), c.r_t());
            let fast = grid_on(c);
            let naive = grid_off(c);
            for &k in &[1usize, 5, 13, 40, 120, 300] {
                let tx = spread_tx(300, k);
                assert_eq!(
                    fast.resolve(&g, &tx),
                    naive.resolve(&g, &tx),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_across_alphas_and_reaches() {
        for &alpha in &[2.5f64, 3.0, 4.0, 6.0] {
            let c = SinrConfig::with_unit_range(alpha, 1.5, 2.0);
            let g = UnitDiskGraph::new(scatter(200, 6.0, 42), c.r_t());
            let naive = grid_off(c);
            let tx = spread_tx(200, 60);
            let expected = naive.resolve(&g, &tx);
            for &reach in &[1i64, 2, 4, 8] {
                let fast = SinrModel::with_grid(c, Some(reach));
                assert_eq!(
                    fast.resolve(&g, &tx),
                    expected,
                    "alpha {alpha} reach {reach}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_with_colocated_transmitters() {
        // Degenerate: receiver-co-located and sender-co-located nodes
        // produce infinite powers; the fallback must still agree.
        let c = cfg();
        let mut pts = scatter(40, 3.0, 7);
        pts.push(pts[0]); // duplicate of node 0
        pts.push(pts[1]);
        let g = UnitDiskGraph::new(pts, c.r_t());
        let n = g.len();
        let fast = grid_on(c);
        let naive = grid_off(c);
        for &k in &[14usize, n] {
            let tx = spread_tx(n, k);
            assert_eq!(fast.resolve(&g, &tx), naive.resolve(&g, &tx), "k {k}");
        }
    }

    #[test]
    fn stats_accumulate_and_hit_rate_reports() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(400, 10.0, 3), c.r_t());
        let fast = grid_on(c);
        assert_eq!(fast.stats(), ResolverStats::default());
        assert_eq!(fast.stats().hit_rate(), None);
        let tx = spread_tx(400, 50);
        let _ = fast.resolve(&g, &tx);
        let s = fast.stats();
        assert!(s.fast_path_hits + s.exact_fallbacks > 0);
        assert!(s.cells_scanned > 0);
        assert_eq!((s.delta_started, s.delta_stopped), (50, 0), "one fill");
        let rate = s.hit_rate().expect("candidates were resolved");
        assert!((0.0..=1.0).contains(&rate));
        // A second, shifted slot clears the first slot's members and
        // inserts its own.
        let tx2: Vec<NodeId> = tx.iter().map(|&t| (t + 3) % 400).collect();
        let _ = fast.resolve(&g, &tx2);
        let s2 = fast.stats();
        assert_eq!((s2.delta_started, s2.delta_stopped), (100, 50));
        fast.reset_stats();
        assert_eq!(fast.stats(), ResolverStats::default());
    }

    #[test]
    fn small_slots_skip_the_grid() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(100, 5.0, 1), c.r_t());
        let fast = grid_on(c);
        let tx = spread_tx(100, SMALL_SLOT_EXACT_CUTOFF); // at the cutoff
        let _ = fast.resolve(&g, &tx);
        let s = fast.stats();
        assert_eq!(s.fast_path_hits, 0, "small slots resolve exactly");
        assert_eq!(s.cells_scanned, 0);
        assert!(s.exact_fallbacks > 0);
        // Nothing reads the grid in a small slot, so none fills it.
        let tx2: Vec<NodeId> = tx.iter().map(|&t| t + 1).collect();
        let _ = fast.resolve(&g, &tx2);
        let s2 = fast.stats();
        assert_eq!((s2.delta_started, s2.delta_stopped), (0, 0));
        assert_eq!(s2.fast_path_hits, 0);
    }

    #[test]
    fn scratch_adapts_to_graph_changes() {
        // Same model instance across different graphs and radii; the
        // persistent grid must rebind when the fingerprint changes.
        let fast = grid_on(cfg());
        let g1 = UnitDiskGraph::new(scatter(80, 4.0, 2), 1.0);
        let _ = fast.resolve(&g1, &spread_tx(80, 20));
        let g2 = UnitDiskGraph::new(scatter(250, 7.0, 9), 1.0);
        let naive = grid_off(cfg());
        let tx = spread_tx(250, 70);
        assert_eq!(fast.resolve(&g2, &tx), naive.resolve(&g2, &tx));
        // And back again: the first graph still resolves correctly.
        let tx1 = spread_tx(80, 30);
        assert_eq!(fast.resolve(&g1, &tx1), naive.resolve(&g1, &tx1));
    }

    #[test]
    fn deterministic_across_instances() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 11), c.r_t());
        let tx = spread_tx(300, 80);
        let a = grid_on(c);
        let b = grid_on(c);
        assert_eq!(a.resolve(&g, &tx), b.resolve(&g, &tx));
        assert_eq!(a.stats(), b.stats(), "stats are deterministic too");
    }

    #[test]
    fn empty_and_lone_transmitter() {
        let c = cfg();
        let g = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0)], c.r_t());
        let fast = grid_on(c);
        assert!(fast.resolve(&g, &[]).is_empty());
        let t = fast.resolve(&g, &[0]);
        assert_eq!(t.unique_sender(1), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least the R_T disk")]
    fn zero_reach_rejected() {
        let _ = SinrModel::with_grid(cfg(), Some(0));
    }

    #[test]
    fn incremental_sequence_matches_fresh_and_naive() {
        // One model reused across an evolving slot sequence (high churn)
        // must match both a fresh model per slot and the naive resolver.
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 21), c.r_t());
        let naive = grid_off(c);
        let reused = grid_on(c);
        for step in 0..40usize {
            // Shifting, size-varying transmitter sets.
            let k = 5 + (step * 17) % 90;
            let tx: Vec<NodeId> = (0..k).map(|i| (i * 300 / k + step * 7) % 300).collect();
            let fresh = grid_on(c);
            let expected = naive.resolve(&g, &tx);
            assert_eq!(reused.resolve(&g, &tx), expected, "step {step} (reused)");
            assert_eq!(fresh.resolve(&g, &tx), expected, "step {step} (fresh)");
        }
        let s = reused.stats();
        assert!(s.delta_started > 0 && s.delta_stopped > 0);
    }

    #[test]
    fn resolve_delta_matches_resolve() {
        // The engine's entry point, which refills one recycled table and
        // hands in an empty delta, matches plain `resolve` in its tables
        // and in its counters.
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 33), c.r_t());
        let naive = grid_off(c);
        let into = grid_on(c);
        let plain = grid_on(c);
        let mut table = ReceptionTable::default();
        let empty = TxDelta {
            started: &[],
            stopped: &[],
        };
        for step in 0..30usize {
            let k = 10 + (step * 13) % 80;
            let tx: Vec<NodeId> = (0..k).map(|i| (i * 300 / k + step * 11) % 300).collect();
            let expected = naive.resolve(&g, &tx);
            into.resolve_delta_into(&g, &tx, empty, &mut table);
            assert_eq!(table, expected, "step {step}");
            assert_eq!(plain.resolve(&g, &tx), expected, "step {step}");
        }
        assert_eq!(into.stats(), plain.stats());
    }

    #[test]
    fn pathological_scatter_disables_grid_but_stays_exact() {
        // Two far-apart clusters spread over a 10⁵-wide area: a dense
        // grid would need ~10¹⁰ cells, so binding is refused and every
        // slot resolves exactly — still bit-identical to naive.
        let c = cfg();
        let mut pts = scatter(30, 3.0, 2);
        for p in scatter(30, 3.0, 5) {
            pts.push(Point::new(p.x + 1.0e5, p.y + 1.0e5));
        }
        let g = UnitDiskGraph::new(pts, c.r_t());
        let naive = grid_off(c);
        let fast = grid_on(c);
        let tx = spread_tx(60, 20);
        assert_eq!(fast.resolve(&g, &tx), naive.resolve(&g, &tx));
        let s = fast.stats();
        assert_eq!(s.fast_path_hits, 0, "no grid, no fast path");
        assert_eq!(
            (s.delta_started, s.delta_stopped),
            (0, 0),
            "no grid, no members"
        );
        assert!(s.exact_fallbacks > 0);
    }

    /// `k` transmitters spread over `n` nodes, shifted by `step`.
    fn shifted(n: usize, k: usize, step: usize) -> Vec<NodeId> {
        (0..k).map(|i| (i * n / k + step) % n).collect()
    }

    /// Resolves `slots` slots of `k` transmitters each under `model`,
    /// checking every table against the grid-less kernel.
    fn run_slots(model: &SinrModel, g: &UnitDiskGraph, k: usize, slots: usize) {
        let off = grid_off(*model.config());
        for step in 0..slots {
            let tx = shifted(g.len(), k, step);
            assert_eq!(model.resolve(g, &tx), off.resolve(g, &tx), "slot {step}");
        }
    }

    #[test]
    fn default_builds_the_grid_after_a_window_of_dense_slots() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter_with_degree(2048, 12.0, 4), c.r_t());
        let window = GRID_SAMPLE_SLOTS as usize;
        let model = SinrModel::new(c);
        // A window short of its last slot: still no grid, so every
        // candidate is decoded exactly and nothing is inserted.
        run_slots(&model, &g, 60, window - 1);
        let s = model.stats();
        assert!(s.exact_fallbacks > 0);
        assert_eq!((s.fast_path_hits, s.delta_started), (0, 0));
        // The slot that closes the window builds the grid and uses it.
        run_slots(&model, &g, 60, 1);
        let s = model.stats();
        assert!(s.fast_path_hits > 0 && s.cells_scanned > 0);
        assert_eq!((s.delta_started, s.delta_stopped), (60, 0), "one fill");
        // From then on every slot above the cutoff refills it.
        run_slots(&model, &g, 60, 2);
        let s = model.stats();
        assert_eq!((s.delta_started, s.delta_stopped), (180, 120));
    }

    #[test]
    fn windows_at_or_below_the_break_even_keep_the_grid_off() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter_with_degree(2048, 12.0, 1), c.r_t());
        let window = GRID_SAMPLE_SLOTS as usize;
        let at = GRID_MIN_TX_PER_SLOT as usize;
        // Windows averaging exactly the break-even — slots far above the
        // small-slot cutoff — never build the grid.
        let model = SinrModel::new(c);
        run_slots(&model, &g, at, 3 * window);
        let s = model.stats();
        assert!(s.exact_fallbacks > 0);
        assert_eq!(
            (
                s.fast_path_hits,
                s.cells_scanned,
                s.delta_started,
                s.delta_stopped
            ),
            (0, 0, 0, 0)
        );
        // The window's mean decides, not its slots: half a window of
        // empty slots and half of slots above twice the break-even builds
        // it, on the window's last slot.
        let model = SinrModel::new(c);
        run_slots(&model, &g, 0, window / 2);
        run_slots(&model, &g, 2 * at + 2, window / 2 - 1);
        assert_eq!(model.stats().fast_path_hits, 0);
        run_slots(&model, &g, 2 * at + 2, 1);
        assert!(model.stats().fast_path_hits > 0);
    }

    #[test]
    fn picks_again_on_each_new_graph() {
        // One model moves from a graph whose slots build the grid to one
        // whose slots do not and back; each bind starts without a grid
        // and samples afresh.
        let c = cfg();
        let sparse = UnitDiskGraph::new(scatter_with_degree(256, 12.0, 5), c.r_t());
        let dense = UnitDiskGraph::new(scatter_with_degree(2048, 12.0, 5), c.r_t());
        let window = GRID_SAMPLE_SLOTS as usize;
        let model = SinrModel::new(c);
        run_slots(&model, &dense, 60, window);
        let hits = model.stats().fast_path_hits;
        assert!(hits > 0);
        run_slots(&model, &sparse, 20, 2 * window);
        assert_eq!(model.stats().fast_path_hits, hits);
        run_slots(&model, &dense, 60, window - 1);
        assert_eq!(model.stats().fast_path_hits, hits);
        run_slots(&model, &dense, 60, 1);
        assert!(model.stats().fast_path_hits > hits);
    }

    #[test]
    fn forcing_the_grid_skips_the_sampling() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter_with_degree(256, 12.0, 6), c.r_t());
        // Forced on: the first slot above the cutoff already runs the
        // bounds, on slots the default would never build a grid for.
        let on = grid_on(c);
        run_slots(&on, &g, 20, 1);
        assert!(on.stats().fast_path_hits > 0);
        // Forced off: dense windows never build one.
        let off = grid_off(c);
        run_slots(&off, &g, 120, 2 * GRID_SAMPLE_SLOTS as usize);
        assert_eq!(off.stats().fast_path_hits, 0);
    }

    #[test]
    fn resolver_stats_are_pinned_on_a_fixed_slot_sequence() {
        // Grid slots above SMALL_SLOT_EXACT_CUTOFF, exact slots at or
        // below it, two lone transmitters and an empty slot. The counters
        // are fixed numbers: neither candidate order nor the exact
        // kernel's lone-transmitter path may move one of them. The five
        // grid slots insert 40 + 60 + 13 + 120 + 90 = 323 transmitters and
        // clear the 0 + 40 + 60 + 13 + 120 = 233 members their grid slot
        // predecessors left.
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 17), c.r_t());
        let shifted = |k: usize, step: usize| -> Vec<NodeId> {
            (0..k).map(|i| (i * 300 / k + step) % 300).collect()
        };
        let slots = [
            spread_tx(300, 40),
            vec![7],
            vec![],
            shifted(60, 1),
            shifted(SMALL_SLOT_EXACT_CUTOFF + 1, 2),
            vec![150],
            shifted(SMALL_SLOT_EXACT_CUTOFF, 3),
            shifted(120, 4),
            shifted(90, 4),
        ];
        let naive = grid_off(c);
        let fast = grid_on(c);
        for (i, tx) in slots.iter().enumerate() {
            assert_eq!(fast.resolve(&g, tx), naive.resolve(&g, tx), "slot {i}");
        }
        assert_eq!(
            fast.stats(),
            ResolverStats {
                fast_path_hits: 952,
                exact_fallbacks: 146,
                cells_scanned: 23622,
                delta_started: 323,
                delta_stopped: 233,
            }
        );
    }

    #[test]
    fn stats_merge_covers_every_counter() {
        let mut a = ResolverStats {
            fast_path_hits: 1,
            exact_fallbacks: 2,
            cells_scanned: 3,
            delta_started: 4,
            delta_stopped: 5,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            ResolverStats {
                fast_path_hits: 2,
                exact_fallbacks: 4,
                cells_scanned: 6,
                delta_started: 8,
                delta_stopped: 10,
            }
        );
    }
}
