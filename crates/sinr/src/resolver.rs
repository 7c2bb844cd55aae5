//! A fast **exact** SINR resolver: incrementally maintained grid-tiled
//! near/far interference bounds with a certified fast path and a
//! bit-identical exact fallback.
//!
//! [`FastSinrModel`] resolves the same reception tables as
//! [`SinrModel`](crate::SinrModel) — provably, and checked by differential
//! proptests — while doing far less work per slot:
//!
//! 1. The model binds a dense [`CellGrid`] (cell side `R_T`) to the graph's
//!    point set **once**, and from then on maintains the transmitter set
//!    *incrementally*: each slot applies only the start/stop **delta**
//!    against the previous slot — either handed in by the driver via
//!    [`InterferenceModel::resolve_delta`] (the slot engine computes the
//!    delta for free during its action phase) or self-diffed against the
//!    previous transmitter list. Membership updates are `O(1)` swap
//!    insert/removals into packed per-cell entry lists; there is no
//!    per-slot clear-and-refill and no hashing.
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
//! 3. A sender is decoded on the fast path only when the *pessimistic*
//!    SINR (far tail fully charged) already clears `β` **and** no other
//!    sender clears `β` even *optimistically* (far tail zero). A slot
//!    verdict of "nothing decodable" requires every sender to fail
//!    optimistically. The bounds carry a relative slack of [`SUM_SLACK`]
//!    so they bracket the naive resolver's floating-point sum (not just
//!    the real-valued one) regardless of summation order — which also
//!    makes the verdicts independent of the grid's *entry order*, so the
//!    incremental membership history cannot influence results. Whenever
//!    the bounds disagree, the resolver falls back to the full
//!    interference sum **in the same iteration order as the naive
//!    resolver**, so the produced [`ReceptionTable`] is bit-identical in
//!    every case — the fast path is a pure strength reduction, never an
//!    approximation. Candidate discovery and that fallback are the exact
//!    kernel `SinrModel` runs too (`crate::kernel`).
//!
//! The persistent state is defensively certified: an externally supplied
//! delta is validated element-by-element against the grid's own membership
//! (plus a full `O(k)` containment sweep), and any inconsistency triggers
//! a certified full rebuild of the batch state — a wrong delta can cost
//! time, never correctness. A periodic epoch rebuild
//! (every [`EPOCH_REBUILD_SLOTS`] slots) re-canonicalizes the packed
//! entry lists and compacts the occupied-cell index, bounding any drift
//! in layout quality over arbitrarily long runs.
//!
//! All scratch state (the kernel's transmitter bitmap, candidate bitset,
//! link and pair buffers, the transmitter grid, the stamped near lists) lives
//! behind a `RefCell` and is reused across slots, so a steady-state slot
//! resolved through [`InterferenceModel::resolve_delta_into`] performs no
//! allocation.

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

/// Below this many transmitters the naive `O(k)` sum is cheaper than
/// stamping the slot's candidate cells, so small slots skip the fast path
/// (grid membership is still maintained so later slots stay incremental).
pub const SMALL_SLOT_EXACT_CUTOFF: usize = 12;

/// Calibration constant of [`FastSinrModel::auto`]: across MW runs the
/// steady-state slot carries about `0.18 · n / mean_degree` simultaneous
/// transmitters (measured 31.3 at `n = 2048`, mean degree 12.2 — factor
/// 0.186 — and 231.5 at `n = 16384`, factor 0.17; the protocol's
/// transmission probability scales as `1/degree`, so the fraction falls
/// with density). `auto` enables the grid only when that estimate clears
/// [`SMALL_SLOT_EXACT_CUTOFF`], i.e. when typical slots would actually
/// take the fast path.
pub const AUTO_TX_DENSITY_FACTOR: f64 = 0.18;

/// Slots between defensive full rebuilds of the persistent transmitter
/// grid. A rebuild re-inserts the current set in `transmitting` order,
/// re-canonicalizing packed entry order and compacting the occupied-cell
/// index; correctness never depends on it (verdicts are order-independent
/// by the [`SUM_SLACK`] bracket), it only bounds layout drift.
pub const EPOCH_REBUILD_SLOTS: u64 = 1024;

/// Relative slack applied to the interference bounds so they bracket the
/// naive resolver's *floating-point* sum, not just the real-valued one:
/// the near sum is accumulated in near-list/entry order (and from squared
/// distances) while the fallback sums in `transmitting` order, so the two
/// can differ by accumulated rounding of roughly `k·ε` relative
/// (`ε = 2⁻⁵²`; below `10⁻⁹` for any realistic `k ≤ 10⁶`). Only
/// candidates whose SINR sits within the slack of `β` lose the fast path.
pub const SUM_SLACK: f64 = 1e-9;

/// Cumulative counters exposed by resolvers that track their fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Candidate receivers decided purely from the certified bounds.
    pub fast_path_hits: u64,
    /// Candidate receivers that needed the full exact interference sum
    /// (bound disagreement, or a small slot below the grid cutoff).
    pub exact_fallbacks: u64,
    /// Near-list entries examined during interference summation (one per
    /// near transmitter cell per fast-path candidate).
    pub cells_scanned: u64,
    /// Transmitters incrementally inserted into the persistent grid
    /// (nodes that started transmitting relative to the previous slot).
    pub delta_started: u64,
    /// Transmitters incrementally removed from the persistent grid
    /// (nodes that stopped transmitting relative to the previous slot).
    pub delta_stopped: u64,
    /// Scheduled epoch rebuilds of the persistent grid (see
    /// [`EPOCH_REBUILD_SLOTS`]).
    pub epoch_rebuilds: u64,
    /// Certified full rebuilds forced by an externally supplied delta
    /// that failed validation against the grid's own membership. Always
    /// zero when the driver's deltas are consistent.
    pub full_rebuilds: u64,
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
        self.epoch_rebuilds += other.epoch_rebuilds;
        self.full_rebuilds += other.full_rebuilds;
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
        rec.counter_add(keys::RESOLVER_DELTA_EPOCH_REBUILDS, self.epoch_rebuilds);
        rec.counter_add(keys::RESOLVER_DELTA_FULL_REBUILDS, self.full_rebuilds);
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

/// The persistent incremental state: the bound transmitter grid, the
/// previous slot's transmitter list (for self-diffing), the epoch clock,
/// and the per-slot candidate-cell stamping scratch.
#[derive(Debug, Clone)]
struct GridState {
    /// Dense grid bound to the current graph's point set; `None` before
    /// the first bind or when binding was refused (see `bind_failed`).
    grid: Option<CellGrid>,
    /// The bound point set was too scattered for a dense grid
    /// ([`CellGrid::try_bind`] returned `None`); resolve exactly until
    /// the graph changes.
    bind_failed: bool,
    /// Bind fingerprint: the positions slice pointer, its length, and the
    /// graph radius. [`UnitDiskGraph`]s are immutable, so a matching
    /// fingerprint (re-verified with [`CellGrid::binds`]'s endpoint spot
    /// check each slot) identifies the bound graph.
    bound_ptr: usize,
    bound_len: usize,
    bound_radius: f64,
    /// The transmitter list of the previously resolved slot, for
    /// self-diffing when the driver supplies no delta.
    prev_tx: Vec<NodeId>,
    /// Slots resolved since the last full (re)build of the grid.
    slots_since_epoch: u64,
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
    fn empty() -> Self {
        GridState {
            grid: None,
            bind_failed: false,
            bound_ptr: 0,
            bound_len: 0,
            bound_radius: 0.0,
            prev_tx: Vec::new(),
            slots_since_epoch: 0,
            cand_cell_idx: Vec::new(),
            stamped: Vec::new(),
            near_refs: Vec::new(),
        }
    }
}

/// Reusable per-slot working state (interior mutability keeps
/// [`InterferenceModel::resolve`]'s `&self` signature).
#[derive(Debug, Clone)]
struct Scratch {
    /// Persistent incremental grid state (see [`GridState`]).
    gs: GridState,
    /// The exact kernel's bitmaps, candidate list and decode buffers.
    kernel: ExactKernel,
    stats: ResolverStats,
}

/// Immutable per-slot context of every candidate: the exact decode's
/// inputs, the stamped near lists, and the precomputed bounds.
struct SlotCtx<'a> {
    exact: ExactCtx<'a>,
    /// `Some` iff this slot takes the grid fast path.
    grid: Option<&'a CellGrid>,
    cand_cell_idx: &'a [u32],
    near_refs: &'a [Vec<NearRef>],
    far_cap: f64,
    k: usize,
}

/// Resolves one candidate receiver: the sender it decodes, if any. The
/// counters go to `cs`.
///
/// Pure in `(ctx, u)`: the same candidate produces the same reception and
/// counter increments whatever slot or candidate came before it.
// lint:hot — resolver inner loop, runs once per candidate per slot
fn resolve_candidate(ctx: &SlotCtx<'_>, u: NodeId, cs: &mut DecodeScratch) -> Option<NodeId> {
    let exact = &ctx.exact;
    let positions = exact.positions;
    let pu = positions[u];
    if let Some(grid) = ctx.grid {
        // The near/far split was already computed per *cell* during
        // stamping: this candidate's cell carries the list of occupied
        // transmitter cells within `reach`. Stream each near cell's
        // packed entries for the exact near sum; everything else is far
        // and only counted. Senders must lie within R_T = one cell side,
        // so they live in cells flagged `sender` (Chebyshev ≤ 1) and are
        // collected for the SINR evaluation below.
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
        // [total_low, total_high] brackets the naive resolver's
        // floating-point interference sum; SUM_SLACK absorbs the
        // different summation order (see its docs).
        let total_low = near_sum * (1.0 - SUM_SLACK);
        let total_high = (near_sum + far_tail) * (1.0 + SUM_SLACK);

        // `certified` clears β even pessimistically; `possible` counts
        // senders clearing β optimistically.
        let mut certified: Option<NodeId> = None;
        let mut possible = 0u64;
        for &v in &cs.sender_buf {
            let d2 = positions[v].distance_squared(pu);
            if d2 <= exact.adjacency_r2 {
                // One signal per link serves both bounds; `d2.sqrt()` is
                // the distance the exact decode takes.
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
            // v decodes even with the tail fully charged and no other
            // sender can reach β: the naive resolver necessarily picks
            // exactly v.
            Some(v) if possible == 1 => {
                cs.counts.fast_hits += 1;
                return Some(v);
            }
            // No sender reaches β even with zero far tail.
            None if possible == 0 => {
                cs.counts.fast_hits += 1;
                return None;
            }
            _ => {}
        }
    }
    // Exact fallback: the decode `SinrModel` runs on every candidate.
    cs.counts.fallbacks += 1;
    decode_exact(exact, u, &mut cs.links)
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
        if grid.entries(c).is_empty() {
            continue; // stale occupied entry
        }
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

/// The grid-tiled exact SINR resolver (drop-in replacement for
/// [`SinrModel`](crate::SinrModel): identical tables, much faster slots).
///
/// # Example
///
/// ```
/// use sinr_geometry::{Point, UnitDiskGraph};
/// use sinr_model::{FastSinrModel, InterferenceModel, SinrConfig, SinrModel};
///
/// let g = UnitDiskGraph::new(
///     vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(2.5, 0.0)],
///     1.0,
/// );
/// let cfg = SinrConfig::default_unit();
/// let fast = FastSinrModel::new(cfg);
/// let naive = SinrModel::new(cfg);
/// assert_eq!(fast.resolve(&g, &[0, 2]), naive.resolve(&g, &[0, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct FastSinrModel {
    cfg: SinrConfig,
    near_reach: i64,
    grid_enabled: bool,
    epoch_interval: u64,
    scratch: RefCell<Scratch>,
}

impl FastSinrModel {
    /// Creates the resolver with [`DEFAULT_NEAR_REACH_CELLS`].
    pub fn new(cfg: SinrConfig) -> Self {
        Self::with_near_reach(cfg, DEFAULT_NEAR_REACH_CELLS)
    }

    /// Creates the resolver with an explicit near-window half-width (in
    /// cells of side `R_T`). Larger windows tighten the far-tail bound
    /// (fewer exact fallbacks) at the cost of summing more transmitters
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `near_reach_cells < 1` (the window must at least cover
    /// the `R_T` disk so every decodable sender is scanned).
    pub fn with_near_reach(cfg: SinrConfig, near_reach_cells: i64) -> Self {
        assert!(
            near_reach_cells >= 1,
            "near window must cover at least the R_T disk"
        );
        FastSinrModel {
            cfg,
            near_reach: near_reach_cells,
            grid_enabled: true,
            epoch_interval: EPOCH_REBUILD_SLOTS,
            scratch: RefCell::new(Scratch {
                gs: GridState::empty(),
                kernel: ExactKernel::new(),
                stats: ResolverStats::default(),
            }),
        }
    }

    /// Creates the resolver with the grid heuristic sized for the given
    /// instance's *slot density*: the grid is enabled only when the
    /// expected per-slot transmitter count
    /// (`AUTO_TX_DENSITY_FACTOR · n / mean_degree`, see
    /// [`AUTO_TX_DENSITY_FACTOR`]) clears [`SMALL_SLOT_EXACT_CUTOFF`].
    /// On instances below that — few nodes, or so dense that the
    /// protocol's `1/degree` transmission probability keeps slots tiny —
    /// almost every slot would skip the fast path anyway, and the exact
    /// loop over reused scratch is strictly faster than maintaining grid
    /// state that never certifies. Tables are bit-identical either way.
    pub fn auto(cfg: SinrConfig, g: &UnitDiskGraph) -> Self {
        let mut model = Self::new(cfg);
        let expected_tx = AUTO_TX_DENSITY_FACTOR * g.len() as f64 / g.mean_degree().max(1.0);
        model.grid_enabled = expected_tx > SMALL_SLOT_EXACT_CUTOFF as f64;
        model
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SinrConfig {
        &self.cfg
    }

    /// The near-window half-width in cells.
    pub fn near_reach_cells(&self) -> i64 {
        self.near_reach
    }

    /// Whether the grid fast path is active (see [`FastSinrModel::auto`]).
    pub fn grid_enabled(&self) -> bool {
        self.grid_enabled
    }

    /// Overrides the epoch rebuild interval (default
    /// [`EPOCH_REBUILD_SLOTS`]); mainly for tests that want to force
    /// frequent rebuilds. An interval of 1 rebuilds every slot.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn set_epoch_interval(&mut self, slots: u64) {
        assert!(slots > 0, "epoch interval must be at least 1 slot");
        self.epoch_interval = slots;
    }

    /// Snapshot of the cumulative fast-path statistics.
    pub fn stats(&self) -> ResolverStats {
        self.scratch.borrow().stats
    }

    /// Resets the cumulative statistics to zero.
    pub fn reset_stats(&self) {
        self.scratch.borrow_mut().stats = ResolverStats::default();
    }

    /// Shared implementation of `resolve` / `resolve_delta` /
    /// `resolve_delta_into`: fills `pairs` (cleared first) with the
    /// slot's receptions, sorted by receiver. The caller owns
    /// the buffer so a driver that recycles one table performs no
    /// allocation here once scratch capacities have grown to the
    /// instance's working size — the module contract above.
    fn resolve_inner(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: Option<TxDelta<'_>>,
        pairs: &mut Vec<(NodeId, NodeId)>,
    ) {
        let k = transmitting.len();
        let exact = ExactCtx::new(&self.cfg, g, transmitting);
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { gs, kernel, stats } = &mut *scratch;
        kernel.begin_slot(g, transmitting);

        if self.grid_enabled {
            self.update_grid(gs, stats, g, transmitting, kernel.is_tx(), delta);
        }

        // Stamp candidate cells only when the slot is worth the fast
        // path; membership above was maintained regardless, so skipped
        // slots keep the incremental state current.
        let use_grid = k > SMALL_SLOT_EXACT_CUTOFF && gs.grid.is_some();
        if use_grid {
            // A candidate's sender scan yields at most the bound-node
            // population of its 3×3 cell window; size the collection
            // buffer to that bind-time bound once so a
            // record-density window late in the run cannot grow it.
            if let Some(grid) = &gs.grid {
                kernel.reserve_senders(grid.max_window_population());
            }
            for &c in &gs.stamped {
                gs.cand_cell_idx[c as usize] = NOT_STAMPED;
            }
            gs.stamped.clear();
            // Safety net only: the pool built at bind time already holds
            // one list per possibly-stamped cell, and lists are indexed
            // by stamped order (distinct candidate cells), never by raw
            // candidate count. A stamped cell collects at most one
            // reference per cell of its Chebyshev window, so new lists
            // are sized to that bound and never grow during a pass.
            let window_cap = (2 * self.near_reach + 1).pow(2) as usize;
            let lists_needed = kernel.candidates().len().min(gs.cand_cell_idx.len());
            while gs.near_refs.len() < lists_needed {
                gs.near_refs.push(Vec::with_capacity(window_cap));
            }
            if let Some(grid) = &gs.grid {
                stamp_candidate_cells(
                    grid,
                    kernel.candidates(),
                    self.near_reach,
                    &mut gs.cand_cell_idx,
                    &mut gs.stamped,
                    &mut gs.near_refs,
                );
            }
        }

        let ctx = SlotCtx {
            exact,
            grid: if use_grid { gs.grid.as_ref() } else { None },
            cand_cell_idx: &gs.cand_cell_idx,
            near_refs: &gs.near_refs,
            // Far transmitters sit strictly beyond `near_reach` cells (two
            // cells whose dense coordinates differ by more than `reach` in
            // a coordinate are separated by more than `reach · cell` in
            // that coordinate), so each contributes strictly less than
            // this cap.
            far_cap: received_power(
                exact.power,
                self.near_reach as f64 * g.radius(),
                exact.alpha,
            ),
            k,
        };
        let counts = kernel.finish_slot(&ctx.exact, pairs, |u, cs| resolve_candidate(&ctx, u, cs));
        stats.fast_path_hits += counts.fast_hits;
        stats.exact_fallbacks += counts.fallbacks;
        stats.cells_scanned += counts.cells;
    }

    /// Brings the persistent grid's membership to the current transmitter
    /// set: (re)binds on graph change, applies the start/stop delta
    /// (driver-supplied after validation, or self-diffed against the
    /// previous slot), and performs scheduled epoch rebuilds.
    fn update_grid(
        &self,
        gs: &mut GridState,
        stats: &mut ResolverStats,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        is_tx: &[bool],
        delta: Option<TxDelta<'_>>,
    ) {
        let positions = g.positions();
        let ptr = positions.as_ptr() as usize;
        let bound = gs.bound_ptr == ptr
            && gs.bound_len == positions.len()
            && gs.bound_radius == g.radius()
            && match &gs.grid {
                Some(grid) => grid.binds(positions),
                None => gs.bind_failed,
            };
        if !bound {
            gs.grid = CellGrid::try_bind(positions, g.radius());
            gs.bind_failed = gs.grid.is_none();
            gs.bound_ptr = ptr;
            gs.bound_len = positions.len();
            gs.bound_radius = g.radius();
            gs.prev_tx.clear();
            gs.stamped.clear();
            if let Some(grid) = &gs.grid {
                let (rows, cols) = grid.dims();
                let cell_count = (rows * cols) as usize;
                gs.cand_cell_idx.clear();
                gs.cand_cell_idx.resize(cell_count, NOT_STAMPED);
                // Build the whole near-reference list pool up front: one
                // list per possibly-stamped cell (distinct candidate
                // cells, ≤ min(n, cells)), each sized to its Chebyshev
                // window bound. Together with the `stamped` reservation
                // this makes every later stamping pass allocation-free —
                // candidate-count records late in a run would otherwise
                // be the last allocating slots.
                let window_cap = (2 * self.near_reach + 1).pow(2) as usize;
                let lists = positions.len().min(cell_count);
                gs.prev_tx.reserve(positions.len());
                gs.stamped.reserve(cell_count);
                gs.near_refs
                    .resize_with(lists, || Vec::with_capacity(window_cap));
                for list in &mut gs.near_refs {
                    let shortfall = window_cap.saturating_sub(list.capacity());
                    list.reserve(shortfall);
                }
            }
        }
        let Some(grid) = &mut gs.grid else {
            return;
        };

        gs.slots_since_epoch += 1;
        let epoch_due = gs.slots_since_epoch >= self.epoch_interval;
        if !bound || epoch_due {
            // Full (re)build in `transmitting` order: canonical entry
            // layout, compacted occupied index.
            grid.clear_members();
            for &t in transmitting {
                grid.insert(t);
            }
            grid.compact_occupied();
            if bound && epoch_due {
                stats.epoch_rebuilds += 1;
            }
            gs.slots_since_epoch = 0;
        } else if let Some(d) = delta {
            // Driver-supplied delta: apply with per-element validation,
            // then certify membership outright — every current
            // transmitter present and the counts equal. Any mismatch
            // falls back to a full rebuild, so an inconsistent delta can
            // cost time but never correctness.
            let mut ok = true;
            for &t in d.stopped {
                if t >= grid.bound_len() || !grid.remove(t) {
                    ok = false;
                    break;
                }
            }
            if ok {
                for &t in d.started {
                    if t >= grid.bound_len() || grid.contains(t) {
                        ok = false;
                        break;
                    }
                    grid.insert(t);
                }
            }
            if ok && grid.len() == transmitting.len() {
                for &t in transmitting {
                    if !grid.contains(t) {
                        ok = false;
                        break;
                    }
                }
            } else {
                ok = false;
            }
            if ok {
                stats.delta_started += d.started.len() as u64;
                stats.delta_stopped += d.stopped.len() as u64;
            } else {
                stats.full_rebuilds += 1;
                grid.clear_members();
                for &t in transmitting {
                    grid.insert(t);
                }
                grid.compact_occupied();
                gs.slots_since_epoch = 0;
            }
        } else {
            // Self-diff against the previous slot's transmitter list:
            // correct by construction, no validation needed.
            let mut stopped = 0u64;
            let mut started = 0u64;
            for &t in &gs.prev_tx {
                if !is_tx[t] {
                    grid.remove(t);
                    stopped += 1;
                }
            }
            for &t in transmitting {
                if !grid.contains(t) {
                    grid.insert(t);
                    started += 1;
                }
            }
            debug_assert_eq!(grid.len(), transmitting.len());
            stats.delta_started += started;
            stats.delta_stopped += stopped;
        }
        grid.maintain();
        gs.prev_tx.clear();
        gs.prev_tx.extend_from_slice(transmitting);
    }
}

impl InterferenceModel for FastSinrModel {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let mut pairs = Vec::new();
        self.resolve_inner(g, transmitting, None, &mut pairs);
        ReceptionTable::from_sorted_pairs(pairs)
    }

    fn resolve_delta(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
    ) -> ReceptionTable {
        let mut pairs = Vec::new();
        self.resolve_inner(g, transmitting, Some(delta), &mut pairs);
        ReceptionTable::from_sorted_pairs(pairs)
    }

    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        // Recycle the caller's buffer: once it has grown to the slot
        // working set, a steady-state slot allocates nothing.
        let mut pairs = out.take_pairs();
        self.resolve_inner(g, transmitting, Some(delta), &mut pairs);
        *out = ReceptionTable::from_sorted_pairs(pairs);
    }

    fn name(&self) -> &'static str {
        "sinr-fast"
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SinrModel;
    use sinr_geometry::Point;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
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
            let fast = FastSinrModel::new(c);
            let naive = SinrModel::new(c);
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
            let naive = SinrModel::new(c);
            let tx = spread_tx(200, 60);
            let expected = naive.resolve(&g, &tx);
            for &reach in &[1i64, 2, 4, 8] {
                let fast = FastSinrModel::with_near_reach(c, reach);
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
        let fast = FastSinrModel::new(c);
        let naive = SinrModel::new(c);
        for &k in &[14usize, n] {
            let tx = spread_tx(n, k);
            assert_eq!(fast.resolve(&g, &tx), naive.resolve(&g, &tx), "k {k}");
        }
    }

    #[test]
    fn stats_accumulate_and_hit_rate_reports() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(400, 10.0, 3), c.r_t());
        let fast = FastSinrModel::new(c);
        assert_eq!(fast.stats(), ResolverStats::default());
        assert_eq!(fast.stats().hit_rate(), None);
        let tx = spread_tx(400, 50);
        let _ = fast.resolve(&g, &tx);
        let s = fast.stats();
        assert!(s.fast_path_hits + s.exact_fallbacks > 0);
        assert!(s.cells_scanned > 0);
        assert_eq!(s.delta_started, 0, "first slot is the initial grid build");
        let rate = s.hit_rate().expect("candidates were resolved");
        assert!((0.0..=1.0).contains(&rate));
        // A second, shifted slot exercises the incremental delta path.
        let tx2: Vec<NodeId> = tx.iter().map(|&t| (t + 3) % 400).collect();
        let _ = fast.resolve(&g, &tx2);
        let s2 = fast.stats();
        assert!(s2.delta_started > 0 && s2.delta_stopped > 0);
        fast.reset_stats();
        assert_eq!(fast.stats(), ResolverStats::default());
    }

    #[test]
    fn small_slots_skip_the_grid() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(100, 5.0, 1), c.r_t());
        let fast = FastSinrModel::new(c);
        let tx = spread_tx(100, SMALL_SLOT_EXACT_CUTOFF); // at the cutoff
        let _ = fast.resolve(&g, &tx);
        let s = fast.stats();
        assert_eq!(s.fast_path_hits, 0, "small slots resolve exactly");
        assert_eq!(s.cells_scanned, 0);
        assert!(s.exact_fallbacks > 0);
        // Membership is still maintained incrementally on skipped slots.
        let tx2: Vec<NodeId> = tx.iter().map(|&t| t + 1).collect();
        let _ = fast.resolve(&g, &tx2);
        let s2 = fast.stats();
        assert!(s2.delta_started > 0 && s2.delta_stopped > 0);
        assert_eq!(s2.fast_path_hits, 0);
    }

    #[test]
    fn scratch_adapts_to_graph_changes() {
        // Same model instance across different graphs and radii; the
        // persistent grid must rebind when the fingerprint changes.
        let fast = FastSinrModel::new(cfg());
        let g1 = UnitDiskGraph::new(scatter(80, 4.0, 2), 1.0);
        let _ = fast.resolve(&g1, &spread_tx(80, 20));
        let g2 = UnitDiskGraph::new(scatter(250, 7.0, 9), 1.0);
        let naive = SinrModel::new(cfg());
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
        let a = FastSinrModel::new(c);
        let b = FastSinrModel::new(c);
        assert_eq!(a.resolve(&g, &tx), b.resolve(&g, &tx));
        assert_eq!(a.stats(), b.stats(), "stats are deterministic too");
    }

    #[test]
    fn empty_and_lone_transmitter() {
        let c = cfg();
        let g = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0)], c.r_t());
        let fast = FastSinrModel::new(c);
        assert!(fast.resolve(&g, &[]).is_empty());
        let t = fast.resolve(&g, &[0]);
        assert_eq!(t.unique_sender(1), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least the R_T disk")]
    fn zero_reach_rejected() {
        let _ = FastSinrModel::with_near_reach(cfg(), 0);
    }

    #[test]
    fn incremental_sequence_matches_fresh_and_naive() {
        // One model reused across an evolving slot sequence (high churn)
        // must match both a fresh model per slot and the naive resolver.
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 21), c.r_t());
        let naive = SinrModel::new(c);
        let reused = FastSinrModel::new(c);
        for step in 0..40usize {
            // Shifting, size-varying transmitter sets.
            let k = 5 + (step * 17) % 90;
            let tx: Vec<NodeId> = (0..k).map(|i| (i * 300 / k + step * 7) % 300).collect();
            let fresh = FastSinrModel::new(c);
            let expected = naive.resolve(&g, &tx);
            assert_eq!(reused.resolve(&g, &tx), expected, "step {step} (reused)");
            assert_eq!(fresh.resolve(&g, &tx), expected, "step {step} (fresh)");
        }
        let s = reused.stats();
        assert!(s.delta_started > 0 && s.delta_stopped > 0);
        assert_eq!(s.full_rebuilds, 0);
    }

    #[test]
    fn resolve_delta_matches_resolve() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 33), c.r_t());
        let naive = SinrModel::new(c);
        let with_delta = FastSinrModel::new(c);
        let self_diff = FastSinrModel::new(c);
        let mut prev: Vec<NodeId> = Vec::new();
        let mut is_prev = vec![false; 300];
        for step in 0..30usize {
            let k = 10 + (step * 13) % 80;
            let tx: Vec<NodeId> = (0..k).map(|i| (i * 300 / k + step * 11) % 300).collect();
            let started: Vec<NodeId> = tx.iter().copied().filter(|&t| !is_prev[t]).collect();
            let mut is_now = vec![false; 300];
            for &t in &tx {
                is_now[t] = true;
            }
            let stopped: Vec<NodeId> = prev.iter().copied().filter(|&t| !is_now[t]).collect();
            let delta = TxDelta {
                started: &started,
                stopped: &stopped,
            };
            let expected = naive.resolve(&g, &tx);
            assert_eq!(
                with_delta.resolve_delta(&g, &tx, delta),
                expected,
                "step {step}"
            );
            assert_eq!(self_diff.resolve(&g, &tx), expected, "step {step}");
            is_prev = is_now;
            prev = tx;
        }
        // A consistent delta stream never forces a rebuild, and both
        // update modes see the exact same start/stop traffic.
        assert_eq!(with_delta.stats(), self_diff.stats());
        assert_eq!(with_delta.stats().full_rebuilds, 0);
    }

    #[test]
    fn inconsistent_delta_rebuilds_and_stays_correct() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 8), c.r_t());
        let naive = SinrModel::new(c);
        let fast = FastSinrModel::new(c);
        let tx0 = spread_tx(300, 60);
        let _ = fast.resolve(&g, &tx0);
        // Lie about the delta in several ways; tables must stay correct.
        let tx1: Vec<NodeId> = (0..60).map(|i| (i * 5 + 1) % 300).collect();
        let lies = [
            TxDelta {
                started: &[],
                stopped: &[],
            }, // missing everything
            TxDelta {
                started: &[tx0[0]],
                stopped: &[],
            }, // "starts" a node the grid already holds
            TxDelta {
                started: &[],
                stopped: &[299],
            }, // "stops" a node that never transmitted
        ];
        for (i, lie) in lies.iter().enumerate() {
            let expected = naive.resolve(&g, &tx1);
            assert_eq!(fast.resolve_delta(&g, &tx1, *lie), expected, "lie {i}");
        }
        assert_eq!(fast.stats().full_rebuilds, 3, "every lie forced a rebuild");
        // After the rebuilds the state is healthy again: a truthful
        // self-diffed slot needs no rebuild.
        let tx2 = spread_tx(300, 40);
        assert_eq!(fast.resolve(&g, &tx2), naive.resolve(&g, &tx2));
        assert_eq!(fast.stats().full_rebuilds, 3);
    }

    #[test]
    fn epoch_rebuilds_fire_and_preserve_results() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter(300, 8.0, 13), c.r_t());
        let naive = SinrModel::new(c);
        let mut fast = FastSinrModel::new(c);
        fast.set_epoch_interval(4);
        for step in 0..20usize {
            let k = 20 + (step * 7) % 60;
            let tx: Vec<NodeId> = (0..k).map(|i| (i * 300 / k + step * 3) % 300).collect();
            assert_eq!(fast.resolve(&g, &tx), naive.resolve(&g, &tx), "step {step}");
        }
        let s = fast.stats();
        assert_eq!(s.epoch_rebuilds, 4, "20 slots at interval 4");
        assert_eq!(s.full_rebuilds, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 slot")]
    fn zero_epoch_interval_rejected() {
        let mut fast = FastSinrModel::new(cfg());
        fast.set_epoch_interval(0);
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
        let naive = SinrModel::new(c);
        let fast = FastSinrModel::new(c);
        let tx = spread_tx(60, 20);
        assert_eq!(fast.resolve(&g, &tx), naive.resolve(&g, &tx));
        let s = fast.stats();
        assert_eq!(s.fast_path_hits, 0, "no grid, no fast path");
        assert_eq!(s.delta_started, 0, "no grid, no delta tracking");
        assert!(s.exact_fallbacks > 0);
    }

    #[test]
    fn auto_enables_grid_by_slot_density() {
        let c = cfg();
        // Sparse mid-size instance (degree ~12): expected slot size
        // 0.18·1024/12 ≈ 15 > 12 — grid on.
        let mid = UnitDiskGraph::new(scatter_with_degree(1024, 12.0, 1), c.r_t());
        assert!(FastSinrModel::auto(c, &mid).grid_enabled());
        // Small instance at the same degree: 0.18·256/12 ≈ 3.8 — off
        // (this was the v3 bench pathology: hit rate 0.002, e2e 0.93×).
        let small = UnitDiskGraph::new(scatter_with_degree(256, 12.0, 2), c.r_t());
        assert!(!FastSinrModel::auto(c, &small).grid_enabled());
        // Large but very dense (degree ~180): the protocol transmits with
        // p ~ 1/degree, so slots stay tiny — 0.18·2048/180 ≈ 2 — off.
        // Node count alone would have said "on".
        let dense = UnitDiskGraph::new(scatter_with_degree(2048, 180.0, 3), c.r_t());
        assert!(dense.mean_degree() > 100.0, "construction sanity");
        assert!(!FastSinrModel::auto(c, &dense).grid_enabled());
        // Plain constructor always enables the grid.
        assert!(FastSinrModel::new(c).grid_enabled());
    }

    #[test]
    fn auto_with_grid_off_is_still_exact() {
        let c = cfg();
        let g = UnitDiskGraph::new(scatter_with_degree(256, 12.0, 4), c.r_t());
        let auto = FastSinrModel::auto(c, &g);
        assert!(!auto.grid_enabled());
        let naive = SinrModel::new(c);
        let tx = spread_tx(256, 80);
        assert_eq!(auto.resolve(&g, &tx), naive.resolve(&g, &tx));
        let s = auto.stats();
        assert_eq!(s.fast_path_hits, 0);
        assert_eq!(s.cells_scanned, 0);
        assert!(s.exact_fallbacks > 0);
    }

    #[test]
    fn resolver_stats_are_pinned_on_a_fixed_slot_sequence() {
        // Grid slots above SMALL_SLOT_EXACT_CUTOFF, exact slots at or
        // below it, two lone transmitters and an empty slot, with epoch
        // rebuilds in between. The counters are fixed numbers: neither
        // candidate order nor the exact kernel's lone-transmitter path may
        // move one of them.
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
        let naive = SinrModel::new(c);
        let mut fast = FastSinrModel::new(c);
        fast.set_epoch_interval(4);
        for (i, tx) in slots.iter().enumerate() {
            assert_eq!(fast.resolve(&g, tx), naive.resolve(&g, tx), "slot {i}");
        }
        assert_eq!(
            fast.stats(),
            ResolverStats {
                fast_path_hits: 952,
                exact_fallbacks: 146,
                cells_scanned: 23622,
                delta_started: 193,
                delta_stopped: 66,
                epoch_rebuilds: 2,
                full_rebuilds: 0,
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
            epoch_rebuilds: 6,
            full_rebuilds: 7,
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
                epoch_rebuilds: 12,
                full_rebuilds: 14,
            }
        );
    }
}
