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
//! 1. The model binds a dense [`CellGrid`] to the graph's point set
//!    **once**, with cells of side `R_T · (1 + 2⁻¹⁸)`
//!    ([`SIDE_OVER_RADIUS`]): rounded cell indices then never put two
//!    nodes `r` cells apart (Chebyshev) within `(r − 1) · R_T` of each
//!    other, so every sender lies in its receiver's 3×3 window and every
//!    cell distance below converts to a true distance. A slot's
//!    receptions depend on that slot's transmitters alone (§II), so every
//!    slot the bounds decide (more than [`SMALL_SLOT_EXACT_CUTOFF`]
//!    transmitters) clears the grid and inserts its transmitters into
//!    packed per-cell entry lists, then sums the per-cell counts into a
//!    summed-area table: `O(k + cells)` work into buffers sized at bind
//!    time, with no hashing. Smaller slots leave the members alone, since
//!    nothing reads them there.
//! 2. Near/far classification is shared per *cell* instead of recomputed
//!    per candidate. The slot stamps the cells that hold its candidates
//!    and transmitters, and sets their bits in a bitset over the dense
//!    cell indices, sized at bind time. Each occupied transmitter cell
//!    then reads each row of its `(2·reach+1)²` window from the bitset, a
//!    word of up to 64 cells at a time, and registers itself in the near
//!    list of each stamped cell it finds there: no unstamped cell is
//!    probed. A candidate receiver then walks its cell's near list,
//!    streaming each near cell's packed `(x, y, id)` entries for the exact
//!    near sum; everything not in the list is *far* and only counted. The far tail is first charged
//!    crudely, `|far| · P / (reach·R_T)^α`, as if every far transmitter
//!    sat at the nearest far distance. A candidate that tail cannot decide
//!    is decided again against the **ring bound** of its cell, Lemma 3's
//!    ring decomposition (`Distributed Node Coloring in the SINR Model`,
//!    Lemma 3, and the uniform-power tail bounds of Avin et al.,
//!    arXiv:0906.2311): the summed-area table counts the transmitters in
//!    each Chebyshev ring `r > reach` around the cell in `O(1)`, and ring
//!    `r` is charged at `P / ((r − 1)·R_T)^α`, a margin of `1 + 2⁻¹⁸` below
//!    `(r − 1)` cell sides. The rings run to the grid's edge, and the bound
//!    is computed once per stamped cell, on first use.
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
//! 4. Before any candidate, each transmitter tries the kernel's sender
//!    certificate, for its whole `R_T`-disk and then an inner `ρ`-disk:
//!    exact distances to the transmitters of its cell's near list (all
//!    beyond `R_T + ρ`, each charged at `P / (δ − ρ)^α`), plus its cell's
//!    rings charged at `P / ((r − 2)·R_T)^α`. The neighbours in a disk
//!    that passes decode the transmitter with no sum at all.
//!
//! All scratch state (the kernel's transmitter bitmap, candidate bitset,
//! link and pair buffers, the transmitter grid, the stamp bitset, the
//! stamped near lists, the ring table) lives in one box behind a
//! `RefCell` and is reused across slots, so the model is `Send` but not
//! `Sync`, and a steady-state slot resolved through
//! [`InterferenceModel::resolve_delta_into`] performs no allocation.

use crate::config::SinrConfig;
use crate::interference::{received_power, received_power_d2, sinr_from_signal};
use crate::kernel::{decode_exact, CertDisk, DecodeScratch, ExactCtx, ExactKernel, SlotCounts};
use crate::model::{InterferenceModel, ReceptionTable, TxDelta};
use sinr_geometry::{CellGrid, NodeId, UnitDiskGraph, SIDE_OVER_RADIUS};
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
/// off"): MW windows average 18.6 at `n = 1024`, where the grid lost,
/// 24.2 at `n = 1280`, where the two sides were even, and 27.4 at
/// `n = 1536`, where it won; TDMA frames fall on the same sides.
pub const GRID_MIN_TX_PER_SLOT: u64 = 24;

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
    /// Candidate receivers of grid slots decided without an exact sum: by
    /// the certified bounds (crude tail or ring bound) or by the sender
    /// certificate.
    pub fast_path_hits: u64,
    /// Every other candidate receiver: a grid-slot candidate that needed
    /// the full exact interference sum (bound disagreement), and every
    /// candidate of a slot decided without the grid (a small slot below
    /// the grid cutoff, or a slot without a grid), whether the exact decode
    /// or the sender certificate that stands in for it decided it.
    pub exact_fallbacks: u64,
    /// Near-list entries examined during interference summation: one per
    /// near transmitter cell per fast-path candidate, and per transmitter
    /// that tries the sender certificate in a grid slot.
    pub cells_scanned: u64,
    /// Candidate receivers decided by the kernel's sender certificate,
    /// lone or isolated, with no per-candidate sum; counted in
    /// `fast_path_hits` in grid slots and in `exact_fallbacks` elsewhere.
    pub certified: u64,
    /// Link terms summed by the exact decode: `k` per candidate it
    /// decodes in a slot of `k` transmitters.
    pub exact_terms: u64,
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
        self.certified += other.certified;
        self.exact_terms += other.exact_terms;
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
        rec.counter_add(keys::RESOLVER_CERTIFIED, self.certified);
        rec.counter_add(keys::RESOLVER_EXACT_TERMS, self.exact_terms);
        rec.counter_add(keys::RESOLVER_DELTA_STARTED, self.delta_started);
        rec.counter_add(keys::RESOLVER_DELTA_STOPPED, self.delta_stopped);
        if let Some(rate) = self.hit_rate() {
            rec.gauge_set(keys::RESOLVER_HIT_RATE, rate);
        }
    }

    /// Adds one slot's counters: a grid slot's certified candidates are
    /// fast-path hits, every other slot's candidates exact fallbacks.
    fn add_slot(&mut self, counts: &SlotCounts, k: usize, grid_slot: bool) {
        let candidates = counts.fast_hits + counts.certified + counts.exact;
        if grid_slot {
            self.fast_path_hits += counts.fast_hits + counts.certified;
            self.exact_fallbacks += counts.exact;
        } else {
            self.exact_fallbacks += candidates;
        }
        self.cells_scanned += counts.cells;
        self.certified += counts.certified;
        self.exact_terms += counts.exact * k as u64;
    }
}

/// The cells of a near window of `reach` cells, `(2·reach+1)²`: the most
/// near-list entries one stamped cell collects.
fn window_cells(reach: i64) -> usize {
    usize::try_from((2 * reach + 1).pow(2)).unwrap_or(usize::MAX)
}

/// "Not stamped this slot" marker in `GridState::cand_cell_idx`.
const NOT_STAMPED: u32 = u32::MAX;

/// The flag of a near-list entry whose cell is close enough (Chebyshev
/// ≤ 1) to hold decodable senders for receivers in the stamped cell. The
/// other 31 bits hold the cell's dense index, so a grid of 2³¹ cells or
/// more is never built.
const SENDER: u32 = 1 << 31;

/// The near lists of the stamped cells, packed into one arena: list `i`
/// holds at most `cap` entries at `pool[i·cap..]`, of which the first
/// `len[i]` are this slot's. An entry is a near transmitter cell's dense
/// index, with [`SENDER`] set as it applies.
#[derive(Debug, Clone, Default)]
struct NearLists {
    /// Entries per list: one per cell of a `(2·reach+1)²` window, the most
    /// a stamped cell collects.
    cap: usize,
    pool: Box<[u32]>,
    len: Box<[u32]>,
}

impl NearLists {
    /// Replaces the arena by `lists` empty lists of `cap` entries each.
    fn resize(&mut self, cap: usize, lists: usize) {
        self.cap = cap;
        self.pool = vec![0; lists * cap].into_boxed_slice();
        self.len = vec![0; lists].into_boxed_slice();
    }

    /// How many lists the arena holds.
    fn lists(&self) -> usize {
        self.len.len()
    }

    /// List `i`, this slot's entries.
    #[inline]
    fn list(&self, i: usize) -> &[u32] {
        let start = i * self.cap;
        &self.pool[start..start + self.len[i] as usize]
    }

    /// Appends `entry` to list `i`, which must not be full.
    #[inline]
    fn push(&mut self, i: usize, entry: u32) {
        let len = self.len[i] as usize;
        debug_assert!(len < self.cap, "a near list outgrew its window");
        self.pool[i * self.cap + len] = entry;
        self.len[i] += 1;
    }
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
    /// The stamped cells of the last grid slot and their near lists.
    stamps: Stamps,
    /// Summed-area table of the slot's transmitters per cell,
    /// `(rows + 1) × (cols + 1)`: entry `(y, x)` counts those in rows `< y`
    /// and columns `< x`.
    sat: Vec<u32>,
    /// `ring_cap[j] = P / (j·R_T)^α`, the most one transmitter farther than
    /// `j·R_T` adds (infinite at `j = 0`), for every ring the grid has.
    ring_cap: Vec<f64>,
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
    /// `reach` cells unless [`CellGrid::try_bind`] refuses or the grid has
    /// too many cells for a near-list entry ([`SENDER`]); stops sampling.
    fn build_grid(&mut self, g: &UnitDiskGraph, cfg: &SinrConfig, reach: i64) {
        let positions = g.positions();
        self.sampling = false;
        self.grid = CellGrid::try_bind(positions, g.radius() * SIDE_OVER_RADIUS).filter(|grid| {
            let (rows, cols) = grid.dims();
            rows * cols < i64::from(SENDER)
        });
        let Some(grid) = &self.grid else {
            return;
        };
        let (rows, cols) = grid.dims();
        let cell_count = (rows * cols) as usize;
        self.sat.clear();
        self.sat.resize(((rows + 1) * (cols + 1)) as usize, 0);
        // Rings reach at most `max(rows, cols) − 1` cells; the crude tail
        // reads the cap at `reach`.
        self.ring_cap.clear();
        self.ring_cap.extend(
            (0..rows.max(cols).max(reach + 1))
                .map(|j| received_power(cfg.power(), j as f64 * g.radius(), cfg.alpha())),
        );
        self.stamps
            .bind(cell_count, window_cells(reach), positions.len());
    }
}

/// The stamped cells of a grid slot: every cell that holds one of the
/// slot's candidates or transmitters, numbered in the order first met,
/// with its near list and its memoized ring bound.
#[derive(Debug, Clone, Default)]
struct Stamps {
    /// Per-cell stamp: index into `near` when the cell holds candidates
    /// or transmitters this slot, [`NOT_STAMPED`] otherwise.
    cand_cell_idx: Box<[u32]>,
    /// Cells stamped this slot, in stamp order (unstamped at the start of
    /// the next grid slot).
    stamped: Vec<u32>,
    /// One bit per dense cell, set while the cell is stamped: the near
    /// lists are filled from each window row's set bits, a word at a time.
    stamped_bits: Box<[u64]>,
    /// Near list per stamped cell, in one arena reused across slots.
    near: NearLists,
    /// Ring bound per stamped cell, NaN until a candidate of the cell
    /// first needs it in the slot.
    ring_tail: Box<[f64]>,
}

impl Stamps {
    /// Sizes everything for a grid of `cells` cells over `n` nodes, with
    /// no cell stamped. A stamped cell holds a distinct node, so at most
    /// `min(n, cells)` cells are stamped at once: the arena holds that
    /// many lists of `cap` entries, the most one window collects, and
    /// every later stamping pass is allocation-free.
    fn bind(&mut self, cells: usize, cap: usize, n: usize) {
        self.cand_cell_idx = vec![NOT_STAMPED; cells].into_boxed_slice();
        self.stamped_bits = vec![0; cells.div_ceil(64)].into_boxed_slice();
        self.stamped.clear();
        self.stamped.reserve(cells);
        self.near.resize(cap, n.min(cells));
        self.ring_tail = vec![f64::NAN; self.near.lists()].into_boxed_slice();
    }

    /// Unstamps the cells of the last grid slot. Every set bit of a word
    /// that holds a stamped cell belongs to a stamped cell, so the word is
    /// zeroed whole.
    fn clear(&mut self) {
        for &c in &self.stamped {
            self.cand_cell_idx[c as usize] = NOT_STAMPED;
            self.stamped_bits[c as usize / 64] = 0;
        }
        self.stamped.clear();
    }

    /// Stamps the cells of `nodes` that are not stamped yet, each with an
    /// empty near list and its ring bound reset to NaN.
    // lint:hot — cell-stamping pass, runs once per grid slot
    fn stamp_cells(&mut self, grid: &CellGrid, nodes: [&[NodeId]; 2]) {
        let Stamps {
            cand_cell_idx,
            stamped,
            stamped_bits,
            near,
            ring_tail,
        } = self;
        for &u in nodes.into_iter().flatten() {
            let c = grid.cell_of(u);
            if cand_cell_idx[c as usize] == NOT_STAMPED {
                let idx = stamped.len() as u32;
                debug_assert!(
                    (idx as usize) < near.lists(),
                    "more stamped cells than nodes"
                );
                cand_cell_idx[c as usize] = idx;
                stamped.push(c);
                stamped_bits[c as usize / 64] |= 1 << (c % 64);
                near.len[idx as usize] = 0;
                ring_tail[idx as usize] = f64::NAN;
            }
        }
    }

    /// Stamps this slot's candidate and transmitter cells and builds their
    /// near lists: every occupied transmitter cell registers itself (with
    /// its sender flag) in each stamped cell inside its `(2·reach+1)²`
    /// window, in row-major window order. Each window row is read from
    /// `stamped_bits` in words of up to 64 cells, one word for windows of
    /// up to 64 columns, so only the row's stamped cells are visited.
    // lint:hot — cell-stamping pass, runs once per grid slot
    fn stamp(&mut self, grid: &CellGrid, nodes: [&[NodeId]; 2], reach: i64) {
        self.stamp_cells(grid, nodes);
        let (rows, cols) = grid.dims();
        for &c in grid.occupied() {
            let (cx, cy) = grid.cell_coords(c);
            let (x0, x1) = ((cx - reach).max(0), (cx + reach).min(cols - 1));
            let width = (x1 - x0 + 1) as usize;
            // The columns within Chebyshev 1 of `c`, as offsets from `x0`;
            // they hold senders on the rows within Chebyshev 1 too.
            let (s0, s1) = ((cx - 1).max(0), (cx + 1).min(cols - 1));
            let (s_off, s_cols) = ((s0 - x0) as usize, (s1 - s0 + 1) as usize);
            for y in (cy - reach).max(0)..=(cy + reach).min(rows - 1) {
                let row = (y * cols + x0) as usize;
                let s_len = if (y - cy).abs() <= 1 { s_cols } else { 0 };
                for off in (0..width).step_by(64) {
                    let mut bits = bits_at(&self.stamped_bits, row + off, (width - off).min(64));
                    while bits != 0 {
                        let o = off + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let sender = o.wrapping_sub(s_off) < s_len;
                        let entry = if sender { c | SENDER } else { c };
                        self.near.push(self.cand_cell_idx[row + o] as usize, entry);
                    }
                }
            }
        }
    }

    /// The window walk that [`Stamps::stamp`] replaced, kept as its test
    /// reference: it probes every cell of each occupied transmitter cell's
    /// window for a stamp.
    #[cfg(test)]
    fn stamp_by_window_walk(&mut self, grid: &CellGrid, nodes: [&[NodeId]; 2], reach: i64) {
        self.stamp_cells(grid, nodes);
        for &c in grid.occupied() {
            grid.for_each_window_cell(c, reach, |w, cheb| {
                let idx = self.cand_cell_idx[w as usize];
                if idx != NOT_STAMPED {
                    self.near
                        .push(idx as usize, if cheb <= 1 { c | SENDER } else { c });
                }
            });
        }
    }
}

/// Bits `at..at + len` of the bitset `bits`, `1 ≤ len ≤ 64`, as the low
/// `len` bits of one word: they span at most two words.
#[inline]
fn bits_at(bits: &[u64], at: usize, len: usize) -> u64 {
    let (word, shift) = (at / 64, at % 64);
    let mut out = bits[word] >> shift;
    if shift + len > 64 {
        out |= bits[word + 1] << (64 - shift);
    }
    out & (u64::MAX >> (64 - len))
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

/// The slot's transmitters counted ring by ring around a cell: the
/// summed-area table over the per-cell counts, and the per-ring caps.
struct Rings<'a> {
    sat: &'a [u32],
    ring_cap: &'a [f64],
    rows: i64,
    cols: i64,
    reach: i64,
    k: u32,
}

impl Rings<'_> {
    /// Transmitters in the cells within Chebyshev distance `r` of cell
    /// `(cx, cy)`, clipped to the grid.
    #[inline]
    fn within(&self, cx: i64, cy: i64, r: i64) -> u32 {
        let w = self.cols + 1;
        let x0 = (cx - r).max(0);
        let x1 = (cx + r).min(self.cols - 1) + 1;
        let y0 = (cy - r).max(0);
        let y1 = (cy + r).min(self.rows - 1) + 1;
        let at = |y: i64, x: i64| self.sat[(y * w + x) as usize];
        // Exact in wrapping arithmetic: the box count is non-negative.
        at(y1, x1)
            .wrapping_sub(at(y0, x1))
            .wrapping_sub(at(y1, x0))
            .wrapping_add(at(y0, x0))
    }

    /// Upper bound on the interference that the transmitters beyond the
    /// near window of `cell` add at a receiver: ring `r > reach` around the
    /// cell is charged at `ring_cap[r − offset]`. A transmitter in ring `r`
    /// lies more than `(r − 1)·R_T` from every point of the cell (the
    /// side margin), so `offset = 1` bounds a receiver inside the cell and
    /// `offset = 2` one within `R_T` of a transmitter inside it.
    ///
    /// The rings run until every transmitter is counted (at the latest at
    /// the grid's edge), or until the bound is at most `enough`: the
    /// transmitters past the last summed ring are then charged at the next
    /// ring's cap. A caller that needs the tightest bound passes `0.0`.
    // lint:hot — ring bound, runs once per stamped cell that needs it
    fn tail(&self, grid: &CellGrid, cell: u32, offset: i64, enough: f64) -> f64 {
        let (cx, cy) = grid.cell_coords(cell);
        let edge = cx.max(cy).max(self.cols - 1 - cx).max(self.rows - 1 - cy);
        let mut inner = self.within(cx, cy, self.reach);
        let mut tail = 0.0f64;
        let mut r = self.reach;
        while inner < self.k && r < edge {
            r += 1;
            let outer = self.within(cx, cy, r);
            if outer > inner {
                tail += f64::from(outer - inner) * self.ring_cap[(r - offset) as usize];
                inner = outer;
            }
            let bound = tail + f64::from(self.k - inner) * self.ring_cap[(r + 1 - offset) as usize];
            if bound <= enough {
                return bound;
            }
        }
        debug_assert_eq!(inner, self.k, "the rings miss transmitters");
        tail
    }
}

/// Fills the summed-area table `sat` with the transmitters of `grid`'s
/// members: each occupied cell's count goes to its entry, and one pass of
/// running row sums turns the counts into the table in place. `O(cells)`.
// lint:hot — summed-area table, runs once per grid slot
fn build_ring_table(grid: &CellGrid, sat: &mut [u32]) {
    let (rows, cols) = grid.dims();
    let (rows, cols) = (rows as usize, cols as usize);
    let w = cols + 1;
    sat[w..].fill(0);
    // A grid binds fewer than 2³² nodes, so every count fits.
    for &c in grid.occupied() {
        let count = u32::try_from(grid.entries(c).len()).unwrap_or(u32::MAX);
        let c = c as usize;
        sat[(c / cols + 1) * w + c % cols + 1] = count;
    }
    for y in 1..=rows {
        let mut run = 0u32;
        let (above, row) = sat[(y - 1) * w..(y + 1) * w].split_at_mut(w);
        for x in 1..=cols {
            run += row[x];
            row[x] = above[x] + run;
        }
    }
}

/// Immutable per-slot context of every candidate of a grid slot: the
/// exact decode's inputs, the stamped near lists, the ring table and the
/// precomputed bounds.
struct SlotCtx<'a> {
    exact: ExactCtx<'a>,
    grid: &'a CellGrid,
    cand_cell_idx: &'a [u32],
    near: &'a NearLists,
    rings: Rings<'a>,
    far_cap: f64,
    k: usize,
}

/// Runs the sender certificate (module docs, point 4) over every
/// transmitter of a grid slot and marks the neighbours of those that pass.
/// Returns the near-list entries it examined.
// lint:hot — grid sender certificate, runs once per grid slot
fn certify_senders(ctx: &SlotCtx<'_>, g: &UnitDiskGraph, kernel: &mut ExactKernel) -> u64 {
    let exact = &ctx.exact;
    let disks = CertDisk::both(exact);
    let mut cells = 0u64;
    for &t in exact.transmitting {
        let pt = exact.positions[t];
        let cell = ctx.grid.cell_of(t);
        let refs = ctx.near.list(ctx.cand_cell_idx[cell as usize] as usize);
        cells += refs.len() as u64;
        let mut isolated = [true; 2];
        let mut interference = [0.0f64; 2];
        for &r in refs {
            for e in ctx.grid.entries(r & !SENDER) {
                if e.id != t {
                    let dx = pt.x - e.x;
                    let dy = pt.y - e.y;
                    let d2 = dx * dx + dy * dy;
                    for ((disk, iso), sum) in disks.iter().zip(&mut isolated).zip(&mut interference)
                    {
                        *iso &= d2 > disk.iso_r2;
                        *sum += disk.edge_term(exact, d2);
                    }
                }
            }
        }
        // The rings are charged once, for the widest disk still in reach
        // of its budget. Rings beyond the first few barely move a bound
        // that passes with room to spare, so they stop once half the room
        // is left; a narrower disk reads the same bound.
        let mut tail = None;
        for (i, disk) in disks.iter().enumerate() {
            if !isolated[i] || interference[i] > disk.budget {
                continue;
            }
            let room = disk.budget - interference[i];
            let tail = *tail.get_or_insert_with(|| ctx.rings.tail(ctx.grid, cell, 2, 0.5 * room));
            if disk.certifies(exact, interference[i] + tail) {
                kernel.certify(exact, g, t, disk);
                break;
            }
        }
    }
    cells
}

/// Resolves one candidate receiver of a grid slot: the sender it
/// decodes, if any. A candidate the bounds decide counts as a fast-path
/// hit in `cs`; any other falls back to the exact decode. `ring_tail` is
/// the memo of the ring bounds per stamped cell.
///
/// Pure in `(ctx, u)`: the same candidate produces the same reception and
/// counter increments whatever slot or candidate came before it.
// lint:hot — resolver inner loop, runs once per candidate per slot
fn resolve_candidate(
    ctx: &SlotCtx<'_>,
    ring_tail: &mut [f64],
    u: NodeId,
    cs: &mut DecodeScratch,
) -> Option<NodeId> {
    let exact = &ctx.exact;
    let grid = ctx.grid;
    let positions = exact.positions;
    let pu = positions[u];
    // The near/far split was already computed per *cell* during
    // stamping: this candidate's cell carries the list of occupied
    // transmitter cells within `reach`. Stream each near cell's packed
    // entries for the exact near sum; everything else is far and only
    // counted. Senders must lie within R_T, so they live in cells flagged
    // `sender` (Chebyshev ≤ 1) and are collected for the SINR evaluation
    // below.
    let cell = grid.cell_of(u);
    let stamp = ctx.cand_cell_idx[cell as usize] as usize;
    let refs = ctx.near.list(stamp);
    let mut near_sum = 0.0f64;
    let mut near_count = 0usize;
    cs.sender_buf.clear();
    for &r in refs {
        let entries = grid.entries(r & !SENDER);
        for e in entries {
            let dx = pu.x - e.x;
            let dy = pu.y - e.y;
            near_sum += received_power_d2(exact.power, dx * dx + dy * dy, exact.alpha);
            if r & SENDER != 0 {
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
    // senders clearing β optimistically, and `signal` is the last one's.
    let mut certified: Option<NodeId> = None;
    let mut possible = 0u64;
    let mut last = (u, 0.0f64);
    for &v in &cs.sender_buf {
        let d2 = positions[v].distance_squared(pu);
        if d2 <= exact.adjacency_r2 {
            // One signal per link serves both bounds; `d2.sqrt()` is the
            // distance the exact decode takes.
            let signal = received_power(exact.power, d2.sqrt(), exact.alpha);
            let optimistic = sinr_from_signal(exact.noise, signal, total_low);
            if optimistic >= exact.beta {
                possible += 1;
                last = (v, signal);
                let pessimistic = sinr_from_signal(exact.noise, signal, total_high);
                if pessimistic >= exact.beta && certified.is_none() {
                    certified = Some(v);
                }
            }
        }
    }
    match (certified, possible) {
        // v decodes even with the tail fully charged and no other sender
        // can reach β: the exact decode necessarily picks exactly v.
        (Some(v), 1) => {
            cs.counts.fast_hits += 1;
            Some(v)
        }
        // No sender reaches β even with zero far tail.
        (None, 0) => {
            cs.counts.fast_hits += 1;
            None
        }
        // One sender might decode, but not against the crude tail: charge
        // the far field ring by ring instead.
        (None, 1) => {
            let mut tail = ring_tail[stamp];
            if tail.is_nan() {
                tail = ctx.rings.tail(grid, cell, 1, 0.0);
                ring_tail[stamp] = tail;
            }
            let (v, signal) = last;
            let high = (near_sum + tail) * (1.0 + SUM_SLACK);
            if sinr_from_signal(exact.noise, signal, high) >= exact.beta {
                cs.counts.fast_hits += 1;
                Some(v)
            } else {
                decode_exact(exact, u, &mut cs.links)
            }
        }
        // The bounds disagree: decode exactly.
        _ => decode_exact(exact, u, &mut cs.links),
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
            gs.build_grid(g, &self.cfg, self.near_reach);
        }

        let (counts, grid_slot) = match &mut gs.grid {
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
                gs.stamps.clear();
                gs.stamps
                    .stamp(grid, [kernel.candidates(), transmitting], self.near_reach);
                build_ring_table(grid, &mut gs.sat);
                let (rows, cols) = grid.dims();
                let Stamps {
                    cand_cell_idx,
                    near,
                    ring_tail,
                    ..
                } = &mut gs.stamps;
                let ctx = SlotCtx {
                    exact,
                    grid,
                    cand_cell_idx,
                    near,
                    rings: Rings {
                        sat: &gs.sat,
                        ring_cap: &gs.ring_cap,
                        rows,
                        cols,
                        reach: self.near_reach,
                        // A grid binds fewer than 2³² nodes.
                        k: u32::try_from(k).unwrap_or(u32::MAX),
                    },
                    // Far transmitters sit more than `near_reach` cells
                    // away, so more than `near_reach · R_T` (the side
                    // margin), and each contributes less than this cap.
                    far_cap: gs.ring_cap[self.near_reach as usize],
                    k,
                };
                let cert_cells = certify_senders(&ctx, g, kernel);
                let mut counts = kernel.finish_slot(&exact, pairs, |u, cs| {
                    resolve_candidate(&ctx, ring_tail, u, cs)
                });
                counts.cells += cert_cells;
                (counts, true)
            }
            // No grid, or a slot too small for it: every candidate that no
            // certificate decides is decoded exactly. Small slots try the
            // sender certificate from exact pairwise distances.
            _ => {
                if (2..=SMALL_SLOT_EXACT_CUTOFF).contains(&k) {
                    kernel.certify_pairwise(&exact, g);
                }
                let counts = kernel.finish_slot(&exact, pairs, |u, cs| {
                    decode_exact(&exact, u, &mut cs.links)
                });
                (counts, false)
            }
        };
        stats.add_slot(&counts, k, grid_slot);
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
                cells_scanned: 32453,
                certified: 76,
                exact_terms: 1102,
                delta_started: 323,
                delta_stopped: 233,
            }
        );
    }

    #[test]
    fn ring_caps_bound_every_transmitter_of_their_ring_strictly() {
        // Offset lattices of spacing one cell side: rounded cell indices
        // put some pairs exactly `(r − 1)` sides apart into cells `r` apart,
        // the tightest pairs a ring's charge must still bound.
        let c = cfg();
        let side = c.r_t() * SIDE_OVER_RADIUS;
        let mut tight = 0;
        for (ox, oy) in [(0.37, -1.9), (-3.3, 7.7), (1e3 + 0.3, -0.7)] {
            let pts: Vec<Point> = (0..144)
                .map(|i| Point::new((i % 12) as f64 * side + ox, (i / 12) as f64 * side + oy))
                .collect();
            let g = UnitDiskGraph::new(pts, c.r_t());
            let mut gs = GridState::default();
            gs.bind(&g, false);
            gs.build_grid(&g, &c, 1);
            let grid = gs.grid.as_ref().expect("a lattice binds");
            for a in 0..g.len() {
                for b in 0..g.len() {
                    let r = grid.cheb(grid.cell_of(a), grid.cell_of(b));
                    if r >= 2 {
                        let d = g.position(a).distance(g.position(b));
                        let power = received_power(c.power(), d, c.alpha());
                        let cap = gs.ring_cap[(r - 1) as usize];
                        assert!(power < cap, "{a}-{b}: ring {r} at {d} charged {cap}");
                        tight += usize::from(d <= (r - 1) as f64 * side);
                    }
                }
            }
        }
        assert!(tight > 0, "no pair sits at the edge of its ring");
    }

    #[test]
    fn the_grid_certificate_judges_isolation_by_exact_distance() {
        // `t`'s nearest other transmitter `w` sits two cells away but
        // 2.6·R_T off, so `t` is isolated and its whole disk certified,
        // with its four receivers 0.9·R_T away. `t2`'s nearest sits two
        // cells away within 2·R_T: only its inner disk is certified, with
        // its four receivers 0.5·R_T away. Twelve background transmitters,
        // three cells apart, certify one receiver each.
        let c = cfg();
        let side = c.r_t() * SIDE_OVER_RADIUS;
        let mut pts = vec![Point::new(0.0, 0.0)];
        let mut tx = Vec::new();
        for (t, gap, rx) in [
            (Point::new(5.1 * side, 5.5 * side), 2.6, 0.9),
            (Point::new(5.1 * side, 12.5 * side), 2.0 - 1e-9, 0.5),
        ] {
            tx.extend([pts.len(), pts.len() + 1]);
            pts.extend([t, Point::new(t.x + gap, t.y)]);
            for (dx, dy) in [(rx, 0.0), (0.0, rx), (-rx, 0.0), (0.0, -rx)] {
                pts.push(Point::new(t.x + dx, t.y + dy));
            }
        }
        for j in 0..12 {
            let t = Point::new(20.5 * side, (3 * j) as f64 * side + 0.5);
            tx.push(pts.len());
            pts.extend([t, Point::new(t.x + 0.6, t.y)]);
        }
        let g = UnitDiskGraph::new(pts, c.r_t());
        let grid = CellGrid::try_bind(g.positions(), side).expect("binds");
        assert_eq!(grid.cheb(grid.cell_of(1), grid.cell_of(2)), 2);
        assert_eq!(grid.cheb(grid.cell_of(7), grid.cell_of(8)), 2);
        let fast = grid_on(c);
        assert_eq!(fast.resolve(&g, &tx), grid_off(c).resolve(&g, &tx));
        assert_eq!(fast.stats().certified, 4 + 4 + 12);
    }

    /// What a stamping pass left: the stamped cells in order, their near
    /// lists, and the ring memo as bits (NaN where it was reset).
    type Stamped = (Vec<u32>, Vec<Vec<u32>>, Vec<u64>);

    /// Stamps two slots (candidates, then transmitters, each), the second
    /// after unstamping the first, with the bitset pass and with the
    /// window walk, and returns what each pass left after each slot.
    fn stamp_both_ways(
        grid: &mut CellGrid,
        slots: &[[Vec<NodeId>; 2]; 2],
        reach: i64,
    ) -> [Vec<Stamped>; 2] {
        let (rows, cols) = grid.dims();
        [false, true].map(|walk| {
            let mut stamps = Stamps::default();
            stamps.bind(
                (rows * cols) as usize,
                window_cells(reach),
                grid.bound_len(),
            );
            // A memo no stamp has reset yet: each entry its own number.
            for (i, tail) in stamps.ring_tail.iter_mut().enumerate() {
                *tail = i as f64;
            }
            slots
                .iter()
                .map(|[cands, tx]| {
                    grid.clear_members();
                    for &t in tx {
                        grid.insert(t);
                    }
                    stamps.clear();
                    if walk {
                        stamps.stamp_by_window_walk(grid, [cands, tx], reach);
                    } else {
                        stamps.stamp(grid, [cands, tx], reach);
                    }
                    let lists = (0..stamps.stamped.len())
                        .map(|i| stamps.near.list(i).to_vec())
                        .collect();
                    let tails = stamps.ring_tail.iter().map(|t| t.to_bits()).collect();
                    (stamps.stamped.clone(), lists, tails)
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config {
            cases: 256,
            ..proptest::test_runner::Config::default()
        })]

        /// The bitset stamping pass fills every near list with the window
        /// walk's entries in the window walk's order, stamps the same cells
        /// in the same order and resets the same ring memos, on grids of one
        /// row, of one column, wider than 64 columns (each grid row spans
        /// words) and of any shape below those, with the four corner cells
        /// always transmitting, at every `reach` from 1 to 8.
        #[test]
        fn bitset_stamping_matches_the_window_walk(
            shape in 0usize..4,
            (rows, cols) in (1i64..30, 1i64..130),
            reach in 1i64..9,
            cells in proptest::collection::vec((0i64..1 << 20, 0i64..1 << 20, 0u32..4), 1..160),
        ) {
            let (rows, cols) = match shape {
                0 => (1, cols),
                1 => (rows, 1),
                2 => (rows, 65 + cols % 66),
                _ => (rows, cols),
            };
            // Nodes at cell corners on a unit grid: the four corners, then
            // the drawn cells; each drawn node is a candidate or a
            // transmitter of either slot, or of neither.
            let corner = |x: i64, y: i64| Point::new(x as f64, y as f64);
            let mut pts = vec![
                corner(0, 0),
                corner(cols - 1, rows - 1),
                corner(cols - 1, 0),
                corner(0, rows - 1),
            ];
            let mut slots: [[Vec<NodeId>; 2]; 2] = Default::default();
            for v in 0..4 {
                slots[0][1].push(v);
                slots[1][1].push(v);
            }
            for &(x, y, role) in &cells {
                let v = pts.len();
                pts.push(corner(x % cols, y % rows));
                match role {
                    0 => slots[0][0].push(v),
                    1 => slots[0][1].push(v),
                    2 => slots[1][0].push(v),
                    _ => {
                        slots[0][0].push(v);
                        slots[1][1].push(v);
                    }
                }
            }
            let mut grid = CellGrid::try_bind(&pts, 1.0).expect("a small grid binds");
            proptest::prop_assert_eq!(grid.dims(), (rows, cols));
            let [bits, walk] = stamp_both_ways(&mut grid, &slots, reach);
            proptest::prop_assert_eq!(bits, walk);
        }
    }

    #[test]
    fn stats_merge_covers_every_counter() {
        let mut a = ResolverStats {
            fast_path_hits: 1,
            exact_fallbacks: 2,
            cells_scanned: 3,
            certified: 4,
            exact_terms: 5,
            delta_started: 6,
            delta_stopped: 7,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            ResolverStats {
                fast_path_hits: 2,
                exact_fallbacks: 4,
                cells_scanned: 6,
                certified: 8,
                exact_terms: 10,
                delta_started: 12,
                delta_stopped: 14,
            }
        );
    }
}
