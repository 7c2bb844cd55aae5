//! The exact SINR kernel that [`SinrModel`](crate::SinrModel) runs, with
//! or without its grid.
//!
//! A slot costs one pass over its candidate receivers. Each part of that
//! pass lives here once:
//!
//! 1. **Candidate discovery** over reused scratch
//!    ([`ExactKernel::begin_slot`]): the transmitters are marked in a
//!    dense bitmap, and each non-transmitting neighbor of a transmitter
//!    ORs its bit into a `u64` bitset over node ids. One scan of the
//!    words lists the candidates in ascending id order and zeroes every
//!    word it reads, so the bitset needs no separate reset. A slot
//!    without transmitters has no candidates and skips the scan.
//! 2. **The exact decode** of one candidate ([`decode_exact`]): one pass
//!    over `transmitting` takes each link's squared distance, one square
//!    root and one received power. It adds the power to the total in
//!    `transmitting` order, as `Iterator::sum` would, and keeps the links
//!    within `R_T` with their powers. Each kept sender's SINR then comes
//!    from its stored power; the strongest sender that clears `β` wins,
//!    the first one on ties. Adjacency is tested as `dist² ≤ R_T²`, the
//!    same test `UnitDiskGraph::new` makes its edges with, so no adjacency
//!    list is searched.
//! 3. **The sender certificate** ([`CertDisk`]), which decides part or all
//!    of a transmitter's neighbourhood without a per-candidate sum.
//!    `R_T` is defined as the range at which a lone sender's SINR is
//!    `2β`: `R_T = (P / (2Nβ))^{1/α}`. Take a transmitter `t`, a radius
//!    `ρ ≤ R_T`, and suppose the exact distance from `t` to every other
//!    transmitter exceeds `R_T + ρ`. A candidate `u` within `ρ` of `t`
//!    then lies more than `δ(t, w) − ρ > R_T` from every other
//!    transmitter `w`, so `t` is `u`'s only adjacent sender and the exact
//!    decode keeps one link. `u`'s interference is `Σ_w P / δ(u, w)^α`,
//!    and each term is at most `P / (δ(t, w) − ρ)^α`: every neighbour in
//!    the `ρ`-disk hears at most `I = Σ_w P / (δ(t, w) − ρ)^α`, the
//!    interference bounded from the disk's edge, and a signal of at least
//!    `P / ρ^α`. The square root, the power of the distance and the
//!    divisions are each monotone up to rounding, so `u`'s SINR is at
//!    least `P / ρ^α / (N + I)`, up to relative errors of a few ulps per
//!    term and about `k·ε` for the exact decode's sum, all far below
//!    [`SUM_SLACK`]. One check per transmitter and disk,
//!    `P / ρ^α / (N + I) ≥ β · (1 + SUM_SLACK)`, therefore proves that
//!    every neighbour in the disk decodes `t`. The certificate tries the
//!    whole disk (`ρ = R_T`: `2·R_T` apart, every neighbour) and then an
//!    inner one ([`INNER_DISK`]), whose stronger signal often outweighs
//!    the closer edge; a transmitter that fails both leaves its
//!    neighbours to the per-candidate decode.
//!    - With one transmitter (`k = 1`), `I = 0` and the whole-disk check
//!      is the SNR at the adjacency radius: a graph built at the
//!      configured `R_T` passes it with a factor of 2 to spare, and a
//!      context whose adjacency radius reaches past the lone-decode range
//!      [`SinrConfig::r_max`] fails it. The slot then emits one pair per
//!      candidate.
//!    - A small slot ([`ExactKernel::certify_pairwise`]) takes `I` from
//!      exact pairwise distances.
//!    - A grid slot takes the exact terms over the near cells of `t`'s
//!      cell, and bounds the rings beyond by cell counts (see
//!      `crate::resolver`): a transmitter `r` cells from `t`'s cell lies
//!      more than `(r − 1)·R_T` from `t`, so more than `(r − 2)·R_T` from
//!      any neighbour of `t`.
//!
//!    Isolation is judged by exact distances, never by cell distance
//!    alone. (For the whole disk, with `β ≥ 1`, a transmitter within
//!    `2·R_T` would also fail the SINR check, since its own term is at
//!    least the signal; for the inner disk only the isolation test keeps
//!    a second adjacent sender out.)
//!
//! [`ExactKernel::finish_slot`] decodes the candidates in ascending order
//! and each decodes at most one sender, so the pairs come out sorted by
//! receiver and the reception table takes them without a sort. A candidate
//! that neighbours a certified transmitter takes its pair from the
//! certificate. Any other candidate of a slot without a grid is decoded
//! exactly; in a grid slot it first tries the certified bounds and falls
//! back to [`decode_exact`]. Once the scratch has grown to the graph, a
//! slot that refills a recycled table allocates nothing.

use crate::config::SinrConfig;
use crate::interference::{received_power, sinr_from_signal};
use crate::resolver::SUM_SLACK;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};

/// Resolver counters of one slot, which the model adds to its
/// [`ResolverStats`](crate::ResolverStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotCounts {
    /// Candidates decided from the certified grid bounds.
    pub(crate) fast_hits: u64,
    /// Candidates decided by the sender certificate.
    pub(crate) certified: u64,
    /// Candidates decided by [`decode_exact`]: every candidate that
    /// neither the bounds nor a certificate decided. Set when the slot
    /// finishes.
    pub(crate) exact: u64,
    /// Near-list entries examined on the grid path.
    pub(crate) cells: u64,
}

/// The working state a candidate's decode reuses: its buffers and the
/// slot's counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    /// Potential senders of the current candidate on the grid path
    /// (reused).
    pub(crate) sender_buf: Vec<NodeId>,
    /// The adjacent links `(sender, received power)` of the candidate
    /// [`decode_exact`] is decoding (reused).
    pub(crate) links: Vec<(NodeId, f64)>,
    /// The counters of the slot in progress.
    pub(crate) counts: SlotCounts,
}

/// The slot-invariant inputs of [`decode_exact`].
#[derive(Clone, Copy)]
pub(crate) struct ExactCtx<'a> {
    pub(crate) positions: &'a [Point],
    pub(crate) transmitting: &'a [NodeId],
    pub(crate) power: f64,
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    pub(crate) noise: f64,
    /// `R_T²` of the graph: `u` and `v` are adjacent iff
    /// `dist²(u, v) ≤ adjacency_r2` (and `u ≠ v`).
    pub(crate) adjacency_r2: f64,
}

impl<'a> ExactCtx<'a> {
    /// The context of one slot of `transmitting` on `g` under `cfg`.
    pub(crate) fn new(cfg: &SinrConfig, g: &'a UnitDiskGraph, transmitting: &'a [NodeId]) -> Self {
        debug_assert!(
            (g.radius() - cfg.r_t()).abs() < 1e-9 * cfg.r_t().max(1.0),
            "graph radius {} does not match configured R_T {}",
            g.radius(),
            cfg.r_t()
        );
        ExactCtx {
            positions: g.positions(),
            transmitting,
            power: cfg.power(),
            alpha: cfg.alpha(),
            beta: cfg.beta(),
            noise: cfg.noise(),
            adjacency_r2: g.radius() * g.radius(),
        }
    }
}

/// Decodes candidate receiver `u` exactly: the strongest sender within
/// `R_T` whose SINR against the whole transmitter set clears `β`, with
/// the interference summed in `transmitting` order and ties kept by the
/// first sender. `links` is scratch for the adjacent links.
///
/// Pure in `(ctx, u)`. `u` must not transmit (candidates never do).
// lint:hot — exact decode, runs once per candidate without a grid, or per fallback with one
#[inline]
pub(crate) fn decode_exact(
    ctx: &ExactCtx<'_>,
    u: NodeId,
    links: &mut Vec<(NodeId, f64)>,
) -> Option<NodeId> {
    let positions = ctx.positions;
    let pu = positions[u];
    links.clear();
    let mut total = 0.0f64;
    for &w in ctx.transmitting {
        // `d2.sqrt()` is `pu.distance(pw)` bit for bit. The graph holds
        // the edge `uw` exactly when `d2 ≤ R_T²` (the expression
        // `UnitDiskGraph::new` tests), and `w ≠ u` because `u` is silent,
        // so the geometry answers adjacency without a list search.
        let d2 = pu.distance_squared(positions[w]);
        let p = received_power(ctx.power, d2.sqrt(), ctx.alpha);
        total += p;
        if d2 <= ctx.adjacency_r2 {
            links.push((w, p));
        }
    }
    let mut best: Option<(f64, NodeId)> = None;
    for &(v, signal) in links.iter() {
        let s = sinr_from_signal(ctx.noise, signal, total);
        if s >= ctx.beta && best.is_none_or(|(bs, _)| s > bs) {
            best = Some((s, v));
        }
    }
    best.map(|(_, v)| v)
}

/// The fraction of `R_T` that the sender certificate's inner disk spans.
/// Read off a replay of dense MW slots (`docs/PERFORMANCE.md`, "Resolver
/// architecture"): between 0.5 and 0.85 the two disks certify 30–49 %
/// more candidates than the whole disk alone, most at 0.75.
pub(crate) const INNER_DISK: f64 = 0.75;

/// One disk of the sender certificate: the neighbours within `ρ` of a
/// transmitter, `ρ ≤ R_T` (the derivation is in the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CertDisk {
    /// `ρ²`; a neighbour lies in the disk when its squared distance is at
    /// most this.
    rho2: f64,
    rho: f64,
    /// `(R_T + ρ)²` with [`SUM_SLACK`] to spare: the transmitter is
    /// isolated when every other one lies farther than this (squared),
    /// so no neighbour in the disk is adjacent to another transmitter,
    /// whatever the rounding of its distances.
    pub(crate) iso_r2: f64,
    /// The power received at `ρ`, the least any neighbour in the disk
    /// hears from the transmitter.
    signal: f64,
    /// The interference past which [`CertDisk::certifies`] fails; only
    /// cuts work short.
    pub(crate) budget: f64,
    /// Whether the disk holds every neighbour.
    whole: bool,
}

impl CertDisk {
    /// The disk of squared radius `rho2 ≤ R_T²`.
    pub(crate) fn new(ctx: &ExactCtx<'_>, rho2: f64) -> Self {
        let rho = rho2.sqrt();
        let reach = ctx.adjacency_r2.sqrt() + rho;
        let signal = received_power(ctx.power, rho, ctx.alpha);
        CertDisk {
            rho2,
            rho,
            iso_r2: reach * reach * (1.0 + SUM_SLACK),
            signal,
            budget: signal / ctx.beta - ctx.noise,
            whole: rho2 >= ctx.adjacency_r2,
        }
    }

    /// The certificate's disks, widest first: every neighbour, then those
    /// within [`INNER_DISK`]` · R_T`.
    pub(crate) fn both(ctx: &ExactCtx<'_>) -> [CertDisk; 2] {
        let inner = INNER_DISK * ctx.adjacency_r2.sqrt();
        [
            CertDisk::new(ctx, ctx.adjacency_r2),
            CertDisk::new(ctx, inner * inner),
        ]
    }

    /// The most another transmitter at squared distance `d2 > iso_r2`
    /// from a transmitter adds at a neighbour in the disk: its power at
    /// the disk's edge, `P / (δ − ρ)^α`.
    #[inline]
    pub(crate) fn edge_term(&self, ctx: &ExactCtx<'_>, d2: f64) -> f64 {
        received_power(ctx.power, d2.sqrt() - self.rho, ctx.alpha)
    }

    /// Whether every neighbour in the disk decodes the transmitter when it
    /// hears at most `interference` from the slot's other transmitters:
    /// the SINR at `ρ` clears `β` with [`SUM_SLACK`] to spare.
    #[inline]
    pub(crate) fn certifies(&self, ctx: &ExactCtx<'_>, interference: f64) -> bool {
        self.signal / (ctx.noise + interference) >= ctx.beta * (1.0 + SUM_SLACK)
    }
}

/// The slot's one transmitter, when it has exactly one and every
/// candidate provably decodes it: the sender certificate with no
/// interference.
// lint:hot — lone-transmitter certificate, runs once per slot
fn certified_lone_sender(ctx: &ExactCtx<'_>) -> Option<NodeId> {
    let [t] = *ctx.transmitting else {
        return None;
    };
    CertDisk::new(ctx, ctx.adjacency_r2)
        .certifies(ctx, 0.0)
        .then_some(t)
}

/// "Hears no certified sender" in `ExactKernel::heard`.
const UNHEARD: u32 = u32::MAX;

/// Reusable scratch of the exact kernel: the transmitter bitmap, the
/// candidate bitset and list, and the decode scratch. It starts empty and
/// grows to the graph on the first slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactKernel {
    /// Dense transmitter bitmap, unmarked after every slot.
    is_tx: Vec<bool>,
    /// Candidate receivers as a bitset over node ids (bit `u % 64` of
    /// word `u / 64`); the scan that lists them zeroes it.
    candidate_bits: Vec<u64>,
    /// Candidate receivers of the slot in progress, in ascending order.
    candidates: Vec<NodeId>,
    /// Per node: the certified transmitter it neighbours this slot, or
    /// [`UNHEARD`]. Only candidates are marked, and the decode loop resets
    /// each mark as it reads it.
    heard: Vec<u32>,
    /// The buffers and counters every candidate's decode reuses.
    scratch: DecodeScratch,
}

impl ExactKernel {
    /// Starts a slot: marks `transmitting` and lists the candidate
    /// receivers in ascending order.
    // lint:hot — candidate discovery, runs once per slot
    pub(crate) fn begin_slot(&mut self, g: &UnitDiskGraph, transmitting: &[NodeId]) {
        let n = g.len();
        if self.is_tx.len() < n {
            self.is_tx.resize(n, false);
            self.heard.resize(n, UNHEARD);
            self.candidate_bits.resize(n.div_ceil(64), 0);
            // At most every node is a candidate, and each candidate
            // decodes at most one pair: one reservation up front keeps
            // every later slot allocation-free however dense it gets.
            self.candidates.reserve(n);
        }
        // A candidate's adjacent senders are among its neighbors.
        let links = &mut self.scratch.links;
        if links.capacity() < g.max_degree() {
            links.reserve(g.max_degree());
        }
        for &t in transmitting {
            debug_assert!(!self.is_tx[t], "node {t} transmits twice in one slot");
            self.is_tx[t] = true;
        }
        self.candidates.clear();
        if transmitting.is_empty() {
            return;
        }
        for &t in transmitting {
            for &u in g.neighbors(t) {
                if !self.is_tx[u] {
                    self.candidate_bits[u / 64] |= 1 << (u % 64);
                }
            }
        }
        for (i, word) in self.candidate_bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.candidates
                    .push(i * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The candidate receivers of the slot in progress, in ascending
    /// order.
    pub(crate) fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Grows the sender buffer to hold at least `cap` ids.
    pub(crate) fn reserve_senders(&mut self, cap: usize) {
        let senders = &mut self.scratch.sender_buf;
        if senders.capacity() < cap {
            senders.reserve(cap);
        }
    }

    /// Marks the neighbours of transmitter `t` in `disk` as hearing it:
    /// `t` passed the sender certificate for that disk, so they are
    /// silent candidates and all decode it. A node id that does not fit
    /// the mark is left to the per-candidate decode.
    pub(crate) fn certify(
        &mut self,
        ctx: &ExactCtx<'_>,
        g: &UnitDiskGraph,
        t: NodeId,
        disk: &CertDisk,
    ) {
        let Ok(mark) = u32::try_from(t) else {
            return;
        };
        if mark == UNHEARD {
            return;
        }
        let pt = ctx.positions[t];
        for &u in g.neighbors(t) {
            if disk.whole || ctx.positions[u].distance_squared(pt) <= disk.rho2 {
                debug_assert!(!self.is_tx[u], "certified {t} neighbours transmitter {u}");
                self.heard[u] = mark;
            }
        }
    }

    /// Runs the sender certificate over a slot without the grid, from
    /// exact pairwise distances: `O(k²)`, for the small slots the grid
    /// leaves to the exact decode.
    // lint:hot — pairwise sender certificate, runs once per small slot
    pub(crate) fn certify_pairwise(&mut self, ctx: &ExactCtx<'_>, g: &UnitDiskGraph) {
        let disks = CertDisk::both(ctx);
        for &t in ctx.transmitting {
            let pt = ctx.positions[t];
            let mut isolated = [true; 2];
            let mut interference = [0.0f64; 2];
            for &w in ctx.transmitting {
                if w != t {
                    let d2 = pt.distance_squared(ctx.positions[w]);
                    for ((disk, iso), sum) in disks.iter().zip(&mut isolated).zip(&mut interference)
                    {
                        *iso &= d2 > disk.iso_r2;
                        *sum += disk.edge_term(ctx, d2);
                    }
                }
            }
            let passed =
                (0..disks.len()).find(|&i| isolated[i] && disks[i].certifies(ctx, interference[i]));
            if let Some(i) = passed {
                self.certify(ctx, g, t, &disks[i]);
            }
        }
    }

    /// Finishes the slot begun by [`ExactKernel::begin_slot`] with
    /// `ctx.transmitting`: `decode` returns the sender each candidate
    /// hears, if any; `pairs` (cleared first) receives the receptions
    /// sorted by receiver. Unmarks the transmitters and returns the
    /// slot's counters.
    ///
    /// A slot whose lone transmitter [`certified_lone_sender`] returns emits
    /// `(u, t)` for every candidate without calling `decode`. Otherwise
    /// the candidates are taken in ascending order: one that
    /// [`ExactKernel::certify`] marked takes its certified sender, and
    /// `decode` decides the others. Every candidate that `decode` did not
    /// count as a fast-path hit and no certificate decided counts as an
    /// exact decode.
    // lint:hot — candidate decode loop, runs once per slot
    pub(crate) fn finish_slot<F>(
        &mut self,
        ctx: &ExactCtx<'_>,
        pairs: &mut Vec<(NodeId, NodeId)>,
        mut decode: F,
    ) -> SlotCounts
    where
        F: FnMut(NodeId, &mut DecodeScratch) -> Option<NodeId>,
    {
        pairs.clear();
        let ExactKernel {
            is_tx,
            candidates,
            heard,
            scratch,
            ..
        } = self;
        scratch.counts = SlotCounts::default();
        if let Some(t) = certified_lone_sender(ctx) {
            pairs.extend(candidates.iter().map(|&u| (u, t)));
            scratch.counts.certified = candidates.len() as u64;
        } else {
            // Each candidate decodes at most one pair: a fresh list grows
            // once here, and a recycled list that holds the slot not at
            // all.
            pairs.reserve(candidates.len());
            for &u in candidates.iter() {
                let mark = std::mem::replace(&mut heard[u], UNHEARD);
                if mark != UNHEARD {
                    scratch.counts.certified += 1;
                    pairs.push((u, mark as NodeId));
                } else if let Some(v) = decode(u, scratch) {
                    pairs.push((u, v));
                }
            }
        }

        let counts = &mut scratch.counts;
        counts.exact = candidates.len() as u64 - counts.fast_hits - counts.certified;

        for &t in ctx.transmitting {
            is_tx[t] = false;
        }
        *counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `side × side` lattice of spacing 1, row by row.
    fn lattice(side: usize) -> Vec<Point> {
        (0..side * side)
            .map(|i| Point::new((i % side) as f64, (i / side) as f64))
            .collect()
    }

    /// A context on `positions` with an adjacency radius of its own,
    /// independent of any graph.
    fn ctx_with_radius<'a>(
        cfg: &SinrConfig,
        positions: &'a [Point],
        transmitting: &'a [NodeId],
        radius: f64,
    ) -> ExactCtx<'a> {
        ExactCtx {
            positions,
            transmitting,
            power: cfg.power(),
            alpha: cfg.alpha(),
            beta: cfg.beta(),
            noise: cfg.noise(),
            adjacency_r2: radius * radius,
        }
    }

    /// The slot's receptions from the definition: every silent node
    /// decoded on its own, whatever the candidate list holds.
    fn decode_every_node(ctx: &ExactCtx<'_>) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::new();
        (0..ctx.positions.len())
            .filter(|u| !ctx.transmitting.contains(u))
            .filter_map(|u| decode_exact(ctx, u, &mut links).map(|v| (u, v)))
            .collect()
    }

    /// One slot through the kernel.
    fn kernel_pairs(
        kernel: &mut ExactKernel,
        g: &UnitDiskGraph,
        ctx: &ExactCtx<'_>,
    ) -> Vec<(NodeId, NodeId)> {
        kernel.begin_slot(g, ctx.transmitting);
        let mut pairs = Vec::new();
        kernel.finish_slot(ctx, &mut pairs, |u, cs| decode_exact(ctx, u, &mut cs.links));
        pairs
    }

    #[test]
    fn lone_certificate_refuses_past_the_lone_decode_range() {
        // Adjacency at 1.5 · r_max: a lone sender's neighbors at distance
        // 1 decode it (SNR 2β), those at √2 > r_max do not.
        let cfg = SinrConfig::default_unit();
        let radius = 1.5 * cfg.r_max();
        let g = UnitDiskGraph::new(lattice(5), radius);
        let tx = [12];
        let ctx = ctx_with_radius(&cfg, g.positions(), &tx, radius);
        assert_eq!(certified_lone_sender(&ctx), None);
        let pairs = kernel_pairs(&mut ExactKernel::default(), &g, &ctx);
        assert_eq!(pairs, decode_every_node(&ctx));
        assert_eq!(pairs, vec![(7, 12), (11, 12), (13, 12), (17, 12)]);
        assert_eq!(g.neighbors(12).len(), 8);
    }

    #[test]
    fn lone_certificate_holds_at_r_t() {
        // At R_T a lone sender's SNR is 2β: every neighbor decodes it.
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(lattice(5), cfg.r_t());
        let tx = [12];
        let ctx = ExactCtx::new(&cfg, &g, &tx);
        assert_eq!(certified_lone_sender(&ctx), Some(12));
        let pairs = kernel_pairs(&mut ExactKernel::default(), &g, &ctx);
        assert_eq!(pairs, vec![(7, 12), (11, 12), (13, 12), (17, 12)]);
        assert_eq!(pairs, decode_every_node(&ctx));
    }

    #[test]
    fn pairwise_certificate_decides_isolated_senders_and_leaves_the_rest() {
        // A 9×9 lattice of spacing R_T: the corners lie far apart and
        // certify their two neighbours each; 40 and 42 lie 2·R_T apart,
        // share the receiver 41 and are left to the exact decode.
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(lattice(9), cfg.r_t());
        let slots: [(&[NodeId], u64); 4] = [
            (&[0, 80], 4),
            (&[40, 42], 0),
            (&[0, 40, 42, 80], 4),
            (&[0, 8, 72, 80], 8),
        ];
        let mut kernel = ExactKernel::default();
        for (tx, certified) in slots {
            let ctx = ExactCtx::new(&cfg, &g, tx);
            kernel.begin_slot(&g, tx);
            kernel.certify_pairwise(&ctx, &g);
            let mut pairs = Vec::new();
            let counts = kernel.finish_slot(&ctx, &mut pairs, |u, cs| {
                decode_exact(&ctx, u, &mut cs.links)
            });
            assert_eq!(pairs, decode_every_node(&ctx), "{tx:?}");
            assert_eq!(counts.certified, certified, "{tx:?}");
            assert_eq!(
                counts.exact + counts.certified,
                kernel.candidates().len() as u64
            );
        }
    }

    #[test]
    fn decode_exact_never_decodes_past_the_adjacency_radius() {
        // The sender at 0.8 clears β by far, but it lies beyond this
        // context's adjacency radius 0.5.
        let cfg = SinrConfig::default_unit();
        let positions = [Point::new(0.0, 0.0), Point::new(0.8, 0.0)];
        let tx = [1];
        let mut links = Vec::new();
        let near = ctx_with_radius(&cfg, &positions, &tx, 1.0);
        assert_eq!(decode_exact(&near, 0, &mut links), Some(1));
        let short = ctx_with_radius(&cfg, &positions, &tx, 0.5);
        assert_eq!(decode_exact(&short, 0, &mut links), None);
        assert!(links.is_empty());
    }

    #[test]
    fn consecutive_slots_list_exactly_their_own_candidates() {
        // One kernel across lone, multi-transmitter and empty slots: each
        // slot's candidates are its own, ascending, and its pairs are the
        // per-node decodes, whatever the previous slot left behind.
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(lattice(9), cfg.r_t());
        let slots: [&[NodeId]; 7] = [
            &[40],
            &[0, 80],
            &[],
            &[10],
            &[70, 9, 44, 45],
            &[63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 74, 76, 78, 80],
            &[80],
        ];
        let mut kernel = ExactKernel::default();
        for tx in slots {
            let ctx = ExactCtx::new(&cfg, &g, tx);
            let pairs = kernel_pairs(&mut kernel, &g, &ctx);
            let mut expected: Vec<NodeId> = tx
                .iter()
                .flat_map(|&t| g.neighbors(t).iter().copied())
                .filter(|u| !tx.contains(u))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(kernel.candidates(), expected, "{tx:?}");
            assert_eq!(pairs, decode_every_node(&ctx), "{tx:?}");
        }
    }
}
