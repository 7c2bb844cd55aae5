//! The exact SINR kernel that both [`SinrModel`](crate::SinrModel) and
//! [`FastSinrModel`](crate::FastSinrModel) run.
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
//! 3. **The lone-transmitter certificate** ([`certified_lone_sender`]).
//!    `R_T` is defined as the range at which a lone sender's SINR is
//!    `2β`: `R_T = (P / (2Nβ))^{1/α}`. When one node `t` transmits, a
//!    candidate `u` (a neighbor of `t`, so `δ(u, t) ≤ R_T`) hears no
//!    interference, and the exact decode computes its total as exactly
//!    the signal, its interference as exactly 0 and its SINR as
//!    `P / δ^α / N`. The square root, the power of the distance and the
//!    divisions are each monotone up to rounding, so that SINR is at
//!    least the one at the adjacency radius, up to a relative error far
//!    below [`SUM_SLACK`]. One check per slot,
//!    `P / R_T^α / N ≥ β · (1 + SUM_SLACK)`, therefore proves that every
//!    candidate decodes `t`, and the slot needs no per-candidate sum. A
//!    graph built at the configured `R_T` passes it with a factor of 2 to
//!    spare; a context whose adjacency radius reaches past the lone-decode
//!    range [`SinrConfig::r_max`] fails it and takes the exact decode.
//!
//! [`ExactKernel::finish_slot`] decodes the candidates in ascending order
//! and each decodes at most one sender, so the pairs come out sorted by
//! receiver and the reception table takes them without a sort. The naive
//! model decodes every candidate exactly; the fast model first tries its
//! certified grid bounds and falls back to [`decode_exact`]. Once the
//! scratch has grown to the graph, a slot that refills a recycled table
//! allocates nothing.

use crate::config::SinrConfig;
use crate::interference::{received_power, sinr_from_signal};
use crate::resolver::SUM_SLACK;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};

/// Resolver counters of one slot. The fast model adds them to its
/// [`ResolverStats`](crate::ResolverStats); the naive model ignores them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotCounts {
    /// Candidates decided from the certified grid bounds.
    pub(crate) fast_hits: u64,
    /// Candidates decided exactly: by [`decode_exact`], or by the
    /// lone-transmitter certificate that stands in for it.
    pub(crate) fallbacks: u64,
    /// Near-list entries examined on the grid path.
    pub(crate) cells: u64,
}

/// The working state a candidate's decode reuses: its buffers and the
/// slot's counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    /// Potential senders of the current candidate on the fast model's
    /// grid path (reused).
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
// lint:hot — exact decode, runs once per candidate (naive) or per fallback (fast)
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

/// The slot's one transmitter, when it has exactly one and every
/// candidate provably decodes it: the SNR at the adjacency radius clears
/// `β` with [`SUM_SLACK`] to spare (the derivation is in the module docs).
// lint:hot — lone-transmitter certificate, runs once per slot
fn certified_lone_sender(ctx: &ExactCtx<'_>) -> Option<NodeId> {
    let [t] = *ctx.transmitting else {
        return None;
    };
    let snr_at_radius = received_power(ctx.power, ctx.adjacency_r2.sqrt(), ctx.alpha) / ctx.noise;
    (snr_at_radius >= ctx.beta * (1.0 + SUM_SLACK)).then_some(t)
}

/// Reusable scratch of the exact kernel: the transmitter bitmap, the
/// candidate bitset and list, and the decode scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactKernel {
    /// Dense transmitter bitmap, unmarked after every slot.
    is_tx: Vec<bool>,
    /// Candidate receivers as a bitset over node ids (bit `u % 64` of
    /// word `u / 64`); the scan that lists them zeroes it.
    candidate_bits: Vec<u64>,
    /// Candidate receivers of the slot in progress, in ascending order.
    candidates: Vec<NodeId>,
    /// The buffers and counters every candidate's decode reuses.
    scratch: DecodeScratch,
}

impl ExactKernel {
    /// Empty scratch; it grows to the graph on the first slot.
    pub(crate) fn new() -> Self {
        ExactKernel::default()
    }

    /// Starts a slot: marks `transmitting` and lists the candidate
    /// receivers in ascending order.
    // lint:hot — candidate discovery, runs once per slot
    pub(crate) fn begin_slot(&mut self, g: &UnitDiskGraph, transmitting: &[NodeId]) {
        let n = g.len();
        if self.is_tx.len() < n {
            self.is_tx.resize(n, false);
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

    /// The transmitter bitmap of the slot in progress.
    pub(crate) fn is_tx(&self) -> &[bool] {
        &self.is_tx
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

    /// Finishes the slot begun by [`ExactKernel::begin_slot`] with
    /// `ctx.transmitting`: `decode` returns the sender each candidate
    /// hears, if any; `pairs` (cleared first) receives the receptions
    /// sorted by receiver. Unmarks the transmitters and returns the
    /// slot's counters.
    ///
    /// A slot whose lone transmitter [`certified_lone_sender`] returns emits
    /// `(u, t)` for every candidate without calling `decode`, and counts
    /// them as exact decodes. Otherwise every candidate is decoded in
    /// ascending order.
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
        let scratch = &mut self.scratch;
        scratch.counts = SlotCounts::default();
        if let Some(t) = certified_lone_sender(ctx) {
            pairs.extend(self.candidates.iter().map(|&u| (u, t)));
            scratch.counts.fallbacks = self.candidates.len() as u64;
        } else {
            // Each candidate decodes at most one pair: a fresh list grows
            // once here, and a recycled list that holds the slot not at
            // all.
            pairs.reserve(self.candidates.len());
            for &u in &self.candidates {
                if let Some(v) = decode(u, scratch) {
                    pairs.push((u, v));
                }
            }
        }

        for &t in ctx.transmitting {
            self.is_tx[t] = false;
        }
        scratch.counts
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
        let pairs = kernel_pairs(&mut ExactKernel::new(), &g, &ctx);
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
        let pairs = kernel_pairs(&mut ExactKernel::new(), &g, &ctx);
        assert_eq!(pairs, vec![(7, 12), (11, 12), (13, 12), (17, 12)]);
        assert_eq!(pairs, decode_every_node(&ctx));
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
        let mut kernel = ExactKernel::new();
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
