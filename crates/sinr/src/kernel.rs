//! The exact SINR kernel that both [`SinrModel`](crate::SinrModel) and
//! [`FastSinrModel`](crate::FastSinrModel) run.
//!
//! Exact resolution of one slot has three parts, and each lives here once:
//!
//! 1. **Candidate discovery** over reused scratch
//!    ([`ExactKernel::begin_slot`]): the transmitters are marked in a
//!    dense bitmap and the candidate receivers — non-transmitting
//!    neighbors of any transmitter — are collected in discovery order
//!    (per transmitter, then per neighbor; first touch wins).
//! 2. **The exact decode** of one candidate ([`decode_exact`]): the total
//!    received power summed in `transmitting` order, then the strongest
//!    sender within `R_T` whose SINR against that total clears `β`.
//!    Adjacency is tested as `dist² ≤ R_T²`, the same test
//!    `UnitDiskGraph::new` makes its edges with, so no adjacency list is
//!    searched.
//! 3. **Dispatch and merge** ([`ExactKernel::finish_slot`]): candidates
//!    are decoded in order, or in static chunks on the worker pool with
//!    the per-thread pair buffers concatenated in chunk order, so every
//!    thread count yields the sequential list. The marks are then reset
//!    in `O(touched)` for the next slot.
//!
//! The naive model decodes every candidate exactly; the fast model first
//! tries its certified grid bounds and falls back to [`decode_exact`].
//! Once the scratch has grown to the graph, a slot that refills a
//! recycled table allocates nothing.

use crate::config::SinrConfig;
use crate::interference::{received_power, sinr_from_total};
use crate::model::PAR_CANDIDATE_CUTOFF;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_pool::{PerThread, Pool};

/// Per-chunk resolver counters of one slot. The fast model adds them to
/// its [`ResolverStats`](crate::ResolverStats); the naive model leaves
/// them at zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotCounts {
    /// Candidates decided from the certified grid bounds.
    pub(crate) fast_hits: u64,
    /// Candidates that fell back to [`decode_exact`].
    pub(crate) fallbacks: u64,
    /// Near-list entries examined on the grid path.
    pub(crate) cells: u64,
}

impl SlotCounts {
    fn add(&mut self, other: SlotCounts) {
        self.fast_hits += other.fast_hits;
        self.fallbacks += other.fallbacks;
        self.cells += other.cells;
    }
}

/// Per-thread (per-chunk) working state for one slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkScratch {
    /// Potential senders of the current candidate on the fast model's
    /// grid path (reused).
    pub(crate) sender_buf: Vec<NodeId>,
    /// Receptions decoded by this chunk on the pooled path, in candidate
    /// order (the sequential path writes straight to the caller's list).
    pairs: Vec<(NodeId, NodeId)>,
    /// This chunk's counters for the slot.
    pub(crate) counts: SlotCounts,
}

/// The slot-invariant inputs of [`decode_exact`].
#[derive(Clone, Copy)]
pub(crate) struct ExactCtx<'a> {
    pub(crate) cfg: &'a SinrConfig,
    pub(crate) positions: &'a [Point],
    pub(crate) transmitting: &'a [NodeId],
    pub(crate) power: f64,
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    /// `R_T²` of the graph: `u` and `v` are adjacent iff
    /// `dist²(u, v) ≤ adjacency_r2` (and `u ≠ v`).
    pub(crate) adjacency_r2: f64,
}

impl<'a> ExactCtx<'a> {
    /// The context of one slot of `transmitting` on `g` under `cfg`.
    pub(crate) fn new(
        cfg: &'a SinrConfig,
        g: &'a UnitDiskGraph,
        transmitting: &'a [NodeId],
    ) -> Self {
        debug_assert!(
            (g.radius() - cfg.r_t()).abs() < 1e-9 * cfg.r_t().max(1.0),
            "graph radius {} does not match configured R_T {}",
            g.radius(),
            cfg.r_t()
        );
        ExactCtx {
            cfg,
            positions: g.positions(),
            transmitting,
            power: cfg.power(),
            alpha: cfg.alpha(),
            beta: cfg.beta(),
            adjacency_r2: g.radius() * g.radius(),
        }
    }
}

/// Decodes candidate receiver `u` exactly: the strongest sender within
/// `R_T` whose SINR against the whole transmitter set clears `β`, with
/// the interference summed in `transmitting` order and ties kept by the
/// first sender.
///
/// Pure in `(ctx, u)`, so a receiver decodes the same on any thread and
/// in any chunk. `u` must not transmit (candidates never do).
// lint:hot — exact decode, runs once per candidate (naive) or per fallback (fast)
#[inline]
pub(crate) fn decode_exact(ctx: &ExactCtx<'_>, u: NodeId) -> Option<NodeId> {
    let positions = ctx.positions;
    let pu = positions[u];
    let total: f64 = ctx
        .transmitting
        .iter()
        .map(|&w| received_power(ctx.power, pu.distance(positions[w]), ctx.alpha))
        .sum();
    let mut best: Option<(f64, NodeId)> = None;
    for &v in ctx.transmitting {
        // The graph holds the edge `uv` exactly when `dist² ≤ R_T²` (the
        // expression `UnitDiskGraph::new` tests), and `v ≠ u` because `u`
        // is silent, so the geometry answers adjacency without a list
        // search.
        if positions[v].distance_squared(pu) <= ctx.adjacency_r2 {
            let s = sinr_from_total(ctx.cfg, pu, positions[v], total);
            if s >= ctx.beta && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, v));
            }
        }
    }
    best.map(|(_, v)| v)
}

/// Reusable scratch of the exact kernel: transmitter and candidate
/// marks, the candidate list, and per-thread chunk scratch.
#[derive(Debug, Clone)]
pub(crate) struct ExactKernel {
    /// Dense transmitter bitmap, unmarked after every slot.
    is_tx: Vec<bool>,
    /// Dense candidate-receiver marks, unmarked after every slot.
    candidate_mark: Vec<bool>,
    /// Candidate receivers of the slot in progress, in discovery order.
    candidates: Vec<NodeId>,
    /// One scratch slot per pool thread; the sequential path uses slot
    /// 0's sender buffer and counters.
    thread: PerThread<ChunkScratch>,
}

impl ExactKernel {
    /// Empty scratch for a pool of `threads`; it grows to the graph on
    /// the first slot.
    pub(crate) fn new(threads: usize) -> Self {
        ExactKernel {
            is_tx: Vec::new(),
            candidate_mark: Vec::new(),
            candidates: Vec::new(),
            thread: PerThread::new(threads, |_| ChunkScratch::default()),
        }
    }

    /// Re-creates the per-thread scratch for a pool of `threads`, with
    /// the pooled path's pair buffers sized to the graph seen so far.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        let cap = if threads > 1 { self.is_tx.len() } else { 0 };
        self.thread = PerThread::new(threads, |_| ChunkScratch {
            pairs: Vec::with_capacity(cap),
            ..ChunkScratch::default()
        });
    }

    /// Starts a slot: marks `transmitting` and collects the candidate
    /// receivers in discovery order.
    // lint:hot — candidate discovery, runs once per slot
    pub(crate) fn begin_slot(&mut self, g: &UnitDiskGraph, transmitting: &[NodeId]) {
        let n = g.len();
        if self.is_tx.len() < n {
            self.is_tx.resize(n, false);
            self.candidate_mark.resize(n, false);
            // At most every node is a candidate, and each candidate
            // decodes at most one pair: one reservation up front keeps
            // every later slot allocation-free however dense it gets.
            self.candidates.reserve(n);
            if self.thread.len() > 1 {
                for cs in self.thread.iter_mut() {
                    cs.pairs.reserve(n);
                }
            }
        }
        for &t in transmitting {
            debug_assert!(!self.is_tx[t], "node {t} transmits twice in one slot");
            self.is_tx[t] = true;
        }
        self.candidates.clear();
        for &t in transmitting {
            for &u in g.neighbors(t) {
                if !self.is_tx[u] && !self.candidate_mark[u] {
                    self.candidate_mark[u] = true;
                    self.candidates.push(u);
                }
            }
        }
    }

    /// The transmitter bitmap of the slot in progress.
    pub(crate) fn is_tx(&self) -> &[bool] {
        &self.is_tx
    }

    /// The candidate receivers of the slot in progress, in discovery
    /// order.
    pub(crate) fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Grows every thread's sender buffer to hold at least `cap` ids.
    pub(crate) fn reserve_senders(&mut self, cap: usize) {
        for cs in self.thread.iter_mut() {
            if cs.sender_buf.capacity() < cap {
                cs.sender_buf.reserve(cap);
            }
        }
    }

    /// Finishes the slot begun by [`ExactKernel::begin_slot`] with the
    /// same `transmitting`: `decode` returns the sender each candidate
    /// hears, if any; `pairs` (cleared first) receives the receptions in
    /// candidate order. Resets the marks and returns the summed chunk
    /// counters.
    ///
    /// With more than one pool thread and at least
    /// [`PAR_CANDIDATE_CUTOFF`] candidates, the candidate list is cut into
    /// static chunks. Every slot first resets all per-thread outputs
    /// (chunks at the tail can be empty and are then skipped by the
    /// pool), and the merge walks the slots in thread = chunk = candidate
    /// order, so pairs and counters match the sequential loop exactly.
    // lint:hot — dispatch and merge, runs once per slot
    pub(crate) fn finish_slot<F>(
        &mut self,
        pool: &Pool,
        transmitting: &[NodeId],
        pairs: &mut Vec<(NodeId, NodeId)>,
        decode: F,
    ) -> SlotCounts
    where
        F: Fn(NodeId, &mut ChunkScratch) -> Option<NodeId> + Sync,
    {
        let mut counts = SlotCounts::default();
        pairs.clear();
        if pool.threads() > 1 && self.candidates.len() >= PAR_CANDIDATE_CUTOFF {
            for cs in self.thread.iter_mut() {
                cs.pairs.clear();
                cs.counts = SlotCounts::default();
            }
            let candidates: &[NodeId] = &self.candidates;
            let thread = &self.thread;
            pool.run_chunks(candidates.len(), |t, range| {
                thread.with(t, |cs| {
                    for &u in &candidates[range] {
                        if let Some(v) = decode(u, cs) {
                            cs.pairs.push((u, v));
                        }
                    }
                })
            });
            for cs in self.thread.iter_mut() {
                pairs.append(&mut cs.pairs);
                counts.add(cs.counts);
            }
        } else {
            // Each candidate decodes at most one pair: a fresh list grows
            // once here, and a recycled list that holds the slot not at
            // all.
            pairs.reserve(self.candidates.len());
            let cs = self.thread.get_mut(0);
            cs.counts = SlotCounts::default();
            for &u in &self.candidates {
                if let Some(v) = decode(u, cs) {
                    pairs.push((u, v));
                }
            }
            counts.add(cs.counts);
        }

        for &t in transmitting {
            self.is_tx[t] = false;
        }
        for &u in &self.candidates {
            self.candidate_mark[u] = false;
        }
        counts
    }
}
