//! The per-node MW automaton: a line-by-line implementation of Figs. 1–3.
//!
//! The struct is split hot/cold for the slot engine's sake: the fields a
//! slot actually touches (`phase`, `counter`, the cached threshold) live
//! inline in [`MwNode`], while leader bookkeeping and diagnostics that
//! only move on phase transitions sit behind one `Box` in [`MwCold`].
//! `tests/struct_sizes.rs` ratchets both sizes.

use crate::chi::chi_scratch;
use crate::mw::messages::MwMessage;
use crate::params::MwParams;
use sinr_geometry::NodeId;
use sinr_radiosim::{Action, NodeCtx, Protocol, Quiet, SlotRng};
use std::collections::VecDeque;

/// The state class of an [`MwPhase`], as a dense 1-byte enum.
///
/// Used wherever only the *kind* of phase matters — per-phase slot
/// accounting, observability snapshots, the engine's SoA columns. The
/// discriminants match [`MwPhase::kind_index`] and stay niche-friendly:
/// `Option<MwPhaseKind>` is still one byte (checked in
/// `tests/struct_sizes.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MwPhaseKind {
    /// `A_i` listen loop.
    Listen = 0,
    /// `A_i` counter race.
    Compete = 1,
    /// `R`: requesting a cluster color.
    Request = 2,
    /// `C_0`: cluster leader.
    Leader = 3,
    /// `C_i`, `i > 0`: colored announcer.
    Colored = 4,
}

/// Which state class the node currently occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MwPhase {
    /// `A_level`, initial listen loop (Fig. 1 lines 2–5): silent for
    /// `remaining` more slots while tracking competitor counters.
    Listen {
        /// The color being competed for.
        level: usize,
        /// Slots left before the node starts counting (Fig. 1 line 6).
        remaining: u64,
    },
    /// `A_level`, counter race (Fig. 1 lines 7–15).
    Compete {
        /// The color being competed for.
        level: usize,
    },
    /// `R` (Fig. 3): requesting a cluster color from `leader`.
    Request {
        /// The leader `L(v)` chosen when the node was covered.
        leader: NodeId,
    },
    /// `C_0` (Fig. 2, `i = 0`): the node is a cluster leader with color 0.
    Leader,
    /// `C_level` for `level > 0` (Fig. 2, `i > 0`): colored, forever
    /// announcing `M_C^level`.
    Colored {
        /// The final color.
        level: usize,
    },
}

impl MwPhase {
    /// The `A_i` level if the node is in state class `A`, else `None`.
    pub fn competing_level(&self) -> Option<usize> {
        match *self {
            MwPhase::Listen { level, .. } | MwPhase::Compete { level } => Some(level),
            _ => None,
        }
    }

    /// The state class, stripped of its payload.
    pub fn kind(&self) -> MwPhaseKind {
        match self {
            MwPhase::Listen { .. } => MwPhaseKind::Listen,
            MwPhase::Compete { .. } => MwPhaseKind::Compete,
            MwPhase::Request { .. } => MwPhaseKind::Request,
            MwPhase::Leader => MwPhaseKind::Leader,
            MwPhase::Colored { .. } => MwPhaseKind::Colored,
        }
    }

    /// A stable index into per-phase accounting arrays (see
    /// [`MwNode::phase_slots`]).
    pub fn kind_index(&self) -> usize {
        self.kind() as usize
    }

    /// Human-readable names matching [`MwPhase::kind_index`].
    pub const KIND_NAMES: [&'static str; 5] = ["listen", "compete", "request", "leader", "colored"];
}

/// Leader-side bookkeeping (Fig. 2, `i = 0`).
#[derive(Debug, Clone, Default)]
struct LeaderState {
    /// Pending requesters, FIFO (Fig. 2: the queue `Q`). The node being
    /// served stays at the front until its grant window ends ("Remove w
    /// from Q" happens after the `⌈μ ln n⌉` repetitions).
    queue: VecDeque<NodeId>,
    /// Next cluster color to hand out, pre-increment (Fig. 2: `tc`).
    tc: usize,
    /// `(granted tc, remaining grant slots)` for the front of the queue.
    serving: Option<(usize, u64)>,
    /// Cluster colors already granted, per requester. A node whose whole
    /// grant window was lost re-requests and is re-served with the *same*
    /// `tc` — this keeps `tc ≤` cluster size `≤ Δ` deterministically, so
    /// the Theorem-2 palette bound holds surely instead of w.h.p. (the
    /// literal pseudocode would burn a fresh color on every re-request).
    granted: Vec<(NodeId, usize)>,
}

/// The cold half of [`MwNode`]: state the hot loop never streams.
///
/// Everything here is read or written only on phase transitions, inside
/// the leader's serve loop, or by diagnostics — never in the common
/// listen/compete slot. Boxing it keeps the struct the fused engine
/// passes stream per slot at cache-line scale.
#[derive(Debug, Clone, Default)]
pub struct MwCold {
    /// Interval buffer reused by every `χ(P_v)` evaluation, so resets in
    /// a warmed-up node allocate nothing (see [`chi_scratch`]).
    chi_intervals: Vec<(i64, i64)>,
    /// `L(v)`: the leader this node joined, once covered.
    leader: Option<NodeId>,
    /// The cluster color `tc_v` received from the leader.
    cluster_color: Option<usize>,
    /// Leader-side state, present iff `phase == Leader`.
    leader_state: LeaderState,
    /// Number of `A_i` levels entered (diagnostics; Lemma 4 bounds it).
    levels_entered: u32,
    /// Number of `χ` resets performed (diagnostics).
    resets: u32,
    /// Slots spent in each phase kind (indexed by `MwPhase::kind_index`),
    /// excluding the slots still pending in
    /// `MwNode::phase_slots_pending`.
    phase_slots: [u64; 5],
}

/// The MW automaton for one node.
///
/// Implements [`Protocol`]; drive it with the
/// [`Simulator`](sinr_radiosim::Simulator) or via
/// [`run_mw`](crate::mw::run_mw).
#[derive(Debug, Clone)]
pub struct MwNode {
    id: NodeId,
    params: MwParams,
    phase: MwPhase,
    /// Final color, set on entering any `C_i`.
    color: Option<usize>,
    /// Counter `c_v` (meaningful in `Compete`).
    counter: i64,
    /// `⌈σΔ ln n⌉`, cached from [`MwParams::counter_threshold`] at
    /// construction: the compete arm compares against it every slot, and
    /// recomputing the ceil-of-product there costs more than the compare.
    counter_threshold: i64,
    /// `⌈γζ_i ln n⌉` of the current level, cached from
    /// [`MwParams::reset_window`] by [`MwNode::enter_level`]: the level is
    /// its only changing input, and every heeded reception of a compete
    /// or absorbed slot compares against it.
    reset_window: i64,
    /// Slots attributed to the *current* phase kind but not yet flushed
    /// into `MwCold::phase_slots` (flushed by [`MwNode::set_phase`] on
    /// every kind transition). Keeps the hot loop's accounting to one
    /// inline increment instead of an indexed store behind the `Box`.
    phase_slots_pending: u64,
    /// `P_v` with the local copies `d_v(w)`: competitor counter estimates
    /// for the *current* level (cleared on every level entry, Fig. 1
    /// line 1). Each entry stores `c_w − t_w`, where `t_w` is the local
    /// slot that recorded it, so at local slot `t` the copy reads
    /// `d_v(w) = c_w + (t − t_w)`: the `+1` per slot of Fig. 1 lines 3
    /// and 9 comes from the clock, and the listen and compete slots
    /// never touch this buffer unless a message arrives.
    estimates: Vec<(NodeId, i64)>,
    /// Everything the hot loop never touches; see [`MwCold`].
    cold: Box<MwCold>,
}

impl MwNode {
    /// Creates the automaton for node `id` with the given parameters.
    /// The node starts in `A_0` on wake-up.
    pub fn new(id: NodeId, params: MwParams) -> Self {
        let counter_threshold = params.counter_threshold();
        let mut node = MwNode {
            id,
            params,
            phase: MwPhase::Listen {
                level: 0,
                remaining: 0,
            },
            color: None,
            counter: 0,
            counter_threshold,
            reset_window: 0,
            phase_slots_pending: 0,
            estimates: Vec::new(),
            cold: Box::default(),
        };
        node.enter_level(0);
        node
    }

    /// Preallocates every growable buffer to its degree bound, so a
    /// warmed-up node never allocates in the hot loop: competitors,
    /// requesters, and grantees are all neighbors, capping `estimates`,
    /// the leader queue, and the grant ledger at `degree` entries each.
    /// Drivers call this with the node's graph degree right after
    /// construction; skipping it costs rare mid-run allocations, never
    /// correctness.
    pub fn reserve(&mut self, degree: usize) {
        self.estimates.reserve(degree);
        self.cold.chi_intervals.reserve(degree);
        self.cold.leader_state.queue.reserve(degree);
        self.cold.leader_state.granted.reserve(degree);
    }

    /// The node's final color, once decided.
    pub fn color(&self) -> Option<usize> {
        self.color
    }

    /// The current phase.
    pub fn phase(&self) -> &MwPhase {
        &self.phase
    }

    /// The leader `L(v)` this node joined, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.cold.leader
    }

    /// The cluster color `tc_v` granted by the leader, if any.
    pub fn cluster_color(&self) -> Option<usize> {
        self.cold.cluster_color
    }

    /// How many `A_i` levels this node has entered (Lemma 4 bounds the
    /// levels *above* the granted one by `φ(2R_T)`).
    pub fn levels_entered(&self) -> u32 {
        self.cold.levels_entered
    }

    /// How many times the node reset its counter to `χ(P_v)`.
    pub fn resets(&self) -> u32 {
        self.cold.resets
    }

    /// The current competition counter `c_v` (meaningful while the node is
    /// in `Compete`; exposed for the observability layer's counter-reset
    /// annotations).
    pub fn counter(&self) -> i64 {
        self.counter
    }

    /// Slots spent in each phase kind, indexed by
    /// [`MwPhase::kind_index`] / named by [`MwPhase::KIND_NAMES`] —
    /// the decomposition of the node's running time.
    pub fn phase_slots(&self) -> [u64; 5] {
        let mut out = self.cold.phase_slots;
        out[self.phase.kind_index()] += self.phase_slots_pending;
        out
    }

    /// The send probability of this node in its current phase: `q_ℓ` for
    /// leaders, `q_s` otherwise (§IV, proof of Lemma 3). Used by the
    /// experiment harness to evaluate the probabilistic interference `Ψ`.
    pub fn send_probability(&self) -> f64 {
        match self.phase {
            MwPhase::Leader => self.params.q_leader,
            MwPhase::Listen { .. } => 0.0,
            _ => self.params.q_small,
        }
    }

    /// Replaces the phase, flushing the pending slot count into the cold
    /// accounting array when the phase *kind* changes. Every transition
    /// must go through here (or keep the kind) for
    /// [`MwNode::phase_slots`] to stay exact.
    fn set_phase(&mut self, phase: MwPhase) {
        let old = self.phase.kind_index();
        if old != phase.kind_index() {
            self.cold.phase_slots[old] += self.phase_slots_pending;
            self.phase_slots_pending = 0;
        }
        self.phase = phase;
    }

    /// Enters state `A_level` (Fig. 1 line 1): clear `P_v`, start the
    /// listen loop of `⌈ηΔ ln n⌉` slots.
    fn enter_level(&mut self, level: usize) {
        self.estimates.clear();
        self.counter = 0;
        self.reset_window = self.params.reset_window(level);
        self.cold.levels_entered += 1;
        self.set_phase(MwPhase::Listen {
            level,
            remaining: self.params.listen_slots(),
        });
    }

    /// Becomes colored with `level` (Fig. 2 line 1): `C_0` ⇒ leader,
    /// `C_i` ⇒ colored announcer.
    fn enter_colored(&mut self, level: usize) {
        self.color = Some(level);
        let phase = if level == 0 {
            // Reset in place: replacing the struct would drop the
            // capacity [`MwNode::reserve`] set aside for the queue and
            // the grant ledger.
            let st = &mut self.cold.leader_state;
            st.queue.clear();
            st.granted.clear();
            st.tc = 0;
            st.serving = None;
            MwPhase::Leader
        } else {
            MwPhase::Colored { level }
        };
        self.set_phase(phase);
    }

    /// `P_v := P_v ∪ {w}; d_v(w) := c_w` (Fig. 1 lines 4 and 14) at
    /// local slot `now`, stored as `c_w − now` (see the `estimates` field).
    fn record_estimate(&mut self, w: NodeId, c_w: i64, now: i64) {
        let aged = c_w - now;
        if let Some(entry) = self.estimates.iter_mut().find(|(id, _)| *id == w) {
            entry.1 = aged;
        } else {
            self.estimates.push((w, aged));
        }
    }

    /// `χ(P_v)` for the current level's reset window (Fig. 1 line 6),
    /// over the copies `d_v(w)` as they read at local slot `now`.
    fn chi_value(&mut self, now: i64) -> i64 {
        chi_scratch(
            self.estimates.iter().map(|&(_, aged)| aged + now),
            self.reset_window,
            &mut self.cold.chi_intervals,
        )
    }

    /// The leader's slot behaviour (Fig. 2, `i = 0`).
    fn leader_begin_slot<R: SlotRng + ?Sized>(&mut self, rng: &mut R) -> Action<MwMessage> {
        let st = &mut self.cold.leader_state;
        if st.serving.is_none() {
            if let Some(&front) = st.queue.front() {
                // Fig. 2 lines 11–13: tc := tc + 1; serve the first
                // element — unless this requester was served before and
                // lost its grant window, in which case re-serve its
                // original tc (see `LeaderState::granted`).
                let tc = match st.granted.iter().find(|&&(w, _)| w == front) {
                    Some(&(_, tc)) => tc,
                    None => {
                        st.tc += 1;
                        st.granted.push((front, st.tc));
                        st.tc
                    }
                };
                st.serving = Some((tc, self.params.response_slots()));
            }
        }
        match st.serving {
            Some((tc, ref mut remaining)) => {
                let target = *st.queue.front().expect("serving implies non-empty queue");
                *remaining -= 1;
                let finished = *remaining == 0;
                let action = if rng.chance(self.params.q_leader) {
                    Action::Transmit(MwMessage::Grant { to: target, tc })
                } else {
                    Action::Listen
                };
                if finished {
                    // Fig. 2 line 14: remove w from Q.
                    st.queue.pop_front();
                    st.serving = None;
                }
                action
            }
            None => {
                // Fig. 2 lines 8–9: queue empty -> beacon with probability q_ℓ.
                if rng.chance(self.params.q_leader) {
                    Action::Transmit(MwMessage::ColorTaken { level: 0 })
                } else {
                    Action::Listen
                }
            }
        }
    }
}

impl Protocol for MwNode {
    type Message = MwMessage;

    fn begin_slot<R: SlotRng + ?Sized>(
        &mut self,
        _ctx: &NodeCtx,
        rng: &mut R,
    ) -> Action<MwMessage> {
        self.phase_slots_pending += 1;
        match self.phase {
            // Fig. 1 line 3: the local counter copies advance with the
            // local-slot clock. The node is silent throughout the listen
            // loop.
            MwPhase::Listen { .. } => Action::Listen,
            MwPhase::Compete { level } => {
                // Fig. 1 lines 8–9: increment own counter (the copies
                // advance with the clock).
                self.counter += 1;
                // Fig. 1 line 10: threshold reached -> enter C_level.
                if self.counter >= self.counter_threshold {
                    self.enter_colored(level);
                    // The node acts as a C_level member from this very
                    // slot (Fig. 2 starts immediately).
                    return match self.phase {
                        MwPhase::Leader => self.leader_begin_slot(rng),
                        _ => {
                            if rng.chance(self.params.q_small) {
                                Action::Transmit(MwMessage::ColorTaken { level })
                            } else {
                                Action::Listen
                            }
                        }
                    };
                }
                // Fig. 1 line 11: transmit M_A^i(v, c_v) with probability q_s.
                if rng.chance(self.params.q_small) {
                    Action::Transmit(MwMessage::Compete {
                        level,
                        counter: self.counter,
                    })
                } else {
                    Action::Listen
                }
            }
            MwPhase::Request { leader } => {
                // Fig. 3 line 2: transmit M_R(v, L(v)) with probability q_s.
                if rng.chance(self.params.q_small) {
                    Action::Transmit(MwMessage::Request { leader })
                } else {
                    Action::Listen
                }
            }
            MwPhase::Leader => self.leader_begin_slot(rng),
            MwPhase::Colored { level } => {
                // Fig. 2 line 3: transmit M_C^i(v) with probability q_s
                // until the protocol stops.
                if rng.chance(self.params.q_small) {
                    Action::Transmit(MwMessage::ColorTaken { level })
                } else {
                    Action::Listen
                }
            }
        }
    }

    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, MwMessage)]) {
        // The `P_v` copies age against this clock. 2^63 local slots cannot
        // elapse, so saturating only keeps the conversion panic-free.
        let now = i64::try_from(ctx.local_slot).unwrap_or(i64::MAX);
        match self.phase {
            MwPhase::Listen { level, remaining } => {
                for &(w, msg) in received {
                    if msg.announces_color(level) {
                        // Fig. 1 line 5: covered -> A_suc (R for level 0,
                        // A_{level+1} otherwise).
                        if level == 0 {
                            self.cold.leader = Some(w);
                            self.set_phase(MwPhase::Request { leader: w });
                        } else {
                            self.enter_level(level + 1);
                        }
                        return;
                    }
                    if let MwMessage::Compete {
                        level: l,
                        counter: c_w,
                    } = msg
                    {
                        if l == level {
                            // Fig. 1 line 4.
                            self.record_estimate(w, c_w, now);
                        }
                    }
                }
                // Advance the listen loop; after the last iteration compute
                // c_v := χ(P_v) and start competing (Fig. 1 lines 6–7).
                let remaining = remaining - 1;
                if remaining == 0 {
                    self.counter = self.chi_value(now);
                    self.set_phase(MwPhase::Compete { level });
                } else {
                    self.phase = MwPhase::Listen { level, remaining };
                }
            }
            MwPhase::Compete { level } => {
                for &(w, msg) in received {
                    if msg.announces_color(level) {
                        // Fig. 1 line 12.
                        if level == 0 {
                            self.cold.leader = Some(w);
                            self.set_phase(MwPhase::Request { leader: w });
                        } else {
                            self.enter_level(level + 1);
                        }
                        return;
                    }
                    if let MwMessage::Compete {
                        level: l,
                        counter: c_w,
                    } = msg
                    {
                        if l == level {
                            // Fig. 1 lines 13–15.
                            self.record_estimate(w, c_w, now);
                            if (self.counter - c_w).abs() <= self.reset_window {
                                self.counter = self.chi_value(now);
                                self.cold.resets += 1;
                            }
                        }
                    }
                }
            }
            MwPhase::Request { leader } => {
                for &(w, msg) in received {
                    if let MwMessage::Grant { to, tc } = msg {
                        // Fig. 3 lines 3–4: a grant from my leader
                        // addressed to me.
                        if w == leader && to == self.id {
                            self.cold.cluster_color = Some(tc);
                            self.enter_level(tc * self.params.spread);
                            return;
                        }
                    }
                }
            }
            MwPhase::Leader => {
                for &(w, msg) in received {
                    if let MwMessage::Request { leader } = msg {
                        // Fig. 2 line 7: enqueue unseen requesters.
                        if leader == self.id && !self.cold.leader_state.queue.contains(&w) {
                            self.cold.leader_state.queue.push_back(w);
                        }
                    }
                }
            }
            MwPhase::Colored { .. } => {}
        }
    }

    fn is_done(&self) -> bool {
        self.color.is_some()
    }

    fn quiet(&self) -> Option<Quiet> {
        // Each phase's quiet slots end before the slot that changes more
        // than a countdown: the listen loop's last slot computes χ, the
        // compete slot reaching the threshold colors the node, and a
        // grant window's last slot pops the queue.
        let (coin, slots) = match self.phase {
            MwPhase::Listen { remaining, .. } => (0.0, remaining.saturating_sub(1)),
            MwPhase::Compete { .. } => (
                self.params.q_small,
                u64::try_from(self.counter_threshold - self.counter - 1).unwrap_or(0),
            ),
            MwPhase::Request { .. } | MwPhase::Colored { .. } => (self.params.q_small, u64::MAX),
            MwPhase::Leader => {
                let st = &self.cold.leader_state;
                match st.serving {
                    Some((_, remaining)) => (self.params.q_leader, remaining.saturating_sub(1)),
                    // A waiting requester is served from the next slot.
                    None if !st.queue.is_empty() => return None,
                    None => (self.params.q_leader, u64::MAX),
                }
            }
        };
        Some(Quiet { coin, slots })
    }

    fn heeds(&self, sender: NodeId, msg: &MwMessage) -> bool {
        match self.phase {
            // Fig. 1 lines 4–5 and 12–15.
            MwPhase::Listen { level, .. } | MwPhase::Compete { level } => {
                msg.announces_color(level)
                    || matches!(*msg, MwMessage::Compete { level: l, .. } if l == level)
            }
            // Fig. 3 line 3.
            MwPhase::Request { leader } => {
                matches!(*msg, MwMessage::Grant { to, .. } if sender == leader && to == self.id)
            }
            // Fig. 2 line 7.
            MwPhase::Leader => matches!(*msg, MwMessage::Request { leader } if leader == self.id),
            MwPhase::Colored { .. } => false,
        }
    }

    fn deaf(&self) -> bool {
        // A colored node (`C_i`) heeds nothing, and its phase is final.
        matches!(self.phase, MwPhase::Colored { .. })
    }

    // lint:hot — absorbed receptions, runs once per parked A_i node that heeds one
    fn absorb(&mut self, ctx: &NodeCtx, lag: u64, received: &[(NodeId, MwMessage)]) -> bool {
        // Only the listen and compete loops take receptions in while
        // parked, and only in a slot that is theirs: not the listen loop's
        // last slot, which computes χ, nor a compete slot whose increment
        // reaches the threshold. Where Fig. 1 would act on more than
        // `d_v(w) := c_w` (a color taken, line 5 or 12; a counter within
        // the reset window, lines 13–15), the node wakes instead.
        let (level, c_v) = match self.phase {
            MwPhase::Listen { level, remaining } if remaining > lag.saturating_add(1) => {
                (level, None)
            }
            MwPhase::Compete { level } => {
                // `c_v` as this slot's `end_slot` would compare it: `lag`
                // quiet increments, then this slot's own.
                let c_v = self
                    .counter
                    .saturating_add(i64::try_from(lag).unwrap_or(i64::MAX))
                    .saturating_add(1);
                if c_v >= self.counter_threshold {
                    return false;
                }
                (level, Some(c_v))
            }
            _ => return false,
        };
        let window = self.reset_window;
        let wakes = |msg: &MwMessage| match *msg {
            MwMessage::Compete {
                level: l,
                counter: c_w,
            } => l == level && c_v.is_some_and(|c_v| (c_v - c_w).abs() <= window),
            _ => msg.announces_color(level),
        };
        if received.iter().any(|(_, msg)| wakes(msg)) {
            return false;
        }
        // Fig. 1 lines 4 and 14, with this slot's clock.
        let now = i64::try_from(ctx.local_slot).unwrap_or(i64::MAX);
        for &(w, msg) in received {
            if let MwMessage::Compete {
                level: l,
                counter: c_w,
            } = msg
            {
                if l == level {
                    self.record_estimate(w, c_w, now);
                }
            }
        }
        true
    }

    fn prefetch(&self) {
        // Only the listen and compete loops record what they hear into
        // `P_v` (Fig. 1 lines 4 and 14); every other phase reads no heap
        // data for a reception.
        if matches!(self.phase, MwPhase::Listen { .. } | MwPhase::Compete { .. }) {
            sinr_radiosim::prefetch(self.estimates.as_slice());
        }
    }

    fn skip_quiet(&mut self, slots: u64) {
        // What `slots` empty slots of `begin_slot` + `end_slot` do when no
        // coin succeeds: the slot count, and the phase's countdown.
        self.phase_slots_pending += slots;
        match self.phase {
            MwPhase::Listen { level, remaining } => {
                self.phase = MwPhase::Listen {
                    level,
                    remaining: remaining.saturating_sub(slots),
                };
            }
            MwPhase::Compete { .. } => {
                self.counter = self
                    .counter
                    .saturating_add(i64::try_from(slots).unwrap_or(i64::MAX));
            }
            MwPhase::Leader => {
                if let Some((_, remaining)) = &mut self.cold.leader_state.serving {
                    *remaining = remaining.saturating_sub(slots);
                }
            }
            MwPhase::Request { .. } | MwPhase::Colored { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::chi;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use sinr_model::SinrConfig;

    fn params() -> MwParams {
        MwParams::practical(&SinrConfig::default_unit(), 64, 4)
    }

    fn ctx(id: NodeId, slot: u64) -> NodeCtx {
        NodeCtx {
            id,
            global_slot: slot,
            local_slot: slot,
        }
    }

    /// `P_v` as Fig. 1 reads it at local slot `now`: the copies `d_v(w)`.
    fn copies(node: &MwNode, now: u64) -> Vec<(NodeId, i64)> {
        let now = i64::try_from(now).expect("test slot fits in i64");
        node.estimates
            .iter()
            .map(|&(w, aged)| (w, aged + now))
            .collect()
    }

    /// A SlotRng with a fixed answer for `chance`.
    struct FixedRng(bool);
    impl SlotRng for FixedRng {
        fn chance(&mut self, _p: f64) -> bool {
            self.0
        }
        fn uniform(&mut self) -> f64 {
            if self.0 {
                0.0
            } else {
                0.999
            }
        }
        fn pick(&mut self, _bound: u64) -> u64 {
            0
        }
    }

    #[test]
    fn starts_listening_at_level_zero() {
        let node = MwNode::new(3, params());
        assert_eq!(
            *node.phase(),
            MwPhase::Listen {
                level: 0,
                remaining: params().listen_slots()
            }
        );
        assert_eq!(node.color(), None);
        assert!(!node.is_done());
        assert_eq!(node.send_probability(), 0.0);
    }

    #[test]
    fn listen_phase_is_silent_and_times_out_into_compete() {
        let p = params();
        let mut node = MwNode::new(0, p);
        let mut rng = FixedRng(true); // would transmit if allowed
        for s in 0..p.listen_slots() {
            let a = node.begin_slot(&ctx(0, s), &mut rng);
            assert_eq!(a, Action::Listen, "listen phase must be silent");
            node.end_slot(&ctx(0, s), &[]);
        }
        assert_eq!(*node.phase(), MwPhase::Compete { level: 0 });
        // No competitors seen: χ(∅) = 0.
        assert_eq!(node.counter, 0);
    }

    #[test]
    fn lone_node_becomes_leader_after_threshold() {
        let p = params();
        let mut node = MwNode::new(0, p);
        let mut rng = FixedRng(false); // never transmit (q_s draws fail)
        let mut slot = 0;
        let budget = p.listen_slots() + p.counter_threshold() as u64 + 2;
        while !node.is_done() && slot < budget {
            let _ = node.begin_slot(&ctx(0, slot), &mut rng);
            node.end_slot(&ctx(0, slot), &[]);
            slot += 1;
        }
        assert_eq!(node.color(), Some(0));
        assert_eq!(*node.phase(), MwPhase::Leader);
        assert_eq!(node.send_probability(), p.q_leader);
    }

    #[test]
    fn hearing_leader_in_listen_moves_to_request() {
        let p = params();
        let mut node = MwNode::new(5, p);
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(5, 0), &mut rng);
        node.end_slot(&ctx(5, 0), &[(9, MwMessage::ColorTaken { level: 0 })]);
        assert_eq!(*node.phase(), MwPhase::Request { leader: 9 });
        assert_eq!(node.leader(), Some(9));
    }

    #[test]
    fn grant_addressed_to_other_is_still_a_beacon_for_a0() {
        let p = params();
        let mut node = MwNode::new(5, p);
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(5, 0), &mut rng);
        node.end_slot(&ctx(5, 0), &[(9, MwMessage::Grant { to: 2, tc: 1 })]);
        assert_eq!(*node.phase(), MwPhase::Request { leader: 9 });
    }

    #[test]
    fn request_ignores_foreign_grants_accepts_own() {
        let p = params();
        let mut node = MwNode::new(5, p);
        node.phase = MwPhase::Request { leader: 9 };
        node.cold.leader = Some(9);
        let mut rng = FixedRng(false);
        // Grant from another leader to me: ignored.
        let _ = node.begin_slot(&ctx(5, 0), &mut rng);
        node.end_slot(&ctx(5, 0), &[(8, MwMessage::Grant { to: 5, tc: 1 })]);
        assert!(matches!(*node.phase(), MwPhase::Request { .. }));
        // Grant from my leader to someone else: ignored.
        let _ = node.begin_slot(&ctx(5, 1), &mut rng);
        node.end_slot(&ctx(5, 1), &[(9, MwMessage::Grant { to: 6, tc: 1 })]);
        assert!(matches!(*node.phase(), MwPhase::Request { .. }));
        // Grant from my leader to me: accepted, enter A_{tc·spread}.
        let _ = node.begin_slot(&ctx(5, 2), &mut rng);
        node.end_slot(&ctx(5, 2), &[(9, MwMessage::Grant { to: 5, tc: 2 })]);
        assert_eq!(
            node.phase().competing_level(),
            Some(2 * p.spread),
            "enters A_(tc*spread)"
        );
        assert_eq!(node.cluster_color(), Some(2));
    }

    #[test]
    fn compete_resets_on_close_counter() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 0 };
        node.counter = 10;
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(0, 0), &mut rng); // counter -> 11
        let w = p.reset_window(0);
        // Competitor counter within the window: reset to χ ≤ -(w+1)+...
        node.end_slot(
            &ctx(0, 0),
            &[(
                3,
                MwMessage::Compete {
                    level: 0,
                    counter: 11,
                },
            )],
        );
        assert!(node.counter <= 0, "counter must reset to χ ≤ 0");
        assert!(node.counter < 11 - w, "counter left the forbidden window");
        assert_eq!(node.resets(), 1);
    }

    #[test]
    fn compete_ignores_far_counter_and_other_levels() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 0 };
        node.counter = 10;
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(0, 0), &mut rng); // 11
        let far = 11 + p.reset_window(0) + 5;
        node.end_slot(
            &ctx(0, 0),
            &[
                (
                    3,
                    MwMessage::Compete {
                        level: 0,
                        counter: far,
                    },
                ),
                (
                    4,
                    MwMessage::Compete {
                        level: 7,
                        counter: 11,
                    },
                ),
                (5, MwMessage::ColorTaken { level: 2 }),
            ],
        );
        assert_eq!(node.counter, 11, "no reset for far/foreign messages");
        assert_eq!(*node.phase(), MwPhase::Compete { level: 0 });
    }

    #[test]
    fn losing_level_i_moves_to_next_level() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 3 };
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(0, 0), &mut rng);
        node.end_slot(&ctx(0, 0), &[(2, MwMessage::ColorTaken { level: 3 })]);
        assert_eq!(
            *node.phase(),
            MwPhase::Listen {
                level: 4,
                remaining: p.listen_slots()
            }
        );
    }

    #[test]
    fn threshold_transition_happens_before_transmit() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 2 };
        node.counter = p.counter_threshold() - 1;
        let mut rng = FixedRng(true); // all sends succeed
        let action = node.begin_slot(&ctx(0, 0), &mut rng);
        // The node crossed the threshold this slot: it must announce the
        // color, not a compete message.
        assert_eq!(action, Action::Transmit(MwMessage::ColorTaken { level: 2 }));
        assert_eq!(node.color(), Some(2));
        assert!(node.is_done());
    }

    #[test]
    fn leader_serves_queue_in_fifo_order_with_incrementing_tc() {
        let p = params();
        let mut node = MwNode::new(9, p);
        node.enter_colored(0);
        let mut rng_tx = FixedRng(true);
        // Two requests arrive (plus a duplicate).
        node.end_slot(
            &ctx(9, 0),
            &[
                (4, MwMessage::Request { leader: 9 }),
                (7, MwMessage::Request { leader: 9 }),
                (4, MwMessage::Request { leader: 9 }),
            ],
        );
        assert_eq!(node.cold.leader_state.queue.len(), 2);
        // First grant window: tc = 1 for node 4, lasting response_slots.
        for s in 0..p.response_slots() {
            let a = node.begin_slot(&ctx(9, 1 + s), &mut rng_tx);
            assert_eq!(a, Action::Transmit(MwMessage::Grant { to: 4, tc: 1 }));
            node.end_slot(&ctx(9, 1 + s), &[]);
        }
        // Second grant window: tc = 2 for node 7.
        let a = node.begin_slot(&ctx(9, 99), &mut rng_tx);
        assert_eq!(a, Action::Transmit(MwMessage::Grant { to: 7, tc: 2 }));
        // Requests received for a node already in the queue are dropped;
        // the front is still being served.
        node.end_slot(&ctx(9, 99), &[(7, MwMessage::Request { leader: 9 })]);
        assert_eq!(node.cold.leader_state.queue.len(), 1);
    }

    #[test]
    fn leader_reserves_same_tc_on_rerequest() {
        // A requester that lost its entire grant window re-requests; the
        // leader must re-serve the original tc, keeping tc <= cluster
        // size (the Theorem-2 palette bound depends on this).
        let p = params();
        let mut node = MwNode::new(9, p);
        node.enter_colored(0);
        let mut rng = FixedRng(true);
        // First service cycle for node 4 (tc = 1).
        node.end_slot(&ctx(9, 0), &[(4, MwMessage::Request { leader: 9 })]);
        for s in 0..p.response_slots() {
            let a = node.begin_slot(&ctx(9, 1 + s), &mut rng);
            assert_eq!(a, Action::Transmit(MwMessage::Grant { to: 4, tc: 1 }));
            node.end_slot(&ctx(9, 1 + s), &[]);
        }
        // Node 4 missed everything and requests again; a new node 6 also
        // requests. Node 4 is re-served tc = 1; node 6 then gets tc = 2.
        node.end_slot(
            &ctx(9, 100),
            &[
                (4, MwMessage::Request { leader: 9 }),
                (6, MwMessage::Request { leader: 9 }),
            ],
        );
        for s in 0..p.response_slots() {
            let a = node.begin_slot(&ctx(9, 101 + s), &mut rng);
            assert_eq!(a, Action::Transmit(MwMessage::Grant { to: 4, tc: 1 }));
            node.end_slot(&ctx(9, 101 + s), &[]);
        }
        let a = node.begin_slot(&ctx(9, 999), &mut rng);
        assert_eq!(a, Action::Transmit(MwMessage::Grant { to: 6, tc: 2 }));
    }

    #[test]
    fn leader_beacons_when_queue_empty() {
        let p = params();
        let mut node = MwNode::new(9, p);
        node.enter_colored(0);
        let mut rng = FixedRng(true);
        let a = node.begin_slot(&ctx(9, 0), &mut rng);
        assert_eq!(a, Action::Transmit(MwMessage::ColorTaken { level: 0 }));
        // Foreign requests are ignored.
        node.end_slot(&ctx(9, 0), &[(4, MwMessage::Request { leader: 8 })]);
        assert!(node.cold.leader_state.queue.is_empty());
    }

    #[test]
    fn colored_node_announces_forever_with_q_small() {
        let p = params();
        let mut node = MwNode::new(1, p);
        node.enter_colored(5);
        assert_eq!(node.color(), Some(5));
        assert_eq!(node.send_probability(), p.q_small);
        let mut rng = FixedRng(true);
        for s in 0..10 {
            let a = node.begin_slot(&ctx(1, s), &mut rng);
            assert_eq!(a, Action::Transmit(MwMessage::ColorTaken { level: 5 }));
            node.end_slot(&ctx(1, s), &[]);
        }
    }

    #[test]
    fn estimates_are_updated_not_duplicated() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 0 };
        node.counter = -1000; // avoid resets interfering
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(0, 0), &mut rng);
        node.end_slot(
            &ctx(0, 0),
            &[(
                3,
                MwMessage::Compete {
                    level: 0,
                    counter: 50,
                },
            )],
        );
        let _ = node.begin_slot(&ctx(0, 1), &mut rng);
        node.end_slot(
            &ctx(0, 1),
            &[(
                3,
                MwMessage::Compete {
                    level: 0,
                    counter: 60,
                },
            )],
        );
        assert_eq!(copies(&node, 1), vec![(3, 60)]);
    }

    #[test]
    fn estimate_copies_advance_each_slot() {
        let p = params();
        let mut node = MwNode::new(0, p);
        node.phase = MwPhase::Compete { level: 0 };
        node.counter = -1000;
        let mut rng = FixedRng(false);
        let _ = node.begin_slot(&ctx(0, 0), &mut rng);
        node.end_slot(
            &ctx(0, 0),
            &[(
                3,
                MwMessage::Compete {
                    level: 0,
                    counter: 50,
                },
            )],
        );
        for s in 1..=4 {
            let _ = node.begin_slot(&ctx(0, s), &mut rng);
            node.end_slot(&ctx(0, s), &[]);
        }
        assert_eq!(copies(&node, 4), vec![(3, 54)]);
    }

    #[test]
    fn phase_slot_accounting_survives_transitions() {
        // The pending counter flushes on kind changes; the observable
        // decomposition must match a per-slot tally regardless of when
        // it is queried.
        let p = params();
        let mut node = MwNode::new(0, p);
        let mut rng = FixedRng(false);
        let listen = p.listen_slots();
        for s in 0..listen + 3 {
            let _ = node.begin_slot(&ctx(0, s), &mut rng);
            node.end_slot(&ctx(0, s), &[]);
        }
        let slots = node.phase_slots();
        assert_eq!(slots[MwPhaseKind::Listen as usize], listen);
        assert_eq!(slots[MwPhaseKind::Compete as usize], 3);
        assert_eq!(slots.iter().sum::<u64>(), listen + 3);
    }

    /// Fig. 1's `A_level` bookkeeping kept literally: every copy gains one
    /// per slot, and `χ` runs over the copies as they stand.
    struct ShadowA {
        level: usize,
        window: i64,
        /// Listen slots left; `None` once competing.
        listening: Option<u64>,
        counter: i64,
        resets: u32,
        p_v: Vec<(NodeId, i64)>,
    }

    impl ShadowA {
        /// Line 1: `P_v := ∅` on entering `A_level`.
        fn enter(p: &MwParams, level: usize) -> Self {
            ShadowA {
                level,
                window: p.reset_window(level),
                listening: Some(p.listen_slots()),
                counter: 0,
                resets: 0,
                p_v: Vec::new(),
            }
        }

        fn chi(&self) -> i64 {
            let values: Vec<i64> = self.p_v.iter().map(|&(_, d)| d).collect();
            chi(&values, self.window)
        }

        /// Lines 3 and 8–9.
        fn begin_slot(&mut self) {
            for (_, d) in &mut self.p_v {
                *d += 1;
            }
            if self.listening.is_none() {
                self.counter += 1;
            }
        }

        /// Lines 4–7 and 13–15.
        fn end_slot(&mut self, received: &[(NodeId, MwMessage)]) {
            for &(w, msg) in received {
                let c_w = match msg {
                    MwMessage::Compete { level, counter } if level == self.level => counter,
                    _ => continue,
                };
                match self.p_v.iter_mut().find(|(id, _)| *id == w) {
                    Some(entry) => entry.1 = c_w,
                    None => self.p_v.push((w, c_w)),
                }
                if self.listening.is_none() && (self.counter - c_w).abs() <= self.window {
                    self.counter = self.chi();
                    self.resets += 1;
                }
            }
            if let Some(left) = self.listening {
                if left == 1 {
                    self.counter = self.chi();
                    self.listening = None;
                } else {
                    self.listening = Some(left - 1);
                }
            }
        }

        fn phase(&self) -> MwPhase {
            match self.listening {
                Some(remaining) => MwPhase::Listen {
                    level: self.level,
                    remaining,
                },
                None => MwPhase::Compete { level: self.level },
            }
        }
    }

    /// One scripted reception, `(sender, kind, offset)`; see [`inbox`].
    type Scripted = (NodeId, u32, i64);

    /// One slot's inbox. Kinds 0–5 are a `Compete` at the node's level,
    /// 6–8 a `Compete` at another level, 9 a `ColorTaken` for another
    /// level; a `Compete` carries the shadow's counter plus `offset`, so
    /// resets are common but not certain at both reset windows.
    fn inbox(script: &[Scripted], level: usize, counter: i64) -> Vec<(NodeId, MwMessage)> {
        script
            .iter()
            .map(|&(w, kind, offset)| {
                let other = level + 1 + w % 3;
                let msg = match kind {
                    0..=5 => MwMessage::Compete {
                        level,
                        counter: counter + offset,
                    },
                    6..=8 => MwMessage::Compete {
                        level: other,
                        counter: counter + offset,
                    },
                    _ => MwMessage::ColorTaken { level: other },
                };
                (w, msg)
            })
            .collect()
    }

    /// A level to enter, then one inbox script per slot: the whole listen
    /// loop and 1–47 compete slots.
    fn script() -> impl Strategy<Value = (usize, Vec<Vec<Scripted>>)> {
        let listen = usize::try_from(params().listen_slots()).expect("listen loop fits in usize");
        (0usize..3, 1usize..48).prop_flat_map(move |(level, compete_slots)| {
            (
                Just(level),
                prop::collection::vec(
                    prop::collection::vec((0usize..8, 0u32..10, -800i64..800), 0..4),
                    listen + compete_slots,
                ),
            )
        })
    }

    proptest! {
        /// The aged copies equal a literal per-slot sweep of `P_v`, slot
        /// by slot, and every `χ` evaluation (the end of the listen loop
        /// and each compete reset) sees the same values.
        #[test]
        fn aged_copies_match_a_per_slot_sweep((level, slots) in script()) {
            let p = params();
            let mut node = MwNode::new(0, p);
            if level > 0 {
                node.enter_level(level);
            }
            let mut shadow = ShadowA::enter(&p, level);
            let mut rng = FixedRng(false);
            for (s, script) in (0u64..).zip(&slots) {
                prop_assert_eq!(node.begin_slot(&ctx(0, s), &mut rng), Action::Listen);
                shadow.begin_slot();
                let received = inbox(script, level, shadow.counter);
                node.end_slot(&ctx(0, s), &received);
                shadow.end_slot(&received);
                prop_assert_eq!(copies(&node, s), shadow.p_v, "slot {}", s);
                prop_assert_eq!(*node.phase(), shadow.phase(), "slot {}", s);
                prop_assert_eq!(node.resets(), shadow.resets, "slot {}", s);
                prop_assert_eq!(node.counter(), shadow.counter, "slot {}", s);
            }
            prop_assert_eq!(*node.phase(), MwPhase::Compete { level });
        }
    }

    /// A [`SlotRng`] that answers every `chance` with `false` and records
    /// its `p`; `uniform` and `pick` record `NaN`, so any call other than
    /// `chance` shows.
    #[derive(Default)]
    struct RecordingRng(Vec<f64>);
    impl SlotRng for RecordingRng {
        fn chance(&mut self, p: f64) -> bool {
            self.0.push(p);
            false
        }
        fn uniform(&mut self) -> f64 {
            self.0.push(f64::NAN);
            0.999
        }
        fn pick(&mut self, _bound: u64) -> u64 {
            self.0.push(f64::NAN);
            0
        }
    }

    /// A node together with the next local slot it would run.
    #[derive(Clone)]
    struct Driven {
        node: MwNode,
        slot: u64,
    }

    impl Driven {
        fn new(id: NodeId) -> Self {
            Driven {
                node: MwNode::new(id, params()),
                slot: 0,
            }
        }

        /// One slot whose coins all fail, with `inbox` delivered.
        fn step(&mut self, inbox: &[(NodeId, MwMessage)]) {
            let c = ctx(self.node.id, self.slot);
            let _ = self.node.begin_slot(&c, &mut FixedRng(false));
            self.node.end_slot(&c, inbox);
            self.slot += 1;
        }

        /// Empty slots until `done` holds (at most `limit` of them).
        fn until(mut self, limit: u64, done: impl Fn(&MwNode) -> bool) -> Self {
            for _ in 0..limit {
                if done(&self.node) {
                    break;
                }
                self.step(&[]);
            }
            assert!(done(&self.node), "scripted state reached");
            self
        }
    }

    /// Everything a slot can change in a node, for equality checks.
    fn snapshot(node: &MwNode) -> impl PartialEq + std::fmt::Debug {
        let st = &node.cold.leader_state;
        (
            (node.phase.clone(), node.color, node.counter),
            (node.phase_slots(), node.estimates.clone(), node.resets()),
            (node.levels_entered(), node.leader(), node.cluster_color()),
            (st.queue.clone(), st.tc, st.serving, st.granted.clone()),
            (node.is_done(), node.is_active()),
        )
    }

    /// Scripted states covering every phase kind, a leader serving a grant
    /// and a leader with a requester waiting: `extra` empty slots and the
    /// competitor counters `heard` shape the path to each.
    fn scripted_states(extra: u64, heard: &[i64]) -> Vec<Driven> {
        let p = params();
        let me: NodeId = 5;
        let leader: NodeId = 9;
        // A_0, listening, with copies recorded from two competitors.
        let mut listen = Driven::new(me);
        for (i, &c) in heard.iter().enumerate() {
            let w = 20 + i % 2;
            listen.step(&[(
                w,
                MwMessage::Compete {
                    level: 0,
                    counter: c,
                },
            )]);
        }
        // A_0, competing.
        let mut compete = listen.clone().until(p.listen_slots() + 1, |n| {
            n.phase.kind() == MwPhaseKind::Compete
        });
        for _ in 0..extra.min(3) {
            compete.step(&[]);
        }
        // R, after hearing a leader.
        let mut request = Driven::new(me);
        request.step(&[(leader, MwMessage::ColorTaken { level: 0 })]);
        for _ in 0..extra {
            request.step(&[]);
        }
        // A_{spread}, listening after a grant, then colored C_{spread}.
        let mut granted = request.clone();
        granted.step(&[(leader, MwMessage::Grant { to: me, tc: 1 })]);
        let budget = p.listen_slots() + 2 * p.counter_threshold().unsigned_abs() + 8;
        let colored = granted
            .clone()
            .until(budget, |n| n.phase.kind() == MwPhaseKind::Colored);
        // C_0: a lone node wins level 0; then a requester arrives, and in
        // the next slot the leader starts serving it.
        let mut leading = Driven::new(me).until(budget, |n| n.phase == MwPhase::Leader);
        for _ in 0..extra {
            leading.step(&[]);
        }
        let mut waiting = leading.clone();
        waiting.step(&[(3, MwMessage::Request { leader: me })]);
        let mut serving = waiting.clone();
        serving.step(&[]);
        assert!(serving.node.cold.leader_state.serving.is_some());
        let states = vec![
            listen, compete, request, granted, colored, leading, waiting, serving,
        ];
        let kinds: Vec<MwPhaseKind> = states.iter().map(|d| d.node.phase.kind()).collect();
        assert_eq!(
            kinds,
            [
                MwPhaseKind::Listen,
                MwPhaseKind::Compete,
                MwPhaseKind::Request,
                MwPhaseKind::Listen,
                MwPhaseKind::Colored,
                MwPhaseKind::Leader,
                MwPhaseKind::Leader,
                MwPhaseKind::Leader,
            ]
        );
        states
    }

    /// Candidate receptions: every message kind at levels and addresses
    /// near the node's own, from its leader and from strangers.
    fn candidates(node: &MwNode, counter: i64) -> Vec<(NodeId, MwMessage)> {
        let mut out = Vec::new();
        for sender in [3, 9, 21] {
            for level in [0, 1, 2, node.params.spread, node.params.spread + 1] {
                out.push((sender, MwMessage::Compete { level, counter }));
                out.push((sender, MwMessage::ColorTaken { level }));
            }
            for to in [node.id, node.id + 1] {
                out.push((sender, MwMessage::Grant { to, tc: 1 }));
            }
            for leader in [node.id, 9, 4] {
                out.push((sender, MwMessage::Request { leader }));
            }
        }
        out
    }

    proptest! {
        /// `MwNode`'s quiet promise and `heeds` hold in every phase:
        /// each promised empty slot draws exactly one coin of the promised
        /// probability (none at coin 0) and listens, `skip_quiet(k)` equals
        /// `k` such slots, a message the node does not heed leaves
        /// `end_slot` as an empty inbox would, and a node that is `deaf`
        /// (only `C_i`) heeds no message of any kind from any sender.
        #[test]
        fn quiet_promise_and_heeds_hold_in_every_phase(
            extra in 0u64..12,
            heard in prop::collection::vec(-300i64..300, 0..4),
            k_cap in 1u64..80,
            counter in -300i64..300,
        ) {
            let mut deaf = 0;
            for (i, state) in scripted_states(extra, &heard).into_iter().enumerate() {
                let Driven { node, slot } = state;
                prop_assert_eq!(
                    node.deaf(),
                    node.phase.kind() == MwPhaseKind::Colored,
                    "state {}", i
                );
                if node.deaf() {
                    deaf += 1;
                    for (sender, msg) in candidates(&node, counter) {
                        prop_assert!(
                            !node.heeds(sender, &msg),
                            "state {}: deaf, but heeds {:?} from {}", i, msg, sender
                        );
                    }
                }
                let waiting = node.phase == MwPhase::Leader
                    && node.cold.leader_state.serving.is_none()
                    && !node.cold.leader_state.queue.is_empty();
                let Some(quiet) = node.quiet() else {
                    prop_assert!(waiting, "state {}: only a waiting leader promises nothing", i);
                    continue;
                };
                prop_assert!(!waiting, "state {}: a waiting leader promises nothing", i);
                prop_assert_eq!(quiet.coin, match node.phase {
                    MwPhase::Listen { .. } => 0.0,
                    MwPhase::Leader => node.params.q_leader,
                    _ => node.params.q_small,
                });
                // A prefix of the promise, and the whole of a bounded one.
                let mut ks = vec![quiet.slots.min(k_cap)];
                if quiet.slots != u64::MAX {
                    ks.push(quiet.slots);
                }
                for k in ks {
                    let mut slotwise = node.clone();
                    for t in slot..slot + k {
                        let mut rng = RecordingRng::default();
                        let c = ctx(node.id, t);
                        prop_assert_eq!(slotwise.begin_slot(&c, &mut rng), Action::Listen);
                        let expected: &[f64] = if quiet.coin > 0.0 { &[quiet.coin] } else { &[] };
                        prop_assert_eq!(&rng.0[..], expected, "state {}, slot {}", i, t);
                        slotwise.end_slot(&c, &[]);
                    }
                    let mut skipped = node.clone();
                    skipped.skip_quiet(k);
                    prop_assert_eq!(snapshot(&slotwise), snapshot(&skipped), "state {}, k = {}", i, k);
                }

                for (sender, msg) in candidates(&node, counter) {
                    if node.heeds(sender, &msg) {
                        continue;
                    }
                    let c = ctx(node.id, slot);
                    let mut with = node.clone();
                    let _ = with.begin_slot(&c, &mut FixedRng(false));
                    with.end_slot(&c, &[(sender, msg)]);
                    let mut without = node.clone();
                    let _ = without.begin_slot(&c, &mut FixedRng(false));
                    without.end_slot(&c, &[]);
                    prop_assert_eq!(
                        snapshot(&with),
                        snapshot(&without),
                        "state {}: unheeded {:?} from {}", i, msg, sender
                    );
                }
            }
            prop_assert!(deaf > 0, "no scripted state was deaf");
        }

        /// `absorb` keeps its contract with the engine in every phase, for
        /// lags 0, 1 and many and inboxes of up to three candidates: when
        /// it takes a slot in, the node equals the wake path's (catch up
        /// `lag` quiet slots, run the slot as a quiet listen with the
        /// inbox) once both have skipped the same quiet slots, and the
        /// wake path's quiet promise ends at the slot and with the coin
        /// the parked node's did; when it refuses, the node is unchanged.
        #[test]
        fn absorb_matches_the_wake_path_or_changes_nothing(
            extra in 0u64..12,
            heard in prop::collection::vec(-300i64..300, 0..4),
            many in 2u64..400,
            (offset, k) in (-40i64..40, 0u64..40),
            picks in prop::collection::vec(0usize..1_000, 1..4),
        ) {
            let mut absorbed = 0;
            for (i, state) in scripted_states(extra, &heard).into_iter().enumerate() {
                let Driven { node, slot } = state;
                let promise = node.quiet();
                for lag in [0, 1, many] {
                    // Counters near the one this slot's `end_slot` compares
                    // against, so the reset window is hit and missed.
                    let c_v = node.counter + i64::try_from(lag).expect("lag fits") + 1;
                    let pool = candidates(&node, c_v + offset);
                    let inbox: Vec<(NodeId, MwMessage)> =
                        picks.iter().map(|&p| pool[p % pool.len()]).collect();
                    let c = ctx(node.id, slot + lag);
                    let mut parked = node.clone();
                    if !parked.absorb(&c, lag, &inbox) {
                        prop_assert_eq!(
                            snapshot(&parked),
                            snapshot(&node),
                            "state {}, lag {}: a refused {:?} changed the node", i, lag, inbox
                        );
                        continue;
                    }
                    absorbed += 1;
                    let Some(quiet) = promise else {
                        return Err(TestCaseError::Fail(format!(
                            "state {i}: absorbed without a quiet promise"
                        )));
                    };
                    prop_assert!(lag < quiet.slots, "state {}: lag {} outside the promise", i, lag);
                    let mut woken = node.clone();
                    woken.skip_quiet(lag);
                    let mut rng = RecordingRng::default();
                    prop_assert_eq!(woken.begin_slot(&c, &mut rng), Action::Listen);
                    woken.end_slot(&c, &inbox);
                    let Some(after) = woken.quiet() else {
                        return Err(TestCaseError::Fail(format!(
                            "state {i}, lag {lag}: the woken node promises nothing"
                        )));
                    };
                    prop_assert_eq!(after.coin.to_bits(), quiet.coin.to_bits(), "state {}", i);
                    prop_assert_eq!(
                        (slot + lag + 1).saturating_add(after.slots),
                        slot.saturating_add(quiet.slots),
                        "state {}, lag {}: the promise ends elsewhere", i, lag
                    );
                    for k in [0, k.min(after.slots)] {
                        let mut woken = woken.clone();
                        woken.skip_quiet(k);
                        let mut parked = parked.clone();
                        parked.skip_quiet(lag + 1 + k);
                        prop_assert_eq!(
                            snapshot(&parked),
                            snapshot(&woken),
                            "state {}, lag {}, k {}: absorbing {:?}", i, lag, k, inbox
                        );
                    }
                }
            }
            // Any one candidate is absorbed somewhere: a listen loop takes
            // in every message that announces no color at its own level,
            // and the two listen states wait at different levels.
            prop_assert!(absorbed > 0 || picks.len() > 1, "nothing absorbed: {:?}", picks);
        }
    }

    #[test]
    fn absorb_takes_estimates_in_and_leaves_the_rest_to_the_wake_path() {
        let p = params();
        let compete = |counter: i64| MwMessage::Compete { level: 0, counter };
        // A_0, listening: a competitor's counter is absorbed at any lag
        // short of the loop's last slot; a color announcement is not.
        let mut node = MwNode::new(5, p);
        let listen = p.listen_slots();
        assert!(node.absorb(&ctx(5, 3), 3, &[(7, compete(40))]));
        assert_eq!(copies(&node, 3), [(7, 40)]);
        assert!(!node.absorb(&ctx(5, listen - 1), listen - 1, &[(8, compete(1))]));
        assert!(!node.absorb(&ctx(5, 4), 4, &[(9, MwMessage::ColorTaken { level: 0 })]));
        assert_eq!(copies(&node, 3), [(7, 40)]);
        // A_0, competing at counter 10 after 2 lagging slots: the slot's
        // own counter is 13, so a counter within the reset window wakes the
        // node and one beyond it is absorbed.
        node.phase = MwPhase::Compete { level: 0 };
        node.counter = 10;
        let w = p.reset_window(0);
        assert!(!node.absorb(&ctx(5, 20), 2, &[(8, compete(13 + w))]));
        assert!(!node.absorb(&ctx(5, 20), 2, &[(8, compete(13 - w))]));
        assert!(node.absorb(&ctx(5, 20), 2, &[(8, compete(14 + w))]));
        assert_eq!(copies(&node, 20), [(7, 40 - 3 + 20), (8, 14 + w)]);
        assert_eq!(node.counter, 10, "the counter is still owed its slots");
        // The slot whose increment reaches the threshold colors the node.
        let lag = u64::try_from(p.counter_threshold() - 11).expect("threshold above 11");
        assert!(!node.absorb(&ctx(5, 30), lag, &[(9, compete(-500))]));
        assert!(node.absorb(&ctx(5, 30), lag - 1, &[(9, compete(-500))]));
        // Every other phase wakes for what it heeds.
        node.phase = MwPhase::Request { leader: 2 };
        assert!(!node.absorb(&ctx(5, 40), 0, &[(2, MwMessage::Grant { to: 5, tc: 1 })]));
    }
}
