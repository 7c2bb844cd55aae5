//! Runtime invariant probes: the paper's claims, checked while a run is
//! in flight.
//!
//! Each probe maps to one statement of the paper and records its findings
//! as first-class metrics — **never panics** — so a violated claim shows up
//! as a nonzero `probe.*.violations` counter (plus a structured
//! [`ObsEvent::Violation`] in the event stream) that CI and the bench
//! reports can diff:
//!
//! | probe | claim | check |
//! |-------|-------|-------|
//! | `thm1_independence` | Theorem 1: every color class is independent at every slot | decided colors of adjacent nodes differ: every [`MwProbeConfig::thm1_stride`] slots, each node that ran since the previous check (every node, at the first) against its neighbors |
//! | `lemma4_levels` | Lemma 4: a node enters at most `φ(2R_T) + 1` levels | `levels_entered ≤ spread + 1` per node |
//! | `lemma6_a_residency` | Lemmas 5–6: bounded time in the `A_i` states | per-node `listen + compete` slots against a 4× whp budget |
//! | `lemma7_r_residency` | Lemma 7: bounded time in the request state `R` | per-node `request` slots against a 4× whp budget |
//!
//! The phase tracker additionally streams MW state transitions
//! (`A_i → R → C_j`, with levels) and `χ(P_v)` counter resets as
//! [`ObsEvent::Phase`] / [`ObsEvent::Note`] events, and records one
//! residency span per `(node, phase kind)` stay on the trace timeline
//! (`SpanTrack::Node`, slot-time) — the spanned, phase-aware trace
//! `docs/OBSERVABILITY.md` documents.
//!
//! Both per-slot probes follow the engine's events. A node's phase,
//! level, counter resets and color change only inside its callbacks, and
//! [`StepView::ran`] lists the nodes that had one. So after the first
//! observed slot, which reads every node, the phase tracker reads only
//! those nodes, and the Theorem-1 check examines only them and their
//! neighbors: a slot costs O(callbacks · Δ), not O(n · Δ). The check is
//! as strong as a sweep of every pair in every slot, since a pair of
//! adjacent nodes can become equally colored only in a slot in which one
//! of them decides, and that node ran.

use crate::mw::node::{MwNode, MwPhase};
use crate::params::MwParams;
use sinr_model::InterferenceModel;
use sinr_obs::{keys, ObsEvent, Recorder, SpanRecord, SpanTrack, QUARTERS_PER_SLOT};
use sinr_radiosim::{Simulator, StepView};

/// Probe identifier used in `thm1` violation events.
pub const PROBE_THM1: &str = "thm1_independence";
/// Probe identifier used in Lemma-4 violation events.
pub const PROBE_LEMMA4: &str = "lemma4_levels";
/// Probe identifier used in Lemma-6 violation events.
pub const PROBE_LEMMA6: &str = "lemma6_a_residency";
/// Probe identifier used in Lemma-7 violation events.
pub const PROBE_LEMMA7: &str = "lemma7_r_residency";

/// Which probes run, and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MwProbeConfig {
    /// Run a Theorem-1 check in every slot that is a multiple of this
    /// stride; `0` turns the check off. Each check examines every node
    /// that ran since the previous check (every node, at the first)
    /// against each of its neighbors, so a violation is caught in the
    /// slot it arises at stride 1, and by the next check slot at a larger
    /// stride.
    pub thm1_stride: u64,
    /// Stream `Phase`/`Note` events for MW state transitions and counter
    /// resets, reading every node in the first observed slot and then
    /// only the nodes that ran.
    pub track_phases: bool,
    /// Account per-state residency against the Lemma-6/7 budgets at end of
    /// run.
    pub residency: bool,
}

impl Default for MwProbeConfig {
    /// Everything on, Theorem-1 check every slot (stride 1) — the
    /// configuration the e2e tests assert zero violations under.
    fn default() -> Self {
        MwProbeConfig {
            thm1_stride: 1,
            track_phases: true,
            residency: true,
        }
    }
}

impl MwProbeConfig {
    /// All probes off (pure engine-event recording).
    pub fn disabled() -> Self {
        MwProbeConfig {
            thm1_stride: 0,
            track_phases: false,
            residency: false,
        }
    }

    /// Sets the Theorem-1 check stride (`0` turns the check off).
    pub fn with_thm1_stride(mut self, stride: u64) -> Self {
        self.thm1_stride = stride;
        self
    }
}

/// Per-run probe state; drive with [`MwProbes::observe`] after every slot
/// and [`MwProbes::finalize`] once after the run (both are cheap no-ops
/// when the recorder is disabled). The probes follow each slot's
/// [`StepView::ran`], so the nodes that ran in a slot they do not see
/// are neither tracked nor checked until they run again.
#[derive(Debug, Clone)]
pub struct MwProbes {
    cfg: MwProbeConfig,
    spread: usize,
    /// 4× the per-node whp budget for total `A_i` (listen + compete)
    /// residency: Lemma 6's `O(σΔ ln n)` per level, summed over the at
    /// most `spread + 1` levels of Lemma 4.
    lemma6_budget: u64,
    /// 4× the per-node whp budget for `R` residency: Lemma 7's grant-wait
    /// of at most `Δ` grant windows of `⌈μ ln n⌉` slots each.
    lemma7_budget: u64,
    /// Last observed `(phase kind, level, resets)` per node, for
    /// transition diffing.
    prev: Vec<(usize, i64, u32)>,
    /// Slot at which each node entered its current phase kind, for the
    /// per-node residency spans on the trace timeline.
    enter_slot: Vec<u64>,
    /// Whether the phase tracker has read every node once; from then on
    /// it reads only the nodes each slot ran.
    phases_read: bool,
    /// Node bitset of the nodes that ran since the previous Theorem-1
    /// check; every node's bit is set until the first check.
    unchecked: Vec<u64>,
}

/// A node bitset of `n` nodes with every node's bit set.
fn all_nodes(n: usize) -> Vec<u64> {
    let mut bits = vec![u64::MAX; n.div_ceil(64)];
    if let Some(last) = bits.last_mut() {
        if !n.is_multiple_of(64) {
            *last = (1 << (n % 64)) - 1;
        }
    }
    bits
}

/// The protocol level of a phase, `−1` where levels do not apply (`R`).
fn phase_level(p: &MwPhase) -> i64 {
    match p {
        MwPhase::Listen { level, .. } | MwPhase::Compete { level } | MwPhase::Colored { level } => {
            i64::try_from(*level).unwrap_or(i64::MAX)
        }
        MwPhase::Leader => 0,
        MwPhase::Request { .. } => -1,
    }
}

impl MwProbes {
    /// Probes for a run of `n` nodes under `params`.
    pub fn new(n: usize, params: &MwParams, cfg: MwProbeConfig) -> Self {
        let per_level = params.listen_slots() + 3 * params.counter_threshold().max(1) as u64;
        let request = params.delta as u64 * params.response_slots().max(1);
        MwProbes {
            cfg,
            spread: params.spread,
            lemma6_budget: 4 * (params.spread as u64 + 1) * per_level,
            lemma7_budget: 4 * request,
            prev: vec![(0, 0, 0); n],
            enter_slot: vec![0; n],
            phases_read: false,
            unchecked: all_nodes(n),
        }
    }

    /// The configuration the probes run under.
    pub fn config(&self) -> &MwProbeConfig {
        &self.cfg
    }

    /// Per-slot hook: phase-transition tracing, counter-reset notes, and
    /// the Theorem-1 independence check, over the nodes `view.ran` lists.
    // lint:hot — per-slot probe loops, run every slot over the nodes that ran
    pub fn observe<M: InterferenceModel>(
        &mut self,
        sim: &Simulator<MwNode, M>,
        view: &StepView,
        rec: &mut dyn Recorder,
    ) {
        if !rec.enabled() {
            return;
        }
        let slot = view.slot;
        let nodes = sim.nodes();

        if self.cfg.track_phases {
            if self.phases_read {
                for &v in view.ran {
                    self.track_phase(v, &nodes[v], slot, rec);
                }
            } else {
                for (v, node) in nodes.iter().enumerate() {
                    self.track_phase(v, node, slot, rec);
                }
                self.phases_read = true;
            }
        }

        if self.cfg.thm1_stride > 0 {
            for &v in view.ran {
                self.unchecked[v / 64] |= 1 << (v % 64);
            }
            if slot.is_multiple_of(self.cfg.thm1_stride) {
                self.thm1_check(sim, slot, rec);
            }
        }
    }

    /// Diffs node `v`'s phase kind, level and counter resets against the
    /// last reading, emitting the Phase and Note events, the residency
    /// span of a phase kind it left and the `mw.*` counters.
    // lint:hot — runs once per node that ran, every slot
    fn track_phase(&mut self, v: usize, node: &MwNode, slot: u64, rec: &mut dyn Recorder) {
        let kind = node.phase().kind_index();
        let level = phase_level(node.phase());
        let resets = node.resets();
        let (pk, pl, pr) = self.prev[v];
        if kind != pk || level != pl {
            rec.counter_add(keys::MW_PHASE_TRANSITIONS, 1);
            rec.event(
                slot,
                &ObsEvent::Phase {
                    node: v,
                    from: MwPhase::KIND_NAMES[pk],
                    to: MwPhase::KIND_NAMES[kind],
                    level,
                },
            );
            if kind != pk {
                self.close_residency_span(v, pk, slot, rec);
            }
        }
        if resets != pr {
            rec.counter_add(keys::MW_COUNTER_RESETS, u64::from(resets - pr));
            rec.event(
                slot,
                &ObsEvent::Note {
                    name: "counter_reset",
                    node: v,
                    value: node.counter(),
                },
            );
        }
        self.prev[v] = (kind, level, resets);
    }

    /// One Theorem-1 check: every decided node that ran since the
    /// previous check against each of its neighbors, in ascending order.
    /// A violating pair of which both nodes ran is reported at each.
    // lint:hot — per-check loop over the nodes that ran since the last check
    fn thm1_check<M: InterferenceModel>(
        &mut self,
        sim: &Simulator<MwNode, M>,
        slot: u64,
        rec: &mut dyn Recorder,
    ) {
        rec.counter_add(keys::PROBE_THM1_CHECKS, 1);
        let graph = sim.graph();
        let nodes = sim.nodes();
        for w in 0..self.unchecked.len() {
            let mut bits = std::mem::take(&mut self.unchecked[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(c) = nodes[v].color() {
                    for &u in graph.neighbors(v) {
                        if nodes[u].color() == Some(c) {
                            self.thm1_violation(slot, v, c, rec);
                        }
                    }
                }
            }
        }
    }

    /// Emits the residency span for the phase `kind` that node `v` is
    /// leaving at `slot`, and marks `slot` as the entry into the next
    /// kind. Zero-length stays (entered and left within the same observed
    /// slot) are elided.
    fn close_residency_span(&mut self, v: usize, kind: usize, slot: u64, rec: &mut dyn Recorder) {
        let entered = self.enter_slot[v];
        if slot > entered {
            rec.span(&SpanRecord::complete(
                SpanTrack::Node(u32::try_from(v).unwrap_or(u32::MAX)),
                MwPhase::KIND_NAMES[kind],
                entered * QUARTERS_PER_SLOT,
                (slot - entered) * QUARTERS_PER_SLOT,
            ));
        }
        self.enter_slot[v] = slot;
    }

    fn thm1_violation(&self, slot: u64, node: usize, color: usize, rec: &mut dyn Recorder) {
        rec.counter_add(keys::PROBE_THM1_VIOLATIONS, 1);
        rec.event(
            slot,
            &ObsEvent::Violation {
                probe: PROBE_THM1,
                node,
                detail: i64::try_from(color).unwrap_or(i64::MAX),
            },
        );
    }

    /// End-of-run hook: Lemma-4 level accounting, Lemma-6/7 residency
    /// accounting, and the `mw.*` aggregates.
    pub fn finalize<M: InterferenceModel>(
        &mut self,
        sim: &Simulator<MwNode, M>,
        rec: &mut dyn Recorder,
    ) {
        if !rec.enabled() {
            return;
        }
        let slot = sim.current_slot();
        if self.cfg.track_phases {
            // Close the still-open residency span of every node so the
            // trace timeline covers the whole run.
            for v in 0..self.prev.len() {
                let kind = self.prev[v].0;
                self.close_residency_span(v, kind, slot, rec);
            }
        }
        let mut residency = [0u64; 5];
        let mut max_a = 0u64;
        let mut max_r = 0u64;
        let mut max_levels = 0u32;

        for (v, node) in sim.nodes().iter().enumerate() {
            let levels = node.levels_entered();
            max_levels = max_levels.max(levels);
            rec.counter_add(keys::PROBE_LEMMA4_CHECKS, 1);
            if levels as u64 > self.spread as u64 + 1 {
                rec.counter_add(keys::PROBE_LEMMA4_VIOLATIONS, 1);
                rec.event(
                    slot,
                    &ObsEvent::Violation {
                        probe: PROBE_LEMMA4,
                        node: v,
                        detail: i64::from(levels),
                    },
                );
            }

            if self.cfg.residency {
                let ps = node.phase_slots();
                for (total, spent) in residency.iter_mut().zip(ps) {
                    *total += spent;
                }
                let a = ps[0] + ps[1];
                let r = ps[2];
                max_a = max_a.max(a);
                max_r = max_r.max(r);
                rec.counter_add(keys::PROBE_LEMMA6_CHECKS, 1);
                if a > self.lemma6_budget {
                    rec.counter_add(keys::PROBE_LEMMA6_VIOLATIONS, 1);
                    rec.event(
                        slot,
                        &ObsEvent::Violation {
                            probe: PROBE_LEMMA6,
                            node: v,
                            detail: i64::try_from(a).unwrap_or(i64::MAX),
                        },
                    );
                }
                rec.counter_add(keys::PROBE_LEMMA7_CHECKS, 1);
                if r > self.lemma7_budget {
                    rec.counter_add(keys::PROBE_LEMMA7_VIOLATIONS, 1);
                    rec.event(
                        slot,
                        &ObsEvent::Violation {
                            probe: PROBE_LEMMA7,
                            node: v,
                            detail: i64::try_from(r).unwrap_or(i64::MAX),
                        },
                    );
                }
            }
        }

        rec.gauge_set(keys::MW_LEVELS_ENTERED_MAX, f64::from(max_levels));
        if self.cfg.residency {
            rec.counter_add(keys::MW_RESIDENCY_LISTEN, residency[0]);
            rec.counter_add(keys::MW_RESIDENCY_COMPETE, residency[1]);
            rec.counter_add(keys::MW_RESIDENCY_REQUEST, residency[2]);
            rec.counter_add(keys::MW_RESIDENCY_LEADER, residency[3]);
            rec.counter_add(keys::MW_RESIDENCY_COLORED, residency[4]);
            rec.gauge_set(keys::PROBE_LEMMA6_MAX_SLOTS, max_a as f64);
            rec.gauge_set(keys::PROBE_LEMMA7_MAX_SLOTS, max_r as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_levels_follow_the_paper_indexing() {
        assert_eq!(
            phase_level(&MwPhase::Listen {
                level: 3,
                remaining: 5
            }),
            3
        );
        assert_eq!(phase_level(&MwPhase::Compete { level: 2 }), 2);
        assert_eq!(phase_level(&MwPhase::Request { leader: 0 }), -1);
        assert_eq!(phase_level(&MwPhase::Leader), 0);
        assert_eq!(phase_level(&MwPhase::Colored { level: 7 }), 7);
    }

    #[test]
    fn residency_spans_partition_each_nodes_timeline() {
        use crate::mw::run::{run_mw_recorded, MwConfig};
        use sinr_geometry::{Point, UnitDiskGraph};
        use sinr_model::{SinrConfig, SinrModel};
        use sinr_obs::FullRecorder;
        use sinr_radiosim::WakeupSchedule;

        let c = SinrConfig::default_unit();
        let graph = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)], c.r_t());
        let params = MwParams::practical(&c, 2, 1);
        let mut rec = FullRecorder::new();
        let out = run_mw_recorded(
            &graph,
            SinrModel::new(c),
            &MwConfig::new(params).with_seed(1),
            WakeupSchedule::Synchronous,
            MwProbeConfig::default(),
            &mut rec,
        );
        assert!(out.all_done);

        // Every node-track span names a real phase kind, and per node the
        // spans partition [0, slots): the closed stays plus the final
        // residency closed by `finalize` sum to the whole run.
        let mut per_node = [0u64; 2];
        for s in rec.spans() {
            if let SpanTrack::Node(v) = s.track {
                assert!(MwPhase::KIND_NAMES.contains(&s.name), "span {}", s.name);
                per_node[v as usize] += s.dur_q;
            }
        }
        for (v, total) in per_node.iter().enumerate() {
            assert_eq!(*total, out.slots * QUARTERS_PER_SLOT, "node {v}");
        }
        // Both nodes finished colored, so a `colored`-phase span (or the
        // phase they decided in) must close at the end of the run.
        assert!(rec
            .spans()
            .any(|s| matches!(s.track, SpanTrack::Node(_)) && s.name == "colored"));
    }

    #[test]
    fn default_config_sweeps_every_slot() {
        let cfg = MwProbeConfig::default();
        assert_eq!(cfg.thm1_stride, 1);
        assert!(cfg.track_phases);
        assert!(cfg.residency);
        let off = MwProbeConfig::disabled().with_thm1_stride(8);
        assert_eq!(off.thm1_stride, 8);
        assert!(!off.track_phases);
    }
}
