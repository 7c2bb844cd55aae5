//! Fault injection against the Theorem-1 probe: resolver mutants that
//! drop receptions make MW color adjacent nodes alike, and the probe must
//! catch every such pair when it arises.
//!
//! The oracle is a full sweep of every adjacent pair after every slot.
//! The mutant is a wrapper [`InterferenceModel`] that drops the receptions
//! whose `(receiver + sender) % m == 0`; `m = 1` drops all of them. Under
//! each mutant the default probes (a check every slot) must report a
//! violation in the very slot in which the oracle first sees a pair, at a
//! node of that pair, and only at nodes of violating pairs; probes with a
//! check every 7 slots must report the pair at the next check slot. On a
//! correct run the oracle and both probes see nothing.

use sinr_coloring::mw::obs::PROBE_THM1;
use sinr_coloring::mw::{MwNode, MwProbeConfig, MwProbes};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, ReceptionTable, SinrConfig, SinrModel};
use sinr_obs::{keys, ObsEvent, Recorder};
use sinr_radiosim::{Simulator, WakeupSchedule};
use std::collections::BTreeSet;

/// Drops every reception whose `(receiver + sender) % m == 0`.
struct Dropping {
    inner: SinrModel,
    m: usize,
}

impl InterferenceModel for Dropping {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        let table = self.inner.resolve(g, transmitting);
        let kept = table.pairs().iter().copied();
        ReceptionTable::from_pairs(kept.filter(|&(r, s)| (r + s) % self.m != 0).collect())
    }

    fn name(&self) -> &'static str {
        "dropping"
    }
}

/// Keeps the Theorem-1 violation events and checks a probe emits.
#[derive(Default)]
struct Detections {
    /// `(slot, node)` of each violation event, in emission order.
    at: Vec<(u64, NodeId)>,
    checks: u64,
    violations: u64,
}

impl Recorder for Detections {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, slot: u64, event: &ObsEvent) {
        if let ObsEvent::Violation { probe, node, .. } = *event {
            if probe == PROBE_THM1 {
                self.at.push((slot, node));
            }
        }
    }

    fn counter_add(&mut self, key: &'static str, delta: u64) {
        if key == keys::PROBE_THM1_CHECKS {
            self.checks += delta;
        } else if key == keys::PROBE_THM1_VIOLATIONS {
            self.violations += delta;
        }
    }
}

/// The oracle: every adjacent pair `(v, w)`, `v < w`, of equal colors.
fn sweep(sim: &Simulator<MwNode, impl InterferenceModel>) -> Vec<(NodeId, NodeId)> {
    let graph = sim.graph();
    let nodes = sim.nodes();
    let mut pairs = Vec::new();
    for v in 0..graph.len() {
        if let Some(c) = nodes[v].color() {
            for &w in graph.neighbors(v) {
                if w > v && nodes[w].color() == Some(c) {
                    pairs.push((v, w));
                }
            }
        }
    }
    pairs
}

const STRIDE: u64 = 7;

/// What one run showed: the pairs the oracle saw arise, each with its
/// slot, and what the stride-1 and stride-7 probes reported.
struct Run {
    all_done: bool,
    slots: u64,
    arising: Vec<(u64, NodeId, NodeId)>,
    every: Detections,
    strided: Detections,
}

/// Runs MW on a 48-node placement under `model`, with asynchronous
/// wake-up, for at most 40 000 slots, with both probe configurations and
/// the oracle watching every slot.
/// Asserts inside the run that each stride-1 detection names a node of
/// a pair the oracle sees violating in that slot.
fn run(model: impl InterferenceModel, seed: u64) -> Run {
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(placement::uniform(48, 3.0, 3.0, 4), cfg.r_t());
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let n = graph.len();
    let mut sim = Simulator::new(
        graph.clone(),
        model,
        WakeupSchedule::UniformRandom { window: 40 },
        seed,
        |id| MwNode::new(id, params),
    );
    let mut every_probes = MwProbes::new(n, &params, MwProbeConfig::default());
    let mut strided_probes = MwProbes::new(
        n,
        &params,
        MwProbeConfig::default().with_thm1_stride(STRIDE),
    );
    let mut every = Detections::default();
    let mut strided = Detections::default();
    let mut known = BTreeSet::new();
    let mut arising = Vec::new();
    let out = sim.run_recorded(40_000, &mut every, |sim, view, every| {
        let first = every.at.len();
        every_probes.observe(sim, view, every);
        strided_probes.observe(sim, view, &mut strided);
        let pairs = sweep(sim);
        for &(v, w) in &pairs {
            if known.insert((v, w)) {
                arising.push((view.slot, v, w));
            }
        }
        for &(slot, node) in &every.at[first..] {
            assert_eq!(slot, view.slot);
            assert!(
                pairs.iter().any(|&(v, w)| node == v || node == w),
                "slot {slot}: node {node} reported, but it is in no violating pair"
            );
        }
    });
    Run {
        all_done: out.all_done,
        slots: out.slots,
        arising,
        every,
        strided,
    }
}

#[test]
fn the_thm1_probe_reports_every_pair_that_dropped_receptions_color_alike() {
    for m in [1, 2, 3, 5] {
        for seed in [1, 2, 3] {
            let cfg = SinrConfig::default_unit();
            let r = run(
                Dropping {
                    inner: SinrModel::new(cfg),
                    m,
                },
                seed,
            );
            let case = format!("m = {m}, seed {seed}");
            assert!(
                !r.arising.is_empty(),
                "{case}: the mutant colors no pair alike"
            );
            assert_eq!(
                r.every.at.first().map(|d| d.0),
                r.arising.first().map(|a| a.0),
                "{case}: the first detection is in the slot of the first violating pair"
            );
            for &(slot, v, w) in &r.arising {
                let reported = |d: &Detections, at: u64| {
                    d.at.iter()
                        .any(|&(s, node)| s == at && (node == v || node == w))
                };
                assert!(
                    reported(&r.every, slot),
                    "{case}: pair ({v}, {w}) arose in slot {slot} unreported"
                );
                let check = slot.next_multiple_of(STRIDE);
                if check < r.slots {
                    assert!(
                        reported(&r.strided, check),
                        "{case}: pair ({v}, {w}) of slot {slot} unreported at check slot {check}"
                    );
                }
            }
            assert_eq!(r.every.violations, r.every.at.len() as u64, "{case}");
            assert_eq!(r.every.checks, r.slots, "{case}: one check per slot");
            assert_eq!(r.strided.checks, r.slots.div_ceil(STRIDE), "{case}");
        }
    }
}

#[test]
fn on_correct_runs_the_oracle_and_both_probes_see_nothing() {
    for seed in [1, 2, 3] {
        let r = run(SinrModel::new(SinrConfig::default_unit()), seed);
        assert!(r.all_done, "seed {seed}: the run finished");
        assert!(r.arising.is_empty(), "seed {seed}: {:?}", r.arising);
        assert!(
            r.every.at.is_empty() && r.strided.at.is_empty(),
            "seed {seed}"
        );
        assert_eq!(r.every.violations + r.strided.violations, 0, "seed {seed}");
        assert_eq!(r.every.checks, r.slots, "seed {seed}");
        assert!(r.strided.checks > 0, "seed {seed}");
    }
}
