//! Driver: runs the MW automaton on a graph under any interference model.

use crate::mw::node::MwNode;
use crate::mw::obs::{MwProbeConfig, MwProbes};
use crate::params::MwParams;
use sinr_geometry::greedy::Coloring;
use sinr_geometry::UnitDiskGraph;
use sinr_model::{InterferenceModel, ResolverStats};
use sinr_obs::alloc::{self, AllocScope, AllocStats};
use sinr_obs::Recorder;
use sinr_radiosim::engine::{EngineAllocProfile, RunOutcome};
use sinr_radiosim::{Simulator, StepView, WakeupSchedule};

/// Run configuration for [`run_mw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwConfig {
    /// The algorithm constants.
    pub params: MwParams,
    /// RNG seed (drives send decisions and random wake-ups).
    pub seed: u64,
    /// Hard slot cap; `None` uses [`MwConfig::default_max_slots`].
    pub max_slots: Option<u64>,
}

impl MwConfig {
    /// Creates a configuration with seed 0 and the default slot cap.
    pub fn new(params: MwParams) -> Self {
        MwConfig {
            params,
            seed: 0,
            max_slots: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit slot cap.
    pub fn with_max_slots(mut self, max_slots: u64) -> Self {
        self.max_slots = Some(max_slots);
        self
    }

    /// A generous cap derived from the Theorem-2 time bound: per level a
    /// node spends `O((η + σ + γΔ/Δ)Δ ln n)` slots and visits at most
    /// `spread + 1` levels, plus `Δ` grant windows while requesting. The
    /// cap is 20× that estimate, so hitting it indicates livelock rather
    /// than slowness.
    pub fn default_max_slots(&self) -> u64 {
        let p = &self.params;
        let per_level = p.listen_slots() + 3 * p.counter_threshold().max(1) as u64;
        let request = p.delta as u64 * p.response_slots().max(1) * 4;
        20 * ((p.spread as u64 + 1) * per_level + request)
    }

    /// The effective slot cap.
    pub fn slot_cap(&self) -> u64 {
        self.max_slots.unwrap_or_else(|| self.default_max_slots())
    }
}

/// The result of a coloring run.
#[derive(Debug, Clone, PartialEq)]
pub struct MwOutcome {
    /// Whether every node decided a color within the slot cap.
    pub all_done: bool,
    /// Slots executed.
    pub slots: u64,
    /// The produced coloring, if all nodes decided.
    pub coloring: Option<Coloring>,
    /// Number of distinct colors used (0 if incomplete).
    pub colors_used: usize,
    /// Largest color value + 1 (0 if incomplete) — the realized palette.
    pub palette: usize,
    /// Maximum per-node decision latency (wake → decide), if all decided —
    /// the paper's time-complexity measure.
    pub max_latency: Option<u64>,
    /// Mean per-node decision latency over decided nodes.
    pub mean_latency: Option<f64>,
    /// Total transmissions.
    pub transmissions: u64,
    /// Total successful receptions.
    pub receptions: u64,
    /// Number of leaders (`C_0` members).
    pub leaders: usize,
    /// Full per-node simulator statistics (wake/done slots, per-node
    /// transmit/listen activity — feed to
    /// [`EnergyModel`](sinr_radiosim::energy::EnergyModel) for energy
    /// figures).
    pub stats: sinr_radiosim::SimStats,
    /// Cumulative fast-path counters of the interference resolver, if the
    /// model tracks them (read once at end of run).
    pub resolver: Option<ResolverStats>,
    /// Per-node protocol diagnostics.
    pub node_reports: Vec<NodeReport>,
}

/// Per-node diagnostic summary extracted from the automaton after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeReport {
    /// Final color, if decided.
    pub color: Option<usize>,
    /// The leader `L(v)` the node joined, if any (leaders have none).
    pub leader: Option<sinr_geometry::NodeId>,
    /// The cluster color `tc_v` granted by the leader, if any.
    pub cluster_color: Option<usize>,
    /// Number of `A_i` levels entered (Lemma 4 bounds the post-grant
    /// levels by `φ(2R_T)`, so this is at most `spread + 1` in total).
    pub levels_entered: u32,
    /// Number of `χ(P_v)` counter resets performed.
    pub resets: u32,
    /// Slots the node spent in each phase kind
    /// (see [`MwPhase::KIND_NAMES`](crate::mw::MwPhase::KIND_NAMES)).
    pub phase_slots: [u64; 5],
}

impl MwOutcome {
    /// Fast-path hit rate of the resolver, if tracked (see
    /// [`ResolverStats::hit_rate`]).
    pub fn resolver_hit_rate(&self) -> Option<f64> {
        self.resolver.as_ref().and_then(ResolverStats::hit_rate)
    }

    /// Cluster sizes: for each leader, how many nodes joined it (the
    /// leader itself excluded). Sorted by leader id.
    pub fn cluster_sizes(&self) -> Vec<(sinr_geometry::NodeId, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for r in &self.node_reports {
            if let Some(l) = r.leader {
                *counts.entry(l).or_insert(0usize) += 1;
            }
        }
        counts.into_iter().collect()
    }
}

/// Runs the MW coloring algorithm to completion (or the slot cap).
///
/// # Example
///
/// See the [crate-level quickstart](crate).
pub fn run_mw<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
) -> MwOutcome {
    run_mw_observed(graph, model, config, schedule, |_, _| {})
}

/// Like [`run_mw`] but invokes `observe(&sim, &view)` after every slot —
/// the hook used by experiments that audit per-slot invariants (Theorem-1
/// independence, Lemma-3 interference).
pub fn run_mw_observed<M, F>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
    observe: F,
) -> MwOutcome
where
    M: InterferenceModel,
    F: FnMut(&Simulator<MwNode, M>, &StepView),
{
    let params = config.params;
    run_mw_per_node(graph, model, config, schedule, |_| params, observe)
}

/// The *local-knowledge* variant (§VI open question: "whether it is
/// possible to get rid of the knowledge of Δ"): every node derives its
/// constants from its **own degree** instead of the global maximum degree.
///
/// The color-spread `φ(2R_T)+1` and `n` stay global (they are
/// configuration, not topology, knowledge); only the `Δ`-dependent windows
/// and send probabilities become local. Experiment E14 measures the
/// speed/correctness tradeoff of this heuristic.
pub fn run_mw_local_delta<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
) -> MwOutcome {
    let base = config.params;
    run_mw_per_node(
        graph,
        model,
        config,
        schedule,
        |id| {
            let local = graph.degree(id).max(1);
            let mut p = base;
            // Rescale the Δ-dependent quantities from the global Δ to the
            // node's own degree, keeping all multipliers.
            p.q_small = p.q_small * p.delta as f64 / local as f64;
            p.delta = local;
            p
        },
        |_, _| {},
    )
}

/// The fully general driver: per-node parameters (all derived from
/// `params_of(id)`) plus a per-slot observer. [`run_mw`],
/// [`run_mw_observed`], and [`run_mw_local_delta`] are thin wrappers.
///
/// # Panics
///
/// Panics if any node's parameters fail
/// [`validate`](crate::params::MwParams::validate).
pub fn run_mw_per_node<M, F, P>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
    params_of: P,
    observe: F,
) -> MwOutcome
where
    M: InterferenceModel,
    F: FnMut(&Simulator<MwNode, M>, &StepView),
    P: Fn(sinr_geometry::NodeId) -> MwParams,
{
    config.params.validate().expect("invalid MW parameters");
    let mut sim = Simulator::new(graph.clone(), model, schedule, config.seed, |id| {
        let p = params_of(id);
        p.validate().expect("invalid per-node MW parameters");
        let mut node = MwNode::new(id, p);
        node.reserve(graph.degree(id));
        node
    });
    let run = sim.run_observed(config.slot_cap(), observe);
    package_outcome(&sim, run)
}

/// Like [`run_mw`], but with full observability: engine events stream into
/// `rec`, the [`MwProbes`] check the paper's invariants per `probe_cfg`,
/// and the run's aggregate metrics (`sim.*`, `resolver.*`, `mw.*`,
/// `probe.*`) are exported into the recorder at the end. With a disabled
/// recorder this degrades to [`run_mw`] plus one virtual call per slot.
///
/// # Panics
///
/// Panics if the parameters fail
/// [`validate`](crate::params::MwParams::validate).
pub fn run_mw_recorded<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
    probe_cfg: MwProbeConfig,
    rec: &mut dyn Recorder,
) -> MwOutcome {
    config.params.validate().expect("invalid MW parameters");
    let params = config.params;
    let mut sim = Simulator::new(graph.clone(), model, schedule, config.seed, |id| {
        let mut node = MwNode::new(id, params);
        node.reserve(graph.degree(id));
        node
    });
    let mut probes = MwProbes::new(graph.len(), &params, probe_cfg);
    let run = sim.run_recorded(config.slot_cap(), rec, |sim, view, rec| {
        probes.observe(sim, view, rec)
    });
    probes.finalize(&sim, rec);
    sim.export_metrics(rec);
    package_outcome(&sim, run)
}

/// Heap-traffic profile of one [`run_mw_profiled`] run. All counters are
/// observed through [`sinr_obs::alloc`] and therefore only move when the
/// binary installs [`CountingAlloc`](sinr_obs::alloc::CountingAlloc) as
/// its global allocator; in an uninstrumented build every field is zero.
///
/// This data deliberately lives **outside** [`MwOutcome`]: outcomes are
/// compared byte-for-byte between profiled and plain runs and across
/// build flavors, and allocation counts are a property of the build, not
/// of the seed.
#[derive(Debug, Clone, Default)]
pub struct MwAllocProfile {
    /// Traffic before slot 0: graph clone, node construction, simulator
    /// buffers, resolver grid binding.
    pub setup: AllocStats,
    /// Per-phase engine attribution plus the per-slot sample buffer.
    pub engine: EngineAllocProfile,
    /// Process-wide heap high-water mark, in bytes, read at end of run.
    pub heap_peak: u64,
}

/// Per-slot samples are preallocated up front; runs longer than this many
/// slots keep profiling phase totals but stop sampling per-slot counts
/// (`engine.dropped_slots` reports how many were cut). 2^20 slots = 8 MiB
/// of samples, far beyond any practical run of the MW automaton.
const PROFILE_SAMPLE_CAP: u64 = 1 << 20;

/// Like [`run_mw`], but with the allocation profiler attached: returns
/// the outcome along with a [`MwAllocProfile`] attributing heap traffic
/// to setup and to the engine's per-slot phases.
///
/// The outcome is **identical** to the one [`run_mw`] produces for the
/// same inputs — profiling reads allocator counters but never changes
/// engine behavior — which `tests/thread_determinism.rs` pins.
///
/// # Panics
///
/// Panics if the parameters fail
/// [`validate`](crate::params::MwParams::validate).
pub fn run_mw_profiled<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    config: &MwConfig,
    schedule: WakeupSchedule,
) -> (MwOutcome, MwAllocProfile) {
    config.params.validate().expect("invalid MW parameters");
    let params = config.params;
    let mut prof = MwAllocProfile::default();
    let cap = config.slot_cap();
    let mut sim = {
        let _setup = AllocScope::new(&mut prof.setup);
        let mut sim = Simulator::new(graph.clone(), model, schedule, config.seed, |id| {
            let mut node = MwNode::new(id, params);
            node.reserve(graph.degree(id));
            node
        });
        sim.enable_alloc_profile(cap.min(PROFILE_SAMPLE_CAP) as usize);
        sim
    };
    let run = sim.run_observed(cap, |_, _| {});
    if let Some(engine) = sim.take_alloc_profile() {
        prof.engine = *engine;
    }
    prof.heap_peak = alloc::heap_peak();
    (package_outcome(&sim, run), prof)
}

/// Extracts the coloring, latency figures, and diagnostics from a finished
/// simulator — shared by every driver entry point.
fn package_outcome<M: InterferenceModel>(sim: &Simulator<MwNode, M>, run: RunOutcome) -> MwOutcome {
    let colors: Vec<Option<usize>> = sim.nodes().iter().map(MwNode::color).collect();
    let coloring = colors
        .iter()
        .copied()
        .collect::<Option<Vec<usize>>>()
        .map(Coloring::from_vec);
    let (colors_used, palette) = coloring
        .as_ref()
        .map(|c| (c.color_count(), c.palette_size()))
        .unwrap_or((0, 0));
    let leaders = colors.iter().flatten().filter(|&&c| c == 0).count();
    let node_reports = sim
        .nodes()
        .iter()
        .map(|n| NodeReport {
            color: n.color(),
            leader: n.leader(),
            cluster_color: n.cluster_color(),
            levels_entered: n.levels_entered(),
            resets: n.resets(),
            phase_slots: n.phase_slots(),
        })
        .collect();

    MwOutcome {
        all_done: run.all_done,
        slots: run.slots,
        coloring,
        colors_used,
        palette,
        max_latency: sim.stats().max_decision_latency(),
        mean_latency: sim.stats().mean_decision_latency(),
        transmissions: sim.stats().transmissions,
        receptions: sim.stats().receptions,
        leaders,
        stats: sim.stats().clone(),
        resolver: sim.model().resolver_stats(),
        node_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use sinr_geometry::packing::is_independent;
    use sinr_geometry::{placement, Point};
    use sinr_model::{GraphModel, SinrConfig, SinrModel};

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    fn run_on(
        points: Vec<Point>,
        seed: u64,
        schedule: WakeupSchedule,
    ) -> (UnitDiskGraph, MwOutcome) {
        let c = cfg();
        let graph = UnitDiskGraph::new(points, c.r_t());
        let params = MwParams::practical(&c, graph.len().max(2), graph.max_degree());
        let config = MwConfig::new(params).with_seed(seed);
        let outcome = run_mw(&graph, SinrModel::new(c), &config, schedule);
        (graph, outcome)
    }

    #[test]
    fn two_isolated_nodes_both_become_leaders() {
        let (_, out) = run_on(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            1,
            WakeupSchedule::Synchronous,
        );
        assert!(out.all_done);
        assert_eq!(out.leaders, 2);
        assert_eq!(out.colors_used, 1); // both take color 0
    }

    #[test]
    fn pair_of_neighbors_gets_proper_colors() {
        for seed in 0..5 {
            let (g, out) = run_on(
                vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)],
                seed,
                WakeupSchedule::Synchronous,
            );
            assert!(out.all_done, "seed {seed}");
            let coloring = out.coloring.unwrap();
            assert!(coloring.is_proper(&g), "seed {seed}");
            assert_eq!(out.leaders, 1, "exactly one of two neighbors leads");
        }
    }

    #[test]
    fn small_random_instance_sinr_model() {
        let (g, out) = run_on(
            placement::uniform(40, 4.0, 4.0, 7),
            3,
            WakeupSchedule::Synchronous,
        );
        assert!(out.all_done, "did not finish in {} slots", out.slots);
        let coloring = out.coloring.as_ref().unwrap();
        assert!(coloring.is_proper(&g));
        // Leaders form an independent set (Theorem 1 for C_0).
        let leaders: Vec<usize> = (0..g.len()).filter(|&v| coloring.color(v) == 0).collect();
        assert!(is_independent(&g, &leaders));
        // Palette within the Theorem-2 bound.
        let params = MwParams::practical(&cfg(), g.len(), g.max_degree());
        assert!(out.palette <= params.palette_bound());
        // Verifier agrees.
        assert!(
            verify::distance_violations(g.positions(), coloring.as_slice(), g.radius()).is_empty()
        );
    }

    #[test]
    fn graph_model_baseline_also_works() {
        let c = cfg();
        let graph = UnitDiskGraph::new(placement::uniform(40, 4.0, 4.0, 7), c.r_t());
        let params = MwParams::practical(&c, graph.len(), graph.max_degree());
        let out = run_mw(
            &graph,
            GraphModel::new(),
            &MwConfig::new(params).with_seed(5),
            WakeupSchedule::Synchronous,
        );
        assert!(out.all_done);
        assert!(out.coloring.unwrap().is_proper(&graph));
    }

    #[test]
    fn asynchronous_wakeup_still_colors_properly() {
        let (g, out) = run_on(
            placement::uniform(30, 3.0, 3.0, 11),
            9,
            WakeupSchedule::UniformRandom { window: 200 },
        );
        assert!(out.all_done);
        assert!(out.coloring.unwrap().is_proper(&g));
    }

    #[test]
    fn deterministic_in_seed() {
        let mk = || {
            run_on(
                placement::uniform(25, 3.0, 3.0, 2),
                42,
                WakeupSchedule::Synchronous,
            )
            .1
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_on(
            placement::uniform(25, 3.0, 3.0, 2),
            1,
            WakeupSchedule::Synchronous,
        )
        .1;
        let b = run_on(
            placement::uniform(25, 3.0, 3.0, 2),
            2,
            WakeupSchedule::Synchronous,
        )
        .1;
        // Same topology, different randomness: transmission counts differ
        // almost surely.
        assert_ne!(a.transmissions, b.transmissions);
    }

    #[test]
    fn observer_is_called() {
        let c = cfg();
        let graph = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)], c.r_t());
        let params = MwParams::practical(&c, 2, 1);
        let mut calls = 0u64;
        let out = run_mw_observed(
            &graph,
            SinrModel::new(c),
            &MwConfig::new(params).with_seed(0),
            WakeupSchedule::Synchronous,
            |_, _| calls += 1,
        );
        assert_eq!(calls, out.slots);
        assert!(calls > 0);
    }

    #[test]
    fn lemma4_levels_bound_holds_empirically() {
        // Lemma 4: after being granted tc, a node enters at most φ(2R_T)
        // further A_i states. With the A_0 entry that caps levels_entered
        // at spread + 1.
        let (g, out) = run_on(
            placement::uniform(40, 4.0, 4.0, 7),
            6,
            WakeupSchedule::Synchronous,
        );
        assert!(out.all_done);
        let params = MwParams::practical(&cfg(), g.len(), g.max_degree());
        for (v, r) in out.node_reports.iter().enumerate() {
            assert!(
                (r.levels_entered as usize) <= params.spread + 1,
                "node {v} entered {} levels (spread = {})",
                r.levels_entered,
                params.spread
            );
        }
    }

    #[test]
    fn node_reports_are_consistent_with_coloring() {
        let (g, out) = run_on(
            placement::uniform(30, 3.0, 3.0, 4),
            2,
            WakeupSchedule::Synchronous,
        );
        let coloring = out.coloring.as_ref().unwrap();
        for (v, r) in out.node_reports.iter().enumerate() {
            assert_eq!(r.color, Some(coloring.color(v)));
            if coloring.color(v) == 0 {
                assert_eq!(r.leader, None, "leaders have no leader");
            } else {
                let l = r.leader.expect("non-leaders joined a cluster");
                assert_eq!(coloring.color(l), 0, "L(v) must be a leader");
                assert!(g.are_adjacent(v, l), "L(v) must be a neighbor");
                assert!(r.cluster_color.is_some());
            }
        }
        // Cluster sizes cover every non-leader exactly once.
        let total: usize = out.cluster_sizes().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.len() - out.leaders);
    }

    #[test]
    fn local_delta_variant_still_colors_properly() {
        let c = cfg();
        let graph = UnitDiskGraph::new(placement::uniform(40, 4.0, 4.0, 7), c.r_t());
        let params = MwParams::practical(&c, graph.len(), graph.max_degree());
        let out = run_mw_local_delta(
            &graph,
            SinrModel::new(c),
            &MwConfig::new(params).with_seed(4),
            WakeupSchedule::Synchronous,
        );
        assert!(out.all_done);
        assert!(out.coloring.unwrap().is_proper(&graph));
    }

    #[test]
    fn per_node_params_receive_node_ids() {
        let c = cfg();
        let graph = UnitDiskGraph::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)], c.r_t());
        let params = MwParams::practical(&c, 2, 1);
        let mut seen = std::collections::BTreeSet::new();
        // Collect ids synchronously before the run starts (the closure is
        // called once per node during construction).
        let ids = std::cell::RefCell::new(&mut seen);
        let _ = run_mw_per_node(
            &graph,
            SinrModel::new(c),
            &MwConfig::new(params).with_seed(0).with_max_slots(5),
            WakeupSchedule::Synchronous,
            |id| {
                ids.borrow_mut().insert(id);
                params
            },
            |_, _| {},
        );
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn outcome_stats_cover_every_node() {
        let (g, out) = run_on(
            placement::uniform(20, 2.5, 2.5, 5),
            1,
            WakeupSchedule::Synchronous,
        );
        assert_eq!(out.stats.tx_slots.len(), g.len());
        // Awake slots partition into tx + listen for every node.
        for v in 0..g.len() {
            let awake = out.slots - out.stats.wake_slot[v];
            assert_eq!(out.stats.tx_slots[v] + out.stats.listen_slots[v], awake);
        }
        // Aggregate transmissions match the per-node counters.
        assert_eq!(out.stats.tx_slots.iter().sum::<u64>(), out.transmissions);
    }

    #[test]
    fn slot_cap_halts_incomplete_runs() {
        let c = cfg();
        let graph = UnitDiskGraph::new(placement::uniform(20, 2.0, 2.0, 3), c.r_t());
        let params = MwParams::practical(&c, graph.len(), graph.max_degree());
        let out = run_mw(
            &graph,
            SinrModel::new(c),
            &MwConfig::new(params).with_seed(0).with_max_slots(3),
            WakeupSchedule::Synchronous,
        );
        assert!(!out.all_done);
        assert_eq!(out.slots, 3);
        assert!(out.coloring.is_none());
        assert_eq!(out.palette, 0);
    }
}
