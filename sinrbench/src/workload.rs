//! The four workloads: how each builds its instance from the seed, which
//! user call it times, and which output checks that call must pass.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use sinr_coloring::mw::{
    run_mw, run_mw_observed, run_mw_recorded, MwConfig, MwOutcome, MwProbeConfig,
};
use sinr_coloring::params::MwParams;
use sinr_coloring::verify::{class_independence_violations, distance_violations};
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_mac::guard::theorem3_distance_factor;
use sinr_mac::mp::Flooding;
use sinr_mac::srs::simulate_uniform;
use sinr_mac::tdma::{broadcast_audit, BroadcastAudit, TdmaSchedule};
use sinr_mac::SrsRun;
use sinr_model::{FastSinrModel, InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::{keys, FullRecorder};
use sinr_radiosim::WakeupSchedule;

use crate::layers::{host_slowdown, Clocked, Tracer, Windows};

/// Expected degree of every placement.
const DEGREE: f64 = 12.0;
/// Message-passing rounds `tdma-512` runs over its schedule.
const SRS_ROUNDS: usize = 64;
/// Flooding source of `tdma-512`.
const SRS_SOURCE: usize = 0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n=2048 complete coloring with the shipped resolver.
    Uniform2k,
    /// n=32768, first 3000 slots: the node array outgrows the L2 cache.
    Uniform32kHead,
    /// The `uniform-2k` run recorded and exported as `sinrcolor report` does.
    Recorded2k,
    /// n=512 Theorem-3 chain: distance coloring, TDMA schedule, audit, SRS.
    Tdma512,
}

/// Every workload, in the order the all-workloads run visits them.
pub const ALL: [Workload; 4] = [
    Workload::Uniform2k,
    Workload::Uniform32kHead,
    Workload::Recorded2k,
    Workload::Tdma512,
];

/// Instance size of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: usize,
    /// Coloring slot cap; `None` runs the coloring to completion.
    pub slot_cap: Option<u64>,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform2k => "uniform-2k",
            Workload::Uniform32kHead => "uniform-32k-head",
            Workload::Recorded2k => "recorded-2k",
            Workload::Tdma512 => "tdma-512",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarked size, or the toy size `--check` runs.
    pub fn size(self, check: bool) -> Size {
        let (n, slot_cap) = match (self, check) {
            (Workload::Uniform2k | Workload::Recorded2k, false) => (2048, None),
            (Workload::Uniform32kHead, false) => (32768, Some(3000)),
            (Workload::Tdma512, false) => (512, None),
            (Workload::Uniform2k | Workload::Recorded2k, true) => (256, None),
            (Workload::Uniform32kHead, true) => (256, Some(300)),
            (Workload::Tdma512, true) => (96, None),
        };
        Size { n, slot_cap }
    }

    /// Timed calls in a run of `seconds`: the run length over a call's
    /// wall time on the calibration host, at least one. The count depends
    /// on the run length alone, so every commit is measured over the same
    /// number of repetitions however fast its calls are.
    pub fn calls(self, seconds: f64) -> usize {
        let call_s = match self {
            Workload::Uniform2k => 4.4,
            Workload::Uniform32kHead => 5.2,
            Workload::Recorded2k => 9.4,
            Workload::Tdma512 => 7.2,
        };
        ((seconds / call_s).round() as usize).max(1)
    }
}

/// The model the coloring runs under.
#[derive(Debug, Clone)]
pub enum Model {
    /// `FastSinrModel::auto`, the shipped resolver.
    Auto(Box<FastSinrModel>),
    /// The naive `SinrModel`, which `color_at_distance` uses.
    Naive(SinrModel),
}

/// Everything a workload's user call needs, built from the seed.
pub struct Instance {
    /// The graph the coloring runs on: `G`, or `G^d` for `tdma-512`.
    pub mw_graph: UnitDiskGraph,
    pub params: MwParams,
    /// A pristine model; every run starts from a clone of it.
    pub model: Model,
    /// `tdma-512` only: the base configuration and `G`, where the schedule
    /// is audited and SRS runs.
    pub base: Option<(SinrConfig, UnitDiskGraph)>,
}

/// Boundaries of one set-up's stages, and the host's slowdown around it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub start: Instant,
    pub placed: Instant,
    pub graphed: Instant,
    pub done: Instant,
    /// Mean of [`host_slowdown`] just before and just after the set-up.
    pub slowdown: f64,
}

impl SetupTimes {
    /// Wall time of the set-up.
    pub fn total_s(&self) -> f64 {
        (self.done - self.start).as_secs_f64()
    }

    /// Its time on the quiet host.
    pub fn host_s(&self) -> f64 {
        self.total_s() / self.slowdown
    }
}

impl Instance {
    /// Builds the instance: placement, unit disk graph(s), parameters and
    /// model.
    pub fn build(w: Workload, n: usize, seed: u64) -> (Instance, SetupTimes) {
        let cfg = SinrConfig::default_unit();
        let before = host_slowdown();
        let start = Instant::now();
        let points = placement::uniform_with_expected_degree(n, cfg.r_t(), DEGREE, seed);
        let placed = Instant::now();
        let (mw_cfg, mw_graph, base) = if w == Workload::Tdma512 {
            let scaled = cfg.scaled_range(theorem3_distance_factor(&cfg));
            let graph_d = UnitDiskGraph::new(points.clone(), scaled.r_t());
            let graph = UnitDiskGraph::new(points, cfg.r_t());
            (scaled, graph_d, Some((cfg, graph)))
        } else {
            (cfg, UnitDiskGraph::new(points, cfg.r_t()), None)
        };
        let graphed = Instant::now();
        let params = MwParams::practical(&mw_cfg, mw_graph.len(), mw_graph.max_degree());
        let model = if w == Workload::Tdma512 {
            Model::Naive(SinrModel::new(mw_cfg))
        } else {
            Model::Auto(Box::new(FastSinrModel::auto(mw_cfg, &mw_graph)))
        };
        let done = Instant::now();
        let after = host_slowdown();
        let inst = Instance {
            mw_graph,
            params,
            model,
            base,
        };
        let times = SetupTimes {
            start,
            placed,
            graphed,
            done,
            slowdown: (before + after) / 2.0,
        };
        (inst, times)
    }
}

/// What `tdma-512` produced after the coloring.
#[derive(Debug, Clone)]
pub struct Mac {
    pub frame_len: usize,
    pub audit: BroadcastAudit,
    pub srs: SrsRun,
}

/// What `recorded-2k`'s recorder saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Obs {
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub spans_recorded: u64,
    /// Sum of the Theorem-1 and Lemma-4/6/7 probe violation counters.
    pub probe_violations: u64,
}

/// The result of one user call.
#[derive(Debug, Clone)]
pub struct Solved {
    pub outcome: MwOutcome,
    /// SINR slots the call simulated: coloring, plus the audit frame and
    /// the SRS frames on `tdma-512`.
    pub sim_slots: u64,
    pub mac: Option<Mac>,
    pub obs: Option<Obs>,
}

/// How a call is measured.
pub enum Probe<'a> {
    /// Not at all (the warm-up).
    Off,
    /// The timed calls: the clock is read every few slots.
    Windows(&'a mut Windows),
    /// The traced call: every layer is timed.
    Trace(&'a mut Tracer),
}

impl Probe<'_> {
    fn reborrow(&mut self) -> Probe<'_> {
        match self {
            Probe::Off => Probe::Off,
            Probe::Windows(w) => Probe::Windows(w),
            Probe::Trace(t) => Probe::Trace(t),
        }
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            Probe::Trace(t) => Some(t),
            _ => None,
        }
    }
}

/// Runs the user call of workload `w` on `inst`, with the coloring capped
/// at `cap` slots.
pub fn solve(
    w: Workload,
    inst: &Instance,
    seed: u64,
    cap: Option<u64>,
    mut probe: Probe<'_>,
) -> Solved {
    let mut mw = MwConfig::new(inst.params).with_seed(seed);
    if let Some(cap) = cap {
        mw = mw.with_max_slots(cap);
    }
    let (outcome, obs) = match &inst.model {
        Model::Auto(m) => run(w, &inst.mw_graph, &**m, &mw, probe.reborrow()),
        Model::Naive(m) => run(w, &inst.mw_graph, m, &mw, probe.reborrow()),
    };
    let mac = match (&inst.base, &outcome.coloring) {
        (Some((cfg, graph)), Some(coloring)) => {
            Some(schedule(cfg, graph, coloring.as_slice(), probe.tracer()))
        }
        _ => None,
    };
    let sim_slots = outcome.slots + mac.as_ref().map_or(0, |m| m.frame_len as u64 + m.srs.slots);
    Solved {
        outcome,
        sim_slots,
        mac,
        obs,
    }
}

/// The coloring call: recorded on `recorded-2k`, plain otherwise.
fn run<M: InterferenceModel + Clone>(
    w: Workload,
    graph: &UnitDiskGraph,
    model: &M,
    mw: &MwConfig,
    probe: Probe<'_>,
) -> (MwOutcome, Option<Obs>) {
    if w == Workload::Recorded2k {
        let (outcome, obs) = record(graph, model, mw, probe);
        (outcome, Some(obs))
    } else {
        (color(graph, model, mw, probe), None)
    }
}

fn color<M: InterferenceModel + Clone>(
    graph: &UnitDiskGraph,
    model: &M,
    mw: &MwConfig,
    probe: Probe<'_>,
) -> MwOutcome {
    let wake = WakeupSchedule::Synchronous;
    match probe {
        Probe::Off => run_mw(graph, model.clone(), mw, wake),
        Probe::Windows(win) => run_mw_observed(graph, model.clone(), mw, wake, |_, _| win.slot()),
        Probe::Trace(tr) => tr.coloring(|hooks| {
            let timed = hooks.timed(model.clone());
            run_mw_observed(graph, timed, mw, wake, |_, _| hooks.tick())
        }),
    }
}

/// The recorded run as `sinrcolor report` makes it: full recorder, all
/// probes at stride 1, then the metrics registry and the span trace
/// exported.
fn record<M: InterferenceModel + Clone>(
    graph: &UnitDiskGraph,
    model: &M,
    mw: &MwConfig,
    mut probe: Probe<'_>,
) -> (MwOutcome, Obs) {
    let wake = WakeupSchedule::Synchronous;
    let probes = MwProbeConfig::default();
    let mut rec = FullRecorder::new();
    let outcome = match probe.reborrow() {
        Probe::Off => run_mw_recorded(graph, model.clone(), mw, wake, probes, &mut rec),
        Probe::Windows(win) => {
            let mut tick = || win.slot();
            let mut clocked = Clocked::new(&mut rec, &mut tick);
            run_mw_recorded(graph, model.clone(), mw, wake, probes, &mut clocked)
        }
        Probe::Trace(tr) => tr.coloring(|hooks| {
            let timed = hooks.timed(model.clone());
            let mut tick = || hooks.tick();
            let mut clocked = Clocked::new(&mut rec, &mut tick);
            run_mw_recorded(graph, timed, mw, wake, probes, &mut clocked)
        }),
    };
    let export = || black_box((rec.export_registry().to_json(), rec.trace_json()));
    match probe.tracer() {
        None => export(),
        Some(tr) => tr.time("obs.export", export),
    };
    let reg = rec.registry();
    let probe_violations = [
        keys::PROBE_THM1_VIOLATIONS,
        keys::PROBE_LEMMA4_VIOLATIONS,
        keys::PROBE_LEMMA6_VIOLATIONS,
        keys::PROBE_LEMMA7_VIOLATIONS,
    ]
    .iter()
    .map(|k| reg.counter(k).unwrap_or(0))
    .sum();
    let obs = Obs {
        events_recorded: rec.events_recorded(),
        events_dropped: rec.events_dropped(),
        spans_recorded: rec.spans_recorded(),
        probe_violations,
    };
    (outcome, obs)
}

/// The Theorem-3 / Corollary-1 tail of `tdma-512`, as `sinrcolor schedule`
/// and `sinrcolor simulate` run it.
fn schedule(
    cfg: &SinrConfig,
    graph: &UnitDiskGraph,
    colors: &[usize],
    mut tracer: Option<&mut Tracer>,
) -> Mac {
    let mut span = |name: &'static str, start: Instant| {
        if let Some(tr) = tracer.as_deref_mut() {
            tr.span(name, start, Instant::now());
        }
    };
    let start = Instant::now();
    let schedule = TdmaSchedule::from_colors(colors);
    span("mac.schedule", start);
    let start = Instant::now();
    let audit = broadcast_audit(graph, cfg, &schedule);
    span("mac.audit", start);
    let start = Instant::now();
    let mut nodes: Vec<Flooding> = (0..graph.len())
        .map(|v| Flooding::new(v == SRS_SOURCE))
        .collect();
    let srs = simulate_uniform(graph, cfg, &schedule, &mut nodes, SRS_ROUNDS);
    span("mac.srs", start);
    Mac {
        frame_len: schedule.frame_len(),
        audit,
        srs,
    }
}

/// Each decided node's color (`None` while undecided).
fn node_colors(outcome: &MwOutcome) -> Vec<Option<usize>> {
    outcome.node_reports.iter().map(|r| r.color).collect()
}

/// Distinct colors among decided nodes; the frame length on `tdma-512`.
pub fn colors_used(s: &Solved) -> usize {
    match &s.mac {
        Some(mac) => mac.frame_len,
        None => node_colors(&s.outcome)
            .into_iter()
            .flatten()
            .collect::<BTreeSet<_>>()
            .len(),
    }
}

/// Every output check the call failed, as readable messages.
pub fn check(inst: &Instance, capped: bool, s: &Solved) -> Vec<String> {
    let mut failures = Vec::new();
    let out = &s.outcome;
    let positions = inst.mw_graph.positions();
    let radius = inst.mw_graph.radius();
    if !capped && !out.all_done {
        failures.push(format!("coloring unfinished after {} slots", out.slots));
    }
    let colors = node_colors(out);
    let conflicts = match &out.coloring {
        Some(c) => distance_violations(positions, c.as_slice(), radius).len(),
        None => class_independence_violations(positions, &colors, radius).len(),
    };
    if conflicts > 0 {
        failures.push(format!(
            "{conflicts} same-colored pairs within distance {radius}"
        ));
    }
    let palette = colors.iter().flatten().max().map_or(0, |&c| c + 1);
    if palette > inst.params.palette_bound() {
        failures.push(format!(
            "palette {palette} exceeds the Theorem-2 bound {}",
            inst.params.palette_bound()
        ));
    }
    if let Some(obs) = &s.obs {
        if obs.probe_violations > 0 {
            failures.push(format!("{} probe violations", obs.probe_violations));
        }
    }
    if inst.base.is_some() {
        match &s.mac {
            None => failures.push("no schedule: the distance coloring did not finish".to_string()),
            Some(mac) => {
                if !mac.audit.is_interference_free() {
                    failures.push(format!(
                        "TDMA audit delivered {} of {} links",
                        mac.audit.links_delivered, mac.audit.links_attempted
                    ));
                }
                if !mac.srs.is_faithful() {
                    failures.push(format!(
                        "SRS delivered {} of {} messages",
                        mac.srs.deliveries_made, mac.srs.deliveries_expected
                    ));
                }
            }
        }
    }
    failures
}

/// FNV-1a over the coloring, slots, transmissions and receptions (and the
/// schedule and SRS results on `tdma-512`): equal digests mean equal
/// outputs, across runs, tracing, recording and commits.
pub fn digest(s: &Solved) -> u64 {
    let mut words: Vec<u64> = node_colors(&s.outcome)
        .into_iter()
        .map(|c| c.map_or(u64::MAX, |c| c as u64))
        .collect();
    words.extend([
        s.outcome.slots,
        s.outcome.transmissions,
        s.outcome.receptions,
    ]);
    if let Some(mac) = &s.mac {
        words.extend([
            mac.frame_len as u64,
            mac.audit.links_delivered,
            mac.srs.slots,
            mac.srs.deliveries_made,
        ]);
    }
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Node-slots in which a node was awake and still undecided.
pub fn undone_node_slots(out: &MwOutcome) -> u64 {
    let st = &out.stats;
    st.wake_slot
        .iter()
        .zip(&st.done_slot)
        .map(|(&wake, done)| done.unwrap_or(out.slots).saturating_sub(wake))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_coloring::distance_d::color_at_distance;

    #[test]
    fn tdma_coloring_matches_color_at_distance() {
        let size = Workload::Tdma512.size(true);
        let seed = 3;
        let (inst, _) = Instance::build(Workload::Tdma512, size.n, seed);
        let solved = solve(Workload::Tdma512, &inst, seed, None, Probe::Off);
        let cfg = SinrConfig::default_unit();
        let points = inst.mw_graph.positions();
        let expected = color_at_distance(
            points,
            &cfg,
            theorem3_distance_factor(&cfg),
            seed,
            WakeupSchedule::Synchronous,
        );
        assert_eq!(solved.outcome, expected.outcome);
        assert!(check(&inst, false, &solved).is_empty());
    }

    #[test]
    fn recording_tracing_and_plain_runs_agree() {
        let size = Workload::Recorded2k.size(true);
        let (inst, _) = Instance::build(Workload::Recorded2k, size.n, 5);
        let plain = solve(Workload::Uniform2k, &inst, 5, None, Probe::Off);
        let recorded = solve(Workload::Recorded2k, &inst, 5, None, Probe::Off);
        let mut windows = Windows::new();
        windows.start();
        let windowed = solve(
            Workload::Recorded2k,
            &inst,
            5,
            None,
            Probe::Windows(&mut windows),
        );
        assert!(windows.finish() >= windows.wall_floor_s());
        let mut tracer = Tracer::new(Instant::now(), plain.outcome.slots as usize);
        let traced = solve(
            Workload::Recorded2k,
            &inst,
            5,
            None,
            Probe::Trace(&mut tracer),
        );
        assert_eq!(digest(&plain), digest(&recorded));
        assert_eq!(digest(&plain), digest(&windowed));
        assert_eq!(digest(&plain), digest(&traced));
        let layers = tracer.coloring_layers();
        assert_eq!(layers.calls, plain.outcome.slots);
        let sum = layers.resolve_s + layers.self_s + layers.build_s;
        let wall = tracer.total_s("radiosim.coloring");
        assert!((sum - wall).abs() < 1e-6, "{sum} vs {wall}");
    }

    #[test]
    fn digest_sees_every_color() {
        let size = Workload::Uniform2k.size(true);
        let (inst, _) = Instance::build(Workload::Uniform2k, size.n, 1);
        let a = solve(Workload::Uniform2k, &inst, 1, None, Probe::Off);
        let mut b = a.clone();
        b.outcome.node_reports[7].color = b.outcome.node_reports[7].color.map(|c| c + 1);
        assert_ne!(digest(&a), digest(&b));
    }
}
