//! End-to-end observability: recorded MW runs satisfy the paper's
//! invariants (probes quiet), produce schema-valid artifacts, and — the
//! load-bearing property — recording does not perturb the run.

use sinr_coloring::mw::{run_mw, run_mw_recorded, MwConfig, MwOutcome, MwProbeConfig};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::resolver::DEFAULT_NEAR_REACH_CELLS;
use sinr_model::{GraphModel, InterferenceModel, SinrConfig, SinrModel};
use sinr_obs::json::{parse_flat_object, parse_value};
use sinr_obs::{
    diff_documents, keys, DiffPolicy, FullRecorder, NoopRecorder, Recorder, SeriesConfig,
};
use sinr_radiosim::WakeupSchedule;

fn small_graph(n: usize, side: f64, seed: u64) -> (SinrConfig, UnitDiskGraph) {
    let cfg = SinrConfig::default_unit();
    let graph = UnitDiskGraph::new(placement::uniform(n, side, side, seed), cfg.r_t());
    (cfg, graph)
}

fn recorded_run<M: InterferenceModel>(
    graph: &UnitDiskGraph,
    model: M,
    params: MwParams,
    seed: u64,
    schedule: WakeupSchedule,
    rec: &mut dyn Recorder,
) -> MwOutcome {
    run_mw_recorded(
        graph,
        model,
        &MwConfig::new(params).with_seed(seed),
        schedule,
        MwProbeConfig::default(), // thm1 stride 1: check independence every slot
        rec,
    )
}

#[test]
fn small_run_with_stride_one_probes_is_violation_free() {
    let (cfg, graph) = small_graph(30, 3.0, 7);
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mut rec = FullRecorder::new();
    let out = recorded_run(
        &graph,
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        params,
        3,
        WakeupSchedule::Synchronous,
        &mut rec,
    );
    assert!(out.all_done, "run finished within the cap");

    let reg = rec.registry();
    for key in [
        keys::PROBE_THM1_VIOLATIONS,
        keys::PROBE_LEMMA4_VIOLATIONS,
        keys::PROBE_LEMMA6_VIOLATIONS,
        keys::PROBE_LEMMA7_VIOLATIONS,
    ] {
        assert_eq!(reg.counter(key).unwrap_or(0), 0, "probe {key} is quiet");
    }
    assert!(
        reg.counter(keys::PROBE_THM1_CHECKS).unwrap_or(0) > 0,
        "the theorem-1 check actually ran"
    );

    // Aggregate metrics agree with the outcome the driver reports.
    assert_eq!(reg.counter(keys::SIM_SLOTS), Some(out.slots));
    assert_eq!(
        reg.counter(keys::SIM_TRANSMISSIONS),
        Some(out.transmissions)
    );
    assert_eq!(reg.counter(keys::SIM_RECEPTIONS), Some(out.receptions));
    assert_eq!(reg.counter(keys::SIM_DONE_NODES), Some(graph.len() as u64));
    let load = reg.histogram(keys::SIM_CHANNEL_LOAD).expect("channel load");
    assert_eq!(load.count(), out.slots, "one channel-load sample per slot");
    assert_eq!(load.sum(), out.transmissions);
    // The SINR model exports its resolver counters too.
    assert!(reg.counter(keys::RESOLVER_FAST_PATH_HITS).is_some());

    // Phase transitions were observed and nodes accumulated colored time.
    assert!(reg.counter(keys::MW_PHASE_TRANSITIONS).unwrap_or(0) > 0);
    assert!(
        reg.counter(keys::MW_RESIDENCY_COLORED).unwrap_or(0) > 0,
        "slots were spent in colored states"
    );

    // The event stream is non-trivial and every JSONL line parses.
    assert!(rec.events_recorded() > 0);
    let jsonl = rec.jsonl_string();
    assert_eq!(jsonl.lines().count(), rec.events_len());
    for line in jsonl.lines() {
        let fields =
            parse_flat_object(line).unwrap_or_else(|| panic!("JSONL line must parse: {line}"));
        assert_eq!(fields[0].0, "slot", "slot leads every event line");
        assert_eq!(fields[1].0, "type");
    }
}

#[test]
fn thm1_probe_is_quiet_across_models_seeds_and_schedules() {
    let (cfg, graph) = small_graph(24, 2.5, 11);
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let schedules = [
        WakeupSchedule::Synchronous,
        WakeupSchedule::UniformRandom { window: 100 },
    ];
    for schedule in schedules {
        for seed in [0u64, 5] {
            let mut runs: Vec<(&str, MwOutcome, FullRecorder)> = Vec::new();
            let mut rec = FullRecorder::new();
            let out = recorded_run(
                &graph,
                SinrModel::new(cfg),
                params,
                seed,
                schedule,
                &mut rec,
            );
            runs.push(("sinr", out, rec));
            let mut rec = FullRecorder::new();
            let out = recorded_run(&graph, GraphModel::new(), params, seed, schedule, &mut rec);
            runs.push(("graph", out, rec));

            for (model, out, rec) in &runs {
                assert!(out.all_done, "{model} seed {seed}");
                assert_eq!(
                    rec.registry().counter(keys::PROBE_THM1_VIOLATIONS),
                    None,
                    "{model} seed {seed}: no color-class dependence ever recorded"
                );
                assert_eq!(
                    rec.registry().counter(keys::PROBE_LEMMA4_VIOLATIONS),
                    None,
                    "{model} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    let (cfg, graph) = small_graph(25, 3.0, 3);
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let config = MwConfig::new(params).with_seed(9);

    let plain = run_mw(
        &graph,
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        &config,
        WakeupSchedule::Synchronous,
    );
    let mut noop = NoopRecorder;
    let with_noop = recorded_run(
        &graph,
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        params,
        9,
        WakeupSchedule::Synchronous,
        &mut noop,
    );
    let mut full = FullRecorder::new();
    let with_full = recorded_run(
        &graph,
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        params,
        9,
        WakeupSchedule::Synchronous,
        &mut full,
    );

    assert_eq!(plain, with_noop, "disabled recorder changes nothing");
    assert_eq!(plain, with_full, "full recording changes nothing");
}

#[test]
fn identical_seeds_produce_identical_dumps_and_different_seeds_differ() {
    let (cfg, graph) = small_graph(20, 2.5, 13);
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let dump = |seed: u64| {
        let mut rec = FullRecorder::new();
        rec.enable_series(SeriesConfig::new(1));
        let out = recorded_run(
            &graph,
            SinrModel::new(cfg),
            params,
            seed,
            WakeupSchedule::Synchronous,
            &mut rec,
        );
        assert!(out.all_done);
        (
            rec.metrics_json(),
            rec.jsonl_string(),
            rec.trace_json(),
            rec.timeseries_json().expect("series was enabled"),
        )
    };

    let (metrics_a, jsonl_a, trace_a, series_a) = dump(4);
    let (metrics_b, jsonl_b, trace_b, series_b) = dump(4);
    assert_eq!(
        metrics_a, metrics_b,
        "metrics dump is a function of the seed"
    );
    assert_eq!(jsonl_a, jsonl_b, "event stream is a function of the seed");
    assert_eq!(trace_a, trace_b, "span trace is a function of the seed");
    assert_eq!(series_a, series_b, "time series is a function of the seed");

    let (metrics_c, _, trace_c, _) = dump(5);
    assert_ne!(
        metrics_a, metrics_c,
        "different seeds leave different traces"
    );
    assert_ne!(trace_a, trace_c, "span timelines differ across seeds");
}

#[test]
fn diffing_a_run_against_itself_finds_nothing() {
    let (cfg, graph) = small_graph(25, 3.0, 17);
    let params = MwParams::practical(&cfg, graph.len(), graph.max_degree());
    let mut rec = FullRecorder::new();
    let out = recorded_run(
        &graph,
        SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS)),
        params,
        2,
        WakeupSchedule::Synchronous,
        &mut rec,
    );
    assert!(out.all_done);

    let doc = parse_value(&rec.metrics_json()).expect("metrics dump parses");
    let findings = diff_documents(&doc, &doc, &DiffPolicy::empty());
    assert!(
        findings.is_empty(),
        "self-diff must be clean, got {findings:?}"
    );
}
