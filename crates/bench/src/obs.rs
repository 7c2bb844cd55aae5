//! Observed experiment runs: the machine-readable obs section attached to
//! experiment reports (`ExpReport::obs`) and dumped as `OBS_<id>.json` by
//! the `experiments` binary (schema `experiment_obs`, `docs/OBS_SCHEMA.md`).

use crate::workload::Instance;
use sinr_coloring::mw::{run_mw_recorded, MwConfig, MwProbeConfig};
use sinr_model::SinrModel;
use sinr_obs::{keys, FullRecorder, Stopwatch, WallSpan, OBS_SCHEMA_VERSION};
use sinr_radiosim::WakeupSchedule;

/// Runs one fully observed coloring of `inst` (SINR model, probes at
/// stride 1) and renders the `experiment_obs` JSON document: instance
/// shape, run outcome, probe verdicts, event accounting, and the complete
/// metrics registry.
pub fn recorded_instance_report(inst: &Instance, seed: u64) -> String {
    let mut rec = FullRecorder::new();
    let out = run_mw_recorded(
        &inst.graph,
        SinrModel::new(inst.cfg),
        &MwConfig::new(inst.params).with_seed(seed),
        WakeupSchedule::Synchronous,
        MwProbeConfig::default(),
        &mut rec,
    );

    // Exported (not live) registry: carries the obs.* retention counters.
    let reg = rec.export_registry();
    let probe = |key: &str| reg.counter(key).unwrap_or(0);
    format!(
        "{{\"schema_version\":{OBS_SCHEMA_VERSION},\"kind\":\"experiment_obs\",\
         \"instance\":{{\"n\":{},\"max_degree\":{},\"seed\":{seed}}},\
         \"run\":{{\"all_done\":{},\"slots\":{},\"colors_used\":{},\"palette\":{}}},\
         \"probes\":{{\"thm1_violations\":{},\"lemma4_violations\":{},\
         \"lemma6_violations\":{},\"lemma7_violations\":{}}},\
         \"events\":{{\"recorded\":{},\"dropped\":{},\"capacity\":{}}},\
         \"metrics\":{}}}",
        inst.graph.len(),
        inst.graph.max_degree(),
        out.all_done,
        out.slots,
        out.colors_used,
        out.palette,
        probe(keys::PROBE_THM1_VIOLATIONS),
        probe(keys::PROBE_LEMMA4_VIOLATIONS),
        probe(keys::PROBE_LEMMA6_VIOLATIONS),
        probe(keys::PROBE_LEMMA7_VIOLATIONS),
        rec.events_recorded(),
        rec.events_dropped(),
        rec.ring_capacity(),
        reg.to_json(),
    )
}

/// Runs one fully observed coloring of `inst` and renders its span
/// timeline as Chrome trace-event JSON with a wall-clock overlay.
///
/// The slot-time process (pid 0) is deterministic — byte-identical for
/// every thread count and machine. The overlay (pid 1) is the one
/// sanctioned wall-clock reading ([`Stopwatch`], bench binaries only) and
/// exists purely for eyeballing simulated-vs-real time in Perfetto.
pub fn recorded_instance_trace(inst: &Instance, seed: u64) -> String {
    // Big span ring: one span per (node, phase stay) plus three per slot.
    let mut rec = FullRecorder::with_ring_capacity(1 << 20);
    let sw = Stopwatch::start();
    let out = run_mw_recorded(
        &inst.graph,
        SinrModel::new(inst.cfg),
        &MwConfig::new(inst.params).with_seed(seed),
        WakeupSchedule::Synchronous,
        MwProbeConfig::default(),
        &mut rec,
    );
    let wall = [WallSpan {
        name: format!(
            "run_mw_recorded n={} slots={} done={}",
            inst.graph.len(),
            out.slots,
            out.all_done
        ),
        start_us: 0.0,
        dur_us: sw.elapsed_ns() as f64 / 1_000.0,
    }];
    rec.trace_json_with_wall(&wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_covers_run_probes_and_metrics() {
        let inst = Instance::uniform(20, 6.0, 7);
        let doc = recorded_instance_report(&inst, 0);
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"experiment_obs\","));
        assert!(doc.contains("\"instance\":{\"n\":20,"));
        assert!(doc.contains("\"thm1_violations\":0"));
        assert!(doc.contains("\"sim.slots\""));
        assert!(doc.contains("\"obs.events.dropped\""));
        assert!(doc.ends_with('}'));
    }

    #[test]
    fn instance_trace_has_slot_time_and_wall_clock_processes() {
        let inst = Instance::uniform(20, 6.0, 7);
        let doc = recorded_instance_trace(&inst, 0);
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"trace_events\""));
        assert!(doc.contains("\"slot-time\""));
        assert!(doc.contains("\"wall-clock\""));
        assert!(doc.contains("\"name\":\"resolve\""));
        assert!(doc.contains("run_mw_recorded n=20"));
    }
}
