//! The `Recorder` trait and its in-memory implementations.

use crate::event::ObsEvent;
use crate::keys;
use crate::metrics::{Histogram, Registry};
use crate::ring::Ring;
use crate::series::{SeriesConfig, TimeSeries};
use crate::span::{chrome_trace_json, SpanRecord, WallSpan};
use crate::OBS_SCHEMA_VERSION;
use std::io::{self, Write};

/// Default event-ring capacity of [`FullRecorder::new`] (events, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The single sink everything records through.
///
/// Instrumented code takes `&mut dyn Recorder` and must guard *per-slot*
/// work behind one [`Recorder::enabled`] check so the disabled path costs a
/// single virtual call per slot (see the overhead measurement in
/// `BENCH_resolver.json`). End-of-run exports (counter totals, histogram
/// merges) may skip the check — they run once.
///
/// Every method has a no-op default, so [`NoopRecorder`] is just
/// `impl Recorder for NoopRecorder {}` and custom sinks override only what
/// they store.
pub trait Recorder {
    /// Whether per-slot instrumentation should bother constructing events.
    fn enabled(&self) -> bool {
        false
    }

    /// Records a structured event at `slot`.
    fn event(&mut self, _slot: u64, _event: &ObsEvent) {}

    /// Adds `delta` to the counter `key`.
    fn counter_add(&mut self, _key: &'static str, _delta: u64) {}

    /// Sets the gauge `key`.
    fn gauge_set(&mut self, _key: &'static str, _value: f64) {}

    /// Records one sample into the histogram `key` (default power-of-two
    /// buckets unless the sink chooses otherwise).
    fn observe(&mut self, _key: &'static str, _value: u64) {}

    /// Merges a pre-aggregated histogram into the histogram `key`.
    fn histogram_merge(&mut self, _key: &'static str, _hist: &Histogram) {}

    /// Records a completed slot-time span (see `crate::span`).
    fn span(&mut self, _span: &SpanRecord) {}

    /// Offers slot `slot` for time-series sampling; the engine calls this
    /// once per slot after all of the slot's metrics have been recorded.
    fn series_tick(&mut self, _slot: u64) {}
}

/// The zero-cost disabled recorder: every hook is a no-op and
/// [`Recorder::enabled`] is `false`, so instrumented hot loops skip event
/// construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// An in-memory recorder: metrics in a [`Registry`], events and spans in
/// bounded [`Ring`]s (oldest evicted first), an optional [`TimeSeries`],
/// with JSON/JSONL export.
#[derive(Debug, Clone)]
pub struct FullRecorder {
    registry: Registry,
    ring: Ring<(u64, ObsEvent)>,
    spans: Ring<SpanRecord>,
    series: Option<TimeSeries>,
}

impl FullRecorder {
    /// A recorder with the default event-ring capacity
    /// ([`DEFAULT_RING_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose event ring and span ring each hold at most
    /// `capacity` entries (metrics are unaffected by the bound).
    pub fn with_ring_capacity(capacity: usize) -> Self {
        FullRecorder {
            registry: Registry::new(),
            ring: Ring::with_capacity(capacity),
            spans: Ring::with_capacity(capacity),
            series: None,
        }
    }

    /// Enables time-series sampling with the given configuration
    /// (subsequent [`Recorder::series_tick`] calls take snapshots).
    pub fn enable_series(&mut self, cfg: SeriesConfig) {
        self.series = Some(TimeSeries::new(cfg));
    }

    /// The accumulated time series, if sampling was enabled.
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// The metrics collected so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The retained events, oldest → newest.
    pub fn events(&self) -> impl Iterator<Item = &(u64, ObsEvent)> {
        self.ring.iter()
    }

    /// Number of events currently retained.
    pub fn events_len(&self) -> usize {
        self.ring.len()
    }

    /// Events evicted from the ring (recorded but no longer retained).
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total events ever recorded (retained + evicted).
    pub fn events_recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// The event-ring capacity.
    pub fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// The retained spans, oldest → newest.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of spans currently retained.
    pub fn spans_len(&self) -> usize {
        self.spans.len()
    }

    /// Spans evicted from the span ring.
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Total spans ever recorded (retained + evicted).
    pub fn spans_recorded(&self) -> u64 {
        self.spans.pushed()
    }

    /// The collected metrics plus the recorder's own `obs.*` retention
    /// bookkeeping (event/span ring accounting), as one registry. This is
    /// what the exported documents embed, so truncation is visible inside
    /// the artifact itself.
    pub fn export_registry(&self) -> Registry {
        let mut reg = self.registry.clone();
        reg.counter_add(keys::OBS_EVENTS_RECORDED, self.ring.pushed());
        reg.counter_add(keys::OBS_EVENTS_DROPPED, self.ring.dropped());
        reg.counter_add(keys::OBS_SPANS_RECORDED, self.spans.pushed());
        reg.counter_add(keys::OBS_SPANS_DROPPED, self.spans.dropped());
        reg
    }

    /// The metrics dump as a standalone JSON document (schema:
    /// `docs/OBS_SCHEMA.md`, kind `metrics`), including the `obs.*`
    /// retention counters from [`FullRecorder::export_registry`].
    pub fn metrics_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"kind\":\"metrics\",\"metrics\":{}}}",
            OBS_SCHEMA_VERSION,
            self.export_registry().to_json()
        )
    }

    /// The retained spans as one Chrome trace-event JSON document
    /// (schema kind `trace_events`; loadable in Perfetto).
    pub fn trace_json(&self) -> String {
        self.trace_json_with_wall(&[])
    }

    /// [`FullRecorder::trace_json`] with a wall-clock overlay attached as
    /// trace process 1 — for bench binaries only; the deterministic path
    /// never constructs [`WallSpan`]s.
    pub fn trace_json_with_wall(&self, wall: &[WallSpan]) -> String {
        let spans: Vec<SpanRecord> = self.spans.iter().copied().collect();
        chrome_trace_json(&spans, self.spans.pushed(), self.spans.dropped(), wall)
    }

    /// The time series as a standalone JSON document (schema kind
    /// `timeseries`), if sampling was enabled.
    pub fn timeseries_json(&self) -> Option<String> {
        self.series.as_ref().map(TimeSeries::to_json)
    }

    /// Writes the retained events as JSONL, one event per line,
    /// oldest → newest.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for (slot, event) in self.ring.iter() {
            line.clear();
            event.jsonl_into(*slot, &mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// The retained events as one JSONL string.
    pub fn jsonl_string(&self) -> String {
        let mut out = String::new();
        for (slot, event) in self.ring.iter() {
            event.jsonl_into(*slot, &mut out);
            out.push('\n');
        }
        out
    }
}

impl Default for FullRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for FullRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, slot: u64, event: &ObsEvent) {
        self.ring.push((slot, *event));
    }

    fn counter_add(&mut self, key: &'static str, delta: u64) {
        self.registry.counter_add(key, delta);
    }

    fn gauge_set(&mut self, key: &'static str, value: f64) {
        self.registry.gauge_set(key, value);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        self.registry
            .observe_with(key, value, || Histogram::exponential(16));
    }

    fn histogram_merge(&mut self, key: &'static str, hist: &Histogram) {
        self.registry.histogram_merge(key, hist);
    }

    fn span(&mut self, span: &SpanRecord) {
        self.spans.push(*span);
    }

    fn series_tick(&mut self, slot: u64) {
        if let Some(series) = self.series.as_mut() {
            series.tick(slot, &self.registry, self.ring.dropped());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_flat_object, parse_value};
    use crate::span::SpanTrack;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.event(0, &ObsEvent::Wake { node: 0 });
        r.counter_add("k", 1);
        r.gauge_set("g", 1.0);
        r.observe("h", 1);
        r.histogram_merge("m", &Histogram::default());
        r.span(&SpanRecord::instant(SpanTrack::Engine, "noop", 0));
        r.series_tick(0);
    }

    #[test]
    fn full_recorder_stores_events_and_metrics() {
        let mut r = FullRecorder::with_ring_capacity(2);
        assert!(r.enabled());
        r.event(0, &ObsEvent::Wake { node: 0 });
        r.event(1, &ObsEvent::Transmit { node: 0 });
        r.event(2, &ObsEvent::Done { node: 0 });
        assert_eq!(r.events_len(), 2, "ring bound holds");
        assert_eq!(r.events_dropped(), 1);
        assert_eq!(r.events_recorded(), 3);
        let newest: Vec<u64> = r.events().map(|(s, _)| *s).collect();
        assert_eq!(newest, vec![1, 2], "oldest event evicted first");

        r.counter_add("sim.slots", 3);
        r.observe("lat", 4);
        assert_eq!(r.registry().counter("sim.slots"), Some(3));
        assert_eq!(r.registry().histogram("lat").map(|h| h.count()), Some(1));
    }

    #[test]
    fn jsonl_export_is_one_parseable_line_per_event() {
        let mut r = FullRecorder::new();
        r.event(0, &ObsEvent::Wake { node: 3 });
        r.event(
            4,
            &ObsEvent::Phase {
                node: 3,
                from: "listen",
                to: "compete",
                level: 0,
            },
        );
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text, r.jsonl_string());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(parse_flat_object(line).is_some(), "line parses: {line}");
        }
    }

    #[test]
    fn metrics_json_has_schema_envelope() {
        let mut r = FullRecorder::new();
        r.counter_add("sim.slots", 7);
        let json = r.metrics_json();
        assert!(json.starts_with("{\"schema_version\":2,\"kind\":\"metrics\","));
        assert!(json.contains("\"sim.slots\":{\"type\":\"counter\",\"value\":7}"));
    }

    #[test]
    fn export_registry_carries_retention_bookkeeping() {
        let mut r = FullRecorder::with_ring_capacity(1);
        r.event(0, &ObsEvent::Wake { node: 0 });
        r.event(1, &ObsEvent::Done { node: 0 });
        r.span(&SpanRecord::instant(SpanTrack::Engine, "a", 0));
        let reg = r.export_registry();
        assert_eq!(reg.counter(crate::keys::OBS_EVENTS_RECORDED), Some(2));
        assert_eq!(reg.counter(crate::keys::OBS_EVENTS_DROPPED), Some(1));
        assert_eq!(reg.counter(crate::keys::OBS_SPANS_RECORDED), Some(1));
        assert_eq!(reg.counter(crate::keys::OBS_SPANS_DROPPED), Some(0));
        assert!(r.registry().get(crate::keys::OBS_EVENTS_DROPPED).is_none());
    }

    #[test]
    fn span_ring_bounds_and_trace_export() {
        let mut r = FullRecorder::with_ring_capacity(2);
        for i in 0..3u64 {
            r.span(&SpanRecord::complete(
                SpanTrack::Engine,
                "actions",
                i * 4,
                1,
            ));
        }
        assert_eq!(r.spans_len(), 2);
        assert_eq!(r.spans_dropped(), 1);
        assert_eq!(r.spans_recorded(), 3);
        let trace = r.trace_json();
        assert!(trace.contains("\"kind\":\"trace_events\""));
        assert!(trace.contains("\"spans\":{\"recorded\":3,\"dropped\":1}"));
        assert!(parse_value(&trace).is_some(), "trace parses as JSON");
    }

    #[test]
    fn series_tick_samples_through_the_recorder() {
        let mut r = FullRecorder::new();
        r.series_tick(0); // disabled: no-op
        assert!(r.series().is_none());
        r.enable_series(SeriesConfig::new(1).with_keys(vec!["sim.slots"]));
        for slot in 0..3u64 {
            r.counter_add("sim.slots", 1);
            r.series_tick(slot);
        }
        let series = r.series().expect("enabled");
        assert_eq!(series.slots(), &[0, 1, 2]);
        assert_eq!(series.column("sim.slots"), Some(&[1.0, 2.0, 3.0][..]));
        let doc = r.timeseries_json().expect("document");
        assert!(doc.starts_with("{\"schema_version\":2,\"kind\":\"timeseries\","));
    }
}
