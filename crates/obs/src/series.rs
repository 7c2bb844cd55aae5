//! Per-slot time-series sampling of selected counters and gauges.
//!
//! The metrics [`Registry`] answers "how much, in total";
//! the event ring answers "what happened, lately". This module answers
//! *when the run's behavior changed shape*: a [`TimeSeries`] takes a
//! bounded number of periodic snapshots of a fixed key set while the run
//! executes, and exports them as the columnar `timeseries` document
//! (schema in `docs/OBS_SCHEMA.md`).
//!
//! Sampling is slot-time only — the engine drives it through
//! [`Recorder::series_tick`](crate::Recorder::series_tick) once per slot —
//! so a series from a recorded run is deterministic and byte-identical
//! across thread counts, like every other artifact in this crate.

use crate::json::push_f64;
use crate::keys;
use crate::metrics::{MetricValue, Registry};
use std::fmt::Write as _;

/// Default cap on retained samples; at stride 1 this covers the longest
/// runs the default slot caps produce without unbounded growth.
pub const DEFAULT_MAX_SAMPLES: usize = 16_384;

/// The default key set: per-slot channel occupancy plus the MW churn and
/// probe counters whose *trajectory* (not just total) is diagnostic.
pub fn default_keys() -> Vec<&'static str> {
    vec![
        keys::SIM_SLOT_TRANSMITTERS,
        keys::MW_PHASE_TRANSITIONS,
        keys::MW_COUNTER_RESETS,
        keys::PROBE_THM1_VIOLATIONS,
        keys::OBS_EVENTS_DROPPED,
    ]
}

/// Configuration for a [`TimeSeries`]: sampling stride (in slots), sample
/// cap, and the sampled key set.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesConfig {
    /// Sample every `stride`-th slot (clamped to ≥ 1).
    pub stride: u64,
    /// Retain at most this many samples; later ticks are dropped (and
    /// counted) rather than evicting history, so the series keeps the
    /// *start* of the run where phase structure lives.
    pub max_samples: usize,
    /// Keys to sample; sorted and deduplicated at construction.
    pub keys: Vec<&'static str>,
}

impl SeriesConfig {
    /// The default configuration at the given stride.
    pub fn new(stride: u64) -> Self {
        SeriesConfig {
            stride: stride.max(1),
            max_samples: DEFAULT_MAX_SAMPLES,
            keys: default_keys(),
        }
    }

    /// Replaces the sampled key set.
    pub fn with_keys(mut self, keys: Vec<&'static str>) -> Self {
        self.keys = keys;
        self
    }

    /// Replaces the sample cap.
    pub fn with_max_samples(mut self, max_samples: usize) -> Self {
        self.max_samples = max_samples;
        self
    }
}

impl Default for SeriesConfig {
    fn default() -> Self {
        Self::new(1)
    }
}

/// A bounded columnar time-series: one row per sampled slot, one column
/// per configured key.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    stride: u64,
    max_samples: usize,
    keys: Vec<&'static str>,
    slots: Vec<u64>,
    columns: Vec<Vec<f64>>,
    dropped_ticks: u64,
}

impl TimeSeries {
    /// An empty series with the given configuration.
    pub fn new(cfg: SeriesConfig) -> Self {
        let mut keys = cfg.keys;
        keys.sort_unstable();
        keys.dedup();
        let columns = keys.iter().map(|_| Vec::new()).collect();
        TimeSeries {
            stride: cfg.stride.max(1),
            max_samples: cfg.max_samples,
            keys,
            slots: Vec::new(),
            columns,
            dropped_ticks: 0,
        }
    }

    /// Offers slot `slot` for sampling. Off-stride slots are ignored;
    /// on-stride slots beyond the cap are dropped and counted.
    /// `events_dropped` feeds the virtual `obs.events.dropped` column
    /// (ring bookkeeping lives outside the registry during the run).
    pub fn tick(&mut self, slot: u64, registry: &Registry, events_dropped: u64) {
        if !slot.is_multiple_of(self.stride) {
            return;
        }
        if self.slots.len() >= self.max_samples {
            self.dropped_ticks += 1;
            return;
        }
        self.slots.push(slot);
        for (key, column) in self.keys.iter().zip(&mut self.columns) {
            let value = if *key == keys::OBS_EVENTS_DROPPED {
                events_dropped as f64
            } else {
                match registry.get(key) {
                    Some(MetricValue::Counter(c)) => *c as f64,
                    Some(MetricValue::Gauge(g)) => *g,
                    Some(MetricValue::Histogram(h)) => h.count() as f64,
                    None => 0.0,
                }
            };
            column.push(value);
        }
    }

    /// The sampled keys (column order).
    pub fn keys(&self) -> &[&'static str] {
        &self.keys
    }

    /// The sampled slots (row labels).
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// The column for `key`, if it is sampled.
    pub fn column(&self, key: &str) -> Option<&[f64]> {
        let idx = self.keys.iter().position(|k| *k == key)?;
        self.columns.get(idx).map(Vec::as_slice)
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// On-stride ticks dropped because the cap was reached.
    pub fn dropped_ticks(&self) -> u64 {
        self.dropped_ticks
    }

    /// The sampling stride.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The series as one standalone JSON document (schema kind
    /// `timeseries`, see `docs/OBS_SCHEMA.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"kind\":\"timeseries\",\"stride\":{},\
             \"samples\":{{\"recorded\":{},\"dropped\":{},\"capacity\":{}}},\"slots\":[",
            crate::OBS_SCHEMA_VERSION,
            self.stride,
            self.slots.len(),
            self.dropped_ticks,
            self.max_samples
        );
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{slot}");
        }
        out.push_str("],\"series\":{");
        for (i, (key, column)) in self.keys.iter().zip(&self.columns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::push_str_escaped(&mut out, key);
            out.push_str(":[");
            for (j, v) in column.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_f64(&mut out, *v);
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_value, Json};

    #[test]
    fn stride_and_cap_are_honoured() {
        let cfg = SeriesConfig::new(2)
            .with_keys(vec!["a"])
            .with_max_samples(3);
        let mut ts = TimeSeries::new(cfg);
        let mut reg = Registry::new();
        for slot in 0..12 {
            reg.counter_add("a", 1);
            ts.tick(slot, &reg, 0);
        }
        // On-stride slots: 0,2,4,6,8,10 → first 3 kept, 3 dropped.
        assert_eq!(ts.slots(), &[0, 2, 4]);
        assert_eq!(ts.column("a"), Some(&[1.0, 3.0, 5.0][..]));
        assert_eq!(ts.dropped_ticks(), 3);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn keys_are_sorted_deduped_and_missing_keys_read_zero() {
        let cfg = SeriesConfig::new(1).with_keys(vec!["z.key", "a.key", "z.key"]);
        let mut ts = TimeSeries::new(cfg);
        assert_eq!(ts.keys(), &["a.key", "z.key"]);
        let reg = Registry::new();
        ts.tick(0, &reg, 0);
        assert_eq!(ts.column("a.key"), Some(&[0.0][..]));
        assert!(ts.column("missing").is_none());
    }

    #[test]
    fn events_dropped_column_reads_the_ring_bookkeeping() {
        let cfg = SeriesConfig::new(1).with_keys(vec![keys::OBS_EVENTS_DROPPED]);
        let mut ts = TimeSeries::new(cfg);
        let reg = Registry::new();
        ts.tick(0, &reg, 0);
        ts.tick(1, &reg, 42);
        assert_eq!(ts.column(keys::OBS_EVENTS_DROPPED), Some(&[0.0, 42.0][..]));
    }

    #[test]
    fn json_document_is_columnar_and_parseable() {
        let cfg = SeriesConfig::new(1)
            .with_keys(vec!["b", "a"])
            .with_max_samples(2);
        let mut ts = TimeSeries::new(cfg);
        let mut reg = Registry::new();
        reg.gauge_set("a", 0.5);
        reg.counter_add("b", 2);
        ts.tick(0, &reg, 0);
        reg.gauge_set("a", 1.5);
        ts.tick(1, &reg, 0);
        ts.tick(2, &reg, 0); // dropped (cap 2)
        let doc = ts.to_json();
        let v = parse_value(&doc).expect("series document parses");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("timeseries"));
        assert_eq!(v.get("stride").and_then(Json::as_i64), Some(1));
        let samples = v.get("samples").expect("samples");
        assert_eq!(samples.get("recorded").and_then(Json::as_i64), Some(2));
        assert_eq!(samples.get("dropped").and_then(Json::as_i64), Some(1));
        assert_eq!(
            v.get("slots").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        let series = v.get("series").expect("series");
        assert!(series.get("a").is_some());
        assert!(series.get("b").is_some());
    }

    #[test]
    fn zero_stride_is_clamped_not_a_panic() {
        let mut ts = TimeSeries::new(SeriesConfig::new(0).with_keys(vec!["a"]));
        assert_eq!(ts.stride(), 1);
        ts.tick(0, &Registry::new(), 0);
        assert_eq!(ts.len(), 1);
    }
}
