//! Typed spans over engine/resolver/MW phases, exported as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Spans live in **slot-time**, like every other deterministic artifact in
//! this crate: positions and durations are quarter-slot ticks
//! ([`QUARTERS_PER_SLOT`] per slot), so one slot maps to one microsecond on
//! the trace timeline and the engine's three phases (`actions`, `resolve`,
//! `delivery`) render as adjacent sub-slot blocks. A slot-time trace is a
//! pure function of (graph, model, schedule, seed) — byte-identical across
//! thread counts (`tests/thread_determinism.rs` pins this).
//!
//! Wall-clock timing must never enter the deterministic path; bench
//! binaries may attach a [`WallSpan`] overlay, which renders as a separate
//! trace process (`pid` 1) so slot-time and wall-time never mix on one
//! timeline.

use crate::json::{push_f64, push_str_escaped};
use std::fmt::Write as _;

/// Quarter-slot ticks per slot: the span timebase subdivides each slot so
/// the engine's phases occupy disjoint intervals within it.
pub const QUARTERS_PER_SLOT: u64 = 4;

/// Well-known span names. Like metric keys these are part of the schema —
/// emitters use the constants, never string literals.
pub mod names {
    /// Engine phase: wake-up + protocol actions (first quarter of a slot).
    pub const ENGINE_ACTIONS: &str = "actions";
    /// Engine phase: SINR resolution (middle half of a slot).
    pub const ENGINE_RESOLVE: &str = "resolve";
    /// Engine phase: message delivery + done detection (last quarter).
    pub const ENGINE_DELIVERY: &str = "delivery";
    /// Resolver internals: certification failed, exact O(k²) fallback ran.
    pub const RESOLVER_EXACT_FALLBACK: &str = "exact_fallback";
}

/// Which trace track (Chrome `tid`) a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanTrack {
    /// The slot engine's phase track.
    Engine,
    /// The SINR resolver's internal track.
    Resolver,
    /// One MW node's phase-residency track.
    Node(u32),
}

impl SpanTrack {
    /// The Chrome trace `tid` for this track (engine 0, resolver 1,
    /// node *i* at `2 + i`).
    pub fn tid(self) -> u64 {
        match self {
            SpanTrack::Engine => 0,
            SpanTrack::Resolver => 1,
            SpanTrack::Node(i) => 2 + u64::from(i),
        }
    }

    /// The Chrome trace category for this track.
    pub fn cat(self) -> &'static str {
        match self {
            SpanTrack::Engine => "engine",
            SpanTrack::Resolver => "resolver",
            SpanTrack::Node(_) => "node",
        }
    }

    fn thread_name_into(self, out: &mut String) {
        match self {
            SpanTrack::Engine => out.push_str("engine"),
            SpanTrack::Resolver => out.push_str("resolver"),
            SpanTrack::Node(i) => {
                let _ = write!(out, "node {i}");
            }
        }
    }
}

/// One recorded span: a named interval (or instant, when `dur_q == 0`) on a
/// track, in quarter-slot ticks, with up to two integer arguments.
///
/// `Copy + Eq` like [`ObsEvent`](crate::ObsEvent), so spans sit in a
/// bounded [`Ring`](crate::Ring) allocation-free and compare exactly in
/// determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The track the span renders on.
    pub track: SpanTrack,
    /// Span name (one of [`names`], or an MW phase name for node tracks).
    pub name: &'static str,
    /// Start position in quarter-slot ticks (`slot * QUARTERS_PER_SLOT + offset`).
    pub start_q: u64,
    /// Duration in quarter-slot ticks; 0 renders as an instant event.
    pub dur_q: u64,
    /// Up to two named integer arguments carried into the trace.
    pub args: [Option<(&'static str, i64)>; 2],
}

impl SpanRecord {
    /// A complete span covering `[start_q, start_q + dur_q)`.
    pub fn complete(track: SpanTrack, name: &'static str, start_q: u64, dur_q: u64) -> Self {
        SpanRecord {
            track,
            name,
            start_q,
            dur_q,
            args: [None, None],
        }
    }

    /// An instant event at `at_q`.
    pub fn instant(track: SpanTrack, name: &'static str, at_q: u64) -> Self {
        Self::complete(track, name, at_q, 0)
    }

    /// Returns the span with one more named argument attached (at most two
    /// are kept; extras are ignored).
    pub fn with_arg(mut self, key: &'static str, value: i64) -> Self {
        for slot in &mut self.args {
            if slot.is_none() {
                *slot = Some((key, value));
                break;
            }
        }
        self
    }

    /// The slot this span starts in.
    pub fn slot(&self) -> u64 {
        self.start_q / QUARTERS_PER_SLOT
    }

    fn event_into(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_str_escaped(out, self.name);
        let _ = write!(out, ",\"cat\":\"{}\",", self.track.cat());
        if self.dur_q == 0 {
            out.push_str("\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            push_f64(out, ticks_to_us(self.start_q));
        } else {
            out.push_str("\"ph\":\"X\",\"ts\":");
            push_f64(out, ticks_to_us(self.start_q));
            out.push_str(",\"dur\":");
            push_f64(out, ticks_to_us(self.dur_q));
        }
        let _ = write!(
            out,
            ",\"pid\":0,\"tid\":{},\"args\":{{\"slot\":{}",
            self.track.tid(),
            self.slot()
        );
        for arg in self.args.iter().flatten() {
            out.push(',');
            push_str_escaped(out, arg.0);
            let _ = write!(out, ":{}", arg.1);
        }
        out.push_str("}}");
    }
}

/// A wall-clock span for the optional bench overlay (trace process 1).
/// Never recorded in the deterministic path — bench binaries construct
/// these from [`Stopwatch`](crate::Stopwatch) readings.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSpan {
    /// Span label.
    pub name: String,
    /// Start offset in microseconds from the overlay's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

fn ticks_to_us(q: u64) -> f64 {
    q as f64 / QUARTERS_PER_SLOT as f64
}

/// Renders spans as one Chrome trace-event JSON document (schema kind
/// `trace_events`, see `docs/OBS_SCHEMA.md`).
///
/// The document carries the standard `traceEvents` array (metadata rows
/// naming each process/track, then the span events in recording order)
/// plus a `spans` accounting object mirroring the ring bookkeeping —
/// `recorded` vs `dropped` makes truncation visible in the artifact
/// itself. Perfetto ignores the extra top-level keys.
pub fn chrome_trace_json(
    spans: &[SpanRecord],
    recorded: u64,
    dropped: u64,
    wall: &[WallSpan],
) -> String {
    let mut out = String::from("{\"schema_version\":");
    let _ = write!(out, "{}", crate::OBS_SCHEMA_VERSION);
    let _ = write!(
        out,
        ",\"kind\":\"trace_events\",\"displayTimeUnit\":\"ns\",\
         \"spans\":{{\"recorded\":{recorded},\"dropped\":{dropped}}},\
         \"traceEvents\":["
    );

    let mut first = true;
    let mut meta = |out: &mut String, pid: u64, tid: Option<u64>, what: &str, name: &str| {
        if !core::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid}");
        if let Some(tid) = tid {
            let _ = write!(out, ",\"tid\":{tid}");
        }
        out.push_str(",\"args\":{\"name\":");
        push_str_escaped(out, name);
        out.push_str("}}");
    };

    meta(&mut out, 0, None, "process_name", "slot-time");
    let mut tracks: Vec<SpanTrack> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut name_buf = String::new();
    for track in &tracks {
        name_buf.clear();
        track.thread_name_into(&mut name_buf);
        meta(&mut out, 0, Some(track.tid()), "thread_name", &name_buf);
    }
    if !wall.is_empty() {
        meta(&mut out, 1, None, "process_name", "wall-clock");
        meta(&mut out, 1, Some(0), "thread_name", "bench");
    }

    for span in spans {
        if !core::mem::take(&mut first) {
            out.push(',');
        }
        span.event_into(&mut out);
    }
    for w in wall {
        if !core::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str_escaped(&mut out, &w.name);
        out.push_str(",\"cat\":\"wall\",\"ph\":\"X\",\"ts\":");
        push_f64(&mut out, w.start_us);
        out.push_str(",\"dur\":");
        push_f64(&mut out, w.dur_us);
        out.push_str(",\"pid\":1,\"tid\":0,\"args\":{}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_value, Json};

    #[test]
    fn track_tids_are_disjoint_and_stable() {
        assert_eq!(SpanTrack::Engine.tid(), 0);
        assert_eq!(SpanTrack::Resolver.tid(), 1);
        assert_eq!(SpanTrack::Node(0).tid(), 2);
        assert_eq!(SpanTrack::Node(7).tid(), 9);
    }

    #[test]
    fn with_arg_keeps_at_most_two() {
        let s = SpanRecord::complete(SpanTrack::Engine, names::ENGINE_ACTIONS, 0, 1)
            .with_arg("a", 1)
            .with_arg("b", 2)
            .with_arg("c", 3);
        assert_eq!(s.args, [Some(("a", 1)), Some(("b", 2))]);
    }

    #[test]
    fn trace_document_is_valid_nested_json_with_metadata_rows() {
        let spans = [
            SpanRecord::complete(SpanTrack::Engine, names::ENGINE_ACTIONS, 0, 1).with_arg("tx", 3),
            SpanRecord::complete(SpanTrack::Engine, names::ENGINE_RESOLVE, 1, 2),
            SpanRecord::instant(SpanTrack::Resolver, names::RESOLVER_EXACT_FALLBACK, 1),
            SpanRecord::complete(SpanTrack::Node(4), "listen", 0, 8),
        ];
        let doc = chrome_trace_json(&spans, 4, 0, &[]);
        let v = parse_value(&doc).expect("trace document parses as JSON");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("trace_events"));
        let events = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 1 process_name + 3 distinct tracks + 4 spans.
        assert_eq!(events.len(), 8);
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 4);
        let complete = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("actions"))
            .expect("actions span present");
        assert_eq!(complete.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            complete
                .get("args")
                .and_then(|a| a.get("tx"))
                .and_then(Json::as_i64),
            Some(3)
        );
        let instant = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("exact_fallback"))
            .expect("instant span present");
        assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));
        assert!(instant.get("dur").is_none());
    }

    #[test]
    fn quarter_slot_timestamps_render_deterministically() {
        let spans = [SpanRecord::complete(
            SpanTrack::Engine,
            names::ENGINE_RESOLVE,
            5,
            2,
        )];
        let doc = chrome_trace_json(&spans, 1, 0, &[]);
        assert!(doc.contains("\"ts\":1.25,\"dur\":0.5"), "doc: {doc}");
    }

    #[test]
    fn wall_overlay_renders_as_second_process() {
        let wall = [WallSpan {
            name: "run".into(),
            start_us: 0.0,
            dur_us: 1234.5,
        }];
        let doc = chrome_trace_json(&[], 0, 0, &wall);
        assert!(doc.contains("\"name\":\"wall-clock\""));
        assert!(doc.contains("\"pid\":1,\"tid\":0"));
        let v = parse_value(&doc).expect("parses");
        // slot-time process_name + wall process_name + wall thread_name + span.
        assert_eq!(
            v.get("traceEvents")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(4)
        );
    }

    #[test]
    fn truncation_accounting_is_in_the_document() {
        let doc = chrome_trace_json(&[], 100, 37, &[]);
        assert!(doc.contains("\"spans\":{\"recorded\":100,\"dropped\":37}"));
    }
}
