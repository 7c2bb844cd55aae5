//! Measurement from outside the library, by timing calls into the
//! workspace crates' public functions.
//!
//! * [`Windows`] times the repeated, untraced calls the end-to-end
//!   metrics come from, in host-corrected time ([`host_slowdown`]).
//! * [`Tracer`] times one traced call layer by layer: [`Timed`] wraps the
//!   interference model and times every resolve call the slot engine makes
//!   (the `sinr` layer); a slot observer, or [`Clocked`] around the
//!   recorder on the recorded path, timestamps the end of every slot and
//!   snapshots the allocation counters (the `radiosim` layer); set-up
//!   stages and `mac`/`obs` calls get coarse spans. Everything stays in
//!   preallocated memory while the call runs and is written out as a
//!   Chrome trace at the end.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sinr_geometry::{NodeId, UnitDiskGraph};
use sinr_model::{InterferenceModel, ReceptionTable, ResolverStats, TxDelta};
use sinr_obs::span::{chrome_trace_json, WallSpan};
use sinr_obs::{alloc, Histogram, ObsEvent, Recorder, SpanRecord};

/// Slots per timing window of [`Windows`].
const WINDOW_SLOTS: u32 = 64;
/// Wall time between two host probes inside a timed call.
const PROBE_EVERY_NS: u64 = 1_000_000;
/// The probe's time on the calibration host when no other tenant slowed
/// its core: the 2nd percentile of the probes in one run of each workload
/// was 434–443 ns on every workload, their medians 456–613 ns.
const PROBE_QUIET_NS: f64 = 440.0;
/// Cap on one probe's slowdown. An interrupt or a descheduling that lands
/// in a probe stretches it far past any slowdown of the core itself (one
/// probe in an earlier series of 123k took 1.3 ms).
const PROBE_CAP: f64 = 3.0;
/// Per-slot spans are thinned to keep the trace file near this many events.
const TRACE_EVENT_BUDGET: usize = 19_000;

/// Nanoseconds from `origin` to `t`.
fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// How many times slower than uncontended the host runs this thread right
/// now: the wall time of [`probe_work`] over [`PROBE_QUIET_NS`], capped at
/// [`PROBE_CAP`].
///
/// Other tenants of a shared machine slow this benchmark's core for
/// seconds to minutes at a time (a busy sibling hyperthread, a lower
/// clock), by up to 1.6 times; those slowdowns stretch the probe as they
/// stretch the benchmarked code, so dividing a wall time by the slowdown
/// measured alongside it gives the time it would have taken on the quiet
/// host. The probe touches no memory, so it leaves the code's caches
/// alone, and no code in the repository can change its speed: an untimed
/// first pass brings the probe's own code and stack back into the caches
/// the benchmarked code may have evicted them from, and only the second
/// pass is timed.
pub fn host_slowdown() -> f64 {
    probe_work();
    let start = Instant::now();
    probe_work();
    (ns_since(start, Instant::now()) as f64 / PROBE_QUIET_NS).min(PROBE_CAP)
}

/// A fixed piece of integer work that keeps the core's multiplier busy:
/// eight independent shift-xor-multiply chains of 150 steps, about half a
/// microsecond. This exact shape compiles to scalar `imul` on x86-64 (the
/// array stays in registers); other shapes of the same loop were
/// vectorized into an emulated 64-bit multiply that took twice as long and
/// was not the probe [`PROBE_QUIET_NS`] was measured with.
#[inline(never)]
fn probe_work() -> u64 {
    let mut x = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..150 {
        for v in x.iter_mut() {
            *v = (*v ^ (*v >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
    }
    black_box(x.iter().fold(0, |a, b| a ^ b))
}

/// Time of repeated identical calls, cut into consecutive windows of
/// [`WINDOW_SLOTS`] slots; the last window runs to the end of the call.
///
/// Every millisecond of a call the host is probed ([`host_slowdown`]; the
/// probe's own time is left out of the window), and each window's wall
/// time is divided by the mean slowdown of the probes inside it (or of the
/// latest window that had one). What the correction leaves, short
/// stalls, only ever slows a window down, so each window's minimum over
/// the repetitions estimates its cost on the quiet host, and the sum of
/// those minima the call's. The calls are deterministic, so window `i`
/// does the same work in every repetition.
#[derive(Debug)]
pub struct Windows {
    last: Instant,
    last_probe: Instant,
    in_window: u32,
    /// Sum and count of the open window's probe slowdowns.
    probe_sum: f64,
    probes: u32,
    /// Slowdown of the latest window that had a probe.
    slowdown: f64,
    /// The open call's windows: wall nanoseconds and slowdown.
    current: Vec<(u64, f64)>,
    /// Per window, the least host-corrected and the least wall nanoseconds
    /// over the calls so far.
    minima: Vec<(f64, u64)>,
    /// Wall and host-corrected nanoseconds of all finished calls.
    wall_ns: f64,
    host_ns: f64,
}

impl Windows {
    pub fn new() -> Self {
        let now = Instant::now();
        Windows {
            last: now,
            last_probe: now,
            in_window: 0,
            probe_sum: 0.0,
            probes: 0,
            slowdown: 1.0,
            current: Vec::new(),
            minima: Vec::new(),
            wall_ns: 0.0,
            host_ns: 0.0,
        }
    }

    /// Starts a call.
    pub fn start(&mut self) {
        self.current.clear();
        self.in_window = 0;
        (self.probe_sum, self.probes) = (0.0, 0);
        self.slowdown = host_slowdown();
        self.last = Instant::now();
        self.last_probe = self.last;
    }

    /// Marks the end of a slot (call from the slot observer).
    pub fn slot(&mut self) {
        let now = Instant::now();
        if ns_since(self.last_probe, now) >= PROBE_EVERY_NS {
            self.probe_sum += host_slowdown();
            self.probes += 1;
            let after = Instant::now();
            self.last += after.duration_since(now);
            self.last_probe = after;
        }
        self.in_window += 1;
        if self.in_window == WINDOW_SLOTS {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let now = Instant::now();
        if self.probes > 0 {
            self.slowdown = self.probe_sum / f64::from(self.probes);
            (self.probe_sum, self.probes) = (0.0, 0);
        }
        self.current.push((ns_since(self.last, now), self.slowdown));
        self.last = now;
        self.in_window = 0;
    }

    /// Ends the call and returns its wall time in seconds.
    pub fn finish(&mut self) -> f64 {
        self.close_window();
        fold_minima(&mut self.minima, &self.current);
        let wall: u64 = self.current.iter().map(|&(ns, _)| ns).sum();
        self.wall_ns += wall as f64;
        self.host_ns += self
            .current
            .iter()
            .map(|&(ns, s)| ns as f64 / s)
            .sum::<f64>();
        secs(wall)
    }

    /// Sum of the per-window minima of host-corrected time over the calls
    /// so far, in seconds: the call's time on the quiet host.
    pub fn floor_s(&self) -> f64 {
        self.minima.iter().map(|&(host, _)| host).sum::<f64>() * 1e-9
    }

    /// Sum of the per-window minima of wall time, in seconds.
    pub fn wall_floor_s(&self) -> f64 {
        secs(self.minima.iter().map(|&(_, wall)| wall).sum())
    }

    /// Wall time over host-corrected time of all finished calls: the mean
    /// slowdown the host imposed on them.
    pub fn mean_slowdown(&self) -> f64 {
        self.wall_ns / self.host_ns
    }
}

/// Lowers each of `minima` to the matching window of `call`, host-corrected
/// and wall (the first call sets them).
fn fold_minima(minima: &mut Vec<(f64, u64)>, call: &[(u64, f64)]) {
    if minima.is_empty() {
        minima.extend(call.iter().map(|&(ns, s)| (ns as f64 / s, ns)));
    }
    for (m, &(ns, s)) in minima.iter_mut().zip(call) {
        *m = (m.0.min(ns as f64 / s), m.1.min(ns));
    }
}

/// One resolve call: start offset, duration, transmitter count.
#[derive(Debug, Clone, Copy)]
struct Call {
    start_ns: u64,
    dur_ns: u64,
    tx: usize,
}

/// The end of one slot: offset and the thread's allocation count so far.
#[derive(Debug, Clone, Copy)]
struct Tick {
    at_ns: u64,
    allocs: u64,
}

/// A coarse span on the trace timeline.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Times every resolve call of the wrapped model into a borrowed log.
pub struct Timed<'a, M> {
    inner: M,
    calls: &'a RefCell<Vec<Call>>,
    origin: Instant,
}

impl<M: InterferenceModel> Timed<'_, M> {
    fn timed<T>(&self, tx: usize, f: impl FnOnce(&M) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let end = Instant::now();
        self.calls.borrow_mut().push(Call {
            start_ns: ns_since(self.origin, start),
            dur_ns: ns_since(start, end),
            tx,
        });
        out
    }
}

impl<M: InterferenceModel> InterferenceModel for Timed<'_, M> {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        self.timed(transmitting.len(), |m| m.resolve(g, transmitting))
    }

    fn resolve_delta(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
    ) -> ReceptionTable {
        self.timed(transmitting.len(), |m| {
            m.resolve_delta(g, transmitting, delta)
        })
    }

    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        self.timed(transmitting.len(), |m| {
            m.resolve_delta_into(g, transmitting, delta, out)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        self.inner.resolver_stats()
    }
}

/// Forwards everything to the wrapped recorder and calls `tick` on
/// `series_tick`, which the engine calls once at the end of every slot.
pub struct Clocked<'a, R> {
    inner: &'a mut R,
    tick: &'a mut dyn FnMut(),
}

impl<'a, R: Recorder> Clocked<'a, R> {
    pub fn new(inner: &'a mut R, tick: &'a mut dyn FnMut()) -> Self {
        Clocked { inner, tick }
    }
}

impl<R: Recorder> Recorder for Clocked<'_, R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn event(&mut self, slot: u64, event: &ObsEvent) {
        self.inner.event(slot, event);
    }

    fn counter_add(&mut self, key: &'static str, delta: u64) {
        self.inner.counter_add(key, delta);
    }

    fn gauge_set(&mut self, key: &'static str, value: f64) {
        self.inner.gauge_set(key, value);
    }

    fn observe(&mut self, key: &'static str, value: u64) {
        self.inner.observe(key, value);
    }

    fn histogram_merge(&mut self, key: &'static str, hist: &Histogram) {
        self.inner.histogram_merge(key, hist);
    }

    fn span(&mut self, span: &SpanRecord) {
        self.inner.span(span);
    }

    fn series_tick(&mut self, slot: u64) {
        self.inner.series_tick(slot);
        (self.tick)();
    }
}

/// The coloring call's layers, derived from the traced call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringLayers {
    /// Time inside resolve calls.
    pub resolve_s: f64,
    pub resolve_us_p50: f64,
    pub resolve_us_p99: f64,
    pub calls: u64,
    pub tx_per_call: f64,
    /// Sum of slot durations, slot 1 onwards (from outside, slot 0 cannot
    /// be told apart from the simulator build).
    pub step_s: f64,
    pub step_us_p50: f64,
    pub step_us_p99: f64,
    /// `step_s` minus the resolve time inside those slots.
    pub self_s: f64,
    /// The rest of the call: simulator build, slot 0 outside its resolve
    /// call, and outcome packaging.
    pub build_s: f64,
    /// Allocations from the call's start through the end of slot 0.
    pub setup_allocs: u64,
    /// Allocations in the final quarter of the slots.
    pub steady_allocs: u64,
}

/// Nearest-rank percentile of an ascending slice, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ns.len() as f64).ceil().max(1.0) as usize;
    sorted_ns[rank.min(sorted_ns.len()) - 1] as f64 * 1e-3
}

/// Spans, resolve calls and slot ticks of one traced call.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    calls: RefCell<Vec<Call>>,
    ticks: Vec<Tick>,
    /// Start and end offsets of the coloring call, and the allocation
    /// count at its start.
    coloring: (u64, u64, u64),
}

impl Tracer {
    /// A tracer whose per-slot buffers hold `slots` entries without
    /// growing (an allocation here would show up as engine traffic).
    pub fn new(origin: Instant, slots: usize) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(128),
            calls: RefCell::new(Vec::with_capacity(slots + 1)),
            ticks: Vec::with_capacity(slots + 1),
            coloring: (0, 0, 0),
        }
    }

    /// Records the span `[start, end)` and returns its length in seconds.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) -> f64 {
        let dur_ns = ns_since(start, end);
        self.spans.push(Span {
            name,
            start_ns: ns_since(self.origin, start),
            dur_ns,
        });
        secs(dur_ns)
    }

    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now());
        out
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        secs(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .sum(),
        )
    }

    /// Runs the coloring call `f`, handing it the [`SlotHooks`] that time
    /// its model and mark the end of each of its slots.
    pub fn coloring<T>(&mut self, f: impl FnOnce(&mut SlotHooks<'_>) -> T) -> T {
        let allocs = alloc::snapshot().allocs;
        let start = Instant::now();
        let out = f(&mut SlotHooks {
            calls: &self.calls,
            ticks: &mut self.ticks,
            origin: self.origin,
        });
        let end = Instant::now();
        self.coloring = (
            ns_since(self.origin, start),
            ns_since(self.origin, end),
            allocs,
        );
        self.span("radiosim.coloring", start, end);
        out
    }

    /// Splits the coloring call into its layers.
    pub fn coloring_layers(&self) -> ColoringLayers {
        let (start, end, allocs_at_start) = self.coloring;
        let wall = end - start;
        let calls = self.calls.borrow();
        let ticks = &self.ticks;
        let Some(first) = ticks.first() else {
            return ColoringLayers {
                build_s: secs(wall),
                ..ColoringLayers::default()
            };
        };

        let mut resolve_ns: Vec<u64> = calls.iter().map(|c| c.dur_ns).collect();
        let resolve_total: u64 = resolve_ns.iter().sum();
        let resolve_in_steps: u64 = calls
            .iter()
            .filter(|c| c.start_ns >= first.at_ns)
            .map(|c| c.dur_ns)
            .sum();
        resolve_ns.sort_unstable();
        let mut step_ns: Vec<u64> = ticks.windows(2).map(|w| w[1].at_ns - w[0].at_ns).collect();
        let step_total: u64 = step_ns.iter().sum();
        step_ns.sort_unstable();

        let per_slot_allocs: Vec<u64> = ticks
            .windows(2)
            .map(|w| w[1].allocs - w[0].allocs)
            .collect();
        let steady_from = per_slot_allocs.len().saturating_sub(ticks.len() / 4);
        let tx: usize = calls.iter().map(|c| c.tx).sum();

        ColoringLayers {
            resolve_s: secs(resolve_total),
            resolve_us_p50: percentile_us(&resolve_ns, 0.50),
            resolve_us_p99: percentile_us(&resolve_ns, 0.99),
            calls: calls.len() as u64,
            tx_per_call: tx as f64 / calls.len().max(1) as f64,
            step_s: secs(step_total),
            step_us_p50: percentile_us(&step_ns, 0.50),
            step_us_p99: percentile_us(&step_ns, 0.99),
            self_s: secs(step_total - resolve_in_steps),
            build_s: secs(wall.saturating_sub(step_total + resolve_total - resolve_in_steps)),
            setup_allocs: first.allocs - allocs_at_start,
            steady_allocs: per_slot_allocs[steady_from..].iter().sum(),
        }
    }

    /// Writes every coarse span plus every k-th slot (and its resolve
    /// call) as a Chrome trace, with k chosen to stay near
    /// [`TRACE_EVENT_BUDGET`] events.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let us = |ns: u64| ns as f64 * 1e-3;
        let mut wall: Vec<WallSpan> = self
            .spans
            .iter()
            .map(|s| WallSpan {
                name: s.name.to_string(),
                start_us: us(s.start_ns),
                dur_us: us(s.dur_ns),
            })
            .collect();
        let calls = self.calls.borrow();
        let slots = self.ticks.len();
        let stride = (2 * slots).div_ceil(TRACE_EVENT_BUDGET).max(1);
        for slot in (1..slots).step_by(stride) {
            let (prev, cur) = (self.ticks[slot - 1].at_ns, self.ticks[slot].at_ns);
            wall.push(WallSpan {
                name: format!("slot {slot}"),
                start_us: us(prev),
                dur_us: us(cur - prev),
            });
            // The engine resolves exactly once per slot.
            if let Some(c) = calls.get(slot) {
                wall.push(WallSpan {
                    name: format!("resolve tx={}", c.tx),
                    start_us: us(c.start_ns),
                    dur_us: us(c.dur_ns),
                });
            }
        }
        wall.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        std::fs::write(path, chrome_trace_json(&[], 0, 0, &wall))
    }
}

/// The per-slot hooks of a traced coloring call.
pub struct SlotHooks<'a> {
    calls: &'a RefCell<Vec<Call>>,
    ticks: &'a mut Vec<Tick>,
    origin: Instant,
}

impl<'a> SlotHooks<'a> {
    /// Wraps `model` so its resolve calls are timed into this call's log.
    pub fn timed<M: InterferenceModel>(&self, model: M) -> Timed<'a, M> {
        Timed {
            inner: model,
            calls: self.calls,
            origin: self.origin,
        }
    }

    /// Marks the end of a slot (call from the slot observer).
    pub fn tick(&mut self) {
        self.ticks.push(Tick {
            at_ns: ns_since(self.origin, Instant::now()),
            allocs: alloc::snapshot().allocs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(percentile_us(&v, 0.50), 50.0);
        assert_eq!(percentile_us(&v, 0.99), 99.0);
        assert_eq!(percentile_us(&v[..1], 0.99), 1.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_keep_each_windows_minimum() {
        let mut minima = Vec::new();
        fold_minima(&mut minima, &[(5, 1.0), (1, 1.0), (6, 2.0)]);
        fold_minima(&mut minima, &[(2, 1.0), (3, 1.0), (4, 1.0)]);
        assert_eq!(minima, [(2.0, 2), (1.0, 1), (3.0, 4)]);

        let mut w = Windows::new();
        for _ in 0..2 {
            w.start();
            for _ in 0..2 * WINDOW_SLOTS {
                w.slot();
            }
            let wall = w.finish();
            assert_eq!(w.current.len(), 3, "two full windows and the tail");
            assert!(w.wall_floor_s() <= wall);
            assert!(w.floor_s() > 0.0 && w.mean_slowdown() > 0.0);
        }
    }

    #[test]
    fn host_slowdown_is_positive_and_capped() {
        for _ in 0..100 {
            let s = host_slowdown();
            assert!(s > 0.0 && s <= PROBE_CAP, "{s}");
        }
    }
}
