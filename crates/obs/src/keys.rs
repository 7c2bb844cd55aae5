//! Canonical metric key names.
//!
//! Keys are dotted, lowercase, and stable — they are part of the report
//! schema in `docs/OBS_SCHEMA.md`. Every crate that records through a
//! [`Recorder`](crate::Recorder) uses these constants rather than string
//! literals so the full vocabulary is auditable in one place:
//!
//! * `sim.*` — engine-level totals (slots, transmissions, channel load),
//!   and `sim.work.*`, the engine's deterministic work ledger.
//! * `resolver.*` — fast-path counters of the grid-tiled SINR resolver.
//! * `mw.*` — MW coloring automaton aggregates (phase residency,
//!   transitions, levels).
//! * `probe.<claim>.*` — invariant probes; `checks` counts sweeps,
//!   `violations` counts observed breaches of the paper claim.
//! * `obs.*` — the recorder's own bookkeeping (ring/span retention), so
//!   truncation is visible inside the exported artifacts themselves.

/// Total slots executed.
pub const SIM_SLOTS: &str = "sim.slots";
/// Transmitters in the most recent slot (live per-slot gauge, the
/// canonical time-series channel-occupancy signal).
pub const SIM_SLOT_TRANSMITTERS: &str = "sim.slot.transmitters";
/// Total transmissions across all nodes and slots.
pub const SIM_TRANSMISSIONS: &str = "sim.transmissions";
/// Total successful receptions across all nodes and slots.
pub const SIM_RECEPTIONS: &str = "sim.receptions";
/// Nodes that had decided when the run stopped.
pub const SIM_DONE_NODES: &str = "sim.done_nodes";
/// Histogram of concurrent transmitters per slot.
pub const SIM_CHANNEL_LOAD: &str = "sim.channel_load";

/// Engine work ledger: nodes the slot passes visited (set bits the
/// action and delivery passes walked, plus due-calendar entries examined).
pub const SIM_WORK_VISITS: &str = "sim.work.visits";
/// Engine work ledger: `Protocol::begin_slot` calls.
pub const SIM_WORK_BEGIN_SLOTS: &str = "sim.work.begin_slots";
/// Engine work ledger: `Protocol::end_slot` calls.
pub const SIM_WORK_END_SLOTS: &str = "sim.work.end_slots";
/// Engine work ledger: nodes parked on a quiet promise.
pub const SIM_WORK_PARKS: &str = "sim.work.parks";
/// Engine work ledger: coins parked nodes drew ahead.
pub const SIM_WORK_COINS_AHEAD: &str = "sim.work.coins_ahead";
/// Engine work ledger: coins replayed on a real generator when a parked
/// node caught up before its drawn-ahead slot.
pub const SIM_WORK_COINS_REPLAYED: &str = "sim.work.coins_replayed";
/// Engine work ledger: receptions that left their receiver parked (it
/// heeded none of its slot's receptions).
pub const SIM_WORK_RX_LEFT_PARKED: &str = "sim.work.rx_left_parked";

/// Resolver slots fully served by certified grid bounds.
pub const RESOLVER_FAST_PATH_HITS: &str = "resolver.fast_path_hits";
/// Resolver slots that fell back to the exact O(k²) path.
pub const RESOLVER_EXACT_FALLBACKS: &str = "resolver.exact_fallbacks";
/// Grid cells scanned by the resolver's far-field accumulation.
pub const RESOLVER_CELLS_SCANNED: &str = "resolver.cells_scanned";
/// Fraction of resolver decisions served by the fast path.
pub const RESOLVER_HIT_RATE: &str = "resolver.hit_rate";
/// Transmitters inserted into the resolver's grid: the sum of the
/// transmitter counts of the slots it bounds.
pub const RESOLVER_DELTA_STARTED: &str = "resolver.delta.started";
/// Members cleared from the resolver's grid before each refill.
pub const RESOLVER_DELTA_STOPPED: &str = "resolver.delta.stopped";

/// MW protocol state transitions observed (any kind → any kind).
pub const MW_PHASE_TRANSITIONS: &str = "mw.phase_transitions";
/// Competition-counter resets observed (Lemma 5's collision signal).
pub const MW_COUNTER_RESETS: &str = "mw.counter_resets";
/// Maximum number of `A_i` levels any node entered.
pub const MW_LEVELS_ENTERED_MAX: &str = "mw.levels_entered.max";
/// Per-kind slot residency: slots all nodes spent in `A_i` listen halves.
pub const MW_RESIDENCY_LISTEN: &str = "mw.residency.listen";
/// Slots all nodes spent competing in `A_i`.
pub const MW_RESIDENCY_COMPETE: &str = "mw.residency.compete";
/// Slots all nodes spent in the request state `R`.
pub const MW_RESIDENCY_REQUEST: &str = "mw.residency.request";
/// Slots leaders spent serving color requests.
pub const MW_RESIDENCY_LEADER: &str = "mw.residency.leader";
/// Slots all nodes spent colored (in `C_j`) before the run ended.
pub const MW_RESIDENCY_COLORED: &str = "mw.residency.colored";

/// Theorem 1 (color classes stay independent): sweeps performed.
pub const PROBE_THM1_CHECKS: &str = "probe.thm1.checks";
/// Theorem 1: same-color neighbor pairs observed (must stay 0).
pub const PROBE_THM1_VIOLATIONS: &str = "probe.thm1.violations";
/// Lemma 4 (≤ φ(2R_T)+1 levels per node): nodes checked.
pub const PROBE_LEMMA4_CHECKS: &str = "probe.lemma4.checks";
/// Lemma 4: nodes that entered more levels than the bound allows.
pub const PROBE_LEMMA4_VIOLATIONS: &str = "probe.lemma4.violations";
/// Lemma 6 (bounded time in the `A_i` states): nodes checked.
pub const PROBE_LEMMA6_CHECKS: &str = "probe.lemma6.checks";
/// Lemma 6: nodes whose total `A_i` residency exceeded the bound.
pub const PROBE_LEMMA6_VIOLATIONS: &str = "probe.lemma6.violations";
/// Largest per-node `A_i` residency observed (gauge).
pub const PROBE_LEMMA6_MAX_SLOTS: &str = "probe.lemma6.max_slots";
/// Lemma 7 (bounded time in the request state `R`): nodes checked.
pub const PROBE_LEMMA7_CHECKS: &str = "probe.lemma7.checks";
/// Lemma 7: nodes whose `R` residency exceeded the bound.
pub const PROBE_LEMMA7_VIOLATIONS: &str = "probe.lemma7.violations";
/// Largest per-node `R` residency observed (gauge).
pub const PROBE_LEMMA7_MAX_SLOTS: &str = "probe.lemma7.max_slots";

/// Events pushed into the bounded ring over the whole run (retained +
/// evicted); exported into the metrics dump at end of run.
pub const OBS_EVENTS_RECORDED: &str = "obs.events.recorded";
/// Events evicted from the bounded ring (0 means the JSONL stream is
/// complete; nonzero means it was truncated oldest-first).
pub const OBS_EVENTS_DROPPED: &str = "obs.events.dropped";
/// Spans pushed into the bounded span ring over the whole run.
pub const OBS_SPANS_RECORDED: &str = "obs.spans.recorded";
/// Spans evicted from the bounded span ring (trace truncation signal).
pub const OBS_SPANS_DROPPED: &str = "obs.spans.dropped";

/// Allocation-profiler keys (`prof.alloc.*`). These are **profile-only**:
/// they appear in `profile_report` documents and user-driven exports,
/// never in the deterministic run_report/trace/series artifacts, because
/// allocation counts are a property of the build and allocator, not of
/// the seed. Each scope exports four counters through an
/// [`AllocKeySet`](crate::alloc::AllocKeySet).
pub mod prof {
    use crate::alloc::AllocKeySet;

    /// Traffic attributed to the engine `actions` phase (node automata).
    pub const PROF_ALLOC_ENGINE_ACTIONS: AllocKeySet = AllocKeySet {
        allocs: "prof.alloc.engine.actions.allocs",
        frees: "prof.alloc.engine.actions.frees",
        bytes_allocated: "prof.alloc.engine.actions.bytes_allocated",
        bytes_freed: "prof.alloc.engine.actions.bytes_freed",
    };
    /// Traffic attributed to the engine `resolve` phase (the SINR
    /// resolver's delta path).
    pub const PROF_ALLOC_ENGINE_RESOLVE: AllocKeySet = AllocKeySet {
        allocs: "prof.alloc.engine.resolve.allocs",
        frees: "prof.alloc.engine.resolve.frees",
        bytes_allocated: "prof.alloc.engine.resolve.bytes_allocated",
        bytes_freed: "prof.alloc.engine.resolve.bytes_freed",
    };
    /// Traffic attributed to the engine `delivery` phase (message
    /// delivery and the MW reception handlers).
    pub const PROF_ALLOC_ENGINE_DELIVERY: AllocKeySet = AllocKeySet {
        allocs: "prof.alloc.engine.delivery.allocs",
        frees: "prof.alloc.engine.delivery.frees",
        bytes_allocated: "prof.alloc.engine.delivery.bytes_allocated",
        bytes_freed: "prof.alloc.engine.delivery.bytes_freed",
    };
    /// Traffic attributed to MW setup: graph clone, node construction,
    /// simulator buffers — everything before slot 0.
    pub const PROF_ALLOC_MW_SETUP: AllocKeySet = AllocKeySet {
        allocs: "prof.alloc.mw.setup.allocs",
        frees: "prof.alloc.mw.setup.frees",
        bytes_allocated: "prof.alloc.mw.setup.bytes_allocated",
        bytes_freed: "prof.alloc.mw.setup.bytes_freed",
    };

    /// Heap high-water mark over the profiled run, in bytes (gauge).
    pub const PROF_ALLOC_HEAP_PEAK: &str = "prof.alloc.heap.peak";
    /// Slots before the last allocating slot, inclusive — the measured
    /// warmup length (gauge).
    pub const PROF_ALLOC_SLOTS_WARMUP: &str = "prof.alloc.slots.warmup";
    /// Mean allocations per slot over the steady-state window — the final
    /// quarter of executed slots (gauge; the zero-alloc gate pins it to 0
    /// for the fused sequential engine).
    pub const PROF_ALLOC_STEADY_ALLOCS_PER_SLOT: &str = "prof.alloc.steady.allocs_per_slot";
}
pub use prof::*;

/// Theorem 3 (TDMA schedule is interference-free): directed links audited.
pub const PROBE_THM3_LINKS: &str = "probe.thm3.links";
/// Theorem 3: links that failed to deliver in their scheduled frame.
pub const PROBE_THM3_VIOLATIONS: &str = "probe.thm3.violations";
/// Theorem 3: fraction of audited links that succeeded (gauge).
pub const PROBE_THM3_LINK_SUCCESS_RATE: &str = "probe.thm3.link_success_rate";
