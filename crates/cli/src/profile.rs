//! The `profile` subcommand's machine-readable report.
//!
//! A `profile_report` (`docs/OBS_SCHEMA.md`) attributes heap traffic to
//! the run's phases (`prof.alloc.*` vocabulary), classifies slots into
//! warmup and steady state, lists the heaviest-allocating slots, and
//! records `size_of` for the hot per-node types. It is the one artifact
//! that is **allowed** to vary across builds and allocators — which is
//! exactly why none of its numbers ever feed the deterministic
//! run_report/trace/series outputs.

use sinr_coloring::mw::{MwAllocProfile, MwMessage, MwNode, MwOutcome, MwPhase};
use sinr_model::ReceptionTable;
use sinr_obs::alloc::AllocStats;
use sinr_obs::json::push_f64;
use sinr_obs::OBS_SCHEMA_VERSION;
use sinr_radiosim::StepView;

/// `size_of` readings for the types the hot loop moves around, in bytes.
/// Grows here → more memory traffic per slot everywhere; the committed
/// budget in `tests/struct_sizes.rs` and CI's struct-size ratchet fail
/// on unreviewed growth of `MwNode`.
pub fn struct_sizes() -> [(&'static str, usize); 5] {
    use std::mem::size_of;
    [
        ("MwNode", size_of::<MwNode>()),
        ("MwMessage", size_of::<MwMessage>()),
        ("MwPhase", size_of::<MwPhase>()),
        ("ReceptionTable", size_of::<ReceptionTable>()),
        ("StepView", size_of::<StepView<'static>>()),
    ]
}

fn push_phase(s: &mut String, name: &str, st: &AllocStats) {
    s.push_str(&format!(
        "\"{name}\":{{\"allocs\":{},\"frees\":{},\"bytes_allocated\":{},\"bytes_freed\":{}}}",
        st.allocs, st.frees, st.bytes_allocated, st.bytes_freed,
    ));
}

/// Renders the `profile_report` JSON document.
///
/// `counting` says whether the counting allocator is installed in this
/// process (see [`sinr_obs::alloc::is_counting`]); when false every
/// counter is zero by construction and the report says so instead of
/// claiming an allocation-free run. `run.threads` is always 1: every run
/// is single-threaded, and the field stays so the schema is unchanged.
pub fn profile_report(
    model: &str,
    seed: u64,
    top: usize,
    counting: bool,
    out: &MwOutcome,
    prof: &MwAllocProfile,
) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str(&format!(
        "{{\"schema_version\":{OBS_SCHEMA_VERSION},\"kind\":\"profile_report\","
    ));

    s.push_str(&format!(
        "\"run\":{{\"nodes\":{},\"model\":\"{model}\",\"seed\":{seed},\"threads\":1,\
         \"all_done\":{},\"slots\":{}}},",
        out.node_reports.len(),
        out.all_done,
        out.slots,
    ));

    s.push_str(&format!(
        "\"allocator\":{{\"counting\":{counting},\"heap_peak\":{}}},",
        prof.heap_peak,
    ));

    s.push_str("\"phases\":{");
    push_phase(&mut s, "mw.setup", &prof.setup);
    s.push(',');
    push_phase(&mut s, "engine.actions", &prof.engine.actions);
    s.push(',');
    push_phase(&mut s, "engine.resolve", &prof.engine.resolve);
    s.push(',');
    push_phase(&mut s, "engine.delivery", &prof.engine.delivery);
    s.push_str("},");

    let e = &prof.engine;
    let (_, steady_len) = e.steady_window();
    s.push_str(&format!(
        "\"slots\":{{\"sampled\":{},\"dropped\":{},\"warmup\":{},\
         \"steady\":{{\"window\":{steady_len},\"allocs\":{},\"allocs_per_slot\":",
        e.per_slot.len(),
        e.dropped_slots,
        e.warmup_slots(),
        e.steady_allocs(),
    ));
    match e.steady_allocs_per_slot() {
        Some(x) => push_f64(&mut s, x),
        None => s.push_str("null"),
    }
    s.push_str("},\"top\":[");
    for (i, (slot, allocs)) in e.top_allocating_slots(top).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"slot\":{slot},\"allocs\":{allocs}}}"));
    }
    s.push_str("]},");

    s.push_str("\"struct_sizes\":{");
    for (i, (name, size)) in struct_sizes().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{name}\":{size}"));
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_sizes_cover_the_hot_types_and_are_nonzero() {
        let sizes = struct_sizes();
        assert_eq!(sizes[0].0, "MwNode");
        for (name, size) in sizes {
            assert!(size > 0, "{name} reported zero size");
        }
    }

    #[test]
    fn mw_message_stays_copy_sized() {
        // Delivery clones one MwMessage per granted reception; it must
        // stay a small Copy value, not grow a heap payload.
        assert!(std::mem::size_of::<MwMessage>() <= 64);
    }
}
