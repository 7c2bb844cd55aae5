//! Struct-size ratchets for the per-node hot-path types.
//!
//! Memory traffic on the hot path is proportional to the bytes the
//! per-slot loops touch, and those bytes are dominated by a handful of
//! structs with one instance (or one message) per node. A field added to
//! `MwNode` costs `n × alignment` bytes of cache footprint at every
//! slot; this ratchet makes that cost a visible, deliberate decision
//! instead of an accident.
//!
//! To grow a budget: justify the new field in the PR description, update
//! the constant here, and refresh the measured table in
//! `docs/PERFORMANCE.md` (§ Memory traffic / § Data layout).

use std::mem::size_of;

use sinr_coloring::mw::{MwCold, MwMessage, MwNode, MwPhase, MwPhaseKind};
use sinr_model::{ReceptionTable, SinrModel};
use sinr_radiosim::{NodeFlags, StepView};

/// Committed budget for the per-node protocol state. Measured 176 bytes
/// (x86-64) after the hot/cold split boxed the leader bookkeeping and
/// the diagnostics counters behind `MwCold` — down from 344 when the
/// struct carried everything inline. The fused slot passes stream one
/// `MwNode` per node per slot, so this is the dominant per-slot
/// memory-traffic term.
const MW_NODE_BUDGET: usize = 192;

/// Committed budget for the boxed cold half: leader queue/grant ledger,
/// χ scratch, diagnostics. Touched only on phase transitions and by the
/// (rare) leader serve loop, so its size is off the hot path — the
/// budget exists to keep "cold" honest rather than a dumping ground.
const MW_COLD_BUDGET: usize = 192;

/// Committed budget for the wire message — one per reception per slot.
const MW_MESSAGE_BUDGET: usize = 24;

/// Committed budget for the SINR model held by value. Measured 80 bytes
/// (x86-64): the configuration, the grid choice and a scratch boxed on
/// the first slot.
/// Callers hold it inline beside much smaller models (an enum of models,
/// a simulator generic over its model), so its working state — kernel
/// buffers, grid, counters — stays behind the box.
const SINR_MODEL_BUDGET: usize = 192;

#[test]
fn mw_node_stays_within_its_size_budget() {
    let size = size_of::<MwNode>();
    assert!(
        size <= MW_NODE_BUDGET,
        "MwNode grew to {size} bytes (budget {MW_NODE_BUDGET}); every node \
         carries one, so justify the field and update the ratchet + \
         docs/PERFORMANCE.md"
    );
}

#[test]
fn mw_cold_state_stays_within_its_size_budget() {
    let size = size_of::<MwCold>();
    assert!(
        size <= MW_COLD_BUDGET,
        "MwCold grew to {size} bytes (budget {MW_COLD_BUDGET}); it is one \
         boxed allocation per node — cheap, but not free"
    );
}

#[test]
fn mw_message_stays_within_its_size_budget() {
    let size = size_of::<MwMessage>();
    assert!(
        size <= MW_MESSAGE_BUDGET,
        "MwMessage grew to {size} bytes (budget {MW_MESSAGE_BUDGET}); \
         messages are copied into every receiver's inbox each slot"
    );
}

#[test]
fn sinr_model_stays_within_its_size_budget() {
    let size = size_of::<SinrModel>();
    assert!(
        size <= SINR_MODEL_BUDGET,
        "SinrModel grew to {size} bytes (budget {SINR_MODEL_BUDGET}); keep \
         its working state behind the boxed scratch"
    );
}

#[test]
fn hot_path_views_stay_word_scale() {
    // The borrowed step view and the recycled reception table are copied
    // or passed by value on every slot; they must stay a few words each.
    assert!(size_of::<StepView<'_>>() <= 64);
    assert!(size_of::<ReceptionTable>() <= 32);
    assert!(size_of::<MwPhase>() <= 24);
}

#[test]
fn soa_columns_and_hot_enums_stay_one_byte() {
    // The engine's per-node status column is one byte per node; growing
    // it multiplies the fused passes' footprint directly.
    assert_eq!(size_of::<NodeFlags>(), 1, "NodeFlags must stay one byte");
    // Hot phase-kind enums must keep a niche so `Option<_>` wrappers are
    // free: a `None`-able phase kind in a dense column costs the same
    // byte as the bare enum.
    assert_eq!(size_of::<MwPhaseKind>(), 1);
    assert_eq!(
        size_of::<Option<MwPhaseKind>>(),
        1,
        "Option<MwPhaseKind> lost its niche"
    );
}
