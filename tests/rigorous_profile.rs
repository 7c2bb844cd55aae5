//! A complete coloring under the paper's own constants (§II).
//!
//! `MwParams::rigorous` sizes every window from the proofs' constants,
//! so its runs are long: hundreds of millions of slots even at n = 16.
//! Quiet nodes park until they next transmit, and almost every slot of
//! such a run is empty, so the coloring below finishes in about a minute
//! in a release build. It is ignored by default; run it with
//!
//! ```text
//! cargo test --release --test rigorous_profile -- --ignored
//! ```

use sinr_coloring::mw::{run_mw, MwConfig};
use sinr_coloring::params::MwParams;
use sinr_coloring::verify::distance_violations;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{SinrConfig, SinrModel};
use sinr_radiosim::WakeupSchedule;

#[test]
#[ignore = "about a minute in a release build; run with --ignored"]
fn rigorous_constants_color_sixteen_nodes() {
    let cfg = SinrConfig::default_unit();
    let pts = placement::uniform_with_expected_degree(16, cfg.r_t(), 3.0, 1);
    let graph = UnitDiskGraph::new(pts, cfg.r_t());
    // c = 5, the smallest exponent the paper allows.
    let params = MwParams::rigorous(&cfg, graph.len(), graph.max_degree());
    let mw = MwConfig::new(params).with_seed(1);
    let out = run_mw(
        &graph,
        SinrModel::new(cfg),
        &mw,
        WakeupSchedule::Synchronous,
    );
    eprintln!(
        "rigorous n = 16: Δ = {}, {} slots (cap {}), {} colors, palette {} of bound {}",
        graph.max_degree(),
        out.slots,
        mw.slot_cap(),
        out.colors_used,
        out.palette,
        params.palette_bound()
    );

    assert!(out.all_done, "the coloring finished within the slot cap");
    let colors = out.coloring.as_ref().expect("a complete coloring");
    assert!(distance_violations(graph.positions(), colors.as_slice(), cfg.r_t()).is_empty());
    assert!(out.palette <= params.palette_bound());
    assert_eq!(out.slots, 494_843_535);
    assert_eq!(out.colors_used, 7);
}
