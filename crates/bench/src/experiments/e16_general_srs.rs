//! E16 — Corollary 1's two general-model variants: bundled broadcasts
//! (`O(Δ(log n + τ))` slots, `O(sΔ log n)`-bit messages) vs per-neighbor
//! unicast (`O(Δ² τ)` slots, `O(s log n)`-bit messages).

use crate::report::{f2, ExpReport};
use crate::workload::default_cfg;
use sinr_coloring::distance_d::color_at_distance;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_mac::guard::theorem3_distance_factor;
use sinr_mac::mp::EchoDegrees;
use sinr_mac::srs::{simulate_general_bundled, simulate_general_unicast};
use sinr_mac::tdma::TdmaSchedule;
use sinr_radiosim::WakeupSchedule;

/// Runs E16.
pub fn run(quick: bool) -> ExpReport {
    let cfg = default_cfg();
    let sizes: &[usize] = if quick { &[24] } else { &[24, 48, 96] };

    let mut report = ExpReport::new(
        "E16",
        "general-model SRS: bundled vs unicast",
        "Corollary 1 (second part): a general algorithm takes \
         O(Δ(log n+τ)) slots with O(sΔ log n)-bit messages, or \
         O(Δ log n + Δ²τ) slots with O(s log n)-bit messages",
    )
    .headers([
        "n",
        "Delta",
        "frame V",
        "bundled slots",
        "unicast slots",
        "unicast/bundled",
        "bundled bits",
        "unicast bits",
        "both faithful",
    ]);

    for &n in sizes {
        let pts = placement::uniform_with_expected_degree(n, cfg.r_t(), 9.0, 1600 + n as u64);
        let graph = UnitDiskGraph::new(pts.clone(), cfg.r_t());
        let colored = color_at_distance(
            &pts,
            &cfg,
            theorem3_distance_factor(&cfg),
            16,
            WakeupSchedule::Synchronous,
        );
        let schedule = TdmaSchedule::from_colors(colored.colors().expect("coloring completed"));
        let mk = || -> Vec<EchoDegrees> {
            (0..n)
                .map(|v| EchoDegrees::new(v, graph.neighbors(v).to_vec()))
                .collect()
        };
        let mut a = mk();
        let bundled = simulate_general_bundled(&graph, &cfg, &schedule, &mut a, 10);
        let mut b = mk();
        let unicast = simulate_general_unicast(&graph, &cfg, &schedule, &mut b, 10);
        assert!(bundled.is_faithful() && unicast.is_faithful());
        // Both executions must produce identical node states.
        for v in 0..n {
            assert_eq!(a[v].received, b[v].received, "node {v} diverged");
        }
        // Corollary-1 message sizes for payloads of s bits: a bundled
        // broadcast carries up to Δ addressed entries of (log n + s) bits;
        // a unicast message carries one. Use s = 32, log n rounded up.
        let s_bits = 32u64;
        let entry = (n as f64).log2().ceil() as u64 + s_bits;
        let bundled_bits = bundled.transmissions * graph.max_degree() as u64 * entry;
        let unicast_bits = unicast.transmissions * entry;
        report.push_row([
            n.to_string(),
            graph.max_degree().to_string(),
            schedule.frame_len().to_string(),
            bundled.slots.to_string(),
            unicast.slots.to_string(),
            f2(unicast.slots as f64 / bundled.slots as f64),
            bundled_bits.to_string(),
            unicast_bits.to_string(),
            "yes".to_string(),
        ]);
    }
    report.note(
        "The unicast variant pays roughly a Δ-factor more slots per round \
         (Δ frames per round, one per addressed message) in exchange for \
         constant-size payloads — exactly the message-size/time tradeoff Corollary 1 \
         states. The bit columns price it: bundled moves the Δ factor \
         from slots into per-message size (upper-bounded here at Δ \
         entries x (log n + s) bits), so total bandwidth is comparable \
         while wall-clock differs by Δ.",
    );
    report
}
