//! Shared workload builders and seed-parallel run helpers.

use sinr_coloring::mw::{run_mw, MwConfig, MwOutcome};
use sinr_coloring::params::MwParams;
use sinr_geometry::{placement, UnitDiskGraph};
use sinr_model::{InterferenceModel, SinrConfig, SinrModel};
use sinr_radiosim::WakeupSchedule;

/// The default physical configuration used by all experiments:
/// `α = 4, β = 1.5, ρ = 2`, normalized to `R_T = 1`.
pub fn default_cfg() -> SinrConfig {
    SinrConfig::default_unit()
}

/// A reproducible experiment instance: a uniform placement with expected
/// degree `degree`, its UDG, and practical parameters.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The communication graph.
    pub graph: UnitDiskGraph,
    /// Practical-profile parameters sized for the instance.
    pub params: MwParams,
    /// The physical configuration.
    pub cfg: SinrConfig,
}

impl Instance {
    /// Builds the standard instance: `n` nodes, expected degree `degree`,
    /// placement seed derived from `seed`.
    pub fn uniform(n: usize, degree: f64, seed: u64) -> Self {
        let cfg = default_cfg();
        let pts = placement::uniform_with_expected_degree(n, cfg.r_t(), degree, seed);
        let graph = UnitDiskGraph::new(pts, cfg.r_t());
        let params = MwParams::practical(&cfg, n.max(2), graph.max_degree());
        Instance { graph, params, cfg }
    }

    /// Runs the MW algorithm under the SINR model with the given seed.
    ///
    /// [`SinrModel`] runs its grid only on instances whose slots are
    /// dense enough to pay for it; its reception tables are the same
    /// either way (see `docs/PERFORMANCE.md`), so experiment outputs never
    /// depend on the choice.
    pub fn run_sinr(&self, seed: u64, schedule: WakeupSchedule) -> MwOutcome {
        run_mw(
            &self.graph,
            SinrModel::new(self.cfg),
            &MwConfig::new(self.params).with_seed(seed),
            schedule,
        )
    }

    /// Runs the MW algorithm under an arbitrary interference model.
    pub fn run_with<M: InterferenceModel>(
        &self,
        model: M,
        seed: u64,
        schedule: WakeupSchedule,
    ) -> MwOutcome {
        run_mw(
            &self.graph,
            model,
            &MwConfig::new(self.params).with_seed(seed),
            schedule,
        )
    }
}

/// Aggregates resolver fast-path counters over a batch of outcomes and
/// returns the combined hit rate, if any run tracked them.
pub fn resolver_hit_rate(outs: &[MwOutcome]) -> Option<f64> {
    let mut total = sinr_model::ResolverStats::default();
    let mut any = false;
    for out in outs {
        if let Some(s) = &out.resolver {
            total.merge(s);
            any = true;
        }
    }
    if any {
        total.hit_rate()
    } else {
        None
    }
}

/// Runs `f(seed)` for `seeds` seeds across the global worker pool and
/// returns the results in seed order (deterministic regardless of the
/// pool's thread count — the seeds are statically partitioned and the
/// chunks merge in seed order).
///
/// The pool size comes from `SINR_THREADS` (or
/// [`sinr_pool::set_global_threads`], e.g. via `--threads` on the
/// experiments binary); with 1 thread the seeds simply run inline.
pub fn par_seeds<T: Send>(seeds: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    sinr_pool::global().par_seeds(0..seeds, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_matches_requested_size() {
        let inst = Instance::uniform(50, 8.0, 3);
        assert_eq!(inst.graph.len(), 50);
        assert!(inst.params.delta >= 1);
        assert!((inst.cfg.r_t() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn par_seeds_preserves_order() {
        let xs = par_seeds(8, |s| s * 10);
        assert_eq!(xs, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_sinr_completes_small_instance() {
        let inst = Instance::uniform(20, 6.0, 1);
        let out = inst.run_sinr(0, WakeupSchedule::Synchronous);
        assert!(out.all_done);
    }
}
