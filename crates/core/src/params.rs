//! The algorithm constants of §II, in two profiles.
//!
//! The paper defines, for a SINR configuration and packing bounds
//! `φ(R) ≤ (2R/R_T + 1)²`:
//!
//! ```text
//! λ  = (1 − 1/ρ) / e^{φ(R_I)/φ(R_I+R_T)}
//!      · (1 − φ(R_I)/(φ(R_I+R_T)²·Δ)) · (1 − 1/(φ(R_I+R_T)²·Δ))
//! λ' = (1 − 1/ρ) / (e·φ(R_I+R_T))
//!      · (1 − 1/(φ(R_I+R_T)·Δ)) · (1 − 1/φ(R_I+R_T))^{φ(R_I+R_T)}
//! σ  = 2c/λ'          γ = c·φ(R_I+R_T)/λ
//! q_ℓ = 1/φ(R_I+R_T)  q_s = 1/(φ(R_I+R_T)·Δ)
//! η ≥ 2γφ(2R_T) + σ + 1          μ ≥ γ   (and μ ≥ σ for §IV)
//! ```
//!
//! for any `c ≥ 5`. These *rigorous* values make the w.h.p. proofs go
//! through but are astronomically conservative (`φ(R_I+R_T)` is in the
//! thousands for realistic `α, β, ρ`), so runs with them take hundreds of
//! millions of slots even at `n = 16` — a minute of a release build,
//! since quiet nodes park, but far too slow for sweeps. The experiments
//! check the *shape* of the bounds, so the [`MwParams::practical`]
//! profile keeps every functional form (`q_s ∝ 1/Δ`, windows `∝ Δ ln n`,
//! the `σ > 2γ` ordering, the `ζ_i` asymmetry, the true `φ(2R_T)` color
//! spread) while replacing the packing-bound-driven constants with small
//! multipliers. The rigorous formulas remain available — and unit-tested
//! against the paper's inequalities — via [`MwParams::rigorous`].

use sinr_geometry::cast;
use sinr_geometry::packing::phi_bound;
use sinr_model::SinrConfig;

/// All constants the MW automaton consumes, pre-resolved for a given
/// network size `n` and maximum degree `Δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwParams {
    /// Number of nodes `n` (an upper bound is fine; enters only via `ln n`).
    pub n: usize,
    /// Maximum degree `Δ` (an upper bound is fine).
    pub delta: usize,
    /// The `η` multiplier: initial listen phase lasts `⌈ηΔ ln n⌉` slots
    /// (Fig. 1 line 2).
    pub eta: f64,
    /// The `σ` multiplier: a node enters `C_i` when its counter reaches
    /// `⌈σΔ ln n⌉` (Fig. 1 line 10).
    pub sigma: f64,
    /// The `γ` multiplier: counters within `⌈γζ_i ln n⌉` of a received
    /// counter are reset (Fig. 1 lines 6 and 15), with `ζ_0 = 1` and
    /// `ζ_i = Δ` for `i > 0`.
    pub gamma: f64,
    /// The `μ` multiplier: a leader repeats each grant for `⌈μ ln n⌉`
    /// slots (Fig. 2 line 13).
    pub mu: f64,
    /// Send probability `q_s` of non-leader nodes (states `A_i`, `R`,
    /// `C_i` for `i > 0`).
    pub q_small: f64,
    /// Send probability `q_ℓ` of leaders (`C_0`).
    pub q_leader: f64,
    /// The color spread `φ(2R_T) + 1`: a node granted cluster color `tc`
    /// competes in states `A_{tc·spread}, …, A_{tc·spread + spread − 1}`
    /// (Fig. 3 line 4 and Lemma 4).
    pub spread: usize,
}

/// Errors from [`MwParams::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `n` must be at least 2 so `ln n > 0`.
    TooFewNodes,
    /// `Δ` must be at least 1.
    ZeroDelta,
    /// Send probabilities must lie in `(0, 1]`.
    BadProbability,
    /// The paper requires `σ > 2γ` (used in Theorem 1, Case 2).
    SigmaNotAboveTwoGamma,
    /// Multipliers must be strictly positive.
    NonPositiveMultiplier,
    /// The spread must be at least 2 (`φ(2R_T) ≥ 1`).
    SpreadTooSmall,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::TooFewNodes => write!(f, "n must be at least 2"),
            ParamError::ZeroDelta => write!(f, "delta must be at least 1"),
            ParamError::BadProbability => write!(f, "send probabilities must be in (0, 1]"),
            ParamError::SigmaNotAboveTwoGamma => write!(f, "sigma must exceed 2*gamma"),
            ParamError::NonPositiveMultiplier => {
                write!(f, "eta, sigma, gamma, mu must be positive")
            }
            ParamError::SpreadTooSmall => write!(f, "spread must be at least 2"),
        }
    }
}

impl std::error::Error for ParamError {}

/// The raw §II constants computed by the rigorous profile, kept for
/// inspection and for unit-testing the paper's inequalities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigorousConstants {
    /// `φ(R_I)`.
    pub phi_i: usize,
    /// `φ(R_I + R_T)`.
    pub phi_it: usize,
    /// `φ(2R_T)`.
    pub phi_2t: usize,
    /// The probability-amplification exponent `c ≥ 5`.
    pub c: f64,
    /// `λ` as defined in §II.
    pub lambda: f64,
    /// `λ'` as defined in §II.
    pub lambda_prime: f64,
}

impl MwParams {
    /// The paper's literal constants (§II) for exponent `c ≥ 5`.
    ///
    /// Cheap to *construct and inspect* for any configuration; slow but
    /// feasible to *run* at small sizes. With `c = 5` a complete coloring
    /// of 16 nodes (expected degree 3, placement and MW seed 1,
    /// synchronous wake-up, `Δ = 5`) takes 494 843 535 slots, about a
    /// minute in a release build, and uses 7 colors with palette
    /// 105 ≤ 156 and no violations (`tests/rigorous_profile.rs`, run with
    /// `cargo test --release --test rigorous_profile -- --ignored`).
    ///
    /// Returns the parameters together with the intermediate constants.
    ///
    /// # Panics
    ///
    /// Panics if `c < 5`, `n < 2`, or `delta < 1`.
    pub fn rigorous_with_constants(
        cfg: &SinrConfig,
        n: usize,
        delta: usize,
        c: f64,
    ) -> (MwParams, RigorousConstants) {
        assert!(c >= 5.0, "the paper requires c >= 5");
        assert!(n >= 2, "n must be at least 2");
        let delta = delta.max(1);
        let r_t = cfg.r_t();
        let r_i = cfg.r_i();
        let phi_i = phi_bound(r_i, r_t);
        let phi_it = phi_bound(r_i + r_t, r_t);
        let phi_2t = phi_bound(2.0 * r_t, r_t);
        let (phi_i_f, phi_it_f, d) = (phi_i as f64, phi_it as f64, delta as f64);

        let lambda = (1.0 - 1.0 / cfg.rho()) / (phi_i_f / phi_it_f).exp()
            * (1.0 - phi_i_f / (phi_it_f * phi_it_f * d))
            * (1.0 - 1.0 / (phi_it_f * phi_it_f * d));
        let lambda_prime = (1.0 - 1.0 / cfg.rho()) / (std::f64::consts::E * phi_it_f)
            * (1.0 - 1.0 / (phi_it_f * d))
            * (1.0 - 1.0 / phi_it_f).powf(phi_it_f);

        let sigma = 2.0 * c / lambda_prime;
        let gamma = c * phi_it_f / lambda;
        // η ≥ 2γφ(2R_T) + σ + 1 and μ ≥ max(γ, σ): take the minimal values.
        let eta = 2.0 * gamma * phi_2t as f64 + sigma + 1.0;
        let mu = gamma.max(sigma);

        let params = MwParams {
            n,
            delta,
            eta,
            sigma,
            gamma,
            mu,
            q_small: 1.0 / (phi_it_f * d),
            q_leader: 1.0 / phi_it_f,
            spread: phi_2t + 1,
        };
        let constants = RigorousConstants {
            phi_i,
            phi_it,
            phi_2t,
            c,
            lambda,
            lambda_prime,
        };
        (params, constants)
    }

    /// The paper's literal constants with the minimal exponent `c = 5`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn rigorous(cfg: &SinrConfig, n: usize, delta: usize) -> MwParams {
        MwParams::rigorous_with_constants(cfg, n, delta, 5.0).0
    }

    /// The practical profile: identical structure, simulation-scale
    /// constants (see module docs for the rationale).
    ///
    /// The color spread keeps the *true* `φ(2R_T) + 1`, so the palette
    /// bound of Theorem 2 is preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn practical(cfg: &SinrConfig, n: usize, delta: usize) -> MwParams {
        assert!(n >= 2, "n must be at least 2");
        let delta = delta.max(1);
        let phi_2t = phi_bound(2.0 * cfg.r_t(), cfg.r_t());
        // The constants below encode the same safety margins the paper's
        // formulas do, at simulation scale. The binding constraint is the
        // *trailing race* of Theorem 1: after a χ-reset a loser trails the
        // winner by only `window + 1` slots, so the winner's `M_C`
        // announcement must be heard within `γζ_i ln n` slots. The
        // expected number of announcement *receptions* in that window —
        // after discounting channel blocking by other senders (leaders in
        // particular transmit with `q_ℓ` forever) — is `≈ q_ℓ·0.7·γ ln n`
        // for level 0 and `≈ q_s·0.6·γΔ ln n` for `i > 0`, i.e. ≥ 4–6 for
        // the values below, giving per-event miss probabilities around a
        // percent. Experiment E4 measures the realized violation rate, and
        // E10/E11 sweep these constants. This is also exactly why the
        // paper's rigorous σ, γ are enormous: they buy the `n^{-c}` bound.
        MwParams {
            n,
            delta,
            eta: 1.0,
            sigma: 49.0,
            gamma: 24.0,
            mu: 24.0,
            q_small: 0.1 / delta as f64,
            q_leader: 0.1,
            spread: phi_2t + 1,
        }
    }

    /// A *tuned* practical profile: derives `γ`, `σ`, `μ` from a target
    /// per-race miss probability instead of fixed constants.
    ///
    /// The binding constraint (see `docs/PARAMETERS.md`) is the Theorem-1
    /// trailing race: the winner's announcement must arrive within the
    /// reset window, and the expected number of receptions there is
    /// `q·γ·ln n·p_recv` (level 0 with `q = q_ℓ`; level i > 0 with
    /// `q_s·γΔ ln n`, where Δ cancels). Setting that margin to
    /// `m = ln(1/target_miss)` gives `γ = m/(q·ln n·p_recv)`; `σ = 2γ+1`
    /// and `μ = γ` follow from the paper's orderings.
    ///
    /// `p_recv` is the assumed edge-of-range delivery rate under protocol
    /// load (≈ 0.6–0.7 at the default probabilities; lower under fading).
    ///
    /// # Panics
    ///
    /// Panics if `target_miss` is not in `(0, 1)`, `p_recv` not in
    /// `(0, 1]`, or `n < 2`.
    pub fn tuned(
        cfg: &SinrConfig,
        n: usize,
        delta: usize,
        target_miss: f64,
        p_recv: f64,
    ) -> MwParams {
        assert!(
            target_miss > 0.0 && target_miss < 1.0,
            "target miss probability must be in (0, 1)"
        );
        assert!(p_recv > 0.0 && p_recv <= 1.0, "p_recv must be in (0, 1]");
        let mut p = MwParams::practical(cfg, n, delta);
        let margin = (1.0 / target_miss).ln();
        // Level-0 and level-i margins share the same q·γ·ln n·p form with
        // q = q_ℓ resp. q_s·Δ; take the weaker of the two.
        let q = p.q_leader.min(p.q_small * p.delta as f64);
        let gamma = margin / (q * p.ln_n() * p_recv);
        p.gamma = gamma;
        p.sigma = 2.0 * gamma + 1.0;
        p.mu = gamma;
        p
    }

    /// Checks the structural invariants every profile must satisfy.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.n < 2 {
            return Err(ParamError::TooFewNodes);
        }
        if self.delta < 1 {
            return Err(ParamError::ZeroDelta);
        }
        for p in [self.q_small, self.q_leader] {
            if !(p > 0.0 && p <= 1.0) {
                return Err(ParamError::BadProbability);
            }
        }
        for m in [self.eta, self.sigma, self.gamma, self.mu] {
            if !(m.is_finite() && m > 0.0) {
                return Err(ParamError::NonPositiveMultiplier);
            }
        }
        if self.sigma <= 2.0 * self.gamma {
            return Err(ParamError::SigmaNotAboveTwoGamma);
        }
        if self.spread < 2 {
            return Err(ParamError::SpreadTooSmall);
        }
        Ok(())
    }

    /// `ln n`, floored at `ln 16`.
    ///
    /// The floor keeps the time windows non-degenerate for very small
    /// networks (with `n = 2` every `⌈… ln n⌉` window collapses to one
    /// slot and the randomized symmetry breaking has no room to act); for
    /// `n ≥ 16` this is exactly `ln n`.
    pub fn ln_n(&self) -> f64 {
        (self.n.max(16) as f64).ln()
    }

    /// Listen-phase length `⌈ηΔ ln n⌉` (Fig. 1 line 2).
    pub fn listen_slots(&self) -> u64 {
        cast::ceil_u64(self.eta * self.delta as f64 * self.ln_n())
    }

    /// Counter threshold `⌈σΔ ln n⌉` (Fig. 1 line 10).
    pub fn counter_threshold(&self) -> i64 {
        cast::ceil_i64(self.sigma * self.delta as f64 * self.ln_n())
    }

    /// Reset window `⌈γζ_i ln n⌉` with `ζ_0 = 1`, `ζ_i = Δ` for `i > 0`
    /// (Fig. 1 lines 1, 6, 15).
    pub fn reset_window(&self, level: usize) -> i64 {
        let zeta = if level == 0 { 1.0 } else { self.delta as f64 };
        cast::ceil_i64(self.gamma * zeta * self.ln_n())
    }

    /// Grant-repetition length `⌈μ ln n⌉` (Fig. 2 line 13).
    pub fn response_slots(&self) -> u64 {
        cast::ceil_u64(self.mu * self.ln_n())
    }

    /// The worst-case palette bound of Theorem 2 as realized by this
    /// parameterization: colors lie in
    /// `{0} ∪ {tc·spread + j : 1 ≤ tc ≤ Δ, 0 ≤ j < spread}`, so the
    /// palette size is at most `(Δ + 1)·spread`.
    pub fn palette_bound(&self) -> usize {
        (self.delta + 1) * self.spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    #[test]
    fn rigorous_satisfies_paper_inequalities() {
        for delta in [1usize, 4, 16, 64] {
            for n in [16usize, 256, 4096] {
                let (p, k) = MwParams::rigorous_with_constants(&cfg(), n, delta, 5.0);
                assert!(p.validate().is_ok(), "n={n} delta={delta}");
                // σ > 2γ (paper: "one can easily verify that σ > 2γ").
                assert!(p.sigma > 2.0 * p.gamma, "sigma > 2 gamma fails");
                // η ≥ 2γφ(2R_T) + σ + 1.
                assert!(p.eta >= 2.0 * p.gamma * (p.spread - 1) as f64 + p.sigma + 1.0);
                // μ ≥ γ (§II) and μ ≥ σ (§IV).
                assert!(p.mu >= p.gamma && p.mu >= p.sigma);
                // 0 < λ, λ' < 1.
                assert!(k.lambda > 0.0 && k.lambda < 1.0);
                assert!(k.lambda_prime > 0.0 && k.lambda_prime < 1.0);
                // Packing monotonicity: φ(R_I) ≤ φ(R_I + R_T).
                assert!(k.phi_i <= k.phi_it);
            }
        }
    }

    #[test]
    fn rigorous_probabilities_sum_bound() {
        // Lemma 3's Eq. (1): Σ_{w∈B_v} p_w ≤ 2, i.e.
        // φ(R_T)·q_ℓ + Δ·q_s ≤ 2 (independent leaders + Δ others).
        let delta = 32;
        let (p, k) = MwParams::rigorous_with_constants(&cfg(), 1024, delta, 5.0);
        let phi_t = sinr_geometry::packing::phi_bound(cfg().r_t(), cfg().r_t());
        let sum = phi_t as f64 * p.q_leader + delta as f64 * p.q_small;
        assert!(sum <= 2.0, "sum of send probabilities {sum} > 2");
        assert!(k.phi_it >= phi_t);
    }

    #[test]
    fn practical_is_valid_and_keeps_forms() {
        let p = MwParams::practical(&cfg(), 256, 20);
        p.validate().unwrap();
        // q_s ∝ 1/Δ.
        let p2 = MwParams::practical(&cfg(), 256, 40);
        assert!((p.q_small / p2.q_small - 2.0).abs() < 1e-9);
        // Spread is the true φ(2R_T) + 1.
        assert_eq!(p.spread, phi_bound(2.0 * cfg().r_t(), cfg().r_t()) + 1);
    }

    #[test]
    fn windows_scale_with_delta_and_log_n() {
        let a = MwParams::practical(&cfg(), 256, 10);
        let b = MwParams::practical(&cfg(), 256, 20);
        assert!(b.listen_slots() >= 2 * a.listen_slots() - 2);
        assert!(b.counter_threshold() >= 2 * a.counter_threshold() - 2);
        let c5 = MwParams::practical(&cfg(), 2_560_000, 10);
        // ln n doubles from 256 to 256^2·... just check monotone growth.
        assert!(c5.listen_slots() > a.listen_slots());
    }

    #[test]
    fn reset_window_zeta_asymmetry() {
        let p = MwParams::practical(&cfg(), 256, 16);
        assert!(p.reset_window(1) >= 16 * p.reset_window(0) - 16);
        assert_eq!(p.reset_window(1), p.reset_window(7));
    }

    #[test]
    fn validate_catches_each_violation() {
        let good = MwParams::practical(&cfg(), 256, 8);
        let mut p = good;
        p.n = 1;
        assert_eq!(p.validate(), Err(ParamError::TooFewNodes));
        let mut p = good;
        p.delta = 0;
        assert_eq!(p.validate(), Err(ParamError::ZeroDelta));
        let mut p = good;
        p.q_small = 0.0;
        assert_eq!(p.validate(), Err(ParamError::BadProbability));
        let mut p = good;
        p.q_leader = 1.5;
        assert_eq!(p.validate(), Err(ParamError::BadProbability));
        let mut p = good;
        p.gamma = p.sigma; // σ ≤ 2γ
        assert_eq!(p.validate(), Err(ParamError::SigmaNotAboveTwoGamma));
        let mut p = good;
        p.eta = 0.0;
        assert_eq!(p.validate(), Err(ParamError::NonPositiveMultiplier));
        let mut p = good;
        p.spread = 1;
        assert_eq!(p.validate(), Err(ParamError::SpreadTooSmall));
    }

    #[test]
    fn tuned_profile_validates_and_scales_with_target() {
        let cfg = cfg();
        let strict = MwParams::tuned(&cfg, 256, 20, 1e-4, 0.65);
        let loose = MwParams::tuned(&cfg, 256, 20, 1e-1, 0.65);
        strict.validate().unwrap();
        loose.validate().unwrap();
        // Stricter targets demand wider windows.
        assert!(strict.gamma > loose.gamma);
        assert!(strict.sigma > 2.0 * strict.gamma);
        // The default practical profile sits near the 1% target.
        let pct1 = MwParams::tuned(&cfg, 256, 20, 0.01, 0.65);
        let practical = MwParams::practical(&cfg, 256, 20);
        assert!(
            (pct1.gamma / practical.gamma - 1.0).abs() < 0.7,
            "tuned γ {} far from practical {}",
            pct1.gamma,
            practical.gamma
        );
    }

    #[test]
    fn tuned_profile_widens_under_fading_assumption() {
        let cfg = cfg();
        let clear = MwParams::tuned(&cfg, 128, 12, 0.01, 0.7);
        let faded = MwParams::tuned(&cfg, 128, 12, 0.01, 0.35);
        assert!((faded.gamma / clear.gamma - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "target miss")]
    fn tuned_rejects_bad_target() {
        let _ = MwParams::tuned(&cfg(), 128, 12, 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "c >= 5")]
    fn rigorous_rejects_small_c() {
        let _ = MwParams::rigorous_with_constants(&cfg(), 16, 4, 4.9);
    }

    #[test]
    fn palette_bound_formula() {
        let p = MwParams::practical(&cfg(), 256, 10);
        assert_eq!(p.palette_bound(), 11 * p.spread);
    }

    #[test]
    fn rigorous_constants_are_huge_as_documented() {
        // Sanity check for the DESIGN.md claim that rigorous constants are
        // infeasible: the listen phase alone exceeds 10^6 slots even for a
        // tiny network.
        let p = MwParams::rigorous(&cfg(), 64, 8);
        assert!(p.listen_slots() > 1_000_000);
    }
}
