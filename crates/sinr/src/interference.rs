//! Received power, aggregate interference, and SINR evaluation.
//!
//! Also implements the *probabilistic interference* `Ψ` of §IV, used by
//! experiment E8 to check Lemma 3 empirically.

use crate::config::SinrConfig;
use sinr_geometry::{NodeId, Point};

/// `dist^α`, with a multiply-only fast path for the common integer
/// exponents (`α ∈ {2, 3, 4, 6}`, covering every profile in
/// `docs/PARAMETERS.md`; `α = 4` is the default).
///
/// `powf` dominates the resolver's inner loop, so the α = 4 case alone is
/// worth several ×. All SINR evaluation funnels through this function, so
/// the grid bounds and the exact decode stay bit-identical by
/// construction.
#[inline]
pub fn dist_pow_alpha(dist: f64, alpha: f64) -> f64 {
    if alpha == 4.0 {
        let d2 = dist * dist;
        d2 * d2
    } else if alpha == 2.0 {
        dist * dist
    } else if alpha == 3.0 {
        dist * dist * dist
    } else if alpha == 6.0 {
        let d2 = dist * dist;
        d2 * d2 * d2
    } else {
        dist.powf(alpha)
    }
}

/// Power received at distance `dist` from a transmitter of power `power`
/// under path loss `α`: `P / δ^α`.
///
/// Returns `f64::INFINITY` at distance 0 (co-located transceiver), which the
/// reception logic treats as "own transmission" and never decodes.
#[inline]
pub fn received_power(power: f64, dist: f64, alpha: f64) -> f64 {
    if dist <= 0.0 {
        f64::INFINITY
    } else {
        power / dist_pow_alpha(dist, alpha)
    }
}

/// [`received_power`] from the *squared* distance, skipping the square
/// root for even `α` (`δ^α = (δ²)^{α/2}`).
///
/// Agrees with `received_power(p, d2.sqrt(), α)` up to floating-point
/// rounding — callers that need bit-exact parity with the distance-based
/// path (the resolvers' fallback sums) must keep using [`received_power`];
/// this variant is for bound computations that carry their own slack.
#[inline]
pub fn received_power_d2(power: f64, dist_sq: f64, alpha: f64) -> f64 {
    if dist_sq <= 0.0 {
        f64::INFINITY
    } else if alpha == 4.0 {
        power / (dist_sq * dist_sq)
    } else if alpha == 2.0 {
        power / dist_sq
    } else if alpha == 6.0 {
        let d4 = dist_sq * dist_sq;
        power / (d4 * dist_sq)
    } else {
        power / dist_sq.powf(alpha * 0.5)
    }
}

/// Aggregate received power at `at` from all `transmitters` (positions),
/// under `cfg`'s power and path loss.
pub fn total_received_power(cfg: &SinrConfig, at: Point, transmitters: &[Point]) -> f64 {
    transmitters
        .iter()
        .map(|&t| received_power(cfg.power(), at.distance(t), cfg.alpha()))
        .sum()
}

/// The SINR at receiver `at` for signal arriving from `sender`, given the
/// *total* received power at `at` (signal included) from all simultaneous
/// transmitters.
///
/// Computing from the total lets callers share one `O(T)` interference sum
/// across all candidate senders of a slot.
#[inline]
pub fn sinr_from_total(cfg: &SinrConfig, at: Point, sender: Point, total_power: f64) -> f64 {
    let signal = received_power(cfg.power(), at.distance(sender), cfg.alpha());
    sinr_from_signal(cfg.noise(), signal, total_power)
}

/// The SINR of a received `signal` against the `total` received power
/// (signal included) and ambient `noise`: [`sinr_from_total`] for a
/// caller that already holds the signal's power.
#[inline]
pub(crate) fn sinr_from_signal(noise: f64, signal: f64, total: f64) -> f64 {
    let interference = (total - signal).max(0.0);
    signal / (noise + interference)
}

/// Whether receiver `at` decodes `sender` per the paper's reception rule:
/// `δ ≤ R_T` *and* `SINR ≥ β`, with interference from `others`
/// (simultaneous transmitters excluding the sender).
///
/// # Example
///
/// ```
/// use sinr_geometry::Point;
/// use sinr_model::SinrConfig;
/// use sinr_model::interference::decodes;
///
/// let cfg = SinrConfig::default_unit();
/// let rx = Point::new(0.0, 0.0);
/// let tx = Point::new(0.9, 0.0);
/// assert!(decodes(&cfg, rx, tx, &[]));
/// // A co-located jammer kills the link.
/// assert!(!decodes(&cfg, rx, tx, &[Point::new(0.0, 0.1)]));
/// ```
pub fn decodes(cfg: &SinrConfig, at: Point, sender: Point, others: &[Point]) -> bool {
    if at.distance(sender) > cfg.r_t() {
        return false;
    }
    let signal = received_power(cfg.power(), at.distance(sender), cfg.alpha());
    let interference = total_received_power(cfg, at, others);
    signal / (cfg.noise() + interference) >= cfg.beta()
}

/// The probabilistic interference `Ψ_u^v = p_v / δ(u,v)^α` of one node, §IV.
#[inline]
pub fn psi_single(send_probability: f64, dist: f64, alpha: f64) -> f64 {
    if dist <= 0.0 {
        f64::INFINITY
    } else {
        send_probability / dist_pow_alpha(dist, alpha)
    }
}

/// The probabilistic interference at `u` induced by all nodes farther than
/// `exclusion_radius`: `Ψ_u^{v ∉ R} = P · Σ_{δ(u,v) > exclusion_radius}
/// p_v / δ(u,v)^α` (§IV).
///
/// Lemma 3 asserts this is at most [`SinrConfig::lemma3_budget`] whenever the
/// sum of send probabilities inside any `R_T`-disk is at most 2; experiment
/// E8 evaluates the sum exactly during algorithm runs.
///
/// # Panics
///
/// Panics if `positions` and `send_probabilities` have different lengths.
pub fn psi_outside(
    cfg: &SinrConfig,
    positions: &[Point],
    send_probabilities: &[f64],
    u: NodeId,
    exclusion_radius: f64,
) -> f64 {
    assert_eq!(
        positions.len(),
        send_probabilities.len(),
        "one send probability per node"
    );
    let at = positions[u];
    let mut sum = 0.0;
    for (v, &p) in positions.iter().enumerate() {
        if v == u {
            continue;
        }
        let d = at.distance(p);
        if d > exclusion_radius {
            sum += psi_single(send_probabilities[v], d, cfg.alpha());
        }
    }
    cfg.power() * sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SinrConfig {
        SinrConfig::default_unit()
    }

    #[test]
    fn dist_pow_alpha_matches_powf_for_integer_exponents() {
        for &alpha in &[2.0, 3.0, 4.0, 6.0] {
            for &d in &[0.1, 0.73, 1.0, 2.5, 17.0] {
                let fast = dist_pow_alpha(d, alpha);
                let slow = d.powf(alpha);
                assert!(
                    (fast - slow).abs() <= 1e-12 * slow,
                    "alpha={alpha} d={d}: {fast} vs {slow}"
                );
            }
        }
        // Non-integer exponents fall through to powf exactly.
        assert_eq!(dist_pow_alpha(1.7, 2.5), 1.7f64.powf(2.5));
    }

    #[test]
    fn received_power_d2_matches_distance_based_path() {
        for &alpha in &[2.0, 2.5, 3.0, 4.0, 6.0] {
            for &d in &[0.1, 0.73, 1.0, 2.5, 17.0] {
                let from_d2 = received_power_d2(2.0, d * d, alpha);
                let from_d = received_power(2.0, d, alpha);
                assert!(
                    (from_d2 - from_d).abs() <= 1e-12 * from_d,
                    "alpha={alpha} d={d}: {from_d2} vs {from_d}"
                );
            }
        }
        assert!(received_power_d2(2.0, 0.0, 4.0).is_infinite());
    }

    #[test]
    fn received_power_decays_with_distance() {
        let p1 = received_power(1.0, 1.0, 4.0);
        let p2 = received_power(1.0, 2.0, 4.0);
        assert_eq!(p1, 1.0);
        assert!((p2 - 1.0 / 16.0).abs() < 1e-12);
        assert!(received_power(1.0, 0.0, 4.0).is_infinite());
    }

    #[test]
    fn lone_sender_within_rt_decodes() {
        let c = cfg();
        let rx = Point::ORIGIN;
        // Exactly at R_T the SINR equals beta (noise-only): decodes.
        let tx = Point::new(c.r_t(), 0.0);
        assert!(decodes(&c, rx, tx, &[]));
        // Just beyond R_T: rejected by the range rule even though SNR may
        // still be above threshold (R_T < R_max).
        let far = Point::new(c.r_t() * 1.01, 0.0);
        assert!(!decodes(&c, rx, far, &[]));
    }

    #[test]
    fn interference_breaks_reception() {
        let c = cfg();
        let rx = Point::ORIGIN;
        let tx = Point::new(0.9, 0.0);
        assert!(decodes(&c, rx, tx, &[]));
        // Equidistant interferer: SINR ≈ signal/signal = 1 < beta.
        assert!(!decodes(&c, rx, tx, &[Point::new(-0.9, 0.0)]));
    }

    #[test]
    fn far_interferer_is_harmless() {
        let c = cfg();
        let rx = Point::ORIGIN;
        let tx = Point::new(0.5, 0.0);
        assert!(decodes(&c, rx, tx, &[Point::new(100.0, 0.0)]));
    }

    #[test]
    fn more_interferers_never_help() {
        // SINR monotonicity: adding a transmitter can only lower the SINR.
        let c = cfg();
        let rx = Point::ORIGIN;
        let tx = Point::new(0.8, 0.0);
        let mut others = Vec::new();
        let mut last = f64::INFINITY;
        for k in 1..6 {
            others.push(Point::new(-2.0 * k as f64, 1.0));
            let total = total_received_power(&c, rx, &others)
                + received_power(c.power(), rx.distance(tx), c.alpha());
            let s = sinr_from_total(&c, rx, tx, total);
            assert!(s <= last + 1e-12);
            last = s;
        }
    }

    #[test]
    fn sinr_from_total_matches_direct_computation() {
        let c = cfg();
        let rx = Point::ORIGIN;
        let tx = Point::new(0.7, 0.2);
        let others = [Point::new(3.0, 1.0), Point::new(-2.0, -2.0)];
        let mut all = others.to_vec();
        all.push(tx);
        let total = total_received_power(&c, rx, &all);
        let s = sinr_from_total(&c, rx, tx, total);
        let direct = received_power(c.power(), rx.distance(tx), c.alpha())
            / (c.noise() + total_received_power(&c, rx, &others));
        assert!((s - direct).abs() < 1e-12);
    }

    #[test]
    fn psi_outside_excludes_near_nodes() {
        let c = cfg();
        let positions = vec![
            Point::ORIGIN,
            Point::new(1.0, 0.0),  // inside exclusion radius 2
            Point::new(10.0, 0.0), // outside
        ];
        let probs = vec![0.5, 0.5, 0.5];
        let psi = psi_outside(&c, &positions, &probs, 0, 2.0);
        let expected = c.power() * 0.5 / 10.0f64.powf(c.alpha());
        assert!((psi - expected).abs() < 1e-15);
    }

    #[test]
    fn psi_outside_zero_when_everyone_near() {
        let c = cfg();
        let positions = vec![Point::ORIGIN, Point::new(0.5, 0.0)];
        let probs = vec![1.0, 1.0];
        assert_eq!(psi_outside(&c, &positions, &probs, 0, 1.0), 0.0);
    }
}
