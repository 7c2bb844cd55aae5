//! Seeded node-placement generators.
//!
//! The paper assumes nodes "placed arbitrarily" in the plane; experiments
//! need reproducible families of placements with controllable density (and
//! hence controllable maximum degree Δ). All generators are deterministic in
//! their `seed`.

use crate::point::Point;
use sinr_rng::rngs::StdRng;
use sinr_rng::{Rng, SeedableRng};

/// `n` points drawn i.i.d. uniformly from `[0, width] × [0, height]`.
///
/// # Panics
///
/// Panics if `width` or `height` is negative or non-finite.
///
/// # Example
///
/// ```
/// use sinr_geometry::placement;
///
/// let a = placement::uniform(100, 10.0, 10.0, 7);
/// let b = placement::uniform(100, 10.0, 10.0, 7);
/// assert_eq!(a, b); // deterministic in the seed
/// ```
pub fn uniform(n: usize, width: f64, height: f64, seed: u64) -> Vec<Point> {
    assert!(
        width.is_finite() && height.is_finite() && width >= 0.0 && height >= 0.0,
        "placement area must be finite and non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                rng.random_range(0.0..=width),
                rng.random_range(0.0..=height),
            )
        })
        .collect()
}

/// A `cols × rows` grid with spacing `step`, each point jittered uniformly
/// by at most `jitter` in each coordinate.
///
/// With `jitter = 0` this is an exact lattice, which gives tight control of
/// the maximum degree of the induced UDG.
///
/// # Panics
///
/// Panics if `step` is not positive/finite or `jitter` is negative.
pub fn jittered_grid(cols: usize, rows: usize, step: f64, jitter: f64, seed: u64) -> Vec<Point> {
    assert!(step.is_finite() && step > 0.0, "grid step must be positive");
    assert!(
        jitter.is_finite() && jitter >= 0.0,
        "jitter must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            let jx = if jitter > 0.0 {
                rng.random_range(-jitter..=jitter)
            } else {
                0.0
            };
            let jy = if jitter > 0.0 {
                rng.random_range(-jitter..=jitter)
            } else {
                0.0
            };
            pts.push(Point::new(c as f64 * step + jx, r as f64 * step + jy));
        }
    }
    pts
}

/// `clusters` cluster centers uniform in `[0, width] × [0, height]`, each
/// with `per_cluster` points placed uniformly in a disk of radius
/// `cluster_radius` around its center.
///
/// Produces the high-density hot spots that stress the interference model.
pub fn clustered(
    clusters: usize,
    per_cluster: usize,
    width: f64,
    height: f64,
    cluster_radius: f64,
    seed: u64,
) -> Vec<Point> {
    assert!(
        cluster_radius.is_finite() && cluster_radius >= 0.0,
        "cluster radius must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let cx = rng.random_range(0.0..=width);
        let cy = rng.random_range(0.0..=height);
        for _ in 0..per_cluster {
            // Uniform in a disk via rejection-free polar sampling.
            let theta = rng.random_range(0.0..std::f64::consts::TAU);
            let r = cluster_radius * rng.random::<f64>().sqrt();
            pts.push(Point::new(cx + r * theta.cos(), cy + r * theta.sin()));
        }
    }
    pts
}

/// `n` points evenly spaced on a horizontal line with spacing `step`,
/// jittered vertically by at most `jitter`.
///
/// Line topologies are the worst case for sequential color propagation.
pub fn line(n: usize, step: f64, jitter: f64, seed: u64) -> Vec<Point> {
    assert!(step.is_finite() && step > 0.0, "line step must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let jy = if jitter > 0.0 {
                rng.random_range(-jitter..=jitter)
            } else {
                0.0
            };
            Point::new(i as f64 * step, jy)
        })
        .collect()
}

/// `n` points uniform in a square sized so that the *expected* number of
/// points within distance `r_t` of a point is `target_degree`.
///
/// Density `λ = n / side²` satisfies `λ · π r_t² = target_degree`, i.e.
/// `side = r_t · sqrt(π n / target_degree)`. This is the workhorse for
/// experiments that sweep Δ or n independently.
///
/// # Panics
///
/// Panics if `target_degree` or `r_t` is not strictly positive.
pub fn uniform_with_expected_degree(
    n: usize,
    r_t: f64,
    target_degree: f64,
    seed: u64,
) -> Vec<Point> {
    assert!(target_degree > 0.0, "target degree must be positive");
    assert!(r_t > 0.0, "transmission range must be positive");
    let side = r_t * (std::f64::consts::PI * n as f64 / target_degree).sqrt();
    uniform(n, side, side, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::Bbox;
    use crate::graph::UnitDiskGraph;

    #[test]
    fn uniform_respects_bounds_and_count() {
        let pts = uniform(200, 5.0, 3.0, 1);
        assert_eq!(pts.len(), 200);
        let area = Bbox::new(0.0, 0.0, 5.0, 3.0);
        assert!(pts.iter().all(|&p| area.contains(p)));
    }

    #[test]
    fn uniform_is_deterministic_and_seed_sensitive() {
        assert_eq!(uniform(50, 1.0, 1.0, 9), uniform(50, 1.0, 1.0, 9));
        assert_ne!(uniform(50, 1.0, 1.0, 9), uniform(50, 1.0, 1.0, 10));
    }

    #[test]
    fn grid_without_jitter_is_exact_lattice() {
        let pts = jittered_grid(3, 2, 2.0, 0.0, 0);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], Point::new(0.0, 0.0));
        assert_eq!(pts[1], Point::new(2.0, 0.0));
        assert_eq!(pts[5], Point::new(4.0, 2.0));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let step = 1.0;
        let jitter = 0.2;
        let pts = jittered_grid(5, 5, step, jitter, 11);
        for (i, p) in pts.iter().enumerate() {
            let base = Point::new((i % 5) as f64 * step, (i / 5) as f64 * step);
            assert!((p.x - base.x).abs() <= jitter + 1e-12);
            assert!((p.y - base.y).abs() <= jitter + 1e-12);
        }
    }

    #[test]
    fn clusters_stay_within_radius() {
        let pts = clustered(4, 25, 10.0, 10.0, 0.5, 5);
        assert_eq!(pts.len(), 100);
        for chunk in pts.chunks(25) {
            // Every point of a cluster is within 2*radius of every other.
            for a in chunk {
                for b in chunk {
                    assert!(a.distance(*b) <= 1.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn line_is_ordered_along_x() {
        let pts = line(10, 0.5, 0.1, 2);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.x, i as f64 * 0.5);
            assert!(p.y.abs() <= 0.1);
        }
    }

    #[test]
    fn expected_degree_controls_density() {
        // Empirical mean degree should be near the target for large n.
        let n = 2000;
        let target = 12.0;
        let pts = uniform_with_expected_degree(n, 1.0, target, 4);
        let g = UnitDiskGraph::new(pts, 1.0);
        let mean: f64 = (0..n).map(|v| g.degree(v) as f64).sum::<f64>() / n as f64;
        // Boundary effects bias the mean down a little; allow a wide band.
        assert!(
            mean > target * 0.6 && mean < target * 1.3,
            "mean degree {mean} too far from target {target}"
        );
    }
}
