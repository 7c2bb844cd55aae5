//! 2-D points and Euclidean distance, the `δ(u, v)` of the paper.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point in the 2-D Euclidean plane.
///
/// The paper places all nodes "arbitrarily in the … Euclidean space" (§II);
/// every geometric quantity (transmission range `R_T`, interference radius
/// `R_I`, guard distance `d·R_T`) is a Euclidean distance between points.
///
/// # Example
///
/// ```
/// use sinr_geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance `δ(self, other)`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance; cheaper than [`Point::distance`] when only
    /// comparisons against a squared threshold are needed.
    #[inline]
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment `[self, other]`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Whether both coordinates are finite (not NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(-3.5, 7.25);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(0.3, -0.7);
        let b = Point::new(-1.1, 2.2);
        let d = a.distance(b);
        assert!((a.distance_squared(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        let m = a.midpoint(b);
        assert!((m.distance(a) - m.distance(b)).abs() < 1e-12);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(b - a, Point::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a / 2.0, Point::new(0.5, 1.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let p = Point::new(1.5, -2.5);
        let t: (f64, f64) = p.into();
        assert_eq!(Point::from(t), p);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
