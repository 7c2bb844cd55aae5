//! Collection strategies (`prop::collection::{vec, btree_set}`).

use crate::strategy::Strategy;
use sinr_rng::rngs::StdRng;
use sinr_rng::Rng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Ranges usable as a collection size specification.
pub trait SizeRange {
    /// Draws a concrete size.
    fn pick(&self, rng: &mut StdRng) -> usize;
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        if self.start >= self.end {
            self.start
        } else {
            rng.random_range(self.clone())
        }
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        if lo >= hi {
            lo
        } else {
            rng.random_range(lo..hi + 1)
        }
    }
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

/// A strategy producing `Vec`s of values from `element`, with length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S, impl SizeRange> {
    VecStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.new_value(rng)).collect()
    }
}

/// A strategy producing `BTreeSet`s with a target size drawn from `size`.
///
/// Duplicates drawn from `element` are discarded; if the element domain is
/// too small to reach the target size, a bounded number of redraws is made
/// and the (smaller) set is returned — matching upstream proptest's
/// semantics of `size` as a target, not a guarantee.
pub fn btree_set<S>(element: S, size: impl SizeRange) -> BTreeSetStrategy<S, impl SizeRange>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S, R> {
    element: S,
    size: R,
}

impl<S, R> Strategy for BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    type Value = BTreeSet<S::Value>;
    fn new_value(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < 16 * target.max(1) {
            set.insert(self.element.new_value(rng));
            attempts += 1;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_rng::SeedableRng;

    #[test]
    fn vec_respects_size_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = vec(0usize..100, 2..5);
        for _ in 0..100 {
            let v = s.new_value(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn vec_accepts_empty_range_degenerately() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = vec(0usize..10, 0..1);
        assert!(s.new_value(&mut rng).is_empty());
    }

    #[test]
    fn btree_set_hits_target_when_domain_allows() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = btree_set(0usize..1000, 8..=8);
        for _ in 0..50 {
            assert_eq!(s.new_value(&mut rng).len(), 8);
        }
    }

    #[test]
    fn btree_set_saturates_small_domains() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = btree_set(0usize..3, 10..=10);
        let set = s.new_value(&mut rng);
        assert!(set.len() <= 3);
        assert!(set.iter().all(|&v| v < 3));
    }
}
