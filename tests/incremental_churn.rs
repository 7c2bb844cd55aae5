//! Differential churn tests for the incremental resolver.
//!
//! `SinrModel` with its grid on keeps a persistent transmitter index
//! across slots and updates it from [`TxDelta`]s (or by internal diffing
//! when driven through plain `resolve`). These tests hammer that statefulness with
//! random start/stop churn — including adversarially *wrong* deltas and
//! forced epoch rebuilds every couple of slots — and require every
//! reception table to stay bit-identical to the model without a grid,
//! which keeps no transmitter state.

use proptest::prelude::*;
use sinr_geometry::{NodeId, Point, UnitDiskGraph};
use sinr_model::resolver::DEFAULT_NEAR_REACH_CELLS;
use sinr_model::{InterferenceModel, SinrConfig, SinrModel, TxDelta};

/// A placement plus a sequence of per-slot transmitter sets. Consecutive
/// sets are drawn independently, so the churn between them is maximal —
/// far harsher than the engine's real slot-to-slot evolution.
fn arb_churn_sequence(
    max_n: usize,
    max_slots: usize,
) -> impl Strategy<Value = (Vec<Point>, Vec<Vec<NodeId>>)> {
    (2.0..7.0f64)
        .prop_flat_map(move |extent| {
            prop::collection::vec(
                (0.0..extent, 0.0..extent).prop_map(|(x, y)| Point::new(x, y)),
                1..max_n,
            )
        })
        .prop_flat_map(move |pts| {
            let n = pts.len();
            let sets = prop::collection::vec(
                prop::collection::btree_set(0..n, 0..=n).prop_map(|s| s.into_iter().collect()),
                1..max_slots,
            );
            (Just(pts), sets)
        })
}

/// The true start/stop delta between consecutive transmitter sets (both
/// sorted ascending, as the engine produces them).
fn true_delta(prev: &[NodeId], cur: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    let started = cur.iter().copied().filter(|t| !prev.contains(t)).collect();
    let stopped = prev.iter().copied().filter(|t| !cur.contains(t)).collect();
    (started, stopped)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Delta-driven and plain-resolve-driven stateful resolution both
    /// match the model without a grid on every slot of a high-churn sequence,
    /// with epoch rebuilds forced every other slot so sequences cross
    /// rebuild boundaries mid-run.
    #[test]
    fn churned_sequences_match_naive_bit_for_bit(
        (pts, sets) in arb_churn_sequence(60, 12),
    ) {
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        let naive = SinrModel::with_grid(cfg, None);
        let mut by_delta = SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS));
        by_delta.set_epoch_interval(2);
        let by_resolve = SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS));

        let mut prev: Vec<NodeId> = Vec::new();
        for (slot, tx) in sets.iter().enumerate() {
            let expect = naive.resolve(&g, tx);
            let (started, stopped) = true_delta(&prev, tx);
            let got = by_delta.resolve_delta(
                &g,
                tx,
                TxDelta { started: &started, stopped: &stopped },
            );
            prop_assert_eq!(&got, &expect, "delta-driven diverges at slot {}", slot);
            // The internal-diff path (no delta supplied) must agree too.
            let got = by_resolve.resolve(&g, tx);
            prop_assert_eq!(&got, &expect, "resolve-driven diverges at slot {}", slot);
            prev = tx.clone();
        }
    }

    /// A wrong delta may cost the resolver a rebuild, never correctness:
    /// feeding arbitrary garbage start/stop lists still yields tables
    /// bit-identical to the model without a grid.
    #[test]
    fn wrong_deltas_never_change_tables(
        (pts, sets) in arb_churn_sequence(40, 10),
        noise in prop::collection::vec((0usize..40, 0usize..40), 0..10),
    ) {
        let cfg = SinrConfig::default_unit();
        let g = UnitDiskGraph::new(pts, cfg.r_t());
        let naive = SinrModel::with_grid(cfg, None);
        let mut fast = SinrModel::with_grid(cfg, Some(DEFAULT_NEAR_REACH_CELLS));
        fast.set_epoch_interval(3);

        for (slot, tx) in sets.iter().enumerate() {
            let (started, stopped): (Vec<NodeId>, Vec<NodeId>) = noise
                .iter()
                .map(|&(a, b)| (a % g.len(), b % g.len()))
                .unzip();
            let got = fast.resolve_delta(
                &g,
                tx,
                TxDelta { started: &started, stopped: &stopped },
            );
            prop_assert_eq!(&got, &naive.resolve(&g, tx), "slot {}", slot);
        }
    }
}
