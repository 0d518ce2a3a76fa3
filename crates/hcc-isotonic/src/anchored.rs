//! The `Hc` method's constrained isotonic regression (Section 4.3).
//!
//! Given the noisy cumulative histogram `H̃c` (one cell per size
//! `0..=K`) and the public group count `G`, solve
//!
//! ```text
//! min ‖Ĥc − H̃c‖_p   s.t.   0 ≤ Ĥc[0] ≤ … ≤ Ĥc[K],  Ĥc[K] = G
//! ```
//!
//! for `p ∈ {1, 2}`. The terminal equality lets us fix the last cell
//! and solve a box-constrained isotonic problem on the prefix; for a
//! constant box, clamping the unconstrained isotonic solution is
//! exact for any separable convex loss.

use crate::pav_l1::PavL1Workspace;
use crate::pav_l2::isotonic_l2;

/// Which norm the `Hc` post-processing minimises. The paper found L1
/// "performs better than the L2 version" and mostly yields integers;
/// both are provided so the comparison can be reproduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CumulativeLoss {
    /// Least absolute deviations (paper's preferred choice).
    #[default]
    L1,
    /// Least squares.
    L2,
}

/// Post-processes a noisy cumulative histogram into a valid one:
/// non-decreasing, within `[0, G]`, final cell exactly `G`, all cells
/// integers.
///
/// `noisy` must be non-empty (the caller always has at least the cell
/// for size 0, and `K ≥ 0`).
pub fn anchored_cumulative(noisy: &[i64], g: u64, loss: CumulativeLoss) -> Vec<u64> {
    let mut out = Vec::new();
    anchored_cumulative_into(
        noisy,
        g,
        loss,
        &mut PavL1Workspace::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// [`anchored_cumulative`] with every buffer caller-owned: `pav`
/// holds the L1 solver state, `scratch` the dense f64 expansion the
/// L2 loss needs, and `out` receives the fitted cells (cleared
/// first). A warm workspace makes the `Hc` hot path allocation-free;
/// the produced cells are bit-identical to the allocating wrapper.
pub fn anchored_cumulative_into(
    noisy: &[i64],
    g: u64,
    loss: CumulativeLoss,
    pav: &mut PavL1Workspace,
    scratch: &mut Vec<f64>,
    out: &mut Vec<u64>,
) {
    assert!(
        !noisy.is_empty(),
        "a cumulative histogram has at least one cell"
    );
    let prefix = &noisy[..noisy.len() - 1];
    let gf = g as f64;
    out.clear();
    out.reserve(noisy.len());
    match loss {
        CumulativeLoss::L1 => {
            // Clamping the inputs into [0, G] clamps the lower-median
            // fit, and keeps every cell an exact integer: no f64
            // round trip, so bounds beyond 2^53 stay exact. Every
            // input is at most i64::MAX, so a larger G clamps nothing
            // more than i64::MAX does.
            let ceil = i64::try_from(g).unwrap_or(i64::MAX);
            pav.solve_clamped(prefix, 0, ceil);
            for b in pav.fitted_blocks() {
                out.resize(out.len() + b.len, b.median as u64);
            }
        }
        CumulativeLoss::L2 => {
            scratch.clear();
            scratch.extend(prefix.iter().map(|&v| v as f64));
            let fit = isotonic_l2(scratch).clamped(0.0, gf);
            fit.values_into(scratch);
            for &v in scratch.iter() {
                out.push(v.round().max(0.0).min(gf) as u64);
            }
        }
    }
    out.push(g);
    debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pav_l1::{isotonic_l1_heap, isotonic_l1_with};
    use proptest::prelude::*;

    #[test]
    fn clean_input_passes_through() {
        let noisy = [0, 2, 3, 5];
        assert_eq!(
            anchored_cumulative(&noisy, 5, CumulativeLoss::L1),
            vec![0, 2, 3, 5]
        );
        assert_eq!(
            anchored_cumulative(&noisy, 5, CumulativeLoss::L2),
            vec![0, 2, 3, 5]
        );
    }

    #[test]
    fn negative_noise_is_clamped_to_zero() {
        let noisy = [-3, -1, 2, 5];
        let out = anchored_cumulative(&noisy, 5, CumulativeLoss::L1);
        assert_eq!(out, vec![0, 0, 2, 5]);
    }

    #[test]
    fn values_above_g_are_clamped() {
        let noisy = [1, 9, 9, 5];
        let out = anchored_cumulative(&noisy, 5, CumulativeLoss::L1);
        assert!(out.iter().all(|&v| v <= 5));
        assert_eq!(*out.last().unwrap(), 5);
    }

    #[test]
    fn last_cell_is_ignored_and_replaced_by_g() {
        // The noisy final cell is wild; the anchor overrides it.
        let noisy = [0, 1, 1, -999];
        let out = anchored_cumulative(&noisy, 7, CumulativeLoss::L1);
        assert_eq!(out, vec![0, 1, 1, 7]);
    }

    #[test]
    fn single_cell_histogram() {
        // K = 0: only the anchor cell exists... the prefix is empty.
        let out = anchored_cumulative(&[123], 9, CumulativeLoss::L2);
        assert_eq!(out, vec![9]);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_input_panics() {
        let _ = anchored_cumulative(&[], 3, CumulativeLoss::L1);
    }

    #[test]
    fn l1_fit_is_exact_beyond_2_pow_53() {
        // 2^53 + 1 has no f64 representation; the fit must not pass
        // through one.
        let big = (1i64 << 53) + 1;
        let out = anchored_cumulative(&[big, 0], big as u64 + 2, CumulativeLoss::L1);
        assert_eq!(out, vec![big as u64, big as u64 + 2]);
        // A G beyond i64::MAX clamps nothing.
        let out = anchored_cumulative(&[i64::MAX, -1, 0], u64::MAX, CumulativeLoss::L1);
        assert_eq!(out, vec![0, 0, u64::MAX]);
    }

    /// The seed anchored L1 fit: the seed PAV, then the clamp into
    /// `[0, G]`.
    fn seed_anchored_l1(noisy: &[i64], g: u64) -> Vec<u64> {
        let prefix = &noisy[..noisy.len() - 1];
        let mut out: Vec<u64> = isotonic_l1_heap(prefix)
            .values()
            .into_iter()
            .map(|v| (v as i64).clamp(0, g as i64) as u64)
            .collect();
        out.push(g);
        out
    }

    #[test]
    fn l1_matches_seed_oracle_exhaustively() {
        // Every input of length ≤ 5 over −2..=4 (19 607 of them), on
        // one reused workspace: the unclamped fit against the seed PAV,
        // then the input as a prefix anchored at G ∈ 0..=3 (the last
        // cell is replaced by G) against the seed anchored fit.
        let (mut pav, mut scratch, mut out) = (PavL1Workspace::new(), Vec::new(), Vec::new());
        let mut noisy = Vec::new();
        for n in 0..=5u32 {
            for code in 0..7usize.pow(n) {
                noisy.clear();
                noisy.extend((0..n).map(|d| (code / 7usize.pow(d) % 7) as i64 - 2));
                assert_eq!(
                    isotonic_l1_with(&noisy, &mut pav).values(),
                    isotonic_l1_heap(&noisy).values(),
                    "{noisy:?}"
                );
                noisy.push(-9);
                for g in 0..=3 {
                    let loss = CumulativeLoss::L1;
                    anchored_cumulative_into(&noisy, g, loss, &mut pav, &mut scratch, &mut out);
                    assert_eq!(out, seed_anchored_l1(&noisy, g), "{noisy:?}, G = {g}");
                }
            }
        }
    }

    proptest! {
        /// The buffer-reusing variant is byte-identical to the
        /// allocating wrapper for both losses, across reuses of one
        /// (deliberately stale) workspace.
        #[test]
        fn into_variant_matches_wrapper(
            inputs in prop::collection::vec(
                (prop::collection::vec(-100i64..100, 1..40), 0u64..60), 1..4),
            use_l1 in any::<bool>(),
        ) {
            let loss = if use_l1 { CumulativeLoss::L1 } else { CumulativeLoss::L2 };
            let mut pav = crate::pav_l1::PavL1Workspace::new();
            let mut scratch = vec![3.5; 7];
            let mut out = vec![9u64; 3];
            for (noisy, g) in &inputs {
                anchored_cumulative_into(noisy, *g, loss, &mut pav, &mut scratch, &mut out);
                prop_assert_eq!(&out, &anchored_cumulative(noisy, *g, loss));
            }
        }

        /// The L1 fit equals the seed oracle's on plateau, narrow,
        /// wide and near-`i64`-extreme inputs, on one reused
        /// workspace, with G inside and beyond the inputs' range.
        #[test]
        fn l1_matches_seed_oracle(
            noise in prop::collection::vec(-12i64..12, 1..400),
            narrow in prop::collection::vec(-50i64..50, 1..200),
            wide in prop::collection::vec(-1_000_000i64..1_000_000, 1..200),
            extreme in prop::collection::vec((any::<bool>(), 0i64..8), 1..40),
            g in 0u64..2_000_000,
        ) {
            let n = noise.len();
            let plateau: Vec<i64> = noise
                .iter()
                .enumerate()
                .map(|(i, &z)| (i.min(n / 5) / 3) as i64 + z)
                .collect();
            let extreme: Vec<i64> = extreme
                .iter()
                .map(|&(high, d)| if high { i64::MAX - d } else { i64::MIN + d })
                .collect();
            let (mut pav, mut scratch, mut out) = (PavL1Workspace::new(), Vec::new(), Vec::new());
            for noisy in [&plateau, &narrow, &wide, &extreme] {
                for g in [g, g % 64] {
                    let loss = CumulativeLoss::L1;
                    anchored_cumulative_into(noisy, g, loss, &mut pav, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &seed_anchored_l1(noisy, g));
                }
            }
        }

        /// Output is always a valid cumulative histogram regardless of
        /// noise.
        #[test]
        fn output_is_valid_cumulative(
            noisy in prop::collection::vec(-100i64..100, 1..40),
            g in 0u64..60,
            use_l1 in any::<bool>(),
        ) {
            let loss = if use_l1 { CumulativeLoss::L1 } else { CumulativeLoss::L2 };
            let out = anchored_cumulative(&noisy, g, loss);
            prop_assert_eq!(out.len(), noisy.len());
            prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(out.iter().all(|&v| v <= g));
            prop_assert_eq!(*out.last().unwrap(), g);
        }

        /// L1 on integer inputs never needs rounding: fitted values are
        /// exactly the clamped medians.
        #[test]
        fn l1_solution_cost_not_beaten_by_shifts(
            noisy in prop::collection::vec(-20i64..40, 2..15),
            g in 1u64..30,
        ) {
            let out = anchored_cumulative(&noisy, g, CumulativeLoss::L1);
            let cost: i64 = out[..out.len()-1].iter().zip(noisy[..noisy.len()-1].iter())
                .map(|(&o, &y)| (o as i64 - y).abs()).sum();
            // Competitor: shift the whole prefix by ±1 where feasible.
            for delta in [-1i64, 1] {
                let comp: Vec<i64> = out[..out.len()-1].iter()
                    .map(|&o| (o as i64 + delta).clamp(0, g as i64)).collect();
                let comp_cost: i64 = comp.iter().zip(noisy[..noisy.len()-1].iter())
                    .map(|(&o, &y)| (o - y).abs()).sum();
                prop_assert!(cost <= comp_cost, "shift by {} improves cost", delta);
            }
        }
    }
}
