//! Release-sized exhaustive equivalence of the L1 kernel with the seed
//! PAV: every input of length ≤ 8 over −2..=5, unclamped and anchored
//! at G ∈ 0..=3 (76.7M fits). It takes about 20 s in a release build
//! on a 2-vCPU Xeon, so it is ignored by default; run it with
//!
//! ```text
//! cargo test --release -p hcc-isotonic -- --ignored
//! ```

mod common;

use common::seed_anchored_l1_into;
use hcc_isotonic::{
    anchored_cumulative_into, isotonic_l1_heap, isotonic_l1_with, CumulativeLoss, PavL1Workspace,
};

#[test]
#[ignore = "release-sized; run with `cargo test --release -- --ignored`"]
fn l1_kernel_matches_seed_pav_exhaustively() {
    let mut ws = PavL1Workspace::new();
    let (mut scratch, mut out, mut expected) = (Vec::new(), Vec::new(), Vec::new());
    let mut noisy = Vec::new();
    for n in 0..=8u32 {
        for code in 0..1usize << (3 * n) {
            noisy.clear();
            noisy.extend((0..n).map(|d| (code >> (3 * d) & 7) as i64 - 2));
            let seed = isotonic_l1_heap(&noisy).values();
            assert_eq!(
                isotonic_l1_with(&noisy, &mut ws).values(),
                seed,
                "{noisy:?}"
            );
            // The anchored fit replaces the last cell by G.
            noisy.push(-9);
            for g in 0..=3u64 {
                let loss = CumulativeLoss::L1;
                anchored_cumulative_into(&noisy, g, loss, &mut ws, &mut scratch, &mut out);
                seed_anchored_l1_into(&seed, g, &mut expected);
                assert_eq!(out, expected, "{noisy:?}, G = {g}");
            }
        }
    }
}
