mod common;

use common::seed_anchored_l1_into;
use hcc_isotonic::{
    anchored_cumulative, anchored_cumulative_into, isotonic_l1_heap, CumulativeLoss, PavL1Workspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn anchored_l1_100k_cells_is_fast() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 100_001usize;
    let noisy: Vec<i64> = (0..n)
        .map(|i| (i / 10) as i64 + rng.gen_range(-5..5))
        .collect();
    let t = std::time::Instant::now();
    let out = anchored_cumulative(&noisy, (n as u64 - 1) / 10 + 10, CumulativeLoss::L1);
    let dt = t.elapsed();
    eprintln!("anchored L1 on {n} cells: {dt:?}");
    assert_eq!(out.len(), n);
    assert!(dt.as_secs_f64() < 5.0, "too slow: {dt:?}");
}

/// The kernel's worst shapes at the `Hc` benchmark's K = 20 000: an
/// input alternating between 0 and G (every step empties the queue's
/// max and searches the widest gap) and uniform noise over [0, G],
/// for a G that fits the bucket queue and two that force the heap.
/// Each fit must equal the seed PAV clamped into [0, G] and finish
/// within the 100k test's bound.
#[test]
fn anchored_l1_worst_case_shapes_are_fast_and_exact() {
    let k = 20_000;
    let mut rng = StdRng::seed_from_u64(2);
    let mut pav = PavL1Workspace::new();
    let (mut scratch, mut out, mut expected) = (Vec::new(), Vec::new(), Vec::new());
    for g in [2_472u64, 100_000, 100_000_000] {
        let gi = g as i64;
        let alternating: Vec<i64> = (0..=k).map(|i| (i % 2) * gi).collect();
        let uniform: Vec<i64> = (0..=k).map(|_| rng.gen_range(0..=gi)).collect();
        for (shape, noisy) in [("alternating", alternating), ("uniform", uniform)] {
            let t = std::time::Instant::now();
            let loss = CumulativeLoss::L1;
            anchored_cumulative_into(&noisy, g, loss, &mut pav, &mut scratch, &mut out);
            let dt = t.elapsed();
            eprintln!("anchored L1, {shape} [0, {g}], K = {k}: {dt:?}");
            assert!(dt.as_secs_f64() < 5.0, "{shape} G = {g} too slow: {dt:?}");
            let seed = isotonic_l1_heap(&noisy[..k as usize]).values();
            seed_anchored_l1_into(&seed, g, &mut expected);
            assert!(
                out == expected,
                "{shape} G = {g}: fit differs from the seed PAV"
            );
        }
    }
}
