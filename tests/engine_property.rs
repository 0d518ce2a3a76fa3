//! Property test: across random hierarchy shapes, leaf data, seeds,
//! and level methods, the parallel engine release is bit-identical to
//! a direct single-threaded `top_down_release` with the same seed.

use std::sync::Arc;

use hccount::consistency::{to_csv, top_down_release, LevelMethod, TopDownConfig};
use hccount::core::CountOfCounts;
use hccount::engine::{Engine, EngineConfig, ReleaseRequest};
use hccount::hierarchy::{Hierarchy, HierarchyBuilder, NodeId};
use hccount::prelude::HierarchicalCounts;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a uniform-depth hierarchy with the given per-level fan-outs
/// and recycles the generated group-size multisets across the leaves.
fn build_case(fanouts: &[usize], leaf_sizes: &[Vec<u64>]) -> (Hierarchy, HierarchicalCounts) {
    let mut b = HierarchyBuilder::new("root");
    let mut frontier = vec![Hierarchy::ROOT];
    for &f in fanouts {
        let mut next = Vec::new();
        for &node in &frontier {
            for i in 0..f {
                next.push(b.add_child(node, format!("{node}-{i}")));
            }
        }
        frontier = next;
    }
    let h = b.build();
    let leaves: Vec<(NodeId, CountOfCounts)> = frontier
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let sizes = leaf_sizes
                .get(i % leaf_sizes.len().max(1))
                .cloned()
                .unwrap_or_default();
            (n, CountOfCounts::from_group_sizes(sizes))
        })
        .collect();
    let data = HierarchicalCounts::from_leaves(&h, leaves).expect("uniform by construction");
    (h, data)
}

fn method_for(selector: u8) -> LevelMethod {
    match selector % 5 {
        0 => LevelMethod::Cumulative { bound: 64 },
        1 => LevelMethod::CumulativeL2 { bound: 64 },
        2 => LevelMethod::Unattributed,
        3 => LevelMethod::Naive { bound: 64 },
        _ => LevelMethod::Adaptive { bound: 64 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_release_bit_identical_to_direct_top_down_release(
        fanouts in prop::collection::vec(1usize..4, 1..4),
        leaf_sizes in prop::collection::vec(
            prop::collection::vec(0u64..40, 0..10), 1..5),
        seed in any::<u64>(),
        eps in 0.05f64..5.0,
        selector in any::<u8>(),
        workers in 2usize..5,
    ) {
        let (h, data) = build_case(&fanouts, &leaf_sizes);
        let cfg = TopDownConfig::new(eps).with_method(method_for(selector));

        let direct = {
            let mut rng = StdRng::seed_from_u64(seed);
            to_csv(&h, &top_down_release(&h, &data, &cfg, &mut rng).unwrap())
        };

        // The full engine: queue, work-stealing pool, cache.
        let engine = Engine::start(EngineConfig::default().with_workers(workers));
        let id = engine
            .submit(ReleaseRequest::new(
                Arc::new(h),
                Arc::new(data),
                cfg,
                seed,
            ))
            .unwrap();
        let (result, _) = engine.wait(id).unwrap();
        prop_assert_eq!(&result.csv, &direct);
    }
}
