//! Request fingerprinting for the result cache and the prepared-
//! dataset registry.
//!
//! Two [`ReleaseRequest`](crate::ReleaseRequest)s produce the same
//! release exactly when their hierarchy, sensitive data, release
//! configuration, and master seed agree (the release is a pure
//! function of those four — thread counts do not enter). The cache
//! therefore keys on a 128-bit FNV-1a digest of that tuple.
//!
//! The digest is computed in two stages so that prepared datasets can
//! amortize it: [`dataset_fingerprint`] digests the (large) hierarchy
//! and per-node histograms once, and [`request_fingerprint`] folds
//! that digest together with the (tiny) config and seed. An ε-sweep
//! over a prepared handle therefore pays the expensive data walk
//! exactly once; inline submissions compose the same two stages, so
//! the two paths share cache entries for identical requests.
//!
//! The engine's worker count is deliberately *excluded*: it never
//! changes the released bytes.

use hcc_consistency::{HierarchicalCounts, MergeStrategy, TopDownConfig};
use hcc_hierarchy::Hierarchy;

/// 128-bit FNV-1a, wide enough that accidental collisions between
/// distinct requests are not a practical concern for an in-memory
/// cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Separates variable-length fields so `("ab","c")` and
    /// `("a","bc")` digest differently.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

/// Digests the *data* half of a request — hierarchy shape and names
/// plus every node histogram. This is the expensive walk (linear in
/// hierarchy size × histogram width); prepared-dataset handles are
/// exactly this digest, computed once at `PREPARE` time.
pub fn dataset_fingerprint(hierarchy: &Hierarchy, data: &HierarchicalCounts) -> Fingerprint {
    let mut h = Fnv128::new();
    // Hierarchy: node count, then per node its name and parent index.
    h.write_u64(hierarchy.num_nodes() as u64);
    for node in hierarchy.iter() {
        h.write_str(hierarchy.name(node));
        h.write_u64(match hierarchy.parent(node) {
            Some(p) => p.index() as u64,
            None => u64::MAX,
        });
    }
    // Data: each node's dense histogram (length-prefixed).
    for node in hierarchy.iter() {
        let cells = data.node(node).as_slice();
        h.write_u64(cells.len() as u64);
        for &c in cells {
            h.write_u64(c);
        }
    }
    Fingerprint(h.0)
}

/// Digests the *request* half on top of a dataset digest: the
/// output-relevant parts of the config (budget, merge strategy, and
/// the method at each of the hierarchy's `levels`) plus the master
/// seed. Cheap — O(levels) — so submissions by prepared handle pay
/// nearly nothing for their cache key.
pub fn request_fingerprint(
    dataset: Fingerprint,
    levels: usize,
    cfg: &TopDownConfig,
    seed: u64,
) -> Fingerprint {
    let mut h = Fnv128::new();
    h.write(&dataset.0.to_le_bytes());
    h.write_u64(cfg.epsilon().to_bits());
    h.write_u64(match cfg.merge() {
        MergeStrategy::WeightedAverage => 0,
        MergeStrategy::PlainAverage => 1,
    });
    h.write_u64(levels as u64);
    for l in 0..levels {
        use hcc_consistency::LevelMethod::*;
        let (tag, bound) = match cfg.method_for_level(l) {
            Cumulative { bound } => (0u64, bound),
            CumulativeL2 { bound } => (1, bound),
            Unattributed => (2, 0),
            Naive { bound } => (3, bound),
            Adaptive { bound } => (4, bound),
        };
        h.write_u64(tag);
        h.write_u64(bound);
    }
    h.write_u64(seed);
    Fingerprint(h.0)
}

/// Digests a full release request: hierarchy shape and names, every
/// node histogram, the output-relevant parts of the config, and the
/// master seed. Composes [`dataset_fingerprint`] and
/// [`request_fingerprint`], so an inline submission and a prepared-
/// handle submission of the same request share one cache key.
pub fn fingerprint(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    cfg: &TopDownConfig,
    seed: u64,
) -> Fingerprint {
    request_fingerprint(
        dataset_fingerprint(hierarchy, data),
        hierarchy.num_levels(),
        cfg,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_consistency::LevelMethod;
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::HierarchyBuilder;

    fn case(names: [&str; 2], sizes: [u64; 3]) -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("root");
        let a = b.add_child(Hierarchy::ROOT, names[0]);
        let c = b.add_child(Hierarchy::ROOT, names[1]);
        let h = b.build();
        let d = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes(sizes)),
                (c, CountOfCounts::from_group_sizes([2, 2])),
            ],
        )
        .unwrap();
        (h, d)
    }

    #[test]
    fn identical_requests_collide_and_any_field_change_separates() {
        let (h, d) = case(["a", "b"], [1, 2, 3]);
        let cfg = TopDownConfig::new(1.0);
        let base = fingerprint(&h, &d, &cfg, 7);
        assert_eq!(base, fingerprint(&h, &d, &cfg, 7));

        // Seed.
        assert_ne!(base, fingerprint(&h, &d, &cfg, 8));
        // Budget.
        assert_ne!(base, fingerprint(&h, &d, &TopDownConfig::new(2.0), 7));
        // Method.
        let hg = TopDownConfig::new(1.0).with_method(LevelMethod::Unattributed);
        assert_ne!(base, fingerprint(&h, &d, &hg, 7));
        // Merge strategy.
        let plain = TopDownConfig::new(1.0).with_merge(MergeStrategy::PlainAverage);
        assert_ne!(base, fingerprint(&h, &d, &plain, 7));
        // Data.
        let (h2, d2) = case(["a", "b"], [1, 2, 4]);
        assert_ne!(base, fingerprint(&h2, &d2, &cfg, 7));
        // Region names.
        let (h3, d3) = case(["a", "x"], [1, 2, 3]);
        assert_ne!(base, fingerprint(&h3, &d3, &cfg, 7));
    }

    #[test]
    fn prepared_and_inline_keys_coincide() {
        // The two-stage digest must reproduce the one-shot digest:
        // that is what lets submissions by prepared handle share cache
        // entries with inline submissions of the same data.
        let (h, d) = case(["a", "b"], [1, 2, 3]);
        let cfg = TopDownConfig::new(1.0);
        let ds = dataset_fingerprint(&h, &d);
        assert_eq!(
            request_fingerprint(ds, h.num_levels(), &cfg, 7),
            fingerprint(&h, &d, &cfg, 7)
        );
        // The dataset digest ignores config and seed entirely.
        assert_eq!(ds, dataset_fingerprint(&h, &d));
        assert_ne!(
            request_fingerprint(ds, h.num_levels(), &cfg, 7),
            request_fingerprint(ds, h.num_levels(), &cfg, 8)
        );
    }
}
