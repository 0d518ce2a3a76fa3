//! The correctness gate: every release the server returns is checked
//! against the true data, and a mismatch fails the run.

use hcc_consistency::{from_csv, to_csv, top_down_release, HierarchicalCounts, TopDownConfig};
use hcc_core::{check_desiderata, try_emd};
use hcc_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a release that passed the gate contributes to the quality
/// metric: Σ over nodes of EMD(release, truth), and Σ over nodes of G.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Σ over nodes of EMD(release, truth).
    pub emd: u64,
    /// Σ over nodes of the public group count G.
    pub groups: u64,
}

impl Quality {
    /// Adds another release's contribution.
    pub fn add(&mut self, other: Quality) {
        self.emd += other.emd;
        self.groups += other.groups;
    }

    /// The paper's error metric: EMD per group.
    pub fn per_group(&self) -> f64 {
        self.emd as f64 / self.groups.max(1) as f64
    }
}

/// Parses a release CSV and checks it against the truth: it parses
/// and is hierarchically consistent (`from_csv`), every node carries
/// the true public G (`check_desiderata`), and, for bounded methods,
/// no group exceeds the public bound K.
pub fn check_release(
    hierarchy: &Hierarchy,
    truth: &HierarchicalCounts,
    csv: &str,
    bound: Option<u64>,
) -> Result<Quality, String> {
    let release = from_csv(hierarchy, csv).map_err(|e| format!("release does not parse: {e}"))?;
    let mut q = Quality::default();
    for node in hierarchy.iter() {
        let (got, want) = (release.node(node), truth.node(node));
        let g = want.num_groups();
        check_desiderata(got, g).map_err(|e| format!("node {}: {e}", hierarchy.name(node)))?;
        if let Some(k) = bound {
            let max = got.max_size().unwrap_or(0);
            if max > k {
                return Err(format!(
                    "node {}: released group size {max} exceeds the public bound {k}",
                    hierarchy.name(node)
                ));
            }
        }
        q.emd += try_emd(got, want).map_err(|e| format!("node {}: {e}", hierarchy.name(node)))?;
        q.groups += g;
    }
    Ok(q)
}

/// The off-clock reference: a served release must be byte-equal to
/// `to_csv(top_down_release(h, d, cfg, StdRng::seed_from_u64(seed)))`.
pub fn check_reference(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    cfg: &TopDownConfig,
    seed: u64,
    served: &str,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let release = top_down_release(hierarchy, data, cfg, &mut rng)
        .map_err(|e| format!("reference release for seed {seed} failed: {e}"))?;
    let want = to_csv(hierarchy, &release);
    if want == served {
        Ok(())
    } else {
        Err(format!(
            "served release for seed {seed} ({} bytes) differs from the off-clock \
             reference ({} bytes)",
            served.len(),
            want.len()
        ))
    }
}

/// The ledger must never under-count: the engine's recorded spend on a
/// dataset is at least what the benchmark saw it accept and compute.
pub fn check_ledger(what: &str, spent: Option<f64>, accepted: f64) -> Result<(), String> {
    match spent {
        None => Err(format!("{what}: the engine keeps no budget ledger")),
        Some(spent) if spent < accepted => Err(format!(
            "{what}: ledger under-counts: spent {spent} < accepted {accepted}"
        )),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_consistency::LevelMethod;
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::HierarchyBuilder;

    fn sample() -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("top");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let c = b.add_child(Hierarchy::ROOT, "b");
        let h = b.build();
        let data = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 1, 2, 4])),
                (c, CountOfCounts::from_group_sizes([2, 3])),
            ],
        )
        .expect("consistent sample");
        (h, data)
    }

    fn served(h: &Hierarchy, d: &HierarchicalCounts, seed: u64) -> (TopDownConfig, String) {
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 8 });
        let mut rng = StdRng::seed_from_u64(seed);
        let release = top_down_release(h, d, &cfg, &mut rng).expect("release");
        (cfg, to_csv(h, &release))
    }

    #[test]
    fn accepts_a_true_release() {
        let (h, d) = sample();
        let (cfg, csv) = served(&h, &d, 3);
        let q = check_release(&h, &d, &csv, Some(8)).expect("valid release");
        assert_eq!(q.groups, 6 + 4 + 2);
        check_reference(&h, &d, &cfg, 3, &csv).expect("byte-equal");
    }

    #[test]
    fn rejects_a_corrupted_release() {
        let (h, d) = sample();
        let (cfg, csv) = served(&h, &d, 3);
        // Drop one row: the root no longer sums its children.
        let corrupted: String = csv
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            + &csv
                .lines()
                .skip(3)
                .map(|l| format!("{l}\n"))
                .collect::<String>();
        assert!(check_release(&h, &d, &corrupted, Some(8)).is_err());
        assert!(check_reference(&h, &d, &cfg, 3, &corrupted).is_err());
        assert!(check_release(&h, &d, "region,level,size,count\nnowhere,0,1,1\n", None).is_err());
    }

    #[test]
    fn rejects_a_wrong_public_g() {
        let (h, d) = sample();
        let (_, csv) = served(&h, &d, 3);
        // Same hierarchy, one more group at a leaf: every G on its
        // root path differs from what was released.
        let mut b = HierarchyBuilder::new("top");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let c = b.add_child(Hierarchy::ROOT, "b");
        let h2 = b.build();
        let other = HierarchicalCounts::from_leaves(
            &h2,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 1, 2, 4, 5])),
                (c, CountOfCounts::from_group_sizes([2, 3])),
            ],
        )
        .expect("consistent");
        let err = check_release(&h2, &other, &csv, Some(8)).expect_err("wrong G");
        assert!(err.contains("group"), "{err}");
    }

    #[test]
    fn rejects_an_undercounted_ledger() {
        assert!(check_ledger("ds", Some(2.0), 2.0).is_ok());
        assert!(check_ledger("ds", Some(2.5), 2.0).is_ok());
        assert!(check_ledger("ds", Some(1.9375), 2.0).is_err());
        assert!(check_ledger("ds", None, 0.0).is_err());
    }
}
