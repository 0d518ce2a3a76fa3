//! The seed anchored L1 fit, shared by the integration tests as their
//! oracle.

/// Writes the seed anchored fit into `out`: `seed`, the seed PAV's
/// values for the prefix, clamped into `[0, G]`, then `G` itself.
pub fn seed_anchored_l1_into(seed: &[f64], g: u64, out: &mut Vec<u64>) {
    out.clear();
    out.extend(seed.iter().map(|&v| (v as i64).clamp(0, g as i64) as u64));
    out.push(g);
}
