//! Reusable per-worker scratch buffers for the estimation hot path.
//!
//! The `Hc` pipeline privatizes a `bound`-length cumulative histogram
//! at every hierarchy node: true cumulative view → noisy copy →
//! isotonic fit → fitted cells. The seed implementation allocated all
//! four dense vectors afresh per node, so a release over a deep
//! hierarchy (and even more so an ε-sweep) spent its time in the
//! allocator rather than in arithmetic. An [`EstimatorWorkspace`]
//! owns those buffers; one workspace per worker thread, reused across
//! every node that worker estimates, keeps the hot loop in
//! cache-resident storage with no steady-state allocations.
//!
//! **Determinism.** Buffer reuse never changes results: every buffer
//! is fully overwritten (cleared, then written for exactly the
//! current node's length) before it is read, and the RNG draw order
//! is untouched — the slice-filling noise entry points draw in
//! exactly the per-cell order. The golden bit-identity suite in
//! `hcc-engine` pins this: releases through warm workspaces hash
//! identically to the seed pipeline's.

use hcc_isotonic::PavL1Workspace;

/// Scratch buffers for one estimation worker. Create once per thread
/// and pass to [`Estimator::estimate_in`](crate::Estimator::estimate_in)
/// for every node.
#[derive(Default)]
pub struct EstimatorWorkspace {
    /// True cumulative view of the node (`Hc`), `bound + 1` cells.
    pub(crate) cum: Vec<u64>,
    /// Noisy integer view (`Hc`).
    pub(crate) noisy: Vec<i64>,
    /// Dense f64 scratch: the `Hg` method's noisy unattributed
    /// vector, and the `Hc`-L2 branch's fitted expansion.
    pub(crate) values: Vec<f64>,
    /// Fitted cumulative cells (`Hc`).
    pub(crate) fitted: Vec<u64>,
    /// L1 PAV solver state (block stack + recycled heap storage).
    pub(crate) pav: PavL1Workspace,
}

impl EstimatorWorkspace {
    /// An empty workspace. No buffer allocates until first use, so
    /// constructing one ad hoc (as the convenience
    /// [`Estimator::estimate`](crate::Estimator::estimate) wrapper
    /// does) costs nothing beyond what the seed pipeline paid.
    pub fn new() -> Self {
        Self::default()
    }
}
