//! L1 (least-absolute-deviations) isotonic regression.
//!
//! The paper found that the L1 variant of the `Hc` method outperforms
//! L2 (consistent with Lin & Kifer's observations on unattributed
//! histograms) and that its solutions are almost always integral. We
//! realise the "almost always" as *always*: every fitted value is the
//! **lower median** of the inputs it pools. Any value between the
//! lower and upper median minimises a pool's absolute deviation, and
//! the lower median of integers is an integer.
//!
//! Two implementations share those semantics:
//!
//! * [`PavL1Workspace::solve`] — the hot-path solver, the "slope
//!   trick". A forward pass keeps the breakpoints of the prefix
//!   problem's cost function in a max-queue: it pushes each `y_i`,
//!   and when the queue's max exceeds `y_i` it replaces that max with
//!   `y_i`. The queue's max after step `i`, `t_i`, is where that cost
//!   function stops decreasing. A backward pass then sets
//!   `x_i = min_{j ≥ i} t_j`. The queue is a count per value with a
//!   hierarchical occupancy bitmap whenever the input's value span is
//!   at most `max(4096, 2n)`, which holds on the `Hc` hot path (a
//!   node's clamped values lie in `[0, G]`), and a binary heap
//!   (`O(n log n)`) otherwise. Either way a workspace holds `O(n)`
//!   memory, never `O(value span)`, and a warm one does not allocate.
//!   The heap alone would give the same fits, but on real `Hc` node
//!   inputs it is 2.7× slower (the `isotonic_l1/hc_housing_20k` bench:
//!   184 ms against 68 ms on a 2-vCPU Xeon).
//! * [`isotonic_l1_heap`] — the seed block-stack PAV (two fresh
//!   `BinaryHeap`s per input element), kept as the property-test
//!   oracle and as the perf baseline for the `release_hot_path`
//!   benchmarks.
//!
//! Both return the same fitted values; the tests pin that
//! exhaustively on short inputs and by property on long ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fit::{Block, IsotonicFit};

/// The bucket queue serves every input whose value span is at most
/// `max(BUCKET_SPAN_MIN, 2n)`: its counts and bitmap then take `O(n)`
/// memory, and resetting them costs no more than one pass over the
/// input.
const BUCKET_SPAN_MIN: u64 = 4096;

/// One maximal constant run of a fit: `len` cells starting at
/// `start`, all equal to `median`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FittedBlock {
    /// Index of the first element of the run.
    pub start: usize,
    /// Number of elements in the run (≥ 1).
    pub len: usize,
    /// The run's fitted value: the lower median of the inputs it
    /// covers, so always an integer — the reason the `Hc` method
    /// needs no rounding.
    pub median: i64,
}

/// Reusable state for the L1 solver: the forward pass's max-queue
/// (bucket counts, or a heap), its per-step maxima, and the last fit's
/// runs. One warm workspace per worker thread makes
/// [`PavL1Workspace::solve`] allocation-free across the thousands of
/// `bound`-length fits a hierarchical release sweep performs.
#[derive(Default)]
pub struct PavL1Workspace {
    buckets: BucketQueue,
    heap: BinaryHeap<i64>,
    /// `t_i`: the queue's max after the forward pass's step `i`.
    tops: Vec<i64>,
    /// The last fit's maximal constant runs, right to left.
    runs: Vec<FittedBlock>,
}

impl PavL1Workspace {
    /// An empty workspace; buffers grow on first use and are retained
    /// for later solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fits `y`, leaving the solution readable through
    /// [`PavL1Workspace::fitted_blocks`] until the next solve.
    pub fn solve(&mut self, y: &[i64]) {
        self.solve_clamped(y, i64::MIN, i64::MAX);
    }

    /// Fits `y` with every input first clamped into `[floor, ceil]`.
    /// The lower-median fit commutes with a monotone clamp, so this is
    /// [`PavL1Workspace::solve`]'s fit clamped into the box, computed
    /// in integers throughout.
    pub(crate) fn solve_clamped(&mut self, y: &[i64], floor: i64, ceil: i64) {
        debug_assert!(floor <= ceil, "empty clamp box [{floor}, {ceil}]");
        self.tops.clear();
        self.runs.clear();
        if y.is_empty() {
            return;
        }
        let (min, max) = y
            .iter()
            .fold((i64::MAX, i64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
        let lo = min.clamp(floor, ceil);
        let span = max.clamp(floor, ceil).abs_diff(lo);
        let n = y.len();
        // Every count stays at most n + 1, so u32 buckets cannot
        // overflow below that length.
        if span < BUCKET_SPAN_MIN.max(2 * n as u64) && n < u32::MAX as usize {
            self.forward_buckets(y, floor, ceil, lo, span as usize + 1);
        } else {
            self.forward_heap(y, floor, ceil);
        }
        self.backward();
    }

    /// The forward pass over the values `lo..lo + len`, which hold
    /// every clamped input.
    fn forward_buckets(&mut self, y: &[i64], floor: i64, ceil: i64, lo: i64, len: usize) {
        let Self { buckets, tops, .. } = self;
        buckets.reset(len);
        let mut top = 0;
        for &v in y {
            let k = (v.clamp(floor, ceil) - lo) as usize;
            if k >= top {
                buckets.add(k, 1);
                top = k;
            } else {
                // One copy of `k` for the push, one for the max it
                // replaces.
                buckets.add(k, 2);
                if buckets.remove_one(top) {
                    top = buckets.prev(top);
                }
            }
            tops.push(lo + top as i64);
        }
    }

    /// The forward pass on a binary heap, for inputs too spread out
    /// for buckets.
    fn forward_heap(&mut self, y: &[i64], floor: i64, ceil: i64) {
        let Self { heap, tops, .. } = self;
        heap.clear();
        for &v in y {
            let v = v.clamp(floor, ceil);
            if let Some(mut max) = heap.peek_mut() {
                if *max > v {
                    *max = v;
                }
            }
            heap.push(v);
            tops.push(*heap.peek().expect("the heap was just pushed to"));
        }
    }

    /// The backward pass: `x_i = min_{j ≥ i} t_j`, recorded as maximal
    /// constant runs.
    fn backward(&mut self) {
        let Some((&last, rest)) = self.tops.split_last() else {
            return;
        };
        let (mut value, mut end) = (last, self.tops.len());
        for (i, &t) in rest.iter().enumerate().rev() {
            if t < value {
                self.runs.push(FittedBlock {
                    start: i + 1,
                    len: end - i - 1,
                    median: value,
                });
                (value, end) = (t, i + 1);
            }
        }
        self.runs.push(FittedBlock {
            start: 0,
            len: end,
            median: value,
        });
    }

    /// The last solve's fit as maximal constant runs, left to right.
    pub fn fitted_blocks(&self) -> impl Iterator<Item = FittedBlock> + '_ {
        self.runs.iter().rev().copied()
    }
}

/// A max-queue's storage over the values `0..len`: a count per value
/// plus a hierarchical occupancy bitmap. Level 0 has one bit per
/// value, bit `i` of each higher level is set when word `i` of the
/// level below is non-zero, and the last level is one word. Finding
/// the next occupied value below an emptied max reads one word per
/// level, however wide the gap.
#[derive(Default)]
struct BucketQueue {
    counts: Vec<u32>,
    /// Every level's words, level 0 first.
    bits: Vec<u64>,
    /// Where each level starts in `bits`.
    levels: Vec<usize>,
}

impl BucketQueue {
    /// Empties the queue and sizes it for the values `0..len`.
    fn reset(&mut self, len: usize) {
        self.counts.clear();
        self.counts.resize(len, 0);
        self.bits.clear();
        self.levels.clear();
        let mut width = len;
        loop {
            self.levels.push(self.bits.len());
            let words = width.div_ceil(64);
            self.bits.resize(self.bits.len() + words, 0);
            if words == 1 {
                break;
            }
            width = words;
        }
    }

    /// Adds `c` copies of the value `k`.
    fn add(&mut self, k: usize, c: u32) {
        let was = self.counts[k];
        self.counts[k] = was + c;
        if was == 0 {
            let mut i = k;
            for &base in &self.levels {
                let word = &mut self.bits[base + i / 64];
                let was_empty = *word == 0;
                *word |= 1 << (i % 64);
                if !was_empty {
                    break;
                }
                i /= 64;
            }
        }
    }

    /// Removes one copy of the value `k`, which must be present;
    /// `true` when that was the last copy.
    fn remove_one(&mut self, k: usize) -> bool {
        self.counts[k] -= 1;
        if self.counts[k] != 0 {
            return false;
        }
        let mut i = k;
        for &base in &self.levels {
            let word = &mut self.bits[base + i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        true
    }

    /// The largest occupied value below `k`. One must exist.
    fn prev(&self, k: usize) -> usize {
        // Climb until some level has a set bit left of position `i` in
        // `i`'s own word…
        let (mut i, mut level) = (k, 0);
        let (word, below) = loop {
            let base = *self
                .levels
                .get(level)
                .expect("an occupied value lies below k");
            let below = self.bits[base + i / 64] & ((1 << (i % 64)) - 1);
            if below != 0 {
                break (i / 64, below);
            }
            (i, level) = (i / 64, level + 1);
        };
        // …then descend along the highest set bits.
        let mut i = word * 64 + 63 - below.leading_zeros() as usize;
        while level > 0 {
            level -= 1;
            let w = self.bits[self.levels[level] + i];
            i = i * 64 + 63 - w.leading_zeros() as usize;
        }
        i
    }
}

/// Solves `min Σ |x_i − y_i| s.t. x non-decreasing`, returning integer
/// block values (lower medians).
///
/// ```
/// use hcc_isotonic::isotonic_l1;
/// // The paper's Figure 2 input: [0, 4, 2, 4, 5, 3]. L1 pools the
/// // violating stretches to medians.
/// let fit = isotonic_l1(&[0, 4, 2, 4, 5, 3]);
/// let v = fit.values();
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// assert!(v.iter().all(|x| x.fract() == 0.0)); // integral
/// ```
pub fn isotonic_l1(y: &[i64]) -> IsotonicFit {
    isotonic_l1_with(y, &mut PavL1Workspace::new())
}

/// [`isotonic_l1`] reusing a caller-owned workspace — same fit, no
/// per-call solver allocations (the returned [`IsotonicFit`] still
/// owns its block list; use [`PavL1Workspace::fitted_blocks`] directly
/// when even that must be avoided).
pub fn isotonic_l1_with(y: &[i64], ws: &mut PavL1Workspace) -> IsotonicFit {
    ws.solve(y);
    IsotonicFit::from_blocks(
        ws.fitted_blocks()
            .map(|b| Block {
                start: b.start,
                len: b.len,
                value: b.median as f64,
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Seed implementation (oracle + perf baseline).
// ---------------------------------------------------------------------------

/// A multiset of integers supporting O(log n) insertion and O(1)
/// lower-median queries.
#[derive(Debug, Default)]
struct MedianHeap {
    /// Max-heap holding the lower half (including the lower median).
    lo: BinaryHeap<i64>,
    /// Min-heap holding the upper half.
    hi: BinaryHeap<Reverse<i64>>,
}

impl MedianHeap {
    fn len(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    fn push(&mut self, x: i64) {
        match self.lo.peek() {
            Some(&m) if x > m => self.hi.push(Reverse(x)),
            _ => self.lo.push(x),
        }
        self.rebalance();
    }

    fn rebalance(&mut self) {
        // Invariant: lo.len() == hi.len() or lo.len() == hi.len() + 1,
        // so the lower median is always lo's max.
        if self.lo.len() > self.hi.len() + 1 {
            let x = self.lo.pop().expect("lo non-empty");
            self.hi.push(Reverse(x));
        } else if self.hi.len() > self.lo.len() {
            let Reverse(x) = self.hi.pop().expect("hi non-empty");
            self.lo.push(x);
        }
    }

    /// The lower median. Panics on an empty heap.
    fn median(&self) -> i64 {
        *self.lo.peek().expect("median of empty block")
    }

    /// Merges `other` into `self`, draining the smaller side.
    fn absorb(&mut self, mut other: MedianHeap) {
        if other.len() > self.len() {
            std::mem::swap(self, &mut other);
        }
        for x in other.lo {
            self.push(x);
        }
        for Reverse(x) in other.hi {
            self.push(x);
        }
    }
}

/// The seed (pre-workspace) L1 PAV: allocates two `BinaryHeap`s per
/// input element. Kept verbatim as the property-test oracle for
/// [`PavL1Workspace::solve`] and as the "per-node-allocation path"
/// baseline that the `release_hot_path` benchmark and tier-1 perf
/// smoke measure the workspace pipeline against. Not for production
/// use — call [`isotonic_l1`] instead.
pub fn isotonic_l1_heap(y: &[i64]) -> IsotonicFit {
    struct Pool {
        start: usize,
        len: usize,
        heap: MedianHeap,
    }
    let mut stack: Vec<Pool> = Vec::new();
    for (i, &yi) in y.iter().enumerate() {
        let mut heap = MedianHeap::default();
        heap.push(yi);
        stack.push(Pool {
            start: i,
            len: 1,
            heap,
        });
        while stack.len() >= 2 {
            let last_med = stack[stack.len() - 1].heap.median();
            let prev_med = stack[stack.len() - 2].heap.median();
            if prev_med > last_med {
                let last = stack.pop().expect("len >= 2");
                let prev = stack.last_mut().expect("len >= 1");
                prev.len += last.len;
                prev.heap.absorb(last.heap);
            } else {
                break;
            }
        }
    }
    IsotonicFit::from_blocks(
        stack
            .into_iter()
            .map(|p| Block {
                start: p.start,
                len: p.len,
                value: p.heap.median() as f64,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorted_input_is_identity() {
        let y = [1, 2, 2, 5];
        assert_eq!(isotonic_l1(&y).values(), vec![1.0, 2.0, 2.0, 5.0]);
    }

    #[test]
    fn violation_pools_to_lower_median() {
        // Block {3, 1}: lower median 1.
        assert_eq!(isotonic_l1(&[3, 1]).values(), vec![1.0, 1.0]);
        // [5, 1, 2] has two optimal fits of cost 4 ([1,1,2] and
        // [2,2,2]); PAV's incremental pooling picks [1,1,2].
        let fit = isotonic_l1(&[5, 1, 2]);
        assert_eq!(fit.values(), vec![1.0, 1.0, 2.0]);
        let cost: i64 = fit
            .values()
            .iter()
            .zip([5i64, 1, 2])
            .map(|(&x, y)| (x as i64 - y).abs())
            .sum();
        assert_eq!(cost, 4);
    }

    #[test]
    fn integer_outputs_for_integer_inputs() {
        let y = [9, -3, 4, 4, 0, 7, 7, 2];
        for v in isotonic_l1(&y).values() {
            assert_eq!(v, v.round(), "value {v} not integral");
        }
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_l1(&[]).is_empty());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // The pooled heaps store raw i64s (no negation tricks), so
        // i64::MIN is a legal input.
        let y = [i64::MAX, i64::MIN, 0, i64::MIN];
        let fit = isotonic_l1(&y);
        assert_eq!(fit.values(), isotonic_l1_heap(&y).values());
    }

    /// A deterministic noisy plateau around 500 — the `Hc` hot-path
    /// shape.
    fn plateau(n: u64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                500 + ((z >> 33) % 41) as i64 - 20
            })
            .collect()
    }

    #[test]
    fn hot_path_inputs_take_the_bucket_queue() {
        // If the queue selection bit-rots, every fit silently degrades
        // to the O(n log n) heap. A fresh workspace per input shows
        // which queue its solve touched.
        // The alternating input's gaps span three bitmap levels.
        let alternating: Vec<i64> = (0..20_000).map(|i| (i % 2) * 30_000).collect();
        for y in [plateau(20_000), alternating] {
            let mut ws = PavL1Workspace::new();
            let fit = isotonic_l1_with(&y, &mut ws);
            let span = (y.iter().max().unwrap() - y.iter().min().unwrap()) as usize;
            assert_eq!(ws.buckets.counts.len(), span + 1);
            assert_eq!(ws.heap.capacity(), 0, "the heap was used");
            assert_eq!(fit.values(), isotonic_l1_heap(&y).values());
        }
        // A span wider than max(4096, 2n) takes the heap instead.
        let wide: Vec<i64> = (0..1_000).map(|i| (i % 2) * 1_000_000).collect();
        let mut ws = PavL1Workspace::new();
        let fit = isotonic_l1_with(&wide, &mut ws);
        assert!(ws.buckets.counts.is_empty() && ws.heap.capacity() > 0);
        assert_eq!(fit.values(), isotonic_l1_heap(&wide).values());
    }

    #[test]
    fn workspace_reuse_across_solves_is_clean() {
        let mut ws = PavL1Workspace::new();
        let a = isotonic_l1_with(&[5, 1, 2], &mut ws);
        assert_eq!(a.values(), vec![1.0, 1.0, 2.0]);
        // A second, longer solve must not see stale state…
        let b = isotonic_l1_with(&[9, -3, 4, 4, 0, 7, 7, 2], &mut ws);
        assert_eq!(
            b.values(),
            isotonic_l1_heap(&[9, -3, 4, 4, 0, 7, 7, 2]).values()
        );
        // …nor must a shorter or empty one.
        let c = isotonic_l1_with(&[2], &mut ws);
        assert_eq!(c.values(), vec![2.0]);
        let d = isotonic_l1_with(&[], &mut ws);
        assert!(d.is_empty());
    }

    /// Reference: exact L1 isotonic regression by dynamic programming
    /// over candidate values (an optimal solution always exists whose
    /// values are drawn from the input multiset).
    fn brute_force_l1_cost(y: &[i64]) -> i64 {
        let mut cands: Vec<i64> = y.to_vec();
        cands.sort_unstable();
        cands.dedup();
        let m = cands.len();
        // dp[j] = min cost so far ending with value cands[j];
        // prefix-min makes the monotonicity constraint cheap.
        let mut dp = vec![0i64; m];
        for &yi in y {
            let mut best = i64::MAX;
            for j in 0..m {
                best = best.min(dp[j]);
                dp[j] = best + (cands[j] - yi).abs();
            }
        }
        dp.into_iter().min().unwrap_or(0)
    }

    fn l1_cost(x: &[f64], y: &[i64]) -> f64 {
        x.iter().zip(y).map(|(a, &b)| (a - b as f64).abs()).sum()
    }

    proptest! {
        /// The PAV-with-medians solution achieves the exact optimal L1
        /// cost computed by dynamic programming.
        #[test]
        fn pav_l1_is_optimal(y in prop::collection::vec(-20i64..20, 1..14)) {
            let fit = isotonic_l1(&y);
            let x = fit.values();
            for w in x.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            let pav = l1_cost(&x, &y);
            let opt = brute_force_l1_cost(&y) as f64;
            prop_assert!(
                (pav - opt).abs() < 1e-9,
                "PAV cost {} but optimum is {}", pav, opt
            );
        }

        /// The workspace solver reproduces the seed heap
        /// implementation's fitted values and maximal runs, on one
        /// reused workspace so stale state would be caught too.
        /// Plateau, narrow, wide, mixed and near-`i64`-extreme inputs
        /// exercise both queues and switches between them.
        #[test]
        fn flat_solver_matches_heap_oracle(
            noise in prop::collection::vec(-12i64..12, 0..400),
            narrow in prop::collection::vec(-50i64..50, 0..200),
            wide in prop::collection::vec(-1_000_000i64..1_000_000, 0..200),
            extreme in prop::collection::vec((any::<bool>(), 0i64..8), 0..40),
        ) {
            let n = noise.len();
            let plateau: Vec<i64> = noise
                .iter()
                .enumerate()
                .map(|(i, &z)| (i.min(n / 5) / 3) as i64 + z)
                .collect();
            let mixed: Vec<i64> = narrow
                .iter()
                .zip(&wide)
                .flat_map(|(&a, &b)| [a, b])
                .collect();
            let extreme: Vec<i64> = extreme
                .iter()
                .map(|&(high, d)| if high { i64::MAX - d } else { i64::MIN + d })
                .collect();
            let mut ws = PavL1Workspace::new();
            for y in [&plateau, &narrow, &wide, &mixed, &extreme] {
                let flat = isotonic_l1_with(y, &mut ws);
                let heap = isotonic_l1_heap(y);
                prop_assert_eq!(flat.values(), heap.values());
                prop_assert_eq!(flat.coalesced().blocks(), heap.coalesced().blocks());
            }
        }

        /// Median heap returns the lower median of any sequence.
        #[test]
        fn median_heap_matches_sort(xs in prop::collection::vec(-50i64..50, 1..60)) {
            let mut h = MedianHeap::default();
            for &x in &xs {
                h.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let lower_median = sorted[(sorted.len() - 1) / 2];
            prop_assert_eq!(h.median(), lower_median);
        }
    }

    #[test]
    fn absorb_smaller_into_larger_keeps_median() {
        let mut a = MedianHeap::default();
        for x in [1, 2, 3, 4, 5, 6, 7] {
            a.push(x);
        }
        let mut b = MedianHeap::default();
        b.push(100);
        b.push(-100);
        a.absorb(b);
        // Multiset {-100,1..=7,100}: 9 elements, lower median = 4.
        assert_eq!(a.median(), 4);
        assert_eq!(a.len(), 9);
    }
}
