//! The geometric mechanism and its double-geometric noise
//! distribution.

use rand::{Rng, RngCore};

/// The two-sided (double) geometric distribution with parameter
/// `alpha = e^(−ε/Δ)`:
///
/// `P(X = k) = (1 − α) / (1 + α) · α^|k|` for `k ∈ ℤ`.
///
/// This is Definition 3 of the paper with scale `Δ(q)/ε`. A draw is
/// `X = G₁ − G₂`, where `G₁, G₂` are i.i.d. geometric on
/// `{0, 1, 2, …}` with success probability `1 − α`. The output is an
/// integer, but each `Gᵢ` comes from f64 inversion,
/// `floor(ln U / ln α)` on a 53-bit uniform `U`. That is the class of
/// sampler Mironov (CCS 2012) attacked: rounding in `ln` and the
/// divide makes some tail outputs possible for one input and
/// impossible for its neighbour, so the realised distribution is only
/// approximately the PMF above. ROADMAP item 1(b) replaces it with an
/// integer-only sampler.
///
/// Slices of at least 4096 cells ([`DoubleGeometric::fill`],
/// [`GeometricMechanism::privatize_into`]) go through a per-α lookup
/// table that returns exactly the value the f64 inversion would, for
/// the same RNG word. It is a bit-exact accelerator: it neither fixes
/// nor worsens the floating-point issue.
#[derive(Clone, Copy, Debug)]
pub struct DoubleGeometric {
    alpha: f64,
    /// `ln α`, precomputed at construction: the inversion sampler
    /// divides by it on **every** one-sided draw, and recomputing the
    /// transcendental per draw dominated slice-sized sampling (the
    /// `Hc` method draws `bound + 1` values per hierarchy node).
    ln_alpha: f64,
}

impl DoubleGeometric {
    /// Creates the distribution for a query with global sensitivity
    /// `sensitivity` released under privacy budget `epsilon`.
    ///
    /// Panics if `epsilon` or `sensitivity` is not strictly positive
    /// and finite — a zero or negative budget provides no privacy
    /// semantics and indicates a configuration bug. Also panics if
    /// `epsilon / sensitivity` is so small that `α = e^(−ε/Δ)` rounds
    /// to exactly 1.0 (below ≈1e-16): at α = 1 the PMF is improper
    /// (every integer equally likely), the inversion sampler divides
    /// by `ln 1 = 0`, and before this guard the resulting `-inf` was
    /// cast to a *negative* one-sided geometric draw — the two sides
    /// cancelled and the mechanism silently added **zero** noise at
    /// the tiniest (most privacy-demanding) budgets.
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        assert!(
            sensitivity.is_finite() && sensitivity > 0.0,
            "sensitivity must be positive and finite, got {sensitivity}"
        );
        let alpha = (-epsilon / sensitivity).exp();
        assert!(
            alpha < 1.0,
            "epsilon/sensitivity = {} is too small: alpha rounds to 1 and the \
             double-geometric becomes improper (draws would overflow i64)",
            epsilon / sensitivity
        );
        Self {
            alpha,
            ln_alpha: alpha.ln(),
        }
    }

    /// The distribution parameter `α = e^(−ε/Δ)`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Variance of the distribution: `2α / (1 − α)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Draws one noise value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        self.sample_one_sided(rng) - self.sample_one_sided(rng)
    }

    /// Fills `out` with i.i.d. noise values, in exactly the order
    /// repeated [`DoubleGeometric::sample`] calls would draw them, and
    /// bit-identical to them: slice-filling is a hot-loop convenience,
    /// never a different noise stream. Slices of at least 4096 cells
    /// build a lookup table first (a few µs) that replaces the
    /// per-draw `ln` and divide with one byte load on all but a small
    /// share of draws.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [i64], rng: &mut R) {
        match OneSidedTable::for_slice(self, out.len()) {
            Some(table) => {
                for slot in out {
                    *slot = table.sample(rng);
                }
            }
            None => {
                for slot in out {
                    *slot = self.sample(rng);
                }
            }
        }
    }

    /// Geometric on {0, 1, 2, …} with `P(g) = (1 − α) α^g`: one RNG
    /// word through [`Self::one_sided_at`]. At α = 0 every draw is 0
    /// and no word is consumed.
    fn sample_one_sided<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        if self.alpha == 0.0 {
            return 0;
        }
        self.one_sided_at(rng.next_u64() >> 11)
    }

    /// The reference one-sided draw for the 53-bit integer `m`, by
    /// inversion: `g = floor(ln U / ln α)` with `U = 1 − m·2⁻⁵³`,
    /// the same `U` as `1 − rng.gen::<f64>()` (exact, and in (0, 1],
    /// so `ln 0` never occurs). The lookup table is checked against
    /// this function and falls back to it; there is no second
    /// formula.
    ///
    /// The division by the precomputed `ln α` is kept a *division*
    /// (not a multiply by a reciprocal): `x / ln_alpha` is bit-exact
    /// with the historical per-draw `x / alpha.ln()`, while
    /// `x * (1.0 / ln_alpha)` rounds differently and would silently
    /// change every release.
    fn one_sided_at(&self, m: u64) -> i64 {
        let u = 1.0 - m as f64 * (1.0 / (1u64 << 53) as f64);
        let g = (u.ln() / self.ln_alpha).floor();
        // Clamp the extreme tail to i64::MAX instead of casting raw: a
        // raw `as i64` of an out-of-range or non-finite quotient would
        // saturate to i64::MIN for the -inf/NaN artifacts of α ≈ 1,
        // turning an (always non-negative) geometric draw negative.
        // Both sides of [`Self::sample`] stay in [0, i64::MAX], so
        // their difference can never overflow.
        if g.is_finite() && g < i64::MAX as f64 {
            debug_assert!(g >= 0.0, "one-sided geometric draw must be non-negative");
            g.max(0.0) as i64
        } else {
            i64::MAX
        }
    }

    /// The guard band `[lo, hi]` in m-space around step `k`, the
    /// point where [`Self::one_sided_at`] moves from `k − 1` to `k`.
    ///
    /// The exact quotient `ln U / ln α` equals `x` at
    /// `m = −2⁵³·expm1(x·ln α)`, rising with `m`. The band spans
    /// `x ∈ [k − η, k + η]`, widened by [`BAND_SLACK`] units for the
    /// rounding of this computation. Outside the band the exact
    /// quotient is more than η = 1e-9 from `k`, while the f64
    /// reference is off by a few ulps (about 1e-14 for `x < 33`), so
    /// its floor is the exact floor there. Both ends are clamped to
    /// `2⁵³`, one past the largest `m`.
    fn guard_band(&self, k: u8) -> (u64, u64) {
        let k = f64::from(k);
        let edge = |x: f64| -(x * self.ln_alpha).exp_m1() * M_END as f64;
        // `as u64` saturates, so a slightly negative edge becomes 0.
        let lo = ((edge(k - BAND_ETA).floor() as u64).saturating_sub(BAND_SLACK)).min(M_END);
        let hi = (edge(k + BAND_ETA).ceil() as u64 + BAND_SLACK).min(M_END);
        (lo, hi)
    }
}

/// One past the largest `m = next_u64() >> 11`.
const M_END: u64 = 1 << 53;
/// Slices shorter than this keep the per-draw loop: the table build
/// (1–5 µs measured) would cost more than it saves.
const TABLE_MIN_CELLS: usize = 4096;
/// log₂ of the table length: bucket `b` holds the `m` with
/// `m >> BUCKET_SHIFT == b`.
const BUCKET_BITS: u32 = 12;
const BUCKET_SHIFT: u32 = 53 - BUCKET_BITS;
/// Steps 1..=`TABLE_STEPS` get a guard band; buckets past the last
/// band (the tail, `U < α^TABLE_STEPS`) always fall back.
const TABLE_STEPS: u8 = 32;
/// Half-width of a guard band, in units of the quotient `ln U / ln α`.
const BAND_ETA: f64 = 1e-9;
/// Extra width of a guard band, in units of `m`.
const BAND_SLACK: u64 = 4;
/// Table entry for a bucket the fast path cannot answer.
const FALLBACK: u8 = u8::MAX;

/// A per-α lookup table for [`DoubleGeometric::one_sided_at`].
///
/// The one-sided draw is a non-decreasing step function of
/// `m = next_u64() >> 11`. The table splits m-space into 4096 equal
/// buckets. A bucket that lies strictly between two adjacent guard
/// bands stores the draw of that whole stretch; any other bucket
/// (one holding a band, or in the tail) stores [`FALLBACK`], and the
/// draw runs the reference on the same `m`. So every draw, table or
/// not, equals the reference bit for bit, and consumes the same one
/// RNG word.
struct OneSidedTable {
    dist: DoubleGeometric,
    steps: [u8; 1 << BUCKET_BITS],
}

impl OneSidedTable {
    /// The table for `dist`, when a slice of `len` cells is worth it;
    /// None at α = 0, where the reference consumes no RNG words.
    ///
    /// Builds in O(buckets + steps). Panics if the reference disagrees
    /// with a stretch's value at either end of the stretch: a check of
    /// the guard-band reasoning, never expected to fire.
    fn for_slice(dist: &DoubleGeometric, len: usize) -> Option<Self> {
        if len < TABLE_MIN_CELLS || dist.alpha == 0.0 {
            return None;
        }
        let mut steps = [FALLBACK; 1 << BUCKET_BITS];
        // Stretch `v` is `[start, end)`: past band `v`, before band
        // `v + 1`. Stretch 0 starts at m = 0.
        let mut start = 0u64;
        for v in 0..TABLE_STEPS {
            let (lo, hi) = dist.guard_band(v + 1);
            if start < lo {
                let want = i64::from(v);
                assert!(
                    dist.one_sided_at(start) == want && dist.one_sided_at(lo - 1) == want,
                    "alpha {}: reference leaves step {v} inside [{start}, {lo})",
                    dist.alpha
                );
                let first = start.div_ceil(1 << BUCKET_SHIFT);
                let last = lo >> BUCKET_SHIFT;
                for b in first..last {
                    steps[b as usize] = v;
                }
            }
            start = start.max(hi + 1);
        }
        Some(Self { dist: *dist, steps })
    }

    /// The one-sided draw for `m`: one shift and one byte load, or
    /// the reference for a [`FALLBACK`] bucket.
    #[inline]
    fn at(&self, m: u64) -> i64 {
        match self.steps[(m >> BUCKET_SHIFT) as usize] {
            FALLBACK => self.dist.one_sided_at(m),
            g => i64::from(g),
        }
    }

    /// [`DoubleGeometric::sample`], through the table.
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> i64 {
        let g1 = self.at(rng.next_u64() >> 11);
        g1 - self.at(rng.next_u64() >> 11)
    }
}

/// The geometric mechanism: privatizes an integer-valued query by
/// adding i.i.d. [`DoubleGeometric`] noise to every coordinate.
#[derive(Clone, Copy, Debug)]
pub struct GeometricMechanism {
    dist: DoubleGeometric,
    epsilon: f64,
    sensitivity: f64,
}

impl GeometricMechanism {
    /// Mechanism for a vector query with L1 global sensitivity
    /// `sensitivity`, satisfying `epsilon`-differential privacy
    /// (Lemma 2).
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        Self {
            dist: DoubleGeometric::new(epsilon, sensitivity),
            epsilon,
            sensitivity,
        }
    }

    /// The privacy budget consumed by one invocation.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The calibrated sensitivity.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The per-coordinate noise distribution.
    pub fn distribution(&self) -> DoubleGeometric {
        self.dist
    }

    /// Per-coordinate noise variance (used by the paper's Section 5.1
    /// variance estimates, approximated there as `2/ε₁²` per unit
    /// sensitivity).
    pub fn variance(&self) -> f64 {
        self.dist.variance()
    }

    /// Adds noise to one true count.
    pub fn privatize<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> i64 {
        count_to_i64(value).saturating_add(self.dist.sample(rng))
    }

    /// Adds i.i.d. noise to every coordinate of a counts vector.
    pub fn privatize_vec<R: Rng + ?Sized>(&self, values: &[u64], rng: &mut R) -> Vec<i64> {
        let mut out = Vec::new();
        self.privatize_into(values, &mut out, rng);
        out
    }

    /// [`GeometricMechanism::privatize_vec`] into a caller-owned
    /// buffer (cleared first): the same draws in the same order as
    /// repeated [`GeometricMechanism::privatize`], but the hot loop
    /// reuses one allocation across nodes, and a vector of at least
    /// 4096 counts draws its noise through
    /// [`DoubleGeometric::fill`]'s lookup table.
    pub fn privatize_into<R: Rng + ?Sized>(&self, values: &[u64], out: &mut Vec<i64>, rng: &mut R) {
        out.clear();
        out.resize(values.len(), 0);
        self.dist.fill(out, rng);
        for (noisy, &v) in out.iter_mut().zip(values) {
            *noisy = count_to_i64(v).saturating_add(*noisy);
        }
    }
}

fn count_to_i64(value: u64) -> i64 {
    i64::try_from(value).expect("count exceeds i64::MAX")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        let _ = DoubleGeometric::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sensitivity must be positive")]
    fn zero_sensitivity_rejected() {
        let _ = DoubleGeometric::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha rounds to 1")]
    fn epsilon_below_f64_resolution_is_rejected() {
        // Regression: ε/Δ below ~1e-16 makes α = e^(−ε/Δ) round to
        // exactly 1.0. The inversion sampler then divides by ln 1 = 0,
        // and the old raw cast turned the resulting -inf into
        // i64::MIN — a *negative* one-sided geometric — whose two
        // sides cancelled to zero net noise: the mechanism silently
        // released true counts at the strictest budgets. Such budgets
        // must be rejected at construction.
        let _ = DoubleGeometric::new(1e-300, 1.0);
    }

    #[test]
    fn tiny_epsilon_tail_is_clamped_not_overflowed() {
        // The smallest admissible budgets produce astronomically
        // heavy tails (mean one-sided draw ≈ Δ/ε). Every draw must
        // stay inside [−i64::MAX, i64::MAX] so downstream integer
        // arithmetic cannot overflow, while still being huge.
        let d = DoubleGeometric::new(1e-12, 1.0);
        assert!(d.alpha() < 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let mut saw_large = false;
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!(s >= -i64::MAX, "draw {s} escaped the clamp");
            saw_large |= s.unsigned_abs() > 1_000_000_000;
            // privatize() must saturate rather than wrap on top of
            // such draws.
            let m = GeometricMechanism::new(1e-12, 1.0);
            let _ = m.privatize(u64::try_from(i64::MAX).unwrap(), &mut rng);
        }
        assert!(saw_large, "tiny-epsilon tails should be enormous");
    }

    #[test]
    fn alpha_matches_definition() {
        let d = DoubleGeometric::new(1.0, 2.0);
        assert!((d.alpha() - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn empirical_mean_is_near_zero() {
        let d = DoubleGeometric::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let sum: i64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // std of the mean ≈ sqrt(var/n) ≈ 0.0035 for ε=1.
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
    }

    #[test]
    fn empirical_variance_matches_formula() {
        for &(eps, sens) in &[(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0)] {
            let d = DoubleGeometric::new(eps, sens);
            let mut rng = StdRng::seed_from_u64(7);
            let n = 200_000;
            let mut sum = 0f64;
            let mut sumsq = 0f64;
            for _ in 0..n {
                let x = d.sample(&mut rng) as f64;
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / n as f64;
            let var = sumsq / n as f64 - mean * mean;
            let expected = d.variance();
            assert!(
                (var - expected).abs() / expected < 0.05,
                "eps={eps} sens={sens}: var {var} vs expected {expected}"
            );
        }
    }

    #[test]
    fn pmf_ratio_respects_epsilon() {
        // Empirical check of the DP-defining likelihood ratio: the
        // frequency of k and k+1 should differ by at most e^(ε/Δ)
        // (up to sampling error), since P(k)/P(k+1) = e^(ε/Δ) for k ≥ 0.
        let d = DoubleGeometric::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let n = 400_000;
        let mut freq = std::collections::HashMap::new();
        for _ in 0..n {
            *freq.entry(d.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let f0 = freq[&0] as f64;
        let f1 = freq[&1] as f64;
        let ratio = f0 / f1;
        let e = 1f64.exp();
        assert!(
            (ratio - e).abs() < 0.25,
            "P(0)/P(1) = {ratio}, expected ≈ {e}"
        );
    }

    #[test]
    fn privatize_vec_adds_integer_noise() {
        let m = GeometricMechanism::new(0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = m.privatize_vec(&[10, 0, 1_000_000], &mut rng);
        assert_eq!(out.len(), 3);
        // Noise is unbounded but astronomically unlikely to exceed 1e6
        // at this scale.
        assert!((out[0] - 10).abs() < 1000);
        assert!(out[2] > 900_000);
    }

    /// Slice lengths on both sides of the table threshold.
    const SLICE_LENS: [usize; 4] = [1000, TABLE_MIN_CELLS - 1, TABLE_MIN_CELLS, 5001];

    #[test]
    fn fill_matches_repeated_sample_bit_for_bit() {
        for &eps in &[1.0 / 48.0, 0.7, 3.0] {
            let d = DoubleGeometric::new(eps, 1.0);
            for &n in &SLICE_LENS {
                let mut a = StdRng::seed_from_u64(21);
                let mut b = StdRng::seed_from_u64(21);
                let mut filled = vec![0i64; n];
                d.fill(&mut filled, &mut a);
                let singles: Vec<i64> = (0..n).map(|_| d.sample(&mut b)).collect();
                assert_eq!(
                    filled, singles,
                    "eps {eps} len {n}: fill must preserve the draws"
                );
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "eps {eps} len {n}: RNG words consumed"
                );
            }
        }
    }

    #[test]
    fn privatize_into_matches_privatize_vec_and_reuses_buffer() {
        let m = GeometricMechanism::new(0.5, 1.0);
        for &n in &SLICE_LENS {
            let values: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
            let mut a = StdRng::seed_from_u64(22);
            let mut b = StdRng::seed_from_u64(22);
            let mut c = StdRng::seed_from_u64(22);
            let reference: Vec<i64> = values.iter().map(|&v| m.privatize(v, &mut a)).collect();
            assert_eq!(m.privatize_vec(&values, &mut b), reference, "len {n}");
            let mut out = vec![7i64; 5]; // stale shorter buffer must be replaced
            m.privatize_into(&values, &mut out, &mut c);
            assert_eq!(out, reference, "len {n}");
            // A second use with fewer values shrinks, not appends.
            m.privatize_into(&values[..10], &mut out, &mut c);
            assert_eq!(out.len(), 10);
        }
    }

    #[test]
    fn fill_at_alpha_zero_draws_zeros_and_consumes_nothing() {
        // ε = 800 makes α = e^(−800) underflow to 0: every draw is 0
        // and, as in the per-draw sampler, no RNG word is used.
        let d = DoubleGeometric::new(800.0, 1.0);
        assert_eq!(d.alpha(), 0.0);
        let mut a = StdRng::seed_from_u64(23);
        let mut b = StdRng::seed_from_u64(23);
        let mut out = vec![5i64; 5001];
        d.fill(&mut out, &mut a);
        assert!(out.iter().all(|&x| x == 0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Budgets for the bit-exactness test. 1e-12 puts all 32 steps in
    /// bucket 0 (nothing is stored, the reference runs everywhere, up
    /// to its heavy tail); 1/48 leaves half of m-space past the last
    /// band; 3 piles many steps into the last buckets; 800 gives α = 0.
    const EXACTNESS_EPSILONS: [f64; 7] = [1e-12, 1.0 / 48.0, 0.05, 1.0 / 3.0, 1.0, 3.0, 800.0];

    #[test]
    fn table_draws_match_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(24);
        for &eps in &EXACTNESS_EPSILONS {
            let d = DoubleGeometric::new(eps, 1.0);
            let Some(table) = OneSidedTable::for_slice(&d, TABLE_MIN_CELLS) else {
                assert_eq!(d.alpha(), 0.0, "eps {eps}: only α = 0 skips the table");
                continue;
            };
            let check = |m: u64| {
                assert_eq!(table.at(m), d.one_sided_at(m), "eps {eps} m {m}");
            };
            let around = |centre: u64, radius: u64| {
                centre.saturating_sub(radius)..centre.saturating_add(radius + 1).min(M_END)
            };
            for k in 1..=TABLE_STEPS {
                let (lo, hi) = d.guard_band(k);
                around(lo, 4096).chain(around(hi, 4096)).for_each(check);
            }
            // Every bucket edge: ±4096 where the stored entry changes
            // (a new step, or the start or end of a fallback bucket),
            // ±256 between two buckets holding the same step, where the
            // edge is not a special point of the reference.
            let entry = |b: usize| table.steps.get(b).copied();
            for b in 0..=table.steps.len() {
                let radius = if b > 0 && entry(b - 1) == entry(b) {
                    256
                } else {
                    4096
                };
                around((b as u64) << BUCKET_SHIFT, radius).for_each(check);
            }
            for _ in 0..1_000_000 {
                check(rng.next_u64() >> 11);
            }
            // The check is not vacuous: away from tiny budgets most of
            // m-space is answered by the table.
            let stored = table.steps.iter().filter(|&&g| g != FALLBACK).count();
            if eps > 0.01 {
                assert!(stored > 1500, "eps {eps}: only {stored} buckets stored");
            }
        }
    }

    #[test]
    fn mechanism_accessors() {
        let m = GeometricMechanism::new(0.25, 2.0);
        assert_eq!(m.epsilon(), 0.25);
        assert_eq!(m.sensitivity(), 2.0);
        assert!(m.variance() > 0.0);
        // Laplace approximation used by the paper: 2/(ε/Δ)² = 128; the
        // exact double-geometric variance is slightly smaller.
        let laplace_approx = 2.0 / (0.25f64 / 2.0).powi(2);
        assert!(m.variance() < laplace_approx);
        assert!(m.variance() > 0.5 * laplace_approx);
    }
}
