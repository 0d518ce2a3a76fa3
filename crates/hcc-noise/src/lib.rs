//! Differential-privacy primitives (Section 3.2 of the paper).
//!
//! * [`GeometricMechanism`] — the geometric mechanism of Ghosh,
//!   Roughgarden & Sundararajan: adds integer *double-geometric*
//!   noise with scale `Δ(q)/ε`. Preferred by the paper because the
//!   output is integral and the variance is lower than Laplace. The
//!   integer output does not by itself close the floating-point side
//!   channel of Mironov (2012): each one-sided geometric is drawn by
//!   f64 inversion, `floor(ln U / ln α)`, whose rounding can make some
//!   tail outputs possible for one input and impossible for its
//!   neighbour. ROADMAP item 1(b) tracks the integer-only replacement.
//!   Long slices use a lookup table that is bit-exact against the f64
//!   inversion; it neither fixes nor worsens this.
//! * [`LaplaceMechanism`] — continuous Laplace noise; used only by the
//!   omniscient yardstick baseline and the public-`K` estimation
//!   helper, never for released values.
//! * [`PrivacyBudget`] — explicit bookkeeping of sequential /
//!   per-level budget splits so that Algorithm 1's
//!   `ε_ℓ = ε / (L + 1)` allocation is auditable in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod gaussian;
pub mod geometric;
pub mod laplace;

pub use budget::{BudgetError, PrivacyBudget};
pub use gaussian::{DiscreteGaussian, GaussianMechanism, ZCdpBudget};
pub use geometric::{DoubleGeometric, GeometricMechanism};
pub use laplace::LaplaceMechanism;
