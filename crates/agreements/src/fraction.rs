//! Agreement bounds as validated fractions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fraction in `[0, 1]`, validated at construction.
///
/// Agreement bounds are fractions of the issuer's currency; keeping them in
/// a newtype makes the `[lb, ub]` invariants explicit at the type level.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Fraction(f64);

impl Fraction {
    /// Creates a fraction, returning `None` unless `0 <= v <= 1` and finite.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Some(Fraction(v))
        } else {
            None
        }
    }

    /// The zero fraction.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The unit fraction.
    pub const ONE: Fraction = Fraction(1.0);

    /// Returns the inner value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_rejects_out_of_range() {
        assert!(Fraction::new(-0.1).is_none());
        assert!(Fraction::new(1.1).is_none());
        assert!(Fraction::new(f64::NAN).is_none());
        assert!(Fraction::new(f64::INFINITY).is_none());
        assert_eq!(Fraction::new(0.0), Some(Fraction::ZERO));
        assert_eq!(Fraction::new(1.0), Some(Fraction::ONE));
    }
}
