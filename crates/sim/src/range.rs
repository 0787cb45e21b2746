//! Declared legal ranges of numeric knobs. Each range is stated once,
//! as a [`KnobRange`] constant next to the type owning the knob, and
//! the knob's check, its refusal message and the negative tests all
//! read that constant.

use std::fmt;

/// A number a [`KnobRange`] can bound.
pub trait KnobValue: Copy + PartialOrd + fmt::Display {
    /// Whether the value is finite, as every legal value must be.
    fn is_finite(self) -> bool {
        true
    }
}

impl KnobValue for f64 {
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}
impl KnobValue for u32 {}
impl KnobValue for u64 {}
impl KnobValue for usize {}
impl KnobValue for u128 {}

/// The legal range of one numeric knob: a lower end, open or closed,
/// and an optional closed upper end. Only finite values are legal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobRange<T> {
    /// The lower end.
    pub lo: T,
    /// Whether `lo` itself is illegal (an open lower end).
    pub lo_open: bool,
    /// The closed upper end, if any.
    pub hi: Option<T>,
}

impl<T: KnobValue> KnobRange<T> {
    /// `[lo, ∞)`.
    #[must_use]
    pub const fn at_least(lo: T) -> KnobRange<T> {
        KnobRange {
            lo,
            lo_open: false,
            hi: None,
        }
    }

    /// `(lo, ∞)`.
    #[must_use]
    pub const fn above(lo: T) -> KnobRange<T> {
        KnobRange {
            lo,
            lo_open: true,
            hi: None,
        }
    }

    /// `[lo, hi]`.
    #[must_use]
    pub const fn closed(lo: T, hi: T) -> KnobRange<T> {
        KnobRange {
            lo,
            lo_open: false,
            hi: Some(hi),
        }
    }

    /// Whether `value` is legal.
    #[must_use]
    pub fn contains(&self, value: T) -> bool {
        let above_lo = value > self.lo || (!self.lo_open && value == self.lo);
        value.is_finite() && above_lo && self.hi.is_none_or(|hi| value <= hi)
    }

    /// Checks `value` for the knob spelled `key`.
    ///
    /// # Errors
    ///
    /// Returns the refusal message, e.g. "`tasks` must be >= 15, got 5"
    /// (or "must be finite and >= 0, got inf").
    pub fn check(&self, key: impl fmt::Display, value: T) -> Result<(), String> {
        if self.contains(value) {
            return Ok(());
        }
        let finite = if value.is_finite() { "" } else { "finite and " };
        Err(format!("`{key}` must be {finite}{self}, got {value}"))
    }
}

/// Where a block of knobs sits in a spec: its path and, for an entry
/// of an array, its index. [`Block::key`] spells a key of the block as
/// the spec does: `{path}.{key}` or `{path}[{index}].{key}`.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a>(pub &'a str, pub Option<usize>);

impl<'a> Block<'a> {
    /// The spec path of the block's key `name`.
    #[must_use]
    pub fn key(self, name: &'a str) -> impl fmt::Display + 'a {
        Key(self, name)
    }
}

struct Key<'a>(Block<'a>, &'a str);

impl fmt::Display for Key<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key(Block(path, Some(i)), name) => write!(f, "{path}[{i}].{name}"),
            Key(Block(path, None), name) => write!(f, "{path}.{name}"),
        }
    }
}

impl<T: fmt::Display> fmt::Display for KnobRange<T> {
    /// `> 0`, `>= 1`, `in [0, 1]` or `in (0, 1]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, open) = (&self.lo, self.lo_open);
        match &self.hi {
            None => write!(f, "{} {lo}", if open { ">" } else { ">=" }),
            Some(hi) => write!(f, "in {}{lo}, {hi}]", if open { '(' } else { '[' }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ends_are_open_or_closed_and_values_finite() {
        let positive = KnobRange::above(0.0);
        assert!(!positive.contains(0.0) && positive.contains(f64::MIN_POSITIVE));
        let unit = KnobRange::closed(0.0, 1.0);
        assert!(unit.contains(0.0) && unit.contains(1.0));
        assert!(!unit.contains(-0.1) && !unit.contains(1.0 + f64::EPSILON));
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(!KnobRange::at_least(0.0).contains(v), "{v}");
        }
        assert!(KnobRange::at_least(15usize).contains(15));
        assert!(!KnobRange::at_least(15usize).contains(14));
    }

    #[test]
    fn one_message_form_names_the_key() {
        let msg = |r: KnobRange<f64>, v| r.check("k", v).unwrap_err();
        assert_eq!(msg(KnobRange::above(0.0), -2.0), "`k` must be > 0, got -2");
        assert_eq!(
            msg(KnobRange::at_least(1.0), 0.5),
            "`k` must be >= 1, got 0.5"
        );
        assert_eq!(
            msg(KnobRange::closed(0.0, 1.0), 1.5),
            "`k` must be in [0, 1], got 1.5"
        );
        assert_eq!(
            msg(KnobRange::at_least(0.0), f64::INFINITY),
            "`k` must be finite and >= 0, got inf"
        );
        assert_eq!(
            KnobRange::closed(1usize, 64).check("N", 65).unwrap_err(),
            "`N` must be in [1, 64], got 65"
        );
    }
}
