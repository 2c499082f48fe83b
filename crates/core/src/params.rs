//! The protocol's physical parameters `(l, rs, v)`.

use core::fmt;

use cellflow_geom::Fixed;

/// The three physical parameters of the system (paper §II-B):
///
/// * `l` — side length of an entity's square footprint;
/// * `rs` — minimum required edge-to-edge gap between entities along an axis;
/// * `v` — cell velocity: the distance entities move in one round.
///
/// Validity requires `0 < v ≤ l < 1` and `rs + l < 1`:
/// the former ensures an entity cannot jump past a boundary gap in one round
/// (the paper states `v < l`, but its own Figure 7 evaluates `v = l = 0.25`;
/// the safety argument only needs `v ≤ l` because boundary crossing is
/// strict — see `DESIGN.md`); the latter ensures entities fit inside the unit
/// cells with room for the gap.
/// The derived **center spacing requirement** is `d = rs + l`
/// ([`Params::d`]): two `l × l` entities whose centers differ by at least `d`
/// along an axis have their edges separated by at least `rs` along it.
///
/// ```
/// use cellflow_core::Params;
/// use cellflow_geom::Fixed;
///
/// let p = Params::from_milli(250, 50, 200)?; // l=0.25, rs=0.05, v=0.2
/// assert_eq!(p.d(), Fixed::from_milli(300));
/// assert!(Params::from_milli(250, 50, 300).is_err()); // v > l
/// # Ok::<(), cellflow_core::ParamsError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Params {
    l: Fixed,
    rs: Fixed,
    v: Fixed,
}

impl Params {
    /// Validates and creates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] naming the violated constraint.
    pub fn new(l: Fixed, rs: Fixed, v: Fixed) -> Result<Params, ParamsError> {
        if l <= Fixed::ZERO {
            return Err(ParamsError::NonPositiveLength);
        }
        if rs < Fixed::ZERO {
            return Err(ParamsError::NegativeGap);
        }
        if v <= Fixed::ZERO {
            return Err(ParamsError::NonPositiveVelocity);
        }
        if v > l {
            return Err(ParamsError::VelocityAboveLength);
        }
        if l >= Fixed::ONE {
            return Err(ParamsError::LengthNotBelowOne);
        }
        if rs + l >= Fixed::ONE {
            return Err(ParamsError::SpacingNotBelowOne);
        }
        Ok(Params { l, rs, v })
    }

    /// Convenience constructor in thousandths of a cell side:
    /// `Params::from_milli(250, 50, 200)` is `l = 0.25, rs = 0.05, v = 0.2`.
    ///
    /// # Errors
    ///
    /// Same as [`Params::new`].
    pub fn from_milli(l: i64, rs: i64, v: i64) -> Result<Params, ParamsError> {
        Params::new(
            Fixed::from_milli(l),
            Fixed::from_milli(rs),
            Fixed::from_milli(v),
        )
    }

    /// Entity side length `l`.
    #[inline]
    pub const fn l(self) -> Fixed {
        self.l
    }

    /// Half the entity side, `l/2` (distance from center to edge).
    #[inline]
    pub fn half_l(self) -> Fixed {
        self.l.halve()
    }

    /// Minimum edge-to-edge gap `rs`.
    #[inline]
    pub const fn rs(self) -> Fixed {
        self.rs
    }

    /// Velocity `v` (distance per round).
    #[inline]
    pub const fn v(self) -> Fixed {
        self.v
    }

    /// The center spacing requirement `d = rs + l`.
    #[inline]
    pub fn d(self) -> Fixed {
        self.rs + self.l
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l={}, rs={}, v={}", self.l, self.rs, self.v)
    }
}

/// A violated parameter constraint (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// `l ≤ 0`.
    NonPositiveLength,
    /// `rs < 0`.
    NegativeGap,
    /// `v ≤ 0`.
    NonPositiveVelocity,
    /// `v > l` — an entity could jump past the boundary gap in one round.
    VelocityAboveLength,
    /// `l ≥ 1` — an entity would not fit in a cell.
    LengthNotBelowOne,
    /// `rs + l ≥ 1` — no safe position exists inside a cell.
    SpacingNotBelowOne,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParamsError::NonPositiveLength => "entity length l must be positive",
            ParamsError::NegativeGap => "safety gap rs must be nonnegative",
            ParamsError::NonPositiveVelocity => "velocity v must be positive",
            ParamsError::VelocityAboveLength => "velocity v must not exceed l",
            ParamsError::LengthNotBelowOne => "entity length l must be strictly below 1",
            ParamsError::SpacingNotBelowOne => "center spacing rs + l must be strictly below 1",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_sets_validate() {
        // Every (l, rs, v) combination used in Figures 7–9.
        for (l, v) in [(250, 50), (250, 100), (250, 200), (200, 200 - 1)] {
            assert!(
                Params::from_milli(l, 50, v.min(l - 1)).is_ok(),
                "l={l} v={v}"
            );
        }
        for (v, l) in [(200, 250), (100, 200), (100, 250), (50, 100), (200, 250)] {
            assert!(Params::from_milli(l, 50, v).is_ok());
        }
    }

    #[test]
    fn derived_quantities() {
        let p = Params::from_milli(200, 50, 100).unwrap();
        assert_eq!(p.l(), Fixed::from_milli(200));
        assert_eq!(p.rs(), Fixed::from_milli(50));
        assert_eq!(p.v(), Fixed::from_milli(100));
        assert_eq!(p.d(), Fixed::from_milli(250));
        assert_eq!(p.half_l(), Fixed::from_milli(100));
    }

    #[test]
    fn each_constraint_is_enforced() {
        assert_eq!(
            Params::from_milli(0, 50, 100).unwrap_err(),
            ParamsError::NonPositiveLength
        );
        assert_eq!(
            Params::from_milli(200, -1, 100).unwrap_err(),
            ParamsError::NegativeGap
        );
        assert_eq!(
            Params::from_milli(200, 50, 0).unwrap_err(),
            ParamsError::NonPositiveVelocity
        );
        assert_eq!(
            Params::from_milli(200, 50, 201).unwrap_err(),
            ParamsError::VelocityAboveLength
        );
        // v = l is allowed (the paper's own Figure 7 uses v = l = 0.25).
        assert!(Params::from_milli(200, 50, 200).is_ok());
        assert_eq!(
            Params::from_milli(1_000, 50, 100).unwrap_err(),
            ParamsError::LengthNotBelowOne
        );
        assert_eq!(
            Params::from_milli(600, 400, 100).unwrap_err(),
            ParamsError::SpacingNotBelowOne
        );
    }

    #[test]
    fn zero_gap_is_allowed() {
        // rs = 0 is degenerate but legal: d = l, entities may touch.
        let p = Params::from_milli(200, 0, 100).unwrap();
        assert_eq!(p.d(), p.l());
    }

    #[test]
    fn display_and_errors_render() {
        let p = Params::from_milli(250, 50, 200).unwrap();
        assert_eq!(p.to_string(), "l=0.25, rs=0.05, v=0.2");
        assert!(ParamsError::VelocityAboveLength
            .to_string()
            .contains("not exceed"));
    }
}
