//! Flow types and typed entities.

use core::fmt;

use cellflow_geom::Point;

/// The commodity type of a flow: each type has its own source(s) and target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowType(pub u8);

impl fmt::Display for FlowType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// An entity's per-cell record: its center position and its commodity type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TypedEntity {
    /// Center of the `l × l` footprint.
    pub pos: Point,
    /// Commodity type (determines the routing layer and consuming target).
    pub ty: FlowType,
}

impl TypedEntity {
    /// Creates a typed entity record.
    pub const fn new(pos: Point, ty: FlowType) -> TypedEntity {
        TypedEntity { pos, ty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_geom::Fixed;

    #[test]
    fn ordering_and_display() {
        assert!(FlowType(0) < FlowType(1));
        assert_eq!(FlowType(3).to_string(), "τ3");
        let e = TypedEntity::new(Point::new(Fixed::HALF, Fixed::HALF), FlowType(1));
        assert_eq!(e.ty, FlowType(1));
    }
}
