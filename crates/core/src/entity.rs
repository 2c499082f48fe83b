//! Entities — the moving objects of the system.

use core::fmt;

use cellflow_geom::{Fixed, Point, Square};

/// The unique identifier of an entity, drawn from the paper's infinite pool
/// `P`. Sources mint fresh identifiers in insertion order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u64);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An entity: an identifier plus the current center position `(px, py)` of its
/// `l × l` square footprint.
///
/// ```
/// use cellflow_core::{Entity, EntityId};
/// use cellflow_geom::{Fixed, Point};
///
/// let e = Entity::new(EntityId(3), Point::new(Fixed::HALF, Fixed::HALF));
/// let footprint = e.footprint(Fixed::from_milli(250));
/// assert_eq!(footprint.low_x(), Fixed::from_milli(375));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Entity {
    /// The entity's identifier.
    pub id: EntityId,
    /// The center of the entity's footprint.
    pub pos: Point,
}

impl Entity {
    /// Creates an entity at `pos`.
    #[inline]
    pub const fn new(id: EntityId, pos: Point) -> Entity {
        Entity { id, pos }
    }

    /// The entity's `l × l` square footprint.
    #[inline]
    pub fn footprint(self, l: Fixed) -> Square {
        Square::new(self.pos, l)
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_mint_order() {
        assert!(EntityId(0) < EntityId(1));
        assert_eq!(EntityId::default(), EntityId(0));
        assert_eq!(EntityId(42).to_string(), "p42");
    }

    #[test]
    fn footprint_centers_on_position() {
        let e = Entity::new(
            EntityId(1),
            Point::new(Fixed::from_milli(1_500), Fixed::from_milli(2_500)),
        );
        let fp = e.footprint(Fixed::from_milli(200));
        assert_eq!(fp.center(), e.pos);
        assert_eq!(fp.side(), Fixed::from_milli(200));
        assert_eq!(e.to_string(), "p1@(1.5, 2.5)");
    }
}
