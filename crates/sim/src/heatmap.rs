//! Occupancy heat maps: where congestion lives on the grid.

use cellflow_core::overload::CascadeTrip;
use cellflow_core::{StateView, System, SystemConfig};
use cellflow_grid::{CellId, GridDims};

/// Accumulates per-cell entity-rounds over a run and renders them as a
/// digit heat map — the congestion picture behind throughput numbers.
///
/// One `entity-round` is one entity spending one round on a cell; dividing by
/// the recorded rounds gives the mean occupancy.
///
/// ```
/// use cellflow_core::{Params, System, SystemConfig};
/// use cellflow_grid::{CellId, GridDims};
/// use cellflow_sim::heatmap::OccupancyGrid;
///
/// let config = SystemConfig::new(
///     GridDims::square(4),
///     CellId::new(3, 0),
///     Params::from_milli(250, 50, 200)?,
/// )?
/// .with_source(CellId::new(0, 0));
/// let mut system = System::new(config);
/// let mut heat = OccupancyGrid::new(system.config().dims());
/// for _ in 0..200 {
///     system.step();
///     heat.record(system.config(), system.view());
/// }
/// // The corridor row carries all the traffic.
/// assert!(heat.mean_occupancy(CellId::new(1, 0)) > heat.mean_occupancy(CellId::new(1, 3)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct OccupancyGrid {
    dims: GridDims,
    entity_rounds: Vec<u64>,
    rounds: u64,
}

impl OccupancyGrid {
    /// An empty accumulator for `dims`.
    pub fn new(dims: GridDims) -> OccupancyGrid {
        OccupancyGrid {
            dims,
            entity_rounds: vec![0; dims.cell_count()],
            rounds: 0,
        }
    }

    /// Records one round's occupancy from `state`: a `&SystemState` or a
    /// [`StateView`] such as [`System::view`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match the accumulator's grid.
    pub fn record<'a>(&mut self, config: &SystemConfig, state: impl Into<StateView<'a>>) {
        let state = state.into();
        assert_eq!(config.dims(), self.dims, "grid mismatch");
        for (k, total) in self.entity_rounds.iter_mut().enumerate() {
            *total += state.occupancy(k) as u64;
        }
        self.rounds += 1;
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total entity-rounds accumulated on `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn entity_rounds(&self, cell: CellId) -> u64 {
        self.entity_rounds[self.dims.index(cell)]
    }

    /// Mean number of entities on `cell` per round (0 if nothing recorded).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn mean_occupancy(&self, cell: CellId) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.entity_rounds(cell) as f64 / self.rounds as f64
        }
    }

    /// The cell with the highest accumulated occupancy (ties: smallest id).
    pub fn hottest(&self) -> CellId {
        self.dims
            .iter()
            .max_by_key(|&c| (self.entity_rounds(c), std::cmp::Reverse(c)))
            .expect("grids are nonempty")
    }

    /// Renders a digit heat map: each cell shows `0`–`9` scaled linearly to
    /// the hottest cell (`.` for exactly zero). North at the top.
    pub fn render(&self) -> String {
        let max = self.entity_rounds.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for j in (0..self.dims.ny()).rev() {
            for i in 0..self.dims.nx() {
                let v = self.entity_rounds(CellId::new(i, j));
                let ch = if v == 0 {
                    '.'
                } else {
                    char::from_digit(((v * 9) / max).clamp(1, 9) as u32, 10)
                        .expect("digit in range")
                };
                out.push(ch);
                out.push(' ');
            }
            out.pop();
            out.push('\n');
        }
        out
    }
}

/// Peak-pressure heat map: the engine's per-cell leaky-integrator pressure
/// (`p ← ⌊p/2⌋ + occupancy` per round) is the overload detector's view of
/// sustained congestion; this grid keeps the per-cell *peak* over a run, so
/// a cascade report can show where the pressure that tripped cells built
/// up — including on cells that later died and drained.
#[derive(Clone, Debug)]
pub struct PressureGrid {
    dims: GridDims,
    peak: Vec<u64>,
    rounds: u64,
}

impl PressureGrid {
    /// An empty accumulator for `dims`.
    pub fn new(dims: GridDims) -> PressureGrid {
        PressureGrid {
            dims,
            peak: vec![0; dims.cell_count()],
            rounds: 0,
        }
    }

    /// Records one round's pressure from the running system.
    ///
    /// # Panics
    ///
    /// Panics if `system`'s grid does not match the accumulator's.
    pub fn record(&mut self, system: &System) {
        assert_eq!(system.config().dims(), self.dims, "grid mismatch");
        for id in self.dims.iter() {
            let k = self.dims.index(id);
            self.peak[k] = self.peak[k].max(system.pressure(id));
        }
        self.rounds += 1;
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Peak pressure observed on `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    pub fn peak(&self, cell: CellId) -> u64 {
        self.peak[self.dims.index(cell)]
    }

    /// Renders a digit heat map of peak pressure, scaled like
    /// [`OccupancyGrid::render`]: `0`–`9` linear to the hottest cell, `.`
    /// for never-pressured cells, north at the top.
    pub fn render(&self) -> String {
        let max = self.peak.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for j in (0..self.dims.ny()).rev() {
            for i in 0..self.dims.nx() {
                let v = self.peak(CellId::new(i, j));
                let ch = if v == 0 {
                    '.'
                } else {
                    char::from_digit(((v * 9) / max).clamp(1, 9) as u32, 10)
                        .expect("digit in range")
                };
                out.push(ch);
                out.push(' ');
            }
            out.pop();
            out.push('\n');
        }
        out
    }
}

/// Renders a cascade progression map: each cell shows the depth of its
/// deepest overload trip (`1`–`9`, clamped), `.` if it never tripped.
/// North at the top — the same orientation as the heat maps, so the three
/// layers (occupancy, pressure, cascade) line up in a report.
pub fn render_cascade(dims: GridDims, trips: &[CascadeTrip]) -> String {
    let mut depth = vec![0u32; dims.cell_count()];
    for &(_, cell, d) in trips {
        let k = dims.index(cell);
        depth[k] = depth[k].max(d);
    }
    let mut out = String::new();
    for j in (0..dims.ny()).rev() {
        for i in 0..dims.nx() {
            let d = depth[dims.index(CellId::new(i, j))];
            let ch = if d == 0 {
                '.'
            } else {
                char::from_digit(d.min(9), 10).expect("digit in range")
            };
            out.push(ch);
            out.push(' ');
        }
        out.pop();
        out.push('\n');
    }
    out
}

/// Renders a component-membership map from [`component_map`]'s labels: each
/// cell shows its connected-component identifier (`0`–`9`, clamped), `.` for
/// failed cells. North at the top, the shared orientation of this module —
/// during a split-brain episode the islands read directly off the picture.
///
/// [`component_map`]: cellflow_core::component_map
pub fn render_components(dims: GridDims, components: &[Option<u32>]) -> String {
    assert_eq!(
        components.len(),
        dims.cell_count(),
        "component labels must match the grid"
    );
    let mut out = String::new();
    for j in (0..dims.ny()).rev() {
        for i in 0..dims.nx() {
            let ch = match components[dims.index(CellId::new(i, j))] {
                None => '.',
                Some(c) => char::from_digit(c.min(9), 10).expect("digit in range"),
            };
            out.push(ch);
            out.push(' ');
        }
        out.pop();
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::{Params, System};

    fn corridor() -> System {
        System::new(
            SystemConfig::new(
                GridDims::new(4, 2),
                CellId::new(3, 0),
                Params::from_milli(250, 50, 200).unwrap(),
            )
            .unwrap()
            .with_source(CellId::new(0, 0)),
        )
    }

    #[test]
    fn accumulates_where_traffic_flows() {
        let mut sys = corridor();
        let mut heat = OccupancyGrid::new(sys.config().dims());
        for _ in 0..150 {
            sys.step();
            heat.record(sys.config(), sys.state());
        }
        assert_eq!(heat.rounds(), 150);
        // All traffic lives on row 0; row 1 never sees an entity.
        for i in 0..4 {
            assert_eq!(heat.entity_rounds(CellId::new(i, 1)), 0, "row 1 cell {i}");
        }
        assert!(heat.entity_rounds(CellId::new(0, 0)) > 0);
        assert_eq!(heat.hottest().j(), 0);
        // Render shape: 2 lines of 4 cells; top line (row 1) all dots.
        let pic = heat.render();
        let lines: Vec<&str> = pic.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], ". . . .");
        assert!(lines[1].chars().any(|c| c.is_ascii_digit()));
    }

    #[test]
    fn empty_grid_renders_dots() {
        let heat = OccupancyGrid::new(GridDims::square(2));
        assert_eq!(heat.render(), ". .\n. .\n");
        assert_eq!(heat.mean_occupancy(CellId::new(0, 0)), 0.0);
        assert_eq!(heat.hottest(), CellId::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn mismatched_grid_panics() {
        let sys = corridor();
        let mut heat = OccupancyGrid::new(GridDims::square(8));
        heat.record(sys.config(), sys.state());
    }

    #[test]
    fn pressure_peaks_track_sustained_congestion() {
        let mut sys = corridor();
        let mut pressure = PressureGrid::new(sys.config().dims());
        for _ in 0..150 {
            sys.step();
            pressure.record(&sys);
        }
        assert_eq!(pressure.rounds(), 150);
        // Pressure builds only on the loaded corridor row.
        assert!(pressure.peak(CellId::new(0, 0)) > 0);
        for i in 0..4 {
            assert_eq!(pressure.peak(CellId::new(i, 1)), 0, "row 1 cell {i}");
        }
        let pic = pressure.render();
        let lines: Vec<&str> = pic.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], ". . . .");
        assert!(lines[1].chars().any(|c| c.is_ascii_digit()));
    }

    #[test]
    fn component_map_renders_islands() {
        let dims = GridDims::square(3);
        // Left column one component, the rest another; center cell failed.
        let labels = [
            Some(0),
            Some(1),
            Some(1), // j = 0 row: (0,0) (1,0) (2,0)
            Some(0),
            None,
            Some(1), // j = 1
            Some(0),
            Some(1),
            Some(1), // j = 2
        ];
        let pic = render_components(dims, &labels);
        assert_eq!(pic, "0 1 1\n0 . 1\n0 1 1\n");
    }

    #[test]
    #[should_panic(expected = "labels must match the grid")]
    fn component_map_rejects_wrong_length() {
        render_components(GridDims::square(3), &[None; 4]);
    }

    #[test]
    fn cascade_map_shows_deepest_trip_per_cell() {
        let dims = GridDims::square(3);
        let trips = [
            (10, CellId::new(0, 0), 1),
            (14, CellId::new(1, 0), 2),
            (20, CellId::new(1, 0), 1), // shallower re-trip doesn't regress
        ];
        let pic = render_cascade(dims, &trips);
        assert_eq!(pic, ". . .\n. . .\n1 2 .\n");
        assert_eq!(render_cascade(dims, &[]), ". . .\n. . .\n. . .\n");
    }
}
