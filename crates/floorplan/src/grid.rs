use std::fmt;

use crate::rings::RingSet;
use crate::{FloorplanError, Result};

/// Identifier of a core on the floorplan.
///
/// Cores are numbered row-major: core `y * width + x` sits at column `x`,
/// row `y` — the numbering used in the paper's Fig. 1 (a 4×4 chip whose
/// centre cores are 5, 6, 9 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(i: usize) -> Self {
        CoreId(i)
    }
}

/// A grid coordinate `(x, y)` with `x` the column and `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0 ≤ x < width`.
    pub x: usize,
    /// Row, `0 ≤ y < height`.
    pub y: usize,
}

impl Coord {
    /// Manhattan distance to `other` — the hop count of XY routing.
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A rectangular grid of micro-architecturally homogeneous cores connected
/// by a mesh NoC with XY routing, each holding one bank of the distributed
/// LLC (paper §III-A).
///
/// # Example
///
/// ```
/// use hp_floorplan::{Coord, CoreId, GridFloorplan};
///
/// # fn main() -> Result<(), hp_floorplan::FloorplanError> {
/// let fp = GridFloorplan::new(4, 4)?;
/// assert_eq!(fp.coord(CoreId(5))?, Coord { x: 1, y: 1 });
/// assert_eq!(fp.hops(CoreId(0), CoreId(15))?, 6);
/// // Centre cores have the lowest AMD.
/// assert!(fp.amd(CoreId(5))? < fp.amd(CoreId(0))?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridFloorplan {
    width: usize,
    height: usize,
    /// Pre-computed AMD per core.
    amd: Vec<f64>,
}

impl GridFloorplan {
    /// Creates a `width × height` grid floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::EmptyGrid`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(FloorplanError::EmptyGrid);
        }
        let n = width * height;
        let coord = |c: usize| Coord {
            x: c % width,
            y: c / width,
        };
        let mut amd = vec![0.0; n];
        if n > 1 {
            for (i, a) in amd.iter_mut().enumerate() {
                let ci = coord(i);
                let total: usize = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| ci.manhattan(coord(j)))
                    .sum();
                *a = total as f64 / (n - 1) as f64;
            }
        }
        Ok(GridFloorplan { width, height, amd })
    }

    /// Grid width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of cores.
    pub fn core_count(&self) -> usize {
        self.width * self.height
    }

    /// Iterator over all core ids in row-major order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_count()).map(CoreId)
    }

    /// Validates a core id.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoreOutOfRange`] for out-of-range ids.
    pub fn check(&self, core: CoreId) -> Result<()> {
        if core.0 >= self.core_count() {
            return Err(FloorplanError::CoreOutOfRange {
                core: core.0,
                cores: self.core_count(),
            });
        }
        Ok(())
    }

    /// The grid coordinate of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoreOutOfRange`] for out-of-range ids.
    pub fn coord(&self, core: CoreId) -> Result<Coord> {
        self.check(core)?;
        Ok(Coord {
            x: core.0 % self.width,
            y: core.0 / self.width,
        })
    }

    /// The core at coordinate `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoordOutOfRange`] if outside the grid.
    pub fn core_at(&self, x: usize, y: usize) -> Result<CoreId> {
        if x >= self.width || y >= self.height {
            return Err(FloorplanError::CoordOutOfRange {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(CoreId(y * self.width + x))
    }

    /// XY-routing hop count between two cores' routers.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoreOutOfRange`] for out-of-range ids.
    pub fn hops(&self, a: CoreId, b: CoreId) -> Result<usize> {
        Ok(self.coord(a)?.manhattan(self.coord(b)?))
    }

    /// Average Manhattan Distance of `core` to all *other* cores.
    ///
    /// This is the AMD of \[19\] that governs S-NUCA LLC latency: a uniformly
    /// distributed cache line is `AMD` hops away on average.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoreOutOfRange`] for out-of-range ids.
    pub fn amd(&self, core: CoreId) -> Result<f64> {
        self.check(core)?;
        Ok(self.amd[core.0])
    }

    /// All AMD values, indexed by core.
    pub fn amd_values(&self) -> &[f64] {
        &self.amd
    }

    /// The 4-neighbourhood of `core` (mesh adjacency, used for lateral
    /// thermal coupling).
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::CoreOutOfRange`] for out-of-range ids.
    pub fn neighbors(&self, core: CoreId) -> Result<Vec<CoreId>> {
        let c = self.coord(core)?;
        let mut out = Vec::with_capacity(4);
        if c.x > 0 {
            out.push(CoreId(core.0 - 1));
        }
        if c.x + 1 < self.width {
            out.push(CoreId(core.0 + 1));
        }
        if c.y > 0 {
            out.push(CoreId(core.0 - self.width));
        }
        if c.y + 1 < self.height {
            out.push(CoreId(core.0 + self.width));
        }
        Ok(out)
    }

    /// Groups cores into concentric rings of equal AMD, sorted by ascending
    /// AMD (paper Fig. 3). Cores inside a ring are ordered cyclically around
    /// the die centre so that "rotate by one slot" moves each thread to a
    /// geometrically adjacent position.
    pub fn amd_rings(&self) -> RingSet {
        RingSet::from_floorplan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(
            GridFloorplan::new(0, 4).unwrap_err(),
            FloorplanError::EmptyGrid
        );
        assert_eq!(
            GridFloorplan::new(4, 0).unwrap_err(),
            FloorplanError::EmptyGrid
        );
    }

    #[test]
    fn coordinates_roundtrip() {
        let fp = GridFloorplan::new(5, 3).unwrap();
        for core in fp.cores() {
            let c = fp.coord(core).unwrap();
            assert_eq!(fp.core_at(c.x, c.y).unwrap(), core);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let fp = GridFloorplan::new(2, 2).unwrap();
        assert!(fp.coord(CoreId(4)).is_err());
        assert!(fp.core_at(2, 0).is_err());
        assert!(fp.hops(CoreId(0), CoreId(9)).is_err());
    }

    #[test]
    fn hops_match_manhattan() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        assert_eq!(fp.hops(CoreId(0), CoreId(0)).unwrap(), 0);
        assert_eq!(fp.hops(CoreId(0), CoreId(3)).unwrap(), 3);
        assert_eq!(fp.hops(CoreId(0), CoreId(12)).unwrap(), 3);
        assert_eq!(fp.hops(CoreId(0), CoreId(15)).unwrap(), 6);
        assert_eq!(fp.hops(CoreId(5), CoreId(10)).unwrap(), 2);
    }

    #[test]
    fn amd_center_lower_than_corner_4x4() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        // Centre cores of the paper's Fig. 1: 5, 6, 9, 10.
        let center = fp.amd(CoreId(5)).unwrap();
        let corner = fp.amd(CoreId(0)).unwrap();
        assert!(center < corner);
        // All four centre cores share the same AMD by symmetry.
        for c in [6usize, 9, 10] {
            assert!((fp.amd(CoreId(c)).unwrap() - center).abs() < 1e-12);
        }
        // All four corners share the same AMD.
        for c in [3usize, 12, 15] {
            assert!((fp.amd(CoreId(c)).unwrap() - corner).abs() < 1e-12);
        }
    }

    #[test]
    fn amd_known_value_2x2() {
        // Every core in a 2x2 grid has neighbours at distance 1, 1, 2.
        let fp = GridFloorplan::new(2, 2).unwrap();
        for core in fp.cores() {
            assert!((fp.amd(core).unwrap() - 4.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_core_amd_zero() {
        let fp = GridFloorplan::new(1, 1).unwrap();
        assert_eq!(fp.amd(CoreId(0)).unwrap(), 0.0);
    }

    #[test]
    fn neighbors_counts() {
        let fp = GridFloorplan::new(3, 3).unwrap();
        assert_eq!(fp.neighbors(CoreId(4)).unwrap().len(), 4); // centre
        assert_eq!(fp.neighbors(CoreId(0)).unwrap().len(), 2); // corner
        assert_eq!(fp.neighbors(CoreId(1)).unwrap().len(), 3); // edge
    }

    #[test]
    fn neighbors_symmetric() {
        let fp = GridFloorplan::new(4, 3).unwrap();
        for a in fp.cores() {
            for b in fp.neighbors(a).unwrap() {
                assert!(fp.neighbors(b).unwrap().contains(&a));
            }
        }
    }
}
