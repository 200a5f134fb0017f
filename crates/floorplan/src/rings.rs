//! Concentric AMD rings (paper Fig. 3) and cyclic rotation orders.

use std::fmt;

use crate::grid::{CoreId, GridFloorplan};

/// Tolerance when grouping floating-point AMD values into rings.
const AMD_EPS: f64 = 1e-9;

/// Index of a ring inside a [`RingSet`], `0` being the innermost
/// (lowest-AMD, best-performance) ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingIndex(pub usize);

impl RingIndex {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RingIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring{}", self.0)
    }
}

/// One concentric ring of cores sharing the same AMD.
///
/// Cores within a ring are performance- and thermal-wise homogeneous
/// (paper §V), so threads assigned to a ring may rotate freely among its
/// slots. The stored order is a cyclic walk around the die centre.
#[derive(Debug, Clone, PartialEq)]
pub struct AmdRing {
    amd: f64,
    cores: Vec<CoreId>,
}

impl AmdRing {
    /// The common AMD of the ring's cores.
    pub fn amd(&self) -> f64 {
        self.amd
    }

    /// The ring's cores in cyclic rotation order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Number of slots (cores) in the ring.
    pub fn capacity(&self) -> usize {
        self.cores.len()
    }

    /// The slot that follows `slot` in rotation order (wraps around).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.capacity()`.
    pub fn next_slot(&self, slot: usize) -> usize {
        assert!(slot < self.cores.len(), "slot {slot} out of range");
        (slot + 1) % self.cores.len()
    }

    /// Position of `core` in the ring's rotation order, if present.
    pub fn slot_of(&self, core: CoreId) -> Option<usize> {
        self.cores.iter().position(|&c| c == core)
    }
}

/// All concentric AMD rings of a floorplan, innermost first.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
///
/// # fn main() -> Result<(), hp_floorplan::FloorplanError> {
/// let rings = GridFloorplan::new(4, 4)?.amd_rings();
/// // 4x4 grid: centre ring of 4, middle ring of 8, corner ring of 4.
/// assert_eq!(rings.len(), 3);
/// assert_eq!(rings.ring(0).capacity(), 4);
/// assert_eq!(rings.ring(1).capacity(), 8);
/// assert_eq!(rings.ring(2).capacity(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingSet {
    rings: Vec<AmdRing>,
    /// Ring index per core.
    ring_of: Vec<usize>,
}

impl RingSet {
    /// Groups a floorplan's cores by AMD and orders each ring cyclically.
    pub fn from_floorplan(fp: &GridFloorplan) -> Self {
        let n = fp.core_count();
        let mut order: Vec<usize> = (0..n).collect();
        let amd = fp.amd_values();
        order.sort_by(|&a, &b| amd[a].total_cmp(&amd[b]));

        let cx = (fp.width() as f64 - 1.0) / 2.0;
        let cy = (fp.height() as f64 - 1.0) / 2.0;

        let mut rings: Vec<AmdRing> = Vec::new();
        let mut ring_of = vec![0usize; n];
        for &core in &order {
            let a = amd[core];
            let matches_last = rings
                .last()
                .is_some_and(|r| (r.amd - a).abs() <= AMD_EPS * (1.0 + a));
            if !matches_last {
                rings.push(AmdRing {
                    amd: a,
                    cores: Vec::new(),
                });
            }
            let idx = rings.len().saturating_sub(1);
            if let Some(ring) = rings.last_mut() {
                ring.cores.push(CoreId(core));
            }
            ring_of[core] = idx;
        }

        // Order each ring's cores as a cyclic walk around the die centre.
        // Out-of-range cores cannot occur (all ids come from `0..n`);
        // the sentinel keeps the comparator total instead of panicking.
        let angle_of = |c: CoreId| -> f64 {
            match fp.coord(c) {
                Ok(p) => (p.y as f64 - cy).atan2(p.x as f64 - cx),
                Err(_) => f64::NEG_INFINITY,
            }
        };
        for ring in &mut rings {
            ring.cores
                .sort_by(|&a, &b| angle_of(a).total_cmp(&angle_of(b)).then(a.cmp(&b)));
        }

        RingSet { rings, ring_of }
    }

    /// Number of rings.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Returns `true` if there are no rings (impossible for a valid
    /// floorplan, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// The ring at `index` (0 = innermost).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn ring(&self, index: usize) -> &AmdRing {
        &self.rings[index]
    }

    /// Iterator over rings, innermost first.
    pub fn iter(&self) -> std::slice::Iter<'_, AmdRing> {
        self.rings.iter()
    }

    /// The ring that contains `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the originating floorplan.
    pub fn ring_of(&self, core: CoreId) -> RingIndex {
        RingIndex(self.ring_of[core.0])
    }

    /// Total cores across all rings.
    pub fn total_cores(&self) -> usize {
        self.rings.iter().map(|r| r.capacity()).sum()
    }
}

impl<'a> IntoIterator for &'a RingSet {
    type Item = &'a AmdRing;
    type IntoIter = std::slice::Iter<'a, AmdRing>;

    fn into_iter(self) -> Self::IntoIter {
        self.rings.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_partition_cores() {
        let fp = GridFloorplan::new(8, 8).unwrap();
        let rings = fp.amd_rings();
        assert_eq!(rings.total_cores(), 64);
        let mut seen = [false; 64];
        for ring in &rings {
            for &c in ring.cores() {
                assert!(!seen[c.0], "core {c} in two rings");
                seen[c.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rings_sorted_by_amd() {
        let fp = GridFloorplan::new(8, 8).unwrap();
        let rings = fp.amd_rings();
        for w in rings.rings.windows(2) {
            assert!(w[0].amd() < w[1].amd());
        }
    }

    #[test]
    fn ring_of_is_consistent() {
        let fp = GridFloorplan::new(6, 6).unwrap();
        let rings = fp.amd_rings();
        for core in fp.cores() {
            let idx = rings.ring_of(core);
            assert!(rings.ring(idx.index()).cores().contains(&core));
        }
    }

    #[test]
    fn four_by_four_ring_structure() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let rings = fp.amd_rings();
        assert_eq!(rings.len(), 3);
        // Innermost ring is exactly the paper's centre cores {5, 6, 9, 10}.
        let mut inner: Vec<usize> = rings.ring(0).cores().iter().map(|c| c.0).collect();
        inner.sort_unstable();
        assert_eq!(inner, vec![5, 6, 9, 10]);
        // Outermost ring is the corners.
        let mut outer: Vec<usize> = rings.ring(2).cores().iter().map(|c| c.0).collect();
        outer.sort_unstable();
        assert_eq!(outer, vec![0, 3, 12, 15]);
    }

    #[test]
    fn rotation_order_is_cyclic_permutation() {
        let fp = GridFloorplan::new(8, 8).unwrap();
        let rings = fp.amd_rings();
        for ring in &rings {
            let k = ring.capacity();
            let mut visited = vec![false; k];
            let mut slot = 0;
            for _ in 0..k {
                assert!(!visited[slot]);
                visited[slot] = true;
                slot = ring.next_slot(slot);
            }
            assert_eq!(slot, 0, "rotation returns to start");
            assert!(visited.iter().all(|&v| v));
        }
    }

    #[test]
    fn inner_ring_rotation_is_geometrically_tight_4x4() {
        // Rotating around the 4-core centre ring should always move a
        // thread to an adjacent core (1 hop), like the paper's Fig. 1.
        let fp = GridFloorplan::new(4, 4).unwrap();
        let rings = fp.amd_rings();
        let ring = rings.ring(0);
        for s in 0..ring.capacity() {
            let a = ring.cores()[s];
            let b = ring.cores()[ring.next_slot(s)];
            assert_eq!(fp.hops(a, b).unwrap(), 1, "{a} -> {b}");
        }
    }

    #[test]
    fn slot_of_roundtrip() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let rings = fp.amd_rings();
        for ring in &rings {
            for (slot, &core) in ring.cores().iter().enumerate() {
                assert_eq!(ring.slot_of(core), Some(slot));
            }
        }
        assert_eq!(rings.ring(0).slot_of(CoreId(0)), None);
    }

    #[test]
    fn single_core_grid() {
        let fp = GridFloorplan::new(1, 1).unwrap();
        let rings = fp.amd_rings();
        assert_eq!(rings.len(), 1);
        assert_eq!(rings.ring(0).capacity(), 1);
        assert_eq!(rings.ring(0).next_slot(0), 0);
    }
}
