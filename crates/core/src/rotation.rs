use hp_floorplan::CoreId;
use hp_linalg::Vector;

use crate::{HotPotatoError, Result};

/// The per-epoch power maps of one rotation period.
///
/// Epoch `e` holds the chip-wide per-core power vector while the rotation
/// sits in configuration `e`; after `δ = epochs.len()` epochs of length
/// `τ` every thread is back on its starting core and the pattern repeats —
/// the setting of paper Eqs. (5)–(11).
///
/// # Example
///
/// ```
/// use hp_linalg::Vector;
/// use hotpotato::EpochPowerSequence;
///
/// # fn main() -> Result<(), hotpotato::HotPotatoError> {
/// let epochs = vec![
///     Vector::from(vec![5.0, 0.3]),
///     Vector::from(vec![0.3, 5.0]),
/// ];
/// let seq = EpochPowerSequence::new(0.5e-3, epochs)?;
/// assert_eq!(seq.delta(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPowerSequence {
    tau: f64,
    epochs: Vec<Vector>,
}

impl EpochPowerSequence {
    /// Creates a sequence with epoch length `tau` seconds.
    ///
    /// # Errors
    ///
    /// * [`HotPotatoError::InvalidParameter`] if `tau` is not positive.
    /// * [`HotPotatoError::InvalidSequence`] if `epochs` is empty or the
    ///   power vectors have differing lengths.
    pub fn new(tau: f64, epochs: Vec<Vector>) -> Result<Self> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(HotPotatoError::InvalidParameter {
                name: "tau",
                value: tau,
            });
        }
        if epochs.is_empty() {
            return Err(HotPotatoError::InvalidSequence("no epochs"));
        }
        let len = epochs[0].len();
        if len == 0 {
            return Err(HotPotatoError::InvalidSequence("empty power vectors"));
        }
        if epochs.iter().any(|p| p.len() != len) {
            return Err(HotPotatoError::InvalidSequence(
                "power vectors differ in length",
            ));
        }
        Ok(EpochPowerSequence { tau, epochs })
    }

    /// Epoch length `τ`, seconds.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Rotation period `δ` (number of epochs).
    pub fn delta(&self) -> usize {
        self.epochs.len()
    }

    /// Number of cores each power vector covers.
    pub fn core_count(&self) -> usize {
        self.epochs[0].len()
    }

    /// The per-core power map of epoch `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.delta()`.
    pub fn epoch(&self, e: usize) -> &Vector {
        &self.epochs[e]
    }

    /// Time-averaged per-core power over the full period, W.
    pub fn average_power(&self) -> Vector {
        let mut avg = Vector::zeros(self.core_count());
        for p in &self.epochs {
            avg += p;
        }
        avg.scaled(1.0 / self.delta() as f64)
    }

    /// The sequence that results from cyclically shifting the epoch order
    /// by `k` (used in tests: the steady-cycle peak is shift-invariant).
    pub fn shifted(&self, k: usize) -> EpochPowerSequence {
        let d = self.delta();
        let epochs = (0..d).map(|e| self.epochs[(e + k) % d].clone()).collect();
        EpochPowerSequence {
            tau: self.tau,
            epochs,
        }
    }
}

/// Bookkeeping for a synchronous rotation of threads inside one AMD ring.
///
/// The ring has `capacity` slots (its cores in cyclic order); each slot
/// holds at most one thread handle of type `T`. Advancing the rotation
/// moves every occupant to the next slot simultaneously — the permutation
/// the simulation engine accepts as one atomic migration batch.
///
/// # Example
///
/// ```
/// use hp_floorplan::CoreId;
/// use hotpotato::RingRotation;
///
/// let mut ring = RingRotation::new(vec![CoreId(5), CoreId(6), CoreId(10), CoreId(9)]);
/// ring.occupy(0, "master");
/// ring.occupy(2, "slave");
/// let moves: Vec<_> = ring.advance().collect();
/// assert_eq!(moves, vec![("master", CoreId(5), CoreId(6)), ("slave", CoreId(10), CoreId(9))]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingRotation<T> {
    cores: Vec<CoreId>,
    slots: Vec<Option<T>>,
}

impl<T: Copy + PartialEq> RingRotation<T> {
    /// Creates an empty rotation over `cores` (cyclic order).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<CoreId>) -> Self {
        assert!(!cores.is_empty(), "a ring needs at least one core");
        let slots = vec![None; cores.len()];
        RingRotation { cores, slots }
    }

    /// The ring's cores in cyclic order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.cores.len()
    }

    /// Number of occupied slots.
    pub fn occupants(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Slot indices currently free, in ascending order.
    pub fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
    }

    /// The core of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn core_of_slot(&self, slot: usize) -> CoreId {
        self.cores[slot]
    }

    /// The occupant of slot `slot`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn occupant(&self, slot: usize) -> Option<T> {
        self.slots[slot]
    }

    /// The occupant of slot `slot`, if any, to update in place.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn occupant_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots[slot].as_mut()
    }

    /// Occupies `slot` with `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied or out of range.
    pub fn occupy(&mut self, slot: usize, thread: T) {
        assert!(self.slots[slot].is_none(), "slot {slot} already occupied");
        self.slots[slot] = Some(thread);
    }

    /// Removes `thread` from the ring; returns `true` if it was present.
    pub fn remove(&mut self, thread: T) -> bool {
        for s in &mut self.slots {
            if *s == Some(thread) {
                *s = None;
                return true;
            }
        }
        false
    }

    /// The slot of `thread`, if present.
    pub fn slot_of(&self, thread: T) -> Option<usize> {
        self.slots.iter().position(|s| *s == Some(thread))
    }

    /// Advances the rotation by one slot, in place; returns the
    /// `(thread, from, to)` move of every occupant, in the order of the
    /// slots it leaves. The rotation happens whether or not the moves
    /// are read.
    pub fn advance(&mut self) -> impl Iterator<Item = (T, CoreId, CoreId)> + '_ {
        let k = self.capacity();
        let moves = if k > 1 { k } else { 0 };
        self.slots.rotate_right(1);
        (0..moves).filter_map(move |from| {
            let to = (from + 1) % k;
            let thread = self.slots[to]?;
            Some((thread, self.cores[from], self.cores[to]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_validation() {
        assert!(EpochPowerSequence::new(0.0, vec![Vector::zeros(2)]).is_err());
        assert!(EpochPowerSequence::new(1e-3, vec![]).is_err());
        assert!(EpochPowerSequence::new(1e-3, vec![Vector::zeros(2), Vector::zeros(3)]).is_err());
        assert!(EpochPowerSequence::new(1e-3, vec![Vector::zeros(0)]).is_err());
    }

    #[test]
    fn average_power() {
        let seq = EpochPowerSequence::new(
            1e-3,
            vec![Vector::from(vec![4.0, 0.0]), Vector::from(vec![0.0, 2.0])],
        )
        .unwrap();
        assert_eq!(seq.average_power().as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn shifted_preserves_content() {
        let seq = EpochPowerSequence::new(
            1e-3,
            vec![
                Vector::from(vec![1.0]),
                Vector::from(vec![2.0]),
                Vector::from(vec![3.0]),
            ],
        )
        .unwrap();
        let s = seq.shifted(1);
        assert_eq!(s.epoch(0).as_slice(), &[2.0]);
        assert_eq!(s.epoch(2).as_slice(), &[1.0]);
        assert_eq!(seq.shifted(3), seq);
    }

    #[test]
    fn ring_rotation_cycles_back() {
        let mut ring = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2)]);
        ring.occupy(0, 7u32);
        for _ in 0..3 {
            assert_eq!(ring.advance().count(), 1);
        }
        assert_eq!(ring.slot_of(7), Some(0));
    }

    #[test]
    fn full_ring_rotation_is_permutation() {
        let mut ring = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        for s in 0..4 {
            ring.occupy(s, s as u32);
        }
        let moves: Vec<_> = ring.advance().collect();
        assert_eq!(moves.len(), 4);
        let mut targets: Vec<CoreId> = moves.iter().map(|m| m.2).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 4, "no two threads share a target");
    }

    #[test]
    fn remove_and_free_slots() {
        let mut ring = RingRotation::new(vec![CoreId(0), CoreId(1)]);
        ring.occupy(1, 9u32);
        assert_eq!(ring.free_slots().collect::<Vec<_>>(), vec![0]);
        assert!(ring.remove(9));
        assert!(!ring.remove(9));
        assert_eq!(ring.occupants(), 0);
    }

    #[test]
    fn single_slot_ring_never_moves() {
        let mut ring = RingRotation::new(vec![CoreId(0)]);
        ring.occupy(0, 1u32);
        assert_eq!(ring.advance().count(), 0);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let mut ring = RingRotation::new(vec![CoreId(0)]);
        ring.occupy(0, 1u32);
        ring.occupy(0, 2u32);
    }
}
