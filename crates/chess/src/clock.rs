//! Vector clocks for happens-before data race detection.

/// A vector clock over thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VectorClock {
    ticks: Vec<u32>,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    fn grow(&mut self, len: usize) {
        if self.ticks.len() < len {
            self.ticks.resize(len, 0);
        }
    }

    /// This thread's component.
    pub fn get(&self, tid: usize) -> u32 {
        self.ticks.get(tid).copied().unwrap_or(0)
    }

    /// Advance `tid`'s component.
    pub fn tick(&mut self, tid: usize) {
        self.grow(tid + 1);
        self.ticks[tid] += 1;
    }

    /// Pointwise maximum (message receive / lock acquire / join).
    pub fn join(&mut self, other: &VectorClock) {
        self.grow(other.ticks.len());
        for (i, t) in other.ticks.iter().enumerate() {
            self.ticks[i] = self.ticks[i].max(*t);
        }
    }

    /// Does `self` happen before or equal `other` (pointwise ≤)?
    pub(crate) fn le(&self, other: &VectorClock) -> bool {
        self.ticks
            .iter()
            .enumerate()
            .all(|(i, t)| *t <= other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clocks_are_ordered_both_ways() {
        let a = VectorClock::new();
        let b = VectorClock::new();
        assert!(a.le(&b) && b.le(&a));
    }

    #[test]
    fn tick_makes_strictly_later() {
        let a = VectorClock::new();
        let mut b = a.clone();
        b.tick(0);
        assert!(a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a), "neither clock is before the other");
    }

    #[test]
    fn join_establishes_order() {
        let mut a = VectorClock::new();
        a.tick(0);
        let mut b = VectorClock::new();
        b.tick(1);
        b.join(&a);
        assert!(a.le(&b));
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 1);
    }

    #[test]
    fn sparse_components_default_to_zero() {
        let mut a = VectorClock::new();
        a.tick(5);
        assert_eq!(a.get(2), 0);
        assert_eq!(a.get(5), 1);
    }
}
