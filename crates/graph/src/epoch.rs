//! Generation-stamped visit marks.
//!
//! The workspace reuses one idiom in three places — the sparse triangular
//! solver's visit marks, the BFS scratch buffers and the scattered query
//! column: a dense array of per-slot *stamps* plus a current *generation*
//! counter. A slot is "marked" iff its stamp equals the current
//! generation, so invalidating every mark costs `O(1)` (bump the
//! generation) instead of `O(n)` (refill the array). The counter wrap is
//! handled by one full clear every `u32::MAX` generations.
//!
//! [`EpochStamps`] is that idiom, extracted so the rollover and
//! fresh-state corner cases live in exactly one place.

/// Dense visit stamps with `O(1)` whole-set invalidation.
///
/// A fresh instance has nothing marked; each [`advance`](Self::advance)
/// starts a new empty generation.
#[derive(Debug, Clone)]
pub struct EpochStamps {
    stamp: Vec<u32>,
    /// Current generation. Starts at 1 with all stamps 0, so a fresh
    /// instance reports nothing marked without any extra check on the
    /// hot read path.
    epoch: u32,
}

impl EpochStamps {
    /// Stamps for `n` slots, none marked.
    pub fn new(n: usize) -> Self {
        EpochStamps { stamp: vec![0; n], epoch: 1 }
    }

    /// Number of slots.
    #[inline]
    pub fn dim(&self) -> usize {
        self.stamp.len()
    }

    /// Starts a new generation: unmarks every slot in `O(1)` (amortised —
    /// stamps are cleared in full once every `u32::MAX` generations).
    pub fn advance(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks slot `i` in the current generation.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }

    /// Whether slot `i` is marked in the current generation.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// The raw stamp array and the current generation, for kernels that
    /// test many slots in a hot loop (the sparse gather): slot `i` is
    /// marked iff `raw().0[i] == raw().1` —
    /// exactly what [`is_marked`](Self::is_marked) computes one slot at a
    /// time.
    #[inline]
    pub fn raw(&self) -> (&[u32], u32) {
        (&self.stamp, self.epoch)
    }

    /// Test hook: forces the generation counter, to exercise the rollover
    /// path without four billion advances.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_instance_has_nothing_marked() {
        let stamps = EpochStamps::new(4);
        assert_eq!(stamps.dim(), 4);
        for i in 0..4 {
            assert!(!stamps.is_marked(i), "slot {i} marked on a fresh instance");
        }
    }

    #[test]
    fn mark_is_scoped_to_the_generation() {
        let mut stamps = EpochStamps::new(3);
        stamps.mark(1);
        assert!(stamps.is_marked(1));
        assert!(!stamps.is_marked(0));
        stamps.advance();
        assert!(!stamps.is_marked(1), "previous generation must be invalidated");
        stamps.mark(0);
        assert!(stamps.is_marked(0));
    }

    #[test]
    fn rollover_clears_stale_stamps() {
        let mut stamps = EpochStamps::new(3);
        stamps.force_epoch(u32::MAX);
        stamps.mark(2); // stale stamp holding u32::MAX
        stamps.advance(); // wraps: full clear, generation restarts at 1
        assert!(!stamps.is_marked(2), "stamp equal to u32::MAX survived the wrap");
        stamps.mark(0);
        assert!(stamps.is_marked(0));
    }
}
