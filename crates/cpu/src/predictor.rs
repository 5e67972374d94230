//! Branch prediction: a bimodal (2-bit saturating counter) predictor plus a
//! direct-mapped branch target buffer, sized per Table 1.

/// Direct-mapped table index for a branch PC: `pc mod len`, computed with a
/// mask when the table size is a power of two (every Table 1 configuration
/// is). The predictor is consulted once per dynamic branch, which makes the
/// integer division measurable on branchy traces; the mask form computes the
/// same index.
#[inline]
fn table_index(pc: u64, len: usize) -> usize {
    if len.is_power_of_two() {
        (pc as usize) & (len - 1)
    } else {
        (pc % len as u64) as usize
    }
}

/// A table of 2-bit saturating counters indexed by the branch PC.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    counters: Vec<u8>,
}

impl BimodalPredictor {
    /// Create a predictor with `entries` counters, initialised to weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor must have at least one entry");
        Self { counters: vec![2; entries] }
    }

    fn index(&self, pc: u64) -> usize {
        table_index(pc, self.counters.len())
    }

    /// Predict whether the branch at `pc` is taken.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Update the counter with the actual outcome.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// A direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    /// `(pc, target)` per slot; an empty slot holds [`Btb::EMPTY`] as its pc.
    /// 16 bytes a slot, where `Option<(u64, u64)>` takes 24.
    entries: Vec<(u64, u64)>,
}

impl Btb {
    /// Create a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "BTB must have at least one entry");
        Self { entries: vec![Self::VACANT; entries] }
    }

    /// The pc of an empty slot. Branch pcs are static instruction indices,
    /// so no branch has this one.
    pub const EMPTY: u64 = u64::MAX;
    const VACANT: (u64, u64) = (Self::EMPTY, 0);

    fn index(&self, pc: u64) -> usize {
        table_index(pc, self.entries.len())
    }

    /// Look up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.entries[self.index(pc)];
        (tag == pc && pc != Self::EMPTY).then_some(target)
    }

    /// Record the target of a taken branch.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is [`Btb::EMPTY`].
    pub fn update(&mut self, pc: u64, target: u64) {
        assert_ne!(pc, Self::EMPTY, "pc {pc:#x} marks an empty BTB slot");
        let idx = self.index(pc);
        self.entries[idx] = (pc, target);
    }
}

/// Combined front-end predictor: direction from the bimodal table, target from
/// the BTB. A taken prediction without a BTB hit cannot redirect fetch in time
/// and therefore behaves like a misprediction.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: BimodalPredictor,
    btb: Btb,
    /// Number of predictions made.
    pub predictions: u64,
    /// Number of mispredictions (wrong direction, or taken without a target).
    pub mispredictions: u64,
}

impl BranchPredictor {
    /// Create a predictor with the given table sizes.
    pub fn new(bimodal_entries: usize, btb_entries: usize) -> Self {
        Self {
            bimodal: BimodalPredictor::new(bimodal_entries),
            btb: Btb::new(btb_entries),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predict the branch at `pc` and update the tables with the actual
    /// outcome. Returns `true` if the prediction was correct (fetch continues
    /// uninterrupted), `false` on a misprediction.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, conditional: bool, taken: bool, target: u64) -> bool {
        self.predictions += 1;
        let dir_prediction = if conditional { self.bimodal.predict(pc) } else { true };
        let btb_target = self.btb.lookup(pc);

        let correct = if taken {
            dir_prediction && btb_target == Some(target)
        } else {
            !dir_prediction
        };

        if conditional {
            self.bimodal.update(pc, taken);
        }
        if taken {
            self.btb.update(pc, target);
        }
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// The (bimodal, BTB) table sizes this predictor was built with — used
    /// by the simulator to validate that a reusable engine state matches a
    /// core configuration before streaming into it.
    pub fn table_sizes(&self) -> (usize, usize) {
        (self.bimodal.counters.len(), self.btb.entries.len())
    }

    /// Restore the tables to their just-built state (counters weakly taken,
    /// BTB empty, counts zeroed) without reallocating. Part of the simulator
    /// `reset()` path that lets machines be reused across experiment cells.
    pub fn reset(&mut self) {
        self.bimodal.counters.fill(2);
        self.btb.entries.fill(Btb::VACANT);
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// Misprediction ratio in [0, 1].
    pub fn misprediction_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_biased_branch() {
        let mut p = BimodalPredictor::new(16);
        for _ in 0..4 {
            p.update(5, false);
        }
        assert!(!p.predict(5));
        for _ in 0..2 {
            p.update(5, true);
        }
        assert!(p.predict(5));
    }

    #[test]
    fn bimodal_counters_saturate() {
        let mut p = BimodalPredictor::new(4);
        for _ in 0..10 {
            p.update(1, true);
        }
        p.update(1, false);
        assert!(p.predict(1), "one not-taken outcome does not flip a saturated counter");
    }

    #[test]
    fn btb_stores_and_aliases() {
        let mut b = Btb::new(4);
        assert_eq!(b.lookup(3), None);
        b.update(3, 100);
        assert_eq!(b.lookup(3), Some(100));
        // PC 7 aliases to the same slot (index 3) and evicts it.
        b.update(7, 200);
        assert_eq!(b.lookup(3), None);
        assert_eq!(b.lookup(7), Some(200));
    }

    #[test]
    fn btb_empty_slots_match_no_pc() {
        let b = Btb::new(4);
        assert_eq!(b.lookup(0), None);
        assert_eq!(b.lookup(u64::MAX - 1), None);
        assert_eq!(b.lookup(Btb::EMPTY), None);
        let mut bp = BranchPredictor::new(4, 4);
        assert!(!bp.predict_and_update(4, false, true, 9), "a cold BTB has no target");
        assert_eq!(bp.btb.lookup(4), Some(9));
        bp.reset();
        assert_eq!(bp.btb.lookup(4), None, "reset empties the slots");
    }

    #[test]
    #[should_panic(expected = "marks an empty BTB slot")]
    fn btb_update_refuses_the_empty_pc() {
        Btb::new(4).update(Btb::EMPTY, 0);
    }

    #[test]
    fn loop_branch_is_learned_quickly() {
        let mut bp = BranchPredictor::new(64, 16);
        let mut correct = 0;
        // A loop branch taken 99 times then falling through once.
        for i in 0..100 {
            let taken = i != 99;
            if bp.predict_and_update(10, true, taken, 3) {
                correct += 1;
            }
        }
        assert!(correct >= 96, "only {correct} correct predictions");
        assert!(bp.misprediction_ratio() < 0.05);
    }

    #[test]
    fn unconditional_jump_needs_btb_warmup() {
        let mut bp = BranchPredictor::new(64, 16);
        assert!(!bp.predict_and_update(20, false, true, 5), "first sighting has no BTB target");
        assert!(bp.predict_and_update(20, false, true, 5), "second sighting hits the BTB");
    }
}
