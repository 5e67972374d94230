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

/// A table of 2-bit saturating counters indexed by the branch PC, packed
/// four to a byte: counter `i` is bits `2 * (i % 4)..2 * (i % 4) + 2` of
/// byte `i / 4`. Table 1's largest table, 16,384 counters, takes 4 KiB.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    counters: Vec<u8>,
    /// Number of counters; the last byte may hold fewer than four.
    entries: usize,
}

impl BimodalPredictor {
    /// Four weakly-taken counters (`0b10` each) in one byte.
    const WEAKLY_TAKEN: u8 = 0b1010_1010;

    /// Create a predictor with `entries` counters, initialised to weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor must have at least one entry");
        Self { counters: vec![Self::WEAKLY_TAKEN; entries.div_ceil(4)], entries }
    }

    /// The byte holding `pc`'s counter and the counter's shift within it.
    fn slot(&self, pc: u64) -> (usize, u32) {
        let i = table_index(pc, self.entries);
        (i / 4, 2 * (i % 4) as u32)
    }

    /// The 2-bit counter of the branch at `pc`.
    pub fn counter(&self, pc: u64) -> u8 {
        let (byte, shift) = self.slot(pc);
        self.counters[byte] >> shift & 3
    }

    /// Predict whether the branch at `pc` is taken.
    pub fn predict(&self, pc: u64) -> bool {
        self.counter(pc) >= 2
    }

    /// Update the counter with the actual outcome.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let (byte, shift) = self.slot(pc);
        let c = self.counters[byte] >> shift & 3;
        let next = if taken { (c + 1).min(3) } else { c.saturating_sub(1) };
        self.counters[byte] ^= (c ^ next) << shift;
    }

    /// Set every counter back to weakly taken.
    pub fn reset(&mut self) {
        self.counters.fill(Self::WEAKLY_TAKEN);
    }
}

/// A direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    /// `(pc, target)` per slot; an empty slot holds [`Btb::EMPTY`] as its pc.
    /// Both are static instruction indices, so 32 bits each: 8 bytes a slot.
    entries: Vec<(u32, u32)>,
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
    pub const EMPTY: u32 = u32::MAX;
    const VACANT: (u32, u32) = (Self::EMPTY, 0);

    fn index(&self, pc: u64) -> usize {
        table_index(pc, self.entries.len())
    }

    /// Look up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.entries[self.index(pc)];
        (u64::from(tag) == pc && tag != Self::EMPTY).then_some(u64::from(target))
    }

    /// Record the target of a taken branch.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is [`Btb::EMPTY`] or wider than 32 bits, or if
    /// `target` is wider than 32 bits.
    pub fn update(&mut self, pc: u64, target: u64) {
        let tag = u32::try_from(pc).ok().filter(|&t| t != Self::EMPTY).unwrap_or_else(|| {
            panic!("pc {pc:#x} does not fit a BTB slot (32 bits; {:#x} marks an empty slot)", Self::EMPTY)
        });
        let target = u32::try_from(target)
            .unwrap_or_else(|_| panic!("BTB target {target:#x} of pc {pc:#x} does not fit 32 bits"));
        let idx = self.index(pc);
        self.entries[idx] = (tag, target);
    }
}

/// Combined front-end predictor: direction from the bimodal table, target from
/// the BTB. A taken prediction without a BTB hit cannot redirect fetch in time
/// and therefore behaves like a misprediction.
///
/// Both tables hold static instruction indices and 2-bit counters at their
/// natural width: the bimodal table packs four counters per byte and a BTB
/// slot is two `u32`s, so the 8-way configuration (16,384 counters, 1,024
/// slots) keeps 4 KiB + 8 KiB.
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
        (self.bimodal.entries, self.btb.entries.len())
    }

    /// Restore the tables to their just-built state (counters weakly taken,
    /// BTB empty, counts zeroed) without reallocating. Part of the simulator
    /// `reset()` path that lets machines be reused across experiment cells.
    pub fn reset(&mut self) {
        self.bimodal.reset();
        self.btb.entries.fill(Btb::VACANT);
        self.predictions = 0;
        self.mispredictions = 0;
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
        assert_eq!(b.lookup(u64::from(Btb::EMPTY)), None);
        let mut bp = BranchPredictor::new(4, 4);
        assert!(!bp.predict_and_update(4, false, true, 9), "a cold BTB has no target");
        assert_eq!(bp.btb.lookup(4), Some(9));
        bp.reset();
        assert_eq!(bp.btb.lookup(4), None, "reset empties the slots");
    }

    #[test]
    #[should_panic(expected = "marks an empty slot")]
    fn btb_update_refuses_the_empty_pc() {
        Btb::new(4).update(u64::from(Btb::EMPTY), 0);
    }

    #[test]
    fn btb_slots_hold_32_bit_pcs_and_targets() {
        let mut b = Btb::new(4);
        let top = u64::from(u32::MAX - 1);
        b.update(top, u64::from(u32::MAX));
        assert_eq!(b.lookup(top), Some(u64::from(u32::MAX)));
        assert_eq!(b.lookup(top + 4), None, "a pc wider than 32 bits matches no slot");
        assert_eq!(b.lookup(u64::from(Btb::EMPTY)), None, "an empty slot's pc is no hit");
    }

    #[test]
    #[should_panic(expected = "pc 0x100000002 does not fit a BTB slot")]
    fn btb_update_refuses_a_pc_wider_than_32_bits() {
        Btb::new(4).update(1 << 32 | 2, 0);
    }

    #[test]
    #[should_panic(expected = "BTB target 0x100000000 of pc 0x2 does not fit 32 bits")]
    fn btb_update_refuses_a_target_wider_than_32_bits() {
        Btb::new(4).update(2, 1 << 32);
    }

    #[test]
    fn table_footprint_is_two_bits_a_counter_and_eight_bytes_a_slot() {
        let bp = BranchPredictor::new(16384, 1024);
        assert_eq!(bp.table_sizes(), (16384, 1024), "sizes are entry counts");
        assert_eq!(std::mem::size_of_val(bp.bimodal.counters.as_slice()), 4 * 1024);
        assert_eq!(std::mem::size_of_val(bp.btb.entries.as_slice()), 8 * 1024);
    }

    #[test]
    fn bimodal_tables_not_a_multiple_of_four_keep_every_counter() {
        let mut p = BimodalPredictor::new(5);
        assert_eq!(p.counters.len(), 2);
        p.update(4, false);
        p.update(4, false);
        assert_eq!(p.counter(4), 0);
        assert_eq!(p.counter(9), 0, "pc 9 maps to counter 4");
        assert!((0..4).all(|pc| p.counter(pc) == 2), "neighbours stay weakly taken");
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
        assert!((bp.mispredictions as f64) < 0.05 * bp.predictions as f64);
    }

    #[test]
    fn unconditional_jump_needs_btb_warmup() {
        let mut bp = BranchPredictor::new(64, 16);
        assert!(!bp.predict_and_update(20, false, true, 5), "first sighting has no BTB target");
        assert!(bp.predict_and_update(20, false, true, 5), "second sighting hits the BTB");
    }
}
