//! Property-based equivalence of the packed bimodal table (four 2-bit
//! counters per byte) and a one-byte-per-counter oracle at every Table 1
//! table size.

use mom_cpu::BimodalPredictor;
use proptest::prelude::*;

/// The Table 1 bimodal sizes of the 1-, 2-, 4- and 8-way configurations.
const TABLE1_SIZES: [usize; 4] = [512, 2048, 4096, 16384];

/// One byte per 2-bit saturating counter, indexed by `pc mod len`.
struct ByteCounters(Vec<u8>);

impl ByteCounters {
    fn new(entries: usize) -> Self {
        Self(vec![2; entries])
    }

    fn counter(&mut self, pc: u64) -> &mut u8 {
        let len = self.0.len() as u64;
        &mut self.0[(pc % len) as usize]
    }

    fn predict(&mut self, pc: u64) -> bool {
        *self.counter(pc) >= 2
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let c = self.counter(pc);
        *c = if taken {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
    }
}

/// Every counter of `packed` equals the oracle's.
fn same_counters(packed: &BimodalPredictor, oracle: &ByteCounters) -> bool {
    oracle
        .0
        .iter()
        .enumerate()
        .all(|(pc, &c)| packed.counter(pc as u64) == c)
}

proptest! {
    // Each case replays up to 2,000 outcomes into four tables and compares
    // up to 16,384 counters twice; 64 cases keep `cargo test -q` quick.
    // `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(64))]

    #[test]
    fn packed_bimodal_table_answers_like_one_byte_per_counter(
        // Pcs span four times the largest table, so every size aliases.
        outcomes in prop::collection::vec((0u64..65_536, any::<bool>()), 1..2000),
    ) {
        for entries in TABLE1_SIZES {
            let (mut packed, mut oracle) = (BimodalPredictor::new(entries), ByteCounters::new(entries));
            for &(pc, taken) in &outcomes {
                prop_assert_eq!(packed.predict(pc), oracle.predict(pc), "{entries} entries, pc {pc}");
                packed.update(pc, taken);
                oracle.update(pc, taken);
            }
            prop_assert!(same_counters(&packed, &oracle), "{entries} entries: final counters differ");
            packed.reset();
            prop_assert!(same_counters(&packed, &ByteCounters::new(entries)), "{entries} entries: reset");
        }
    }
}
