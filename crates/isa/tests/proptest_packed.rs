//! Property-based tests of the packed sub-word arithmetic and accumulators:
//! lane isolation, saturation bounds, pack/unpack round trips and equivalence
//! with wide scalar arithmetic.

use mom_isa::accumulator::Accumulator;
use mom_isa::packed::{Lane, PackedWord, Saturation};
use proptest::prelude::*;

fn lanes() -> impl Strategy<Value = Lane> {
    prop_oneof![
        Just(Lane::U8),
        Just(Lane::I8),
        Just(Lane::U16),
        Just(Lane::I16),
        Just(Lane::U32),
        Just(Lane::I32)
    ]
}

proptest! {
    // Packed-word ops are cheap; 256 cases still finish in well under a
    // second. `PROPTEST_CASES` overrides this for deeper local runs.
    #![proptest_config(Config::with_cases(256))]

    #[test]
    fn lane_roundtrip(bits in any::<u64>(), lane in lanes()) {
        let w = PackedWord::new(bits);
        let rebuilt = PackedWord::from_lanes(lane, w.lanes(lane).into_iter());
        prop_assert_eq!(rebuilt, w);
    }

    #[test]
    fn lanes_array_agrees_with_per_index_extraction(bits in any::<u64>(), lane in lanes()) {
        // The non-allocating `Lanes` array is exactly the sequence of
        // per-index `lane()` reads: same length, same values, slice access
        // included.
        let w = PackedWord::new(bits);
        let vals = w.lanes(lane);
        prop_assert_eq!(vals.len(), lane.count());
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(*v, w.lane(lane, i));
        }
        prop_assert_eq!(vals.as_slice().iter().sum::<i64>(), w.reduce_sum(lane));
    }

    #[test]
    fn saturating_results_stay_in_range(a in any::<u64>(), b in any::<u64>(), lane in lanes()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        for op in [x.add(y, lane, Saturation::Saturating), x.sub(y, lane, Saturation::Saturating)] {
            for i in 0..lane.count() {
                let v = op.lane(lane, i);
                prop_assert!(v >= lane.min_value() && v <= lane.max_value());
            }
        }
    }

    #[test]
    fn wrapping_add_matches_scalar_wrapping(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let sum = x.add(y, Lane::U8, Saturation::Wrapping);
        for i in 0..8 {
            let expect = (x.to_u8_lanes()[i]).wrapping_add(y.to_u8_lanes()[i]);
            prop_assert_eq!(sum.to_u8_lanes()[i], expect);
        }
    }

    #[test]
    fn abs_diff_is_symmetric_and_bounded(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        prop_assert_eq!(x.abs_diff(y, Lane::U8), y.abs_diff(x, Lane::U8));
        prop_assert_eq!(x.sad(y, Lane::U8), y.sad(x, Lane::U8));
        prop_assert!(x.sad(y, Lane::U8) <= 8 * 255);
        prop_assert_eq!(x.abs_diff(x, Lane::U8), PackedWord::ZERO);
    }

    #[test]
    fn unpack_lo_hi_cover_all_lanes(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let lo = x.unpack_lo(y, Lane::U8).to_u8_lanes();
        let hi = x.unpack_hi(y, Lane::U8).to_u8_lanes();
        let mut seen: Vec<u8> = lo.iter().chain(hi.iter()).copied().collect();
        let mut expected: Vec<u8> = x.to_u8_lanes().iter().chain(y.to_u8_lanes().iter()).copied().collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn pack_saturates_to_destination_range(a in any::<u64>(), b in any::<u64>()) {
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let packed = x.pack(y, Lane::I16, false);
        for i in 0..8 {
            let v = packed.lane(Lane::U8, i);
            prop_assert!((0..=255).contains(&v));
        }
        let source = x.lane(Lane::I16, 0).clamp(0, 255);
        prop_assert_eq!(packed.lane(Lane::U8, 0), source);
    }

    #[test]
    fn select_picks_only_from_inputs(mask in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let m = PackedWord::new(mask);
        let x = PackedWord::new(a);
        let y = PackedWord::new(b);
        let sel = PackedWord::select(m, x, y, Lane::U8);
        for i in 0..8 {
            let v = sel.lane(Lane::U8, i);
            prop_assert!(v == x.lane(Lane::U8, i) || v == y.lane(Lane::U8, i));
        }
    }

    #[test]
    fn accumulator_mul_add_matches_scalar(a in prop::collection::vec(-3000i64..3000, 4),
                                          b in prop::collection::vec(-3000i64..3000, 4),
                                          reps in 1usize..5) {
        let x = PackedWord::from_lanes(Lane::I16, a.iter().copied());
        let y = PackedWord::from_lanes(Lane::I16, b.iter().copied());
        let mut acc = Accumulator::new();
        for _ in 0..reps {
            acc.mul_add(x, y, Lane::I16);
        }
        let expect: i64 = a.iter().zip(&b).map(|(p, q)| p * q).sum::<i64>() * reps as i64;
        prop_assert_eq!(acc.reduce_sum(), expect);
    }

    #[test]
    fn accumulator_abs_diff_add_matches_lane_reference(a in any::<u64>(), b in any::<u64>(), lane in lanes()) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        let mut acc = Accumulator::new();
        acc.abs_diff_add(x, y, lane);
        let (av, bv) = (x.lanes(lane), y.lanes(lane));
        for i in 0..av.len() {
            prop_assert_eq!(acc.lane(i), (av[i] - bv[i]).abs());
        }
    }

    // 32-bit lanes are excluded: a squared 32-bit difference can exceed
    // `i64`, which panics in debug builds. Kernels only square 8/16-bit data.
    #[test]
    fn accumulator_sqr_diff_add_matches_lane_reference(
        a in any::<u64>(),
        b in any::<u64>(),
        lane in prop_oneof![Just(Lane::U8), Just(Lane::I8), Just(Lane::U16), Just(Lane::I16)],
    ) {
        let (x, y) = (PackedWord::new(a), PackedWord::new(b));
        let mut acc = Accumulator::new();
        acc.sqr_diff_add(x, y, lane);
        let (av, bv) = (x.lanes(lane), y.lanes(lane));
        for i in 0..av.len() {
            let d = av[i] - bv[i];
            prop_assert_eq!(acc.lane(i), d * d);
        }
    }
}
