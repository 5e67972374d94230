//! Byte-flip mutation tests of the bare codec primitives: a corrupted stream
//! must decode to a clean error or to values that encode back to exactly the
//! corrupted bytes — never to a panic, and never to a value the stream does
//! not hold.

use mom_isa::codec::{CodecError, Decoder, Encoder};
use proptest::prelude::*;

/// One value of each primitive the codec writes.
#[derive(Debug, Clone)]
enum Value {
    U8(u8),
    Bool(bool),
    U32(u32),
    U64(u64),
    F64(f64),
    Usize(usize),
    Blob(Vec<u8>),
}

impl Value {
    /// The value of primitive `kind` (0..7) built from the random `bits`.
    fn from_bits(kind: u8, bits: u64) -> Self {
        match kind {
            0 => Value::U8(bits as u8),
            1 => Value::Bool(bits & 1 == 1),
            2 => Value::U32(bits as u32),
            3 => Value::U64(bits),
            4 => Value::F64(f64::from_bits(bits)),
            5 => Value::Usize(bits as usize),
            _ => Value::Blob(bits.to_le_bytes()[..(bits % 9) as usize].to_vec()),
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            Value::U8(v) => e.u8(*v),
            Value::Bool(v) => e.bool(*v),
            Value::U32(v) => e.u32(*v),
            Value::U64(v) => e.u64(*v),
            Value::F64(v) => e.f64(*v),
            Value::Usize(v) => e.usize(*v),
            Value::Blob(v) => e.blob(v),
        }
    }

    /// Decode a value of the same primitive as `self` from `d`.
    fn decode_like(&self, d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match self {
            Value::U8(_) => Value::U8(d.u8("u8")?),
            Value::Bool(_) => Value::Bool(d.bool("bool")?),
            Value::U32(_) => Value::U32(d.u32("u32")?),
            Value::U64(_) => Value::U64(d.u64("u64")?),
            Value::F64(_) => Value::F64(d.f64("f64")?),
            Value::Usize(_) => Value::Usize(d.usize("usize")?),
            Value::Blob(_) => Value::Blob(d.blob("blob")?.to_vec()),
        })
    }
}

fn encode_all(values: &[Value]) -> Vec<u8> {
    let mut e = Encoder::new();
    for v in values {
        v.encode(&mut e);
    }
    e.into_bytes()
}

/// Decode `bytes` as the primitive sequence of `schema`, requiring the
/// stream to end exactly after it.
fn decode_all(schema: &[Value], bytes: &[u8]) -> Result<Vec<Value>, CodecError> {
    let mut d = Decoder::new(bytes);
    let values = schema.iter().map(|v| v.decode_like(&mut d)).collect::<Result<Vec<_>, _>>()?;
    d.finish("end of stream")?;
    Ok(values)
}

proptest! {
    #![proptest_config(Config::with_cases(256))]

    #[test]
    fn flipped_primitive_streams_decode_cleanly_or_reencode_exactly(
        raw in prop::collection::vec((0u8..7, any::<u64>()), 1..24),
        flips in prop::collection::vec((any::<u64>(), 1u64..256), 1..9),
    ) {
        let values: Vec<Value> = raw.iter().map(|&(kind, bits)| Value::from_bits(kind, bits)).collect();
        let clean = encode_all(&values);
        let decoded = decode_all(&values, &clean);
        prop_assert!(decoded.is_ok(), "the unflipped stream decodes");
        prop_assert_eq!(encode_all(&decoded.unwrap()), clean.clone());

        let mut flipped = clean;
        let len = flipped.len() as u64;
        for (pos, mask) in flips {
            flipped[(pos % len) as usize] ^= mask as u8;
        }
        if let Ok(values) = decode_all(&values, &flipped) {
            prop_assert_eq!(encode_all(&values), flipped, "an accepted stream re-encodes to itself");
        }
    }
}
