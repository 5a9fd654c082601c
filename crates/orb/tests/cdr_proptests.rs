//! Property-based tests for CDR marshalling: any well-typed value
//! round-trips bit-exactly through encode → decode, the type checker
//! agrees with the decoder about well-typedness, the sizes the network
//! is charged are the encoder's byte counts (counted without a byte
//! written or allocated), and no buffer — mutated, truncated or random —
//! makes the decoder panic or reserve memory its stream cannot back.
//!
//! The binary installs `lc_prop::alloc`'s counting allocator for the
//! last two.

use lc_idl::types::ResolvedType;
use lc_orb::events::event_wire_size;
use lc_orb::{
    check_value, encoded_len, Decoder, Encoder, ObjectKey, ObjectRef, OrbError, Outcome, SimOrb,
    Value, HEADER_BYTES,
};
use lc_prop::alloc::{allocs, largest, reset_largest, Counting};
use lc_prop::{check, Gen};
#[global_allocator]
static GLOBAL: Counting = Counting;

const IDL: &str = r#"
    struct Point { long x; double y; };
    enum Color { red, green, blue };
    interface Thing { void f(); };
"#;

/// Produce a `(type, well-typed value)` pair, recursively: at depth > 0 a
/// draw may be a homogeneous sequence of deeper draws.
fn typed_value(g: &mut Gen, depth: usize) -> (ResolvedType, Value) {
    // One extra arm for sequences while depth remains.
    let arms = if depth > 0 { 18u32 } else { 17 };
    match g.gen_range(0..arms) {
        0 => (ResolvedType::Boolean, Value::Boolean(g.gen_bool())),
        1 => (ResolvedType::Octet, Value::Octet(g.any_u8())),
        2 => (ResolvedType::Char, Value::Char(g.any_char())),
        3 => (ResolvedType::Short { unsigned: false }, Value::Short(g.any_i16())),
        4 => (ResolvedType::Short { unsigned: true }, Value::UShort(g.any_u16())),
        5 => (ResolvedType::Long { unsigned: false }, Value::Long(g.any_i32())),
        6 => (ResolvedType::Long { unsigned: true }, Value::ULong(g.any_u32())),
        7 => (ResolvedType::LongLong { unsigned: false }, Value::LongLong(g.any_i64())),
        8 => (ResolvedType::LongLong { unsigned: true }, Value::ULongLong(g.any_u64())),
        9 => (ResolvedType::Float, Value::Float(g.any_f32())),
        10 => (ResolvedType::Double, Value::Double(g.any_f64())),
        11 => (ResolvedType::String, Value::Str(g.ascii_printable(0..41).into())),
        12 => (
            ResolvedType::Struct("IDL:Point:1.0".into()),
            Value::Struct {
                id: "IDL:Point:1.0".into(),
                fields: vec![Value::Long(g.any_i32()), Value::Double(g.any_f64())],
            },
        ),
        13 => {
            let ordinal = g.gen_range(0..3u32);
            (
                ResolvedType::Enum("IDL:Color:1.0".into()),
                Value::Enum { id: "IDL:Color:1.0".into(), ordinal },
            )
        }
        14 => (
            ResolvedType::Object("IDL:Thing:1.0".into()),
            Value::ObjRef(ObjectRef {
                key: ObjectKey { host: lc_net::HostId(g.any_u32()), oid: g.any_u64() },
                type_id: "IDL:Thing:1.0".into(),
            }),
        ),
        15 => (ResolvedType::Object("IDL:Thing:1.0".into()), Value::Nil),
        16 => (ResolvedType::Void, Value::Void),
        _ => {
            // A sequence must be homogeneous: generate one element to fix
            // the type, then keep generating until one matches it.
            let n = g.gen_range(0..6usize);
            if n == 0 {
                return (
                    ResolvedType::Sequence(Box::new(ResolvedType::Octet)),
                    Value::Sequence(vec![]),
                );
            }
            let (t0, v0) = typed_value(g, depth - 1);
            let mut vals = vec![v0];
            for _ in 1..n {
                let (t, v) = typed_value(g, depth - 1);
                if t == t0 {
                    vals.push(v);
                }
            }
            (ResolvedType::Sequence(Box::new(t0)), Value::Sequence(vals))
        }
    }
}

#[test]
fn round_trip_exact() {
    let repo = lc_idl::compile(IDL).unwrap();
    check("round_trip_exact", |g| {
        let depth = g.gen_range(0..4usize);
        let (ty, value) = typed_value(g, depth);
        // well-typed by construction
        check_value(&value, &ty, &repo).unwrap();
        let mut enc = Encoder::new();
        enc.value(&value);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes, &repo);
        let back = dec.value(&ty).unwrap();
        assert_eq!(&back, &value);
        assert_eq!(dec.consumed(), bytes.len());
        // encoding is deterministic
        let mut enc2 = Encoder::new();
        enc2.value(&back);
        assert_eq!(enc2.into_bytes(), bytes);
    });
}

fn encode(values: &[Value]) -> Vec<u8> {
    let mut enc = Encoder::new();
    for v in values {
        enc.value(v);
    }
    enc.into_bytes()
}

/// The counted length is the encoder's byte length, whatever offset the
/// value starts at: 0–7 leading octets put it at every alignment.
#[test]
fn counted_len_is_the_encoders_at_every_alignment() {
    check("counted_len_is_the_encoders_at_every_alignment", |g| {
        let depth = g.gen_range(0..4usize);
        let (_, value) = typed_value(g, depth);
        for lead in 0..8usize {
            let mut values = vec![Value::Octet(0xAB); lead];
            values.push(value.clone());
            assert_eq!(encoded_len(&values), encode(&values).len() as u64, "lead {lead}");
        }
    });
}

/// Request and reply sizes are what they were when they marshalled:
/// header, plus the operation name, plus the values encoded back to back
/// from offset 0 (a reply's are its return value, then its outs).
#[test]
fn wire_sizes_match_their_definitions() {
    check("wire_sizes_match_their_definitions", |g| {
        let values = g.vec_of(0..5, |g| {
            let depth = g.gen_range(0..3usize);
            typed_value(g, depth).1
        });
        let op = g.ascii_printable(0..20);
        assert_eq!(
            SimOrb::request_size(&op, &values),
            HEADER_BYTES + op.len() as u64 + encode(&values).len() as u64
        );
        for v in &values {
            assert_eq!(event_wire_size(v), encode(std::slice::from_ref(v)).len() as u64);
        }
        let depth = g.gen_range(0..3usize);
        let ret = typed_value(g, depth).1;
        let mut back_to_back = vec![ret.clone()];
        back_to_back.extend(values.iter().cloned());
        let reply = Ok(Outcome { ret, outs: values });
        assert_eq!(
            SimOrb::reply_size(&reply),
            HEADER_BYTES + encode(&back_to_back).len() as u64
        );
        assert_eq!(SimOrb::reply_size(&Err(OrbError::Timeout)), HEADER_BYTES + 16);
    });
}

/// Learning a size allocates nothing.
#[test]
fn counted_sizes_allocate_nothing() {
    check("counted_sizes_allocate_nothing", |g| {
        let values = g.vec_of(1..5, |g| {
            let depth = g.gen_range(0..4usize);
            typed_value(g, depth).1
        });
        let reply = Ok(Outcome { ret: values[0].clone(), outs: values.clone() });
        let before = allocs();
        let total = encoded_len(&values)
            + SimOrb::request_size("draw", &values)
            + SimOrb::reply_size(&reply)
            + event_wire_size(&values[0]);
        assert_eq!(allocs() - before, 0, "counting {total} bytes allocated");
    });
}

/// The decoder is total: valid encodings damaged byte-wise — bits
/// flipped, lengths blown up, the tail cut off or padded — and bytes that
/// never were an encoding decode to `Ok` or `Err`, never a panic, for
/// every type shape the generator reaches.
#[test]
fn decoder_total() {
    let repo = lc_idl::compile(IDL).unwrap();
    check("decoder_total", |g| {
        let depth = g.gen_range(0..4usize);
        let (ty, value) = typed_value(g, depth);
        let mut bytes = encode(std::slice::from_ref(&value));
        for _ in 0..g.gen_range(1..4usize) {
            match g.gen_range(0..5u32) {
                0 if !bytes.is_empty() => {
                    let i = g.gen_range(0..bytes.len());
                    bytes[i] ^= 1 << g.gen_range(0..8u32);
                }
                1 if !bytes.is_empty() => {
                    let i = g.gen_range(0..bytes.len());
                    bytes[i] = g.any_u8();
                }
                2 if bytes.len() >= 4 => {
                    // Where a length prefix could sit.
                    let i = g.gen_range(0..bytes.len() / 4) * 4;
                    bytes[i..i + 4].copy_from_slice(&[0xFF; 4]);
                }
                3 => bytes.truncate(g.gen_range(0..bytes.len() + 1)),
                _ => bytes.extend(g.bytes(0..9)),
            }
        }
        let _ = Decoder::new(&bytes, &repo).value(&ty);
        let _ = Decoder::new(&g.bytes(0..200), &repo).value(&ty);
    });
}

/// A `0xFFFF_FFFF` length prefix on a stream a few bytes long is an
/// error, and no memory was set aside on its say-so.
#[test]
fn hostile_length_reserves_nothing() {
    let repo = lc_idl::compile(IDL).unwrap();
    let seq = |inner| ResolvedType::Sequence(Box::new(inner));
    let tys = [
        ResolvedType::String,
        seq(ResolvedType::Octet),
        seq(ResolvedType::String),
        seq(ResolvedType::Struct("IDL:Point:1.0".into())),
        seq(seq(ResolvedType::Double)),
        // Zero-width elements: the stream never runs out under them.
        seq(ResolvedType::Void),
    ];
    for ty in &tys {
        for tail in 0..4usize {
            let mut bytes = vec![0xFF; 4];
            bytes.extend(std::iter::repeat_n(1u8, tail));
            reset_largest();
            let got = Decoder::new(&bytes, &repo).value(ty);
            let largest = largest();
            assert!(got.is_err(), "{ty:?} with {tail} trailing bytes decoded");
            assert!(largest <= 256, "{ty:?}: a {largest}-byte request on a hostile length");
        }
    }
}
