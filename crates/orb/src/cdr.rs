//! CDR-style marshalling of [`Value`]s.
//!
//! Faithful to CORBA CDR in the properties that matter to the experiments:
//! primitive values are aligned to their natural boundary, strings and
//! sequences are length-prefixed, structs are the concatenation of their
//! fields. Decoding is type-directed (the receiver knows the operation
//! signature from the IDL repository), exactly like static CORBA stubs.
//!
//! The simulated transport charges the network with
//! [`encoded_len`]-accurate byte counts, and the loopback ORB uses
//! encode/decode round-trips in tests to prove the format is
//! self-consistent.

use crate::name::Name;
use crate::object::{ObjectKey, ObjectRef};
use crate::value::Value;
use lc_idl::types::ResolvedType;
use lc_idl::Repository;

/// Marshalling/unmarshalling failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CdrError(pub String);

impl std::fmt::Display for CdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CDR error: {}", self.0)
    }
}
impl std::error::Error for CdrError {}

/// Where encoded bytes go. The layout ([`write_value`]) is written once
/// against this: into a buffer it marshals, into [`Count`] it only
/// advances the offset.
trait Sink {
    /// Bytes written so far (the offset alignment is computed from).
    fn pos(&self) -> usize;
    /// Append `b`.
    fn put(&mut self, b: &[u8]);
    /// Append `n` padding bytes.
    fn pad(&mut self, n: usize);
}

impl Sink for Vec<u8> {
    fn pos(&self) -> usize {
        self.len()
    }
    fn put(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
    fn pad(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

/// The sink that keeps no bytes, only how many there would be.
struct Count(usize);

impl Sink for Count {
    fn pos(&self) -> usize {
        self.0
    }
    fn put(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
    fn pad(&mut self, n: usize) {
        self.0 += n;
    }
}

fn align(out: &mut impl Sink, n: usize) {
    out.pad(out.pos().next_multiple_of(n) - out.pos());
}

fn write_str(out: &mut impl Sink, s: &str) {
    align(out, 4);
    out.put(&(s.len() as u32 + 1).to_le_bytes());
    out.put(s.as_bytes());
    out.put(&[0]); // CDR strings are NUL-terminated
}

/// The CDR layout of one value, appended to `out`.
fn write_value(out: &mut impl Sink, v: &Value) {
    match v {
        Value::Void => {}
        Value::Boolean(b) => out.put(&[*b as u8]),
        Value::Octet(b) => out.put(&[*b]),
        Value::Char(c) => {
            // ULong code point (wchar-style, fixed width).
            align(out, 4);
            out.put(&(*c as u32).to_le_bytes());
        }
        Value::Short(x) => {
            align(out, 2);
            out.put(&x.to_le_bytes());
        }
        Value::UShort(x) => {
            align(out, 2);
            out.put(&x.to_le_bytes());
        }
        Value::Long(x) => {
            align(out, 4);
            out.put(&x.to_le_bytes());
        }
        Value::ULong(x) => {
            align(out, 4);
            out.put(&x.to_le_bytes());
        }
        Value::LongLong(x) => {
            align(out, 8);
            out.put(&x.to_le_bytes());
        }
        Value::ULongLong(x) => {
            align(out, 8);
            out.put(&x.to_le_bytes());
        }
        Value::Float(x) => {
            align(out, 4);
            out.put(&x.to_le_bytes());
        }
        Value::Double(x) => {
            align(out, 8);
            out.put(&x.to_le_bytes());
        }
        Value::Str(s) => write_str(out, s),
        Value::Sequence(items) => {
            align(out, 4);
            out.put(&(items.len() as u32).to_le_bytes());
            for item in items {
                write_value(out, item);
            }
        }
        Value::Struct { fields, .. } => {
            for f in fields {
                write_value(out, f);
            }
        }
        Value::Enum { ordinal, .. } => {
            align(out, 4);
            out.put(&ordinal.to_le_bytes());
        }
        Value::ObjRef(r) => {
            // flag 1, host, oid, type_id string
            out.put(&[1]);
            align(out, 4);
            out.put(&r.key.host.0.to_le_bytes());
            align(out, 8);
            out.put(&r.key.oid.to_le_bytes());
            write_str(out, &r.type_id);
        }
        Value::Nil => out.put(&[0]),
    }
}

/// CDR encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encode one value.
    pub fn value(&mut self, v: &Value) {
        write_value(&mut self.buf, v);
    }
}

/// Encoded size of a value sequence, including per-value alignment,
/// starting at offset 0. This is the number the network model charges;
/// it is counted, not marshalled — no byte is written, nothing allocated.
pub fn encoded_len<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut n = Count(0);
    for v in values {
        write_value(&mut n, v);
    }
    n.0 as u64
}

/// Longest sequence of zero-width elements the decoder materialises.
const MAX_EMPTY_ELEMENTS: usize = 4096;

/// CDR decoder. Type-directed: callers supply the expected
/// [`ResolvedType`] for each value.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    repo: &'a Repository,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf` with type metadata from `repo`.
    pub fn new(buf: &'a [u8], repo: &'a Repository) -> Self {
        Decoder { buf, pos: 0, repo }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    fn align(&mut self, n: usize) {
        while !self.pos.is_multiple_of(n) {
            self.pos += 1;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        if self.pos + n > self.buf.len() {
            return Err(CdrError("unexpected end of CDR stream".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CdrError> {
        self.align(4);
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, CdrError> {
        self.align(8);
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Decode one value of the given type.
    pub fn value(&mut self, ty: &ResolvedType) -> Result<Value, CdrError> {
        Ok(match ty {
            ResolvedType::Void => Value::Void,
            ResolvedType::Boolean => Value::Boolean(self.take(1)?[0] != 0),
            ResolvedType::Octet => Value::Octet(self.take(1)?[0]),
            ResolvedType::Char => {
                let code = self.u32()?;
                Value::Char(
                    char::from_u32(code).ok_or_else(|| CdrError("bad char".into()))?,
                )
            }
            ResolvedType::Short { unsigned } => {
                self.align(2);
                let s = self.take(2)?;
                let raw = u16::from_le_bytes([s[0], s[1]]);
                if *unsigned {
                    Value::UShort(raw)
                } else {
                    Value::Short(raw as i16)
                }
            }
            ResolvedType::Long { unsigned } => {
                let raw = self.u32()?;
                if *unsigned {
                    Value::ULong(raw)
                } else {
                    Value::Long(raw as i32)
                }
            }
            ResolvedType::LongLong { unsigned } => {
                let raw = self.u64()?;
                if *unsigned {
                    Value::ULongLong(raw)
                } else {
                    Value::LongLong(raw as i64)
                }
            }
            ResolvedType::Float => {
                self.align(4);
                let s = self.take(4)?;
                Value::Float(f32::from_le_bytes([s[0], s[1], s[2], s[3]]))
            }
            ResolvedType::Double => {
                self.align(8);
                let s = self.take(8)?;
                Value::Double(f64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
            }
            ResolvedType::String => Value::Str(self.string()?),
            ResolvedType::Sequence(inner) => {
                let n = self.u32()? as usize;
                // A length read off the wire reserves no more than the
                // stream can back (one byte per element at the least).
                let left = self.buf.len().saturating_sub(self.pos);
                let mut items = Vec::with_capacity(n.min(left));
                for _ in 0..n {
                    let at = self.pos;
                    items.push(self.value(inner)?);
                    // Elements that occupy no bytes are not bounded by the
                    // stream running out. The IDL compiler refuses every
                    // zero-width element type, but a caller can still hand
                    // `value` a `Sequence(Void)` directly.
                    if self.pos == at && n > MAX_EMPTY_ELEMENTS {
                        return Err(CdrError(format!("sequence of {n} empty elements")));
                    }
                }
                Value::Sequence(items)
            }
            ResolvedType::Struct(id) => {
                // Borrowed from the repository, not from `self`, so the
                // recursive field decodes below can take `&mut self`.
                let repo: &'a Repository = self.repo;
                let meta = repo
                    .struct_(id)
                    .ok_or_else(|| CdrError(format!("unknown struct '{id}'")))?;
                let mut fields = Vec::with_capacity(meta.fields.len());
                for f in &meta.fields {
                    fields.push(self.value(&f.ty)?);
                }
                Value::Struct { id: id.clone(), fields }
            }
            ResolvedType::Enum(id) => {
                let ordinal = self.u32()?;
                let meta = self
                    .repo
                    .enum_(id)
                    .ok_or_else(|| CdrError(format!("unknown enum '{id}'")))?;
                if ordinal as usize >= meta.items.len() {
                    return Err(CdrError(format!("enum {id}: bad ordinal {ordinal}")));
                }
                Value::Enum { id: id.clone(), ordinal }
            }
            ResolvedType::Object(_) => {
                let flag = self.take(1)?[0];
                if flag == 0 {
                    Value::Nil
                } else {
                    let host = self.u32()?;
                    let oid = self.u64()?;
                    let type_id = self.string()?;
                    Value::ObjRef(ObjectRef {
                        key: ObjectKey { host: lc_net::HostId(host), oid },
                        type_id,
                    })
                }
            }
        })
    }

    /// A string, built as a [`Name`] straight from the checked bytes:
    /// one allocation, no intermediate `String`.
    fn string(&mut self) -> Result<Name, CdrError> {
        let n = self.u32()? as usize;
        if n == 0 {
            return Err(CdrError("string length 0 (must include NUL)".into()));
        }
        let bytes = self.take(n)?;
        if bytes[n - 1] != 0 {
            return Err(CdrError("string missing NUL terminator".into()));
        }
        std::str::from_utf8(&bytes[..n - 1])
            .map(Name::from)
            .map_err(|_| CdrError("string is not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_idl::compile;

    fn repo() -> Repository {
        compile(
            r#"struct Point { long x; double y; };
               enum Color { red, green, blue };
               interface Thing { void f(); };"#,
        )
        .unwrap()
    }

    fn round_trip(v: &Value, ty: &ResolvedType) {
        let r = repo();
        let mut e = Encoder::new();
        e.value(v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, &r);
        let back = d.value(ty).unwrap();
        assert_eq!(&back, v);
        assert_eq!(d.consumed(), bytes.len(), "all bytes consumed");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&Value::Boolean(true), &ResolvedType::Boolean);
        round_trip(&Value::Octet(0xFE), &ResolvedType::Octet);
        round_trip(&Value::Char('ñ'), &ResolvedType::Char);
        round_trip(&Value::Short(-5), &ResolvedType::Short { unsigned: false });
        round_trip(&Value::UShort(65000), &ResolvedType::Short { unsigned: true });
        round_trip(&Value::Long(-100000), &ResolvedType::Long { unsigned: false });
        round_trip(&Value::ULong(4_000_000_000), &ResolvedType::Long { unsigned: true });
        round_trip(&Value::LongLong(-1) , &ResolvedType::LongLong { unsigned: false });
        round_trip(&Value::ULongLong(u64::MAX), &ResolvedType::LongLong { unsigned: true });
        round_trip(&Value::Float(1.5), &ResolvedType::Float);
        round_trip(&Value::Double(std::f64::consts::PI), &ResolvedType::Double);
        round_trip(&Value::string("héllo"), &ResolvedType::String);
        round_trip(&Value::string(""), &ResolvedType::String);
    }

    #[test]
    fn aggregates_round_trip() {
        let point = Value::Struct {
            id: "IDL:Point:1.0".into(),
            fields: vec![Value::Long(3), Value::Double(4.5)],
        };
        round_trip(&point, &ResolvedType::Struct("IDL:Point:1.0".into()));

        let seq = Value::Sequence(vec![point.clone(), point]);
        round_trip(
            &seq,
            &ResolvedType::Sequence(Box::new(ResolvedType::Struct("IDL:Point:1.0".into()))),
        );

        round_trip(
            &Value::Enum { id: "IDL:Color:1.0".into(), ordinal: 1 },
            &ResolvedType::Enum("IDL:Color:1.0".into()),
        );
    }

    #[test]
    fn objrefs_round_trip() {
        let ty = ResolvedType::Object("IDL:Thing:1.0".into());
        round_trip(&Value::Nil, &ty);
        round_trip(
            &Value::ObjRef(ObjectRef {
                key: ObjectKey { host: lc_net::HostId(9), oid: 1234567 },
                type_id: "IDL:Thing:1.0".into(),
            }),
            &ty,
        );
    }

    #[test]
    fn alignment_matches_cdr_rules() {
        // octet (1) then long must pad to offset 4.
        let mut e = Encoder::new();
        e.value(&Value::Octet(1));
        e.value(&Value::Long(2));
        assert_eq!(e.len(), 8);
        // octet then double pads to 8.
        let mut e2 = Encoder::new();
        e2.value(&Value::Octet(1));
        e2.value(&Value::Double(2.0));
        assert_eq!(e2.len(), 16);
    }

    #[test]
    fn encoded_len_matches_encoder() {
        let vals =
            vec![Value::Octet(1), Value::string("hello"), Value::Long(7), Value::blob(b"xyz")];
        let mut e = Encoder::new();
        for v in &vals {
            e.value(v);
        }
        assert_eq!(encoded_len(&vals), e.len() as u64);
    }

    #[test]
    fn decoder_rejects_garbage() {
        let r = repo();
        let mut d = Decoder::new(&[0xff, 0xff], &r);
        assert!(d.value(&ResolvedType::Long { unsigned: false }).is_err());
        let mut d2 = Decoder::new(&[0, 0, 0, 0], &r);
        assert!(d2.value(&ResolvedType::String).is_err());
        let mut d3 = Decoder::new(&[9, 0, 0, 0], &r); // enum ordinal 9
        assert!(d3.value(&ResolvedType::Enum("IDL:Color:1.0".into())).is_err());
    }

    #[test]
    fn bigger_payload_costs_more_bytes() {
        let small = encoded_len(&[Value::blob(&[0u8; 10])]);
        let big = encoded_len(&[Value::blob(&[0u8; 1000])]);
        assert!(big > small + 900);
    }
}
