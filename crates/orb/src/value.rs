//! Dynamic values: the data that crosses ORB requests.
//!
//! `lc-orb` is metadata-driven (like CORBA's DynAny/DSI): operation
//! arguments and results are [`Value`]s checked against the resolved IDL
//! types from [`lc_idl`]. This keeps the ORB free of generated stub code
//! while remaining fully typed — [`check_value`] rejects any value that
//! does not match the declared parameter type before it is marshalled.

use crate::name::Name;
use crate::object::ObjectRef;
use lc_idl::types::ResolvedType;
use lc_idl::Repository;

/// A dynamically typed IDL value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `void` (return position only).
    Void,
    /// `boolean`.
    Boolean(bool),
    /// `octet`.
    Octet(u8),
    /// `char` (restricted to one Unicode scalar).
    Char(char),
    /// `short`.
    Short(i16),
    /// `unsigned short`.
    UShort(u16),
    /// `long`.
    Long(i32),
    /// `unsigned long`.
    ULong(u32),
    /// `long long`.
    LongLong(i64),
    /// `unsigned long long`.
    ULongLong(u64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// `string`: a shared [`Name`], so cloning a value copies no text.
    Str(Name),
    /// `sequence<T>`.
    Sequence(Vec<Value>),
    /// A struct instance: repository id plus fields in declaration order.
    Struct {
        /// Struct repository id.
        id: String,
        /// Field values in declaration order.
        fields: Vec<Value>,
    },
    /// An enum instance: repository id plus enumerator ordinal.
    Enum {
        /// Enum repository id.
        id: String,
        /// Ordinal of the enumerator.
        ordinal: u32,
    },
    /// An object reference.
    ObjRef(ObjectRef),
    /// A nil object reference (typed at the use site).
    Nil,
}

impl Default for Value {
    /// `Value::Void` — the natural "nothing" value.
    fn default() -> Self {
        Value::Void
    }
}

impl Value {
    /// Convenience: a `string` value.
    pub fn string(s: &str) -> Value {
        Value::Str(Name::from(s))
    }

    /// Convenience: an octet sequence from bytes.
    pub fn blob(bytes: &[u8]) -> Value {
        Value::Sequence(bytes.iter().map(|&b| Value::Octet(b)).collect())
    }

    /// Extract bytes from an octet sequence.
    pub fn as_blob(&self) -> Option<Vec<u8>> {
        match self {
            Value::Sequence(items) => items
                .iter()
                .map(|v| match v {
                    Value::Octet(b) => Some(*b),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }

    /// Extract a `long`.
    pub fn as_long(&self) -> Option<i32> {
        match self {
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a `string`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an object reference.
    pub fn as_objref(&self) -> Option<&ObjectRef> {
        match self {
            Value::ObjRef(r) => Some(r),
            _ => None,
        }
    }

    /// Extract a `boolean`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `unsigned long long`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::ULongLong(v) => Some(*v),
            _ => None,
        }
    }
}

/// A type mismatch discovered by [`check_value`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeMismatch(pub String);

impl std::fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type mismatch: {}", self.0)
    }
}
impl std::error::Error for TypeMismatch {}

/// Check `value` against a resolved IDL type.
///
/// `repo` supplies struct/enum shapes and the interface hierarchy for
/// object references (a reference to a *derived* interface satisfies a
/// parameter typed with a base interface — CORBA widening).
pub fn check_value(
    value: &Value,
    ty: &ResolvedType,
    repo: &Repository,
) -> Result<(), TypeMismatch> {
    let fail = |what: &str| {
        Err(TypeMismatch(format!("expected {ty:?}, found {what}")))
    };
    match (value, ty) {
        (Value::Void, ResolvedType::Void) => Ok(()),
        (Value::Boolean(_), ResolvedType::Boolean) => Ok(()),
        (Value::Octet(_), ResolvedType::Octet) => Ok(()),
        (Value::Char(_), ResolvedType::Char) => Ok(()),
        (Value::Short(_), ResolvedType::Short { unsigned: false }) => Ok(()),
        (Value::UShort(_), ResolvedType::Short { unsigned: true }) => Ok(()),
        (Value::Long(_), ResolvedType::Long { unsigned: false }) => Ok(()),
        (Value::ULong(_), ResolvedType::Long { unsigned: true }) => Ok(()),
        (Value::LongLong(_), ResolvedType::LongLong { unsigned: false }) => Ok(()),
        (Value::ULongLong(_), ResolvedType::LongLong { unsigned: true }) => Ok(()),
        (Value::Float(_), ResolvedType::Float) => Ok(()),
        (Value::Double(_), ResolvedType::Double) => Ok(()),
        (Value::Str(_), ResolvedType::String) => Ok(()),
        (Value::Sequence(items), ResolvedType::Sequence(inner)) => {
            for (i, item) in items.iter().enumerate() {
                check_value(item, inner, repo)
                    .map_err(|e| TypeMismatch(format!("sequence[{i}]: {}", e.0)))?;
            }
            Ok(())
        }
        (Value::Struct { id, fields }, ResolvedType::Struct(want)) => {
            if id != want {
                return fail(&format!("struct {id}"));
            }
            let meta = repo
                .struct_(want)
                .ok_or_else(|| TypeMismatch(format!("unknown struct '{want}'")))?;
            if fields.len() != meta.fields.len() {
                return Err(TypeMismatch(format!(
                    "struct {id}: {} fields, expected {}",
                    fields.len(),
                    meta.fields.len()
                )));
            }
            for (fv, fm) in fields.iter().zip(&meta.fields) {
                check_value(fv, &fm.ty, repo)
                    .map_err(|e| TypeMismatch(format!("{id}.{}: {}", fm.name, e.0)))?;
            }
            Ok(())
        }
        (Value::Enum { id, ordinal }, ResolvedType::Enum(want)) => {
            if id != want {
                return fail(&format!("enum {id}"));
            }
            let meta = repo
                .enum_(want)
                .ok_or_else(|| TypeMismatch(format!("unknown enum '{want}'")))?;
            if *ordinal as usize >= meta.items.len() {
                return Err(TypeMismatch(format!(
                    "enum {id}: ordinal {ordinal} out of range ({} items)",
                    meta.items.len()
                )));
            }
            Ok(())
        }
        (Value::ObjRef(r), ResolvedType::Object(want)) => {
            if repo.is_a(&r.type_id, want) {
                Ok(())
            } else {
                Err(TypeMismatch(format!(
                    "object reference of type {} is not a {want}",
                    r.type_id
                )))
            }
        }
        (Value::Nil, ResolvedType::Object(_)) => Ok(()),
        (v, _) => fail(&format!("{v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectKey, ObjectRef};
    use lc_idl::compile;
    use lc_net::HostId;

    fn repo() -> Repository {
        compile(
            r#"struct Point { long x; long y; };
               enum Color { red, green, blue };
               interface Base { void f(); };
               interface Derived : Base { void g(); };"#,
        )
        .unwrap()
    }

    fn objref(type_id: &str) -> ObjectRef {
        ObjectRef { key: ObjectKey { host: HostId(0), oid: 7 }, type_id: type_id.into() }
    }

    #[test]
    fn primitives_check() {
        let r = repo();
        check_value(&Value::Long(5), &ResolvedType::Long { unsigned: false }, &r).unwrap();
        assert!(check_value(&Value::Long(5), &ResolvedType::Long { unsigned: true }, &r).is_err());
        check_value(&Value::string("x"), &ResolvedType::String, &r).unwrap();
        assert!(check_value(&Value::string("x"), &ResolvedType::Double, &r).is_err());
    }

    #[test]
    fn sequences_check_recursively() {
        let r = repo();
        let ty = ResolvedType::Sequence(Box::new(ResolvedType::Octet));
        check_value(&Value::blob(b"abc"), &ty, &r).unwrap();
        let bad = Value::Sequence(vec![Value::Octet(1), Value::Long(2)]);
        let err = check_value(&bad, &ty, &r).unwrap_err();
        assert!(err.0.contains("sequence[1]"), "{err}");
    }

    #[test]
    fn structs_check_shape() {
        let r = repo();
        let ty = ResolvedType::Struct("IDL:Point:1.0".into());
        let good = Value::Struct {
            id: "IDL:Point:1.0".into(),
            fields: vec![Value::Long(1), Value::Long(2)],
        };
        check_value(&good, &ty, &r).unwrap();
        let short = Value::Struct { id: "IDL:Point:1.0".into(), fields: vec![Value::Long(1)] };
        assert!(check_value(&short, &ty, &r).is_err());
        let wrong_field = Value::Struct {
            id: "IDL:Point:1.0".into(),
            fields: vec![Value::Long(1), Value::string("y")],
        };
        let err = check_value(&wrong_field, &ty, &r).unwrap_err();
        assert!(err.0.contains(".y"), "{err}");
    }

    #[test]
    fn enums_check_ordinal() {
        let r = repo();
        let ty = ResolvedType::Enum("IDL:Color:1.0".into());
        check_value(&Value::Enum { id: "IDL:Color:1.0".into(), ordinal: 2 }, &ty, &r).unwrap();
        assert!(
            check_value(&Value::Enum { id: "IDL:Color:1.0".into(), ordinal: 3 }, &ty, &r)
                .is_err()
        );
    }

    #[test]
    fn objref_widening() {
        let r = repo();
        let base_ty = ResolvedType::Object("IDL:Base:1.0".into());
        let derived_ty = ResolvedType::Object("IDL:Derived:1.0".into());
        check_value(&Value::ObjRef(objref("IDL:Derived:1.0")), &base_ty, &r).unwrap();
        assert!(check_value(&Value::ObjRef(objref("IDL:Base:1.0")), &derived_ty, &r).is_err());
        check_value(&Value::Nil, &base_ty, &r).unwrap();
    }

    #[test]
    fn blob_round_trip() {
        let v = Value::blob(&[1, 2, 3]);
        assert_eq!(v.as_blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(Value::Long(1).as_blob(), None);
        assert_eq!(Value::Sequence(vec![Value::Long(1)]).as_blob(), None);
    }
}
