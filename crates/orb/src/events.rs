//! Event payload checking and the push-channel bookkeeping shared by both
//! ORB modes.
//!
//! §2.1.2 of the paper: "Events can be used as asynchronous communication
//! means for components … For each event kind produced by a component,
//! the framework opens a push event channel. Components can subscribe to
//! this channel to express its interest in the event kind produced by the
//! component."
//!
//! An event payload is a [`Value::Struct`] whose repository id names an
//! `eventtype` declaration and whose fields match it.

use crate::value::{check_value, TypeMismatch, Value};
use lc_idl::Repository;

/// Check an event payload against its `eventtype` declaration.
pub fn check_event(payload: &Value, event_id: &str, repo: &Repository) -> Result<(), TypeMismatch> {
    let meta = repo
        .event(event_id)
        .ok_or_else(|| TypeMismatch(format!("unknown event type '{event_id}'")))?;
    let Value::Struct { id, fields } = payload else {
        return Err(TypeMismatch(format!(
            "event payload must be a struct value tagged '{event_id}'"
        )));
    };
    if id != event_id {
        return Err(TypeMismatch(format!("event payload tagged '{id}', expected '{event_id}'")));
    }
    if fields.len() != meta.fields.len() {
        return Err(TypeMismatch(format!(
            "event '{event_id}': {} fields, expected {}",
            fields.len(),
            meta.fields.len()
        )));
    }
    for (v, f) in fields.iter().zip(&meta.fields) {
        check_value(v, &f.ty, repo)
            .map_err(|e| TypeMismatch(format!("event '{event_id}'.{}: {}", f.name, e.0)))?;
    }
    Ok(())
}

/// Build a well-formed event payload from field values (in declaration
/// order), checking it against the repository.
pub fn make_event(
    event_id: &str,
    fields: Vec<Value>,
    repo: &Repository,
) -> Result<Value, TypeMismatch> {
    let payload = Value::Struct { id: event_id.to_owned(), fields };
    check_event(&payload, event_id, repo)?;
    Ok(payload)
}

/// The CDR-encoded size of an event payload (what the network is charged
/// per delivered copy).
pub fn event_wire_size(payload: &Value) -> u64 {
    crate::cdr::encoded_len(std::slice::from_ref(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_idl::compile;

    fn repo() -> Repository {
        compile("eventtype Damage { long x; long y; string why; };").unwrap()
    }

    #[test]
    fn make_and_check() {
        let r = repo();
        let ev = make_event(
            "IDL:Damage:1.0",
            vec![Value::Long(1), Value::Long(2), Value::string("resize")],
            &r,
        )
        .unwrap();
        check_event(&ev, "IDL:Damage:1.0", &r).unwrap();
        assert!(event_wire_size(&ev) > 0);
    }

    #[test]
    fn shape_violations() {
        let r = repo();
        assert!(make_event("IDL:Damage:1.0", vec![Value::Long(1)], &r).is_err());
        assert!(make_event(
            "IDL:Damage:1.0",
            vec![Value::Long(1), Value::string("2"), Value::string("x")],
            &r
        )
        .is_err());
        assert!(make_event("IDL:Nope:1.0", vec![], &r).is_err());
        assert!(check_event(&Value::Long(3), "IDL:Damage:1.0", &r).is_err());
        let mislabeled = Value::Struct { id: "IDL:Other:1.0".into(), fields: vec![] };
        assert!(check_event(&mislabeled, "IDL:Damage:1.0", &r).is_err());
    }
}
