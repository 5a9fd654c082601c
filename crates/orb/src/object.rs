//! Object references and ORB error codes.

use lc_net::HostId;

/// Location-transparent address of a servant: the host it lives on plus
/// the object adapter's id for it. The CORBA analogue is the object key
/// inside an IOR.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectKey {
    /// Host whose object adapter owns the servant.
    pub host: HostId,
    /// Object id within that adapter.
    pub oid: u64,
}

/// An interoperable object reference (IOR): where the object is and what
/// interface it implements.
///
/// References are freely copyable and can be passed through operations
/// (`ResolvedType::Object` parameters) — that is what makes the CSCW
/// "GUI components can be local or remote" wiring of Fig. 2 work.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjectRef {
    /// Servant address.
    pub key: ObjectKey,
    /// Repository id of the most-derived interface, e.g.
    /// `IDL:cscw/Display:1.0`.
    pub type_id: String,
}

impl std::fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}#{}", self.type_id, self.key.host, self.key.oid)
    }
}

/// Why a `COMM_FAILURE` happened — the fabric's [`lc_net::DropReason`]
/// surfaced through the ORB so callers can distinguish a crashed peer
/// from a dead node process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommReason {
    /// The local (sending) host is down.
    SenderDown,
    /// The destination host is down.
    ReceiverDown,
    /// The destination host has no node process listening.
    Unbound,
}

impl From<lc_net::DropReason> for CommReason {
    fn from(r: lc_net::DropReason) -> Self {
        match r {
            lc_net::DropReason::SenderDown => CommReason::SenderDown,
            lc_net::DropReason::ReceiverDown => CommReason::ReceiverDown,
            lc_net::DropReason::Unbound => CommReason::Unbound,
        }
    }
}

impl From<lc_net::DropReason> for OrbError {
    fn from(r: lc_net::DropReason) -> Self {
        OrbError::CommFailure(r.into())
    }
}

impl std::fmt::Display for CommReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommReason::SenderDown => write!(f, "sender down"),
            CommReason::ReceiverDown => write!(f, "receiver down"),
            CommReason::Unbound => write!(f, "unbound"),
        }
    }
}

/// ORB-level failures (the CORBA system exceptions this subset needs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OrbError {
    /// The object key does not name an active servant.
    ObjectNotExist,
    /// The interface has no such operation.
    BadOperation(String),
    /// Arguments failed the IDL type check.
    BadParam(String),
    /// The destination host is unreachable, and why.
    CommFailure(CommReason),
    /// A reply did not arrive in time (deadline elapsed, retry budget
    /// exhausted).
    Timeout,
    /// The servant's node shed the request under admission control: it
    /// could not be served within its deadline at the current queue
    /// depth. Deliberately distinct from [`OrbError::Timeout`] — the
    /// caller learns *immediately* that the work was refused (and never
    /// executed), instead of burning its deadline waiting.
    Overload,
    /// Application-level exception raised by the servant, by repository id.
    UserException {
        /// Exception repository id.
        id: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Anything else (servant panicked its invariant, etc.).
    Internal(String),
}

impl std::fmt::Display for OrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrbError::ObjectNotExist => write!(f, "OBJECT_NOT_EXIST"),
            OrbError::BadOperation(op) => write!(f, "BAD_OPERATION: {op}"),
            OrbError::BadParam(m) => write!(f, "BAD_PARAM: {m}"),
            OrbError::CommFailure(r) => write!(f, "COMM_FAILURE ({r})"),
            OrbError::Timeout => write!(f, "TIMEOUT"),
            OrbError::Overload => write!(f, "OVERLOAD"),
            OrbError::UserException { id, detail } => write!(f, "user exception {id}: {detail}"),
            OrbError::Internal(m) => write!(f, "INTERNAL: {m}"),
        }
    }
}
impl std::error::Error for OrbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let r = ObjectRef {
            key: ObjectKey { host: HostId(3), oid: 42 },
            type_id: "IDL:X:1.0".into(),
        };
        assert_eq!(r.to_string(), "IDL:X:1.0@host3#42");
        assert_eq!(OrbError::Timeout.to_string(), "TIMEOUT");
        assert!(OrbError::UserException { id: "IDL:E:1.0".into(), detail: "boom".into() }
            .to_string()
            .contains("boom"));
    }
}
