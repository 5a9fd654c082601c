//! # lc-orb — the lightweight ORB under CORBA-LC
//!
//! The paper builds CORBA-LC on a CORBA 2 ORB, chosen for "heterogeneous
//! resource integration at any level" (requirement 2) while keeping the
//! whole stack "lightweight" (requirement 1). This crate is that ORB for
//! the reproduction, written from scratch:
//!
//! * [`value`] — dynamically typed IDL values, checked against the
//!   [`lc_idl`] metadata repository,
//! * [`cdr`] — CDR-style marshalling with CORBA alignment rules; byte
//!   counts from here are what the simulated network is charged,
//! * [`object`] — object keys, typed references (IORs) and system errors,
//! * [`name`] — [`Name`], the shared string a reference's repository id
//!   and the registry's component names are held in,
//! * [`servant`] — the [`servant::Servant`] trait and the per-host
//!   [`servant::ObjectAdapter`] with fully type-checked dispatch,
//! * [`events`] — typed publish/subscribe payloads ("push event
//!   channels", §2.1.2),
//! * [`local`] — the synchronous in-process ORB used for the E1
//!   "lightweightness" microbenchmarks and unit tests,
//! * [`sim`] — GIOP-style request/reply plumbing over the [`lc_net`]
//!   simulated fabric, used by the node/container runtime in `lc-core`,
//! * [`api`] — the [`api::Orb`] trait unifying both invocation paths,
//!   so benchmarks and tests run generically over either.

pub mod api;
pub mod cdr;
pub mod events;
pub mod local;
pub mod name;
pub mod object;
pub mod servant;
pub mod sim;
pub mod value;

pub use api::{Orb, SimOrbClient};
pub use cdr::{encoded_len, Decoder, Encoder};
pub use events::{check_event, make_event};
pub use local::LocalOrb;
pub use name::Name;
pub use object::{CommReason, ObjectKey, ObjectRef, OrbError};
pub use servant::{
    reply_args, DispatchEnv, DispatchOpts, DispatchResult, DispatchStats, Invocation,
    ObjectAdapter, OutCall, OutCallKind, Outcome, Servant,
};
pub use sim::{OrbWire, RequestId, SimOrb, HEADER_BYTES};
pub use value::{check_value, Value};
