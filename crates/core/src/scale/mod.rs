//! # The million-node scale substrate
//!
//! The actor-based [`Node`](crate::node::Node) is faithful to the
//! paper's Fig. 1 — five services, boxed continuations, per-node
//! `BTreeMap`s — and tops out around 10³–10⁴ hosts: each node costs
//! kilobytes of scattered heap and every message is a boxed `dyn Any`.
//! The paper's campus argument (and ROADMAP item 1) needs 10⁵–10⁶
//! nodes, which is a memory-layout problem, not a protocol problem.
//!
//! This module keeps the protocol semantics of the registry/cohesion
//! stack but re-hosts the *state* in struct-of-arrays storage keyed by
//! dense [`NodeIdx`]:
//!
//! | module | provides |
//! |---|---|
//! | [`soa`] | [`CampusSoa`]: cold per-node columns, lazily materialized service rows, shared site names |
//! | [`campus`] | [`ScaleCampus`]: one DES actor driving the whole campus on the packed event lane |
//!
//! Design rules (enforced by lint rule D6 on this directory):
//!
//! * **No `Rc<RefCell<…>>`, no `Box<dyn …>`** — hot-path state is plain
//!   data reached through dense indices; there is nothing to
//!   pointer-chase and nothing to drop per node.
//! * **Lazy materialization** — a node's mutable service state
//!   ([`soa::SvcState`]) is allocated on *first message to that node*;
//!   a campus where 1 % of nodes are ever addressed allocates 1 % of
//!   the service rows (`nodes_materialized` reports the count).
//! * **One protocol, two drivers** — the tree is
//!   [`HierShape`](crate::cohesion::HierShape), the one every node reads
//!   its duties from, and a query at a seat is routed by
//!   [`route_at_seat`](crate::cohesion::route_at_seat), the function
//!   `registry_svc` calls; only the soft-state *representation* (presence
//!   masks instead of full reports) is the campus's own.

pub mod campus;
pub mod soa;

pub use campus::{
    run_scale, run_scale_profiled, QueryOutcome, ScaleCampus, ScaleConfig, ScaleReport, Variant,
    KIND_NAMES,
};
pub use soa::{CampusSoa, SvcState};

/// Dense index of a node in the scale campus: row `i` of every column.
///
/// Distinct from [`lc_net::HostId`] only in intent — `NodeIdx` is a
/// storage key (always `0..n`, no holes), never a protocol address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The row number.
    #[inline]
    pub fn row(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}
