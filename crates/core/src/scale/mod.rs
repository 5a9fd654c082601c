//! # The million-node scale substrate
//!
//! The actor-based [`Node`](crate::node::Node) is faithful to the
//! paper's Fig. 1 — five services, boxed continuations, per-node
//! `BTreeMap`s — and tops out around 10³–10⁴ hosts: each node costs
//! kilobytes of scattered heap.
//! The paper's campus argument needs 10⁵–10⁶ nodes, which is a
//! memory-layout problem, not a protocol problem.
//!
//! [`campus`] keeps the protocol semantics of the registry/cohesion
//! stack and holds only the state that protocol reads: one DES actor
//! ([`ScaleCampus`]) on the packed event lane, the tree as arithmetic,
//! a few `u64` masks per group seat.
//!
//! Design rules (`tests/alloc_budget.rs` pins the allocator calls of a
//! 10⁵-node run and E13 gates 100 B/node, so per-item boxing fails both):
//!
//! * **No `Rc<RefCell<…>>`, no `Box<dyn …>`** — hot-path state is plain
//!   data reached through dense indices; there is nothing to
//!   pointer-chase and nothing to drop per node.
//! * **No state without a reader** — a node that is not a group seat has
//!   no row anywhere; what it reports is a function of its index.
//! * **One protocol, two drivers** — the tree is
//!   [`HierShape`](crate::cohesion::HierShape), the one every node reads
//!   its seats from, and a query at a seat is routed by
//!   [`route_at_seat`](crate::cohesion::route_at_seat), the function
//!   `registry_svc` calls; only the soft-state *representation* (presence
//!   masks instead of full reports) is the campus's own.

pub mod campus;

pub use campus::{
    run_scale, run_scale_profiled, QueryOutcome, ScaleCampus, ScaleConfig, ScaleReport, Variant,
    KIND_NAMES,
};
