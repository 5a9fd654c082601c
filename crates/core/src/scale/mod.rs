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
//! 10⁵-node run and E13 gates 15 B/node, so per-item boxing fails both):
//!
//! * **No `Rc<RefCell<…>>`, no `Box<dyn …>`** — hot-path state is plain
//!   data reached through dense indices; there is nothing to
//!   pointer-chase and nothing to drop per node.
//! * **No state without a reader** — a node that is not a group seat has
//!   no row anywhere; what it reports is a function of its index.
//! * **One protocol, two drivers** — the tree is
//!   [`HierShape`](crate::cohesion::HierShape), the one every node reads
//!   its seats from, and every seat decision is a step of
//!   [`cohesion`](crate::cohesion) the nodes run too; only the soft-state
//!   *representation* is the campus's own: presence masks instead of
//!   full reports, behind the one [`SeatStore`](crate::cohesion::SeatStore)
//!   trait.

pub mod campus;

pub use campus::{
    run_scale, run_scale_profiled, QueryOutcome, ScaleCampus, ScaleConfig, ScaleReport, Variant,
    KIND_NAMES,
};
