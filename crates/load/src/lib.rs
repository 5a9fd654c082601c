//! # lc-load — open-loop heavy-traffic workload engine
//!
//! Generates *open-loop* request arrivals: the offered load is a
//! property of the arrival process, not of the system's response time,
//! so an overloaded service keeps receiving traffic at the configured
//! rate instead of being throttled by its own latency (the classic
//! closed-loop measurement bug — see "Open Versus Closed: A Cautionary
//! Tale", NSDI'06).
//!
//! The engine is split along the DES boundary:
//!
//! * [`arrival`] — pure, seeded arrival-stream generation. A
//!   [`arrival::ArrivalStream`] is an iterator of [`arrival::Arrival`]s
//!   fully determined by `(shape, rate, seed, horizon)`: Lewis–Shedler
//!   thinning over a confined RNG stream yields Poisson-like arrivals
//!   whose intensity follows the configured [`arrival::ArrivalShape`]
//!   (steady, diurnal wave, flash crowd). Every arrival carries a
//!   zipf-skewed key for hot-spot routing studies.
//! * [`driver`] — a [`lc_des::Actor`] that converts pre-scheduled
//!   arrivals into `NodeCmd::Invoke` traffic against a front-end node,
//!   periodically re-queries the registry, and spreads keys over the
//!   replica set the query returns.
//!
//! Determinism contract: two streams built from equal configs yield
//! byte-equal arrival sequences; splitting a stream over `k` drivers by
//! `index % k` conserves every arrival exactly once (property-tested in
//! `tests/generator_props.rs`).

pub mod arrival;
pub mod driver;

pub use arrival::{Arrival, ArrivalShape, ArrivalStream, StreamConfig, ZipfKeys};
pub use driver::{DriverArrival, DriverConfig, DriverStats, LoadDriver, QueryTick};
