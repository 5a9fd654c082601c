//! # lc-trace — deterministic distributed tracing for the simulated network
//!
//! The paper's reflection architecture (§2.4) makes every node
//! self-describing through aggregate counters; this crate adds the
//! *causal* dimension: Dapper-style spans that follow one registry
//! query or component migration across the fabric, the ORB adapter and
//! the four node services, stamped with **virtual time** and allocated
//! from **per-node counters** — no RNG, no wall clock (`clippy.toml`
//! disallows both, in tests too), so traces are byte-reproducible and
//! usable as a correctness oracle, not just a debugging aid.
//!
//! | module | provides |
//! |---|---|
//! | [`span`] | [`TraceContext`], [`Span`], [`validate`] (tree well-formedness), [`open_spans`] (nothing left open) |
//! | [`tracer`] | [`Tracer`] (allocation, current-context register, end-propagation), flight recorder |
//! | [`metrics`] | [`BucketHistogram`] (fixed buckets, integer quantiles) |
//! | [`export`] | sorted JSONL, chrome://tracing JSON, critical path |
//! | [`sampler`] | seeded head-based trace sampling ([`SampleConfig`]) for bounded-memory tracing at scale |
//! | [`slo`] | [`SloMonitor`]: windowed latency/burn-rate rules over the finished queries it is fed, breach records with flight dumps |
//! | [`flame`] | collapsed-stack flamegraph + per-node virtual-time timeline from span trees |
//! | [`profile`] | deterministic rendering of the DES kernel's [`lc_des::ProfileReport`] |
//!
//! ## Propagation model
//!
//! * `Net::send` records a **message span** for every hop (the DES
//!   knows the delivery time at send time, so the span is complete
//!   immediately) and stamps the [`TraceContext`] into the frame.
//! * The node router opens a **handler span** under the incoming
//!   context and installs it as the tracer's *current context* while
//!   the service handler runs; everything the handler sends parents
//!   under it. A disabled tracer records nothing and the context slot
//!   stays `None` — traced-off runs are byte-identical.
//! * Retries start fresh spans that **link** to the attempt they retry
//!   (links, not parent edges, so late retries cannot break interval
//!   nesting).

pub mod export;
pub mod flame;
pub mod metrics;
pub mod profile;
pub mod sampler;
pub mod slo;
pub mod span;
pub mod tracer;

pub use export::{critical_path, to_chrome, to_jsonl, CritSegment};
pub use flame::{to_collapsed, to_timeline};
pub use metrics::BucketHistogram;
pub use sampler::SampleConfig;
pub use slo::{SloBreach, SloConfig, SloKind, SloMonitor, SloRule};
pub use span::{open_spans, validate, Span, SpanId, TraceContext, TraceId};
pub use tracer::{SpanEvent, Tracer, FLIGHT_RECORDER_CAP};
