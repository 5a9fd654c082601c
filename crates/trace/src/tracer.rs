//! The tracer: span allocation, the current-context register, the
//! end-propagation discipline and the per-node flight recorders.
//!
//! ## Why end-propagation
//!
//! DES handlers run at a single instant of virtual time: a handler span
//! opens and closes at the same `now`, while the message spans it emits
//! end at their (future) delivery times. Recorded naively, children
//! would escape their parents' intervals. The tracer therefore keeps
//! every span's `end` at the maximum of its own end and its children's:
//! when a span closes (or a pre-closed message span is recorded), the
//! new end is pushed **up** the parent chain through already-closed
//! ancestors, stopping at the first still-open one (its eventual close
//! takes the maximum again). The invariant checked by
//! [`crate::span::validate`] — child intervals nest in parents — holds
//! by construction.

use crate::sampler::{self, SampleConfig};
use crate::span::{Span, SpanId, TraceContext, TraceId};
use lc_des::SimTime;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard};

/// Flight-recorder capacity (span events kept per node).
pub const FLIGHT_RECORDER_CAP: usize = 64;

/// One flight-recorder entry: a span start or end, as it happened.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// `true` for span start, `false` for span end.
    pub start: bool,
    /// The span.
    pub span: SpanId,
    /// The span's trace.
    pub trace: TraceId,
    /// The span's name.
    pub name: String,
}

impl SpanEvent {
    /// Render one post-mortem line.
    pub fn render(&self) -> String {
        format!(
            "{:>12} ns  {}  {} {} [{}]",
            self.at.as_nanos(),
            if self.start { "start" } else { "end  " },
            self.span,
            self.name,
            self.trace
        )
    }
}

/// Bounded ring of the most recent span events on one node. Survives the
/// node actor (it lives in the tracer), so it is exactly the post-mortem
/// record available after an injected crash.
#[derive(Debug, Default)]
struct FlightRecorder {
    /// Events dropped because the ring was full.
    dropped: u64,
    buf: VecDeque<SpanEvent>,
}

impl FlightRecorder {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() == FLIGHT_RECORDER_CAP {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

struct Inner {
    /// Per-node span sequence counters (deterministic id source).
    next_seq: BTreeMap<u32, u64>,
    /// Every span, open or closed, by id.
    spans: BTreeMap<SpanId, Span>,
    /// The context new spans and outgoing messages parent under.
    current: Option<TraceContext>,
    /// Per-node flight recorders.
    recorders: BTreeMap<u32, FlightRecorder>,
    /// Head-sampling configuration; `None` keeps every trace.
    sampling: Option<SampleConfig>,
}

/// The deterministic tracer. Cheap to clone (shared interior); a
/// disabled tracer turns every operation into a no-op so the traced-off
/// configuration is byte-identical to a build without tracing.
#[derive(Clone)]
pub struct Tracer {
    /// Fixed at construction and kept beside the shared state, so a
    /// disabled tracer answers every call without taking the lock.
    enabled: bool,
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            inner: Arc::new(Mutex::new(Inner {
                next_seq: BTreeMap::new(),
                spans: BTreeMap::new(),
                current: None,
                recorders: BTreeMap::new(),
                sampling: None,
            })),
        }
    }

    /// An enabled tracer.
    pub fn new() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A disabled tracer: every call is a no-op returning `None`.
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    /// Is span collection on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Install (or clear) head-based trace sampling — once, by whoever
    /// builds the tracer, before the first span. With a config set, the
    /// keep/drop decision is made once per trace at root creation
    /// (see [`crate::sampler`]); span ids are still allocated for
    /// dropped traces, so the recorded spans of a sampled run are
    /// byte-identical to the same spans of an unsampled run.
    pub fn set_sampling(&self, cfg: Option<SampleConfig>) {
        self.locked().sampling = cfg;
    }

    fn locked(&self) -> MutexGuard<'_, Inner> {
        // A panicking holder cannot corrupt the span maps (all updates
        // are single-call), so recover rather than poison-propagate.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The context spans and messages currently parent under.
    pub fn current(&self) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        self.locked().current
    }

    /// Install `ctx` as the current context, returning the previous one
    /// so callers can restore it (handler enter/exit discipline).
    pub fn set_current(&self, ctx: Option<TraceContext>) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.locked();
        std::mem::replace(&mut inner.current, ctx)
    }

    /// Start a span on `node`: a child of the current context if one is
    /// installed, a new trace root otherwise. Returns `None` (and records
    /// nothing) when disabled.
    pub fn span(&self, node: u32, name: &str, now: SimTime) -> Option<TraceContext> {
        let parent = self.current();
        match parent {
            Some(p) => self.child_of(node, name, p, now),
            None => self.root(node, name, now),
        }
    }

    /// Start a new trace root on `node`.
    pub fn root(&self, node: u32, name: &str, now: SimTime) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.locked();
        let id = inner.alloc(node);
        let sampled = inner.sample_decision(id);
        let ctx = TraceContext { trace: TraceId(id.0), span: id, sampled };
        if sampled {
            inner.open_span(ctx, None, node, name, now);
        }
        Some(ctx)
    }

    /// Start a span as an explicit child of `parent` (receiver side:
    /// the parent context arrived in a message header).
    pub fn child_of(
        &self,
        node: u32,
        name: &str,
        parent: TraceContext,
        now: SimTime,
    ) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.locked();
        let id = inner.alloc(node);
        let ctx = TraceContext { trace: parent.trace, span: id, sampled: parent.sampled };
        if parent.sampled {
            inner.open_span(ctx, Some(parent.span), node, name, now);
        }
        Some(ctx)
    }

    /// Record a span whose full interval is already known (message
    /// spans: `Net::send` knows the delivery time when it plans the
    /// hop). The span is closed immediately and its end is propagated
    /// up the parent chain.
    pub fn complete(
        &self,
        node: u32,
        name: &str,
        parent: Option<TraceContext>,
        start: SimTime,
        end: SimTime,
    ) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.locked();
        let id = inner.alloc(node);
        let (trace, parent_span, sampled) = match parent {
            Some(p) => (p.trace, Some(p.span), p.sampled),
            None => (TraceId(id.0), None, inner.sample_decision(id)),
        };
        let ctx = TraceContext { trace, span: id, sampled };
        if sampled {
            inner.open_span(ctx, parent_span, node, name, start);
            inner.close_span(id, end);
        }
        Some(ctx)
    }

    /// Record a point event on `node`: a zero-length span at `at` with
    /// `attrs` in order, under the current context (a new trace root when
    /// none is current).
    pub fn event(&self, node: u32, name: &str, at: SimTime, attrs: &[(&str, &dyn Display)]) {
        if let Some(sp) = self.complete(node, name, self.current(), at, at) {
            for (key, value) in attrs {
                self.set_attr(sp, key, value);
            }
        }
    }

    /// Start a retry of the span `of` on `node`: its child, with a link
    /// back to it marking the retry relationship. `None` when `of` is.
    pub fn retry(
        &self,
        node: u32,
        name: &str,
        of: Option<TraceContext>,
        at: SimTime,
    ) -> Option<TraceContext> {
        let of = of?;
        let retry = self.child_of(node, name, of, at)?;
        self.link(retry, of.span);
        Some(retry)
    }

    /// Close a span; its recorded end becomes the max of `now` and its
    /// children's ends, then propagates upward (see module docs).
    pub fn end(&self, ctx: TraceContext, now: SimTime) {
        if !self.enabled || !ctx.sampled {
            return;
        }
        let mut inner = self.locked();
        inner.close_span(ctx.span, now);
    }

    /// [`Tracer::end`] for a span that may not exist, first tagging it
    /// with an `error` attribute when there is one.
    pub fn end_with(&self, span: Option<TraceContext>, at: SimTime, error: Option<&str>) {
        let Some(span) = span else { return };
        if let Some(error) = error {
            self.set_attr(span, "error", error);
        }
        self.end(span, at);
    }

    /// Append an attribute to an open or closed span; `value` is
    /// formatted only when the span is recorded.
    pub fn set_attr(&self, ctx: TraceContext, key: &str, value: impl Display) {
        if !self.enabled || !ctx.sampled {
            return;
        }
        let mut inner = self.locked();
        if let Some(s) = inner.spans.get_mut(&ctx.span) {
            s.attrs.push((key.to_owned(), value.to_string()));
        }
    }

    /// Record a non-parent causal link (retry → original attempt).
    fn link(&self, ctx: TraceContext, to: SpanId) {
        if !self.enabled || !ctx.sampled {
            return;
        }
        let mut inner = self.locked();
        if let Some(s) = inner.spans.get_mut(&ctx.span) {
            s.links.push(to);
        }
    }

    /// Snapshot of every recorded span, ordered by `(trace, start, id)`.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.locked();
        let mut all: Vec<Span> = inner.spans.values().cloned().collect();
        all.sort_by(|a, b| {
            (a.trace, a.start, a.id).cmp(&(b.trace, b.start, b.id))
        });
        all
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.locked().spans.len()
    }

    /// The most recent span events on `node`, oldest first, plus how
    /// many older events the bounded ring dropped.
    pub fn flight_record(&self, node: u32) -> (Vec<SpanEvent>, u64) {
        let inner = self.locked();
        match inner.recorders.get(&node) {
            Some(r) => (r.buf.iter().cloned().collect(), r.dropped),
            None => (Vec::new(), 0),
        }
    }
}

impl Inner {
    fn alloc(&mut self, node: u32) -> SpanId {
        let seq = self.next_seq.entry(node).or_insert(0);
        *seq += 1;
        SpanId::compose(node, *seq)
    }

    /// Head-sampling decision for a trace rooted at `root` (made once,
    /// at root creation; descendants inherit it from the context).
    fn sample_decision(&self, root: SpanId) -> bool {
        match self.sampling {
            None => true,
            Some(cfg) => sampler::decide(cfg, root),
        }
    }

    fn record_event(&mut self, node: u32, ev: SpanEvent) {
        self.recorders.entry(node).or_default().push(ev);
    }

    fn open_span(
        &mut self,
        ctx: TraceContext,
        parent: Option<SpanId>,
        node: u32,
        name: &str,
        start: SimTime,
    ) {
        self.record_event(
            node,
            SpanEvent {
                at: start,
                start: true,
                span: ctx.span,
                trace: ctx.trace,
                name: name.to_owned(),
            },
        );
        self.spans.insert(
            ctx.span,
            Span {
                trace: ctx.trace,
                id: ctx.span,
                parent,
                name: name.to_owned(),
                node,
                start,
                end: start,
                open: true,
                attrs: Vec::new(),
                links: Vec::new(),
            },
        );
    }

    fn close_span(&mut self, id: SpanId, now: SimTime) {
        let Some(s) = self.spans.get_mut(&id) else { return };
        let end = if now > s.end { now } else { s.end };
        s.end = end;
        s.open = false;
        let (node, trace, name, parent) = (s.node, s.trace, s.name.clone(), s.parent);
        self.record_event(
            node,
            SpanEvent { at: now, start: false, span: id, trace, name },
        );
        self.propagate_end(parent, end);
    }

    /// Push `end` up the parent chain: closed ancestors stretch to cover
    /// it; the first open ancestor absorbs it implicitly (its close takes
    /// the max over children again), so the walk stops there.
    fn propagate_end(&mut self, mut parent: Option<SpanId>, end: SimTime) {
        while let Some(pid) = parent {
            let Some(p) = self.spans.get_mut(&pid) else { return };
            if p.end >= end {
                return;
            }
            p.end = end;
            if p.open {
                return;
            }
            parent = p.parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::validate;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        assert!(tr.root(0, "r", t(0)).is_none());
        assert!(tr.span(1, "s", t(5)).is_none());
        assert_eq!(tr.span_count(), 0);
        assert_eq!(tr.flight_record(0).0.len(), 0);
    }

    #[test]
    fn disabled_tracer_never_takes_the_lock() {
        let tr = Tracer::disabled();
        // Held for the whole test: any call below that locked would
        // not return.
        let _held = tr.inner.lock().unwrap();
        assert!(!tr.is_enabled());
        assert_eq!(tr.current(), None);
        assert_eq!(tr.set_current(None), None);
        assert!(tr.span(0, "s", t(0)).is_none());
        assert!(tr.complete(0, "m", None, t(0), t(1)).is_none());
        let ctx = Tracer::new().root(0, "elsewhere", t(0)).unwrap();
        assert!(tr.child_of(0, "c", ctx, t(0)).is_none());
        tr.set_attr(ctx, "k", "v");
        tr.link(ctx, ctx.span);
        tr.event(0, "e", t(0), &[("k", &1)]);
        assert!(tr.retry(0, "r", Some(ctx), t(0)).is_none());
        tr.end_with(Some(ctx), t(1), Some("e"));
    }

    #[test]
    fn ids_are_deterministic_per_node() {
        let tr = Tracer::new();
        let a = tr.root(3, "a", t(0)).map(|c| c.span);
        let b = tr.root(3, "b", t(1)).map(|c| c.span);
        assert_eq!(a, Some(SpanId::compose(3, 1)));
        assert_eq!(b, Some(SpanId::compose(3, 2)));
        let tr2 = Tracer::new();
        assert_eq!(tr2.root(3, "a", t(0)).map(|c| c.span), a);
    }

    #[test]
    fn end_propagation_keeps_children_nested() {
        let tr = Tracer::new();
        let root = tr.root(0, "query", t(100)).unwrap();
        // message span ends later than the handler that sent it
        let msg = tr.complete(0, "net.msg", Some(root), t(100), t(900));
        tr.end(root, t(150)); // handler closes "before" the message lands
        let msg = msg.unwrap();
        let handler = tr.child_of(1, "node.registry", msg, t(900));
        tr.end(handler.unwrap(), t(900));
        let spans = tr.spans();
        validate(&spans).unwrap();
        // the root stretched to cover the message delivery
        let root_span = spans.iter().find(|s| s.id == root.span).unwrap();
        assert_eq!(root_span.end, t(900));
    }

    #[test]
    fn current_context_swap_restores() {
        let tr = Tracer::new();
        let a = tr.root(0, "a", t(0));
        let prev = tr.set_current(a);
        assert_eq!(prev, None);
        let child = tr.span(1, "b", t(1));
        assert_eq!(
            tr.spans().iter().find(|s| Some(s.id) == child.map(|c| c.span)).and_then(|s| s.parent),
            a.map(|c| c.span)
        );
        tr.set_current(prev);
        assert_eq!(tr.current(), None);
    }

    #[test]
    fn flight_recorder_is_bounded() {
        let tr = Tracer::new();
        for i in 0..100u64 {
            let c = tr.root(0, "s", t(i));
            if let Some(c) = c {
                tr.end(c, t(i));
            }
        }
        let (events, dropped) = tr.flight_record(0);
        assert_eq!(events.len(), FLIGHT_RECORDER_CAP);
        assert_eq!(dropped, 200 - FLIGHT_RECORDER_CAP as u64);
        // oldest first, and the ring kept the most recent events
        assert!(events[0].at <= events[events.len() - 1].at);
        assert_eq!(events[events.len() - 1].at, t(99));
    }

    #[test]
    fn sampling_allocates_ids_but_records_only_kept_traces() {
        // Build the full forest first, then replay with sampling on.
        let full = Tracer::new();
        let sampled = Tracer::new();
        sampled.set_sampling(Some(SampleConfig::one_in(2, 11)));
        let mut kept = 0usize;
        for i in 0..64u64 {
            for (tr, sampling) in [(&full, false), (&sampled, true)] {
                let root = tr.root(0, "req", t(i * 10)).unwrap();
                let child = tr.child_of(1, "work", root, t(i * 10 + 1)).unwrap();
                tr.set_attr(child, "i", i);
                tr.end(child, t(i * 10 + 2));
                tr.end(root, t(i * 10 + 3));
                if sampling && root.sampled {
                    kept += 1;
                }
            }
        }
        assert!(kept > 0 && kept < 64, "kept {kept}");
        assert_eq!(sampled.span_count(), kept * 2);
        // the sampled set is a subset of the full forest, byte-identical
        // span for span (ids kept advancing for dropped traces)
        let full_spans = full.spans();
        for s in sampled.spans() {
            let twin = full_spans.iter().find(|f| f.id == s.id).expect("twin");
            assert_eq!(format!("{:?}", twin), format!("{:?}", s));
        }
        validate(&sampled.spans()).unwrap();
    }

    #[test]
    fn links_and_attrs_are_recorded() {
        let tr = Tracer::new();
        let a = tr.root(0, "call", t(0)).unwrap();
        let retry = tr.retry(0, "retry", Some(a), t(10)).unwrap();
        tr.set_attr(retry, "attempt", 2);
        tr.end(retry, t(20));
        tr.end_with(Some(a), t(30), Some("timeout"));
        // no current context: the event roots its own trace
        tr.event(1, "hop", t(40), &[("at", &3), ("next", &"x")]);
        let spans = tr.spans();
        let r = spans.iter().find(|s| s.id == retry.span).unwrap();
        assert_eq!(r.parent, Some(a.span));
        assert_eq!(r.links, vec![a.span]);
        assert_eq!(r.attr("attempt"), Some("2"));
        assert_eq!(spans.iter().find(|s| s.id == a.span).unwrap().attr("error"), Some("timeout"));
        let hop = spans.iter().find(|s| s.name == "hop").unwrap();
        assert_eq!((hop.parent, hop.start, hop.end), (None, t(40), t(40)));
        assert_eq!(hop.attrs, [("at".to_owned(), "3".to_owned()), ("next".into(), "x".into())]);
        validate(&spans).unwrap();
    }
}
