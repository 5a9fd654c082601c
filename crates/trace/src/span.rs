//! The span model: identifiers, contexts, spans and tree validation.
//!
//! Identifiers are allocated from **per-node counters** — no RNG, no
//! wall clock — so the same simulation produces the same ids byte for
//! byte on every run. A [`SpanId`] packs the allocating node into its
//! high bits, which keeps allocation local (no cross-node coordination,
//! exactly as a real distributed tracer works) while staying globally
//! unique and deterministic.

use lc_des::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Bits of a [`SpanId`] reserved for the per-node sequence number.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// A trace identifier: the id of the trace's root span.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

/// A span identifier: `(node + 1) << 40 | per-node sequence`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Compose an id from the allocating node and its sequence counter.
    pub fn compose(node: u32, seq: u64) -> SpanId {
        SpanId(((node as u64 + 1) << SEQ_BITS) | (seq & SEQ_MASK))
    }

    /// The node that allocated this id.
    pub fn node(self) -> u32 {
        ((self.0 >> SEQ_BITS) - 1) as u32
    }

    /// The per-node sequence number.
    pub fn seq(self) -> u64 {
        self.0 & SEQ_MASK
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}.{}", self.node(), self.seq())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", SpanId(self.0))
    }
}

/// What travels in message headers: which trace, which span is the
/// sender-side parent of whatever the receiver does next, and whether
/// the trace was head-sampled for recording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// The trace every descendant span joins.
    pub trace: TraceId,
    /// The span to parent receiver-side work under.
    pub span: SpanId,
    /// Head-sampling decision made at root creation ([`crate::sampler`]):
    /// `false` means ids still advance but nothing is recorded.
    pub sampled: bool,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span (`None` for trace roots).
    pub parent: Option<SpanId>,
    /// Operation name (`net.msg`, `node.registry`, `orb.invoke inc`, …).
    pub name: String,
    /// Node the span ran on.
    pub node: u32,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time (kept ≥ every child's end by the tracer).
    pub end: SimTime,
    /// Still open (no explicit end yet).
    pub open: bool,
    /// Key → value attributes, in insertion order (sorted at export).
    pub attrs: Vec<(String, String)>,
    /// Non-parent causal links (retries link to the span they retry).
    pub links: Vec<SpanId>,
}

impl Span {
    /// Virtual duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Value of attribute `key`, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Check that a set of spans forms well-formed trace trees:
///
/// 1. every non-root parent id refers to a span in the set,
/// 2. parent and child belong to the same trace,
/// 3. every child's `[start, end]` nests inside its parent's,
/// 4. every span is reachable from its trace's root (connectivity),
/// 5. link targets exist in the set.
///
/// Returns the first problem found, described; `Ok` if all trees hold.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(pid) = s.parent {
            let p = by_id
                .get(&pid)
                .ok_or_else(|| format!("span {} parent {pid} not recorded", s.id))?;
            if p.trace != s.trace {
                return Err(format!(
                    "span {} in {} has parent {} in {}",
                    s.id, s.trace, p.id, p.trace
                ));
            }
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "span {} [{}, {}] not nested in parent {} [{}, {}]",
                    s.id,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    p.id,
                    p.start.as_nanos(),
                    p.end.as_nanos()
                ));
            }
        } else if s.id.0 != s.trace.0 {
            return Err(format!("root span {} does not carry its trace id {}", s.id, s.trace));
        }
        if s.end < s.start {
            return Err(format!("span {} ends before it starts", s.id));
        }
        for l in &s.links {
            if !by_id.contains_key(l) {
                return Err(format!("span {} links to unrecorded span {l}", s.id));
            }
        }
        // Connectivity: walk the parent chain to the root.
        let mut cur = s;
        let mut hops = 0usize;
        while let Some(pid) = cur.parent {
            match by_id.get(&pid) {
                Some(p) => cur = p,
                None => break, // already reported above
            }
            hops += 1;
            if hops > spans.len() {
                return Err(format!("span {} sits on a parent cycle", s.id));
            }
        }
        if cur.id.0 != cur.trace.0 {
            return Err(format!(
                "span {} is not reachable from the root of {}",
                s.id, s.trace
            ));
        }
    }
    Ok(())
}

/// The spans of `spans` nobody ended. After a world has drained there
/// are none: whatever opens a span — a handler, a call, a query, a
/// migration — ends it on every way out, the deadline and failure paths
/// included.
pub fn open_spans(spans: &[Span]) -> Vec<&Span> {
    spans.iter().filter(|s| s.open).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: SpanId, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id,
            parent,
            name: "s".into(),
            node: id.node(),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            open: false,
            attrs: Vec::new(),
            links: Vec::new(),
        }
    }

    #[test]
    fn id_packing_round_trips() {
        let id = SpanId::compose(7, 42);
        assert_eq!(id.node(), 7);
        assert_eq!(id.seq(), 42);
        assert_eq!(id.to_string(), "n7.42");
        // ids from different nodes never collide
        assert_ne!(SpanId::compose(0, 1), SpanId::compose(1, 1));
    }

    #[test]
    fn validate_accepts_nested_tree() {
        let root = SpanId::compose(0, 1);
        let child = SpanId::compose(1, 1);
        let spans = vec![
            span(root.0, root, None, 0, 100),
            span(root.0, child, Some(root), 10, 90),
        ];
        assert!(validate(&spans).is_ok());
    }

    #[test]
    fn validate_rejects_missing_parent_and_bad_nesting() {
        let root = SpanId::compose(0, 1);
        let child = SpanId::compose(1, 1);
        let orphan = vec![span(root.0, child, Some(root), 0, 1)];
        assert!(validate(&orphan).is_err());
        let escapes = vec![
            span(root.0, root, None, 0, 50),
            span(root.0, child, Some(root), 10, 90),
        ];
        assert!(validate(&escapes).is_err());
    }
}
