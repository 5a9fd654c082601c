//! Exporters: sorted JSONL, chrome://tracing JSON and the
//! trace-derived critical path.
//!
//! All JSON is hand-rendered (the container has no serde) and fully
//! deterministic: spans are emitted in `(trace, start, id)` order,
//! attributes sorted by key, and every number is an integer or a
//! fixed-precision decimal — two identical runs produce byte-identical
//! files, which ci.sh enforces by diffing consecutive exports.

use crate::span::{Span, SpanId, TraceId};
use std::fmt::Write as _;

/// Escape a string for a JSON string literal: quote, backslash,
/// newline, carriage return and tab take their short escapes, other
/// control characters `\u00XX`. Every JSON writer in the workspace
/// quotes through this one.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn span_json(s: &Span) -> String {
    let mut line = String::with_capacity(160);
    let _ = write!(
        line,
        "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":",
        s.trace, s.id
    );
    match s.parent {
        Some(p) => {
            let _ = write!(line, "\"{p}\"");
        }
        None => line.push_str("null"),
    }
    let _ = write!(
        line,
        ",\"name\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{}",
        escape(&s.name),
        s.node,
        s.start.as_nanos(),
        s.end.as_nanos()
    );
    let mut attrs = s.attrs.clone();
    attrs.sort();
    line.push_str(",\"attrs\":{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    line.push_str("},\"links\":[");
    for (i, l) in s.links.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{l}\"");
    }
    line.push_str("]}");
    line
}

/// One span per line, sorted by `(trace, start, id)`. `spans` must
/// already be in that order (as [`crate::Tracer::spans`] returns them).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_json(s));
        out.push('\n');
    }
    out
}

/// Microseconds with fixed 3-decimal nanosecond remainder (chrome's
/// `ts`/`dur` unit), rendered without float formatting ambiguity.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A chrome://tracing (about:tracing / Perfetto) JSON document: one
/// complete (`ph:"X"`) event per span, traces as processes, nodes as
/// threads.
pub fn to_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut args = format!("\"span\":\"{}\"", s.id);
        let mut attrs = s.attrs.clone();
        attrs.sort();
        for (k, v) in &attrs {
            let _ = write!(args, ",\"{}\":\"{}\"", escape(k), escape(v));
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"lc\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":\"{}\",\"tid\":\"node {}\",\"args\":{{{args}}}}}",
            escape(&s.name),
            us(s.start.as_nanos()),
            us(s.end.saturating_sub(s.start).as_nanos()),
            s.trace,
            s.node,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// One segment of a critical path.
#[derive(Clone, Debug)]
pub struct CritSegment {
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// The span.
    pub id: SpanId,
    /// Its name.
    pub name: String,
    /// Node it ran on.
    pub node: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// The critical path of `trace`: from the root, repeatedly descend into
/// the child whose end time is latest (the child that kept the trace
/// alive longest) until a leaf. The returned chain is the sequence of
/// spans whose completion gated the trace's end-to-end latency.
pub fn critical_path(spans: &[Span], trace: TraceId) -> Vec<CritSegment> {
    let mut path = Vec::new();
    let Some(root) = spans.iter().find(|s| s.trace == trace && s.parent.is_none()) else {
        return path;
    };
    let mut cur = root;
    let mut depth = 0;
    loop {
        path.push(CritSegment {
            depth,
            id: cur.id,
            name: cur.name.clone(),
            node: cur.node,
            start_ns: cur.start.as_nanos(),
            end_ns: cur.end.as_nanos(),
        });
        // latest-ending child; ties broken by id for determinism
        let next = spans
            .iter()
            .filter(|s| s.parent == Some(cur.id))
            .max_by_key(|s| (s.end, std::cmp::Reverse(s.id)));
        match next {
            Some(c) => {
                cur = c;
                depth += 1;
            }
            None => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceContext;
    use crate::Tracer;
    use lc_des::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> (Tracer, TraceContext) {
        let tr = Tracer::new();
        let root = tr.root(0, "query", t(0)).unwrap();
        let msg = tr.complete(0, "net.msg", Some(root), t(0), t(500)).unwrap();
        tr.set_attr(msg, "to", "1");
        tr.set_attr(msg, "class", "lan");
        let h = tr.child_of(1, "node.registry", msg, t(500)).unwrap();
        tr.end(h, t(500));
        tr.end(root, t(700));
        (tr, root)
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let (tr, _) = sample();
        let a = to_jsonl(&tr.spans());
        let b = to_jsonl(&tr.spans());
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        assert!(a.lines().next().unwrap().contains("\"name\":\"query\""));
        // attrs are key-sorted regardless of insertion order
        let msg_line = a.lines().find(|l| l.contains("net.msg")).unwrap();
        let ci = msg_line.find("\"class\"").unwrap();
        let ti = msg_line.find("\"to\"").unwrap();
        assert!(ci < ti);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let (tr, _) = sample();
        let doc = to_chrome(&tr.spans());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 3);
        assert!(doc.contains("\"ts\":0.000"));
        assert!(doc.contains("\"dur\":0.500") || doc.contains("\"dur\":500"));
    }

    #[test]
    fn escaping_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn critical_path_follows_latest_child() {
        let (tr, root) = sample();
        let spans = tr.spans();
        let path = critical_path(&spans, root.trace);
        // root -> message (end 500, stretched by handler) is the gate
        assert_eq!(path[0].name, "query");
        assert_eq!(path[1].name, "net.msg");
        assert_eq!(path.last().unwrap().name, "node.registry");
        assert!(path.windows(2).all(|w| w[0].depth + 1 == w[1].depth));
    }
}
