//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the harness's own files, around the
//! calls into each layer; nothing is recorded inside `crates/`. A disabled
//! recorder reads no clock and allocates nothing, so the untraced run the
//! end-to-end metrics come from pays one predictable branch per call.

use crate::clock::cpu_ns;
use std::fmt::Write as _;

pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Total duration of direct children (self time = duration − this).
    pub child_ns: u64,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Handle returned by [`Spans::begin`]; `None` when recording is off.
pub type SpanId = Option<usize>;

#[derive(Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            child_ns: 0,
        });
        self.stack.push(id);
        // Clock last, so the recorder's own allocation is outside the span.
        self.spans[id].start_ns = cpu_ns();
        Some(id)
    }

    /// Close a span; returns its duration in ns (0 when recording is off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(id) = id else { return 0 };
        let now = cpu_ns();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
        let dur = now - self.spans[id].start_ns;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += dur;
        }
        dur
    }

    /// Total self time of every span whose name starts with `prefix`, ns.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::self_ns)
            .sum()
    }

    /// One JSON object per span: id, parent, name, start/end/self ns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            );
        }
        out
    }

    /// Spans aggregated by name with any `[i]` index stripped:
    /// `(name, count, total ns, self ns)` in first-seen order.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64)> {
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for s in &self.spans {
            let name = s.name.split('[').next().unwrap_or(&s.name);
            let dur = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += s.self_ns();
                }
                None => rows.push((name.to_owned(), 1, dur, s.self_ns())),
            }
        }
        rows
    }
}
