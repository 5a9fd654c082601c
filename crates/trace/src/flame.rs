//! Flamegraph and timeline exports from span trees.
//!
//! * [`to_collapsed`] — Brendan-Gregg collapsed-stack lines
//!   (`root;child;leaf <weight>`), one per distinct root-to-span path,
//!   weighted by **self virtual time** (span duration minus children's
//!   overlap-free durations). Feed straight into any `flamegraph.pl`
//!   style renderer; the output is key-sorted, so two identical runs
//!   produce byte-identical files (ci.sh diffs them).
//! * [`to_timeline`] — a per-node virtual-time timeline: every span as
//!   one fixed-width row (`start  end  node  depth-indented name`),
//!   grouped by node, ordered by `(node, start, id)`.
//!
//! Both walk the same span forests the tracer records; under head
//! sampling they render the sampled subset, which is exactly the whole
//! of every kept trace.

use crate::span::{Span, SpanId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Self time of each span: its duration minus the union of its
/// children's intervals (children may overlap each other; count once).
fn self_ns(s: &Span, children: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start.as_nanos().max(s.start.as_nanos()),
                c.end.as_nanos().min(s.end.as_nanos()),
            )
        })
        .filter(|(a, b)| a < b)
        .collect();
    ivs.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in ivs {
        match &mut cur {
            Some((_, ce)) if a <= *ce => *ce = (*ce).max(b),
            _ => {
                if let Some((cs, ce)) = cur.take() {
                    covered += ce - cs;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    s.duration().as_nanos().saturating_sub(covered)
}

/// Collapsed-stack flamegraph lines weighted by self virtual time
/// (nanoseconds). Paths are `name` chains from each trace root; spans
/// with zero self time are kept only if they are leaves (so every
/// recorded span shows up somewhere). Lines are sorted
/// lexicographically — byte-identical across identical runs.
pub fn to_collapsed(spans: &[Span]) -> String {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    let mut rows = Vec::new();
    for s in spans {
        // stack: walk the parent chain up to the root
        let mut names = vec![s.name.as_str()];
        let mut cur = s;
        let mut hops = 0usize;
        while let Some(pid) = cur.parent {
            let Some(p) = by_id.get(&pid) else { break };
            names.push(p.name.as_str());
            cur = p;
            hops += 1;
            if hops > spans.len() {
                break; // defensive: validate() rejects cycles
            }
        }
        names.reverse();
        let children = kids.get(&s.id).map(|v| v.as_slice()).unwrap_or(&[]);
        let w = self_ns(s, children);
        if w == 0 && !children.is_empty() {
            continue;
        }
        rows.push((names.join(";"), w));
    }
    write_collapsed(rows)
}

/// Collapsed-stack lines, `"{stack} {weight}"`, one per distinct stack
/// (equal stacks' weights summed), sorted by stack.
pub(crate) fn write_collapsed(rows: impl IntoIterator<Item = (String, u64)>) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for (stack, w) in rows {
        *weights.entry(stack).or_insert(0) += w;
    }
    let mut out = String::new();
    for (stack, w) in &weights {
        let _ = writeln!(out, "{stack} {w}");
    }
    out
}

/// A per-node virtual-time timeline: spans grouped under `== node N ==`
/// headers, ordered by `(start, id)` within each node, names indented
/// by tree depth. `nodes` restricts the output (empty slice = all).
pub fn to_timeline(spans: &[Span], nodes: &[u32]) -> String {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0usize;
        let mut cur = s;
        while let Some(pid) = cur.parent {
            match by_id.get(&pid) {
                Some(p) => cur = p,
                None => break,
            }
            d += 1;
            if d > spans.len() {
                break;
            }
        }
        d
    };
    let mut by_node: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if nodes.is_empty() || nodes.contains(&s.node) {
            by_node.entry(s.node).or_default().push(s);
        }
    }
    let mut out = String::new();
    for (node, mut rows) in by_node {
        rows.sort_by_key(|s| (s.start, s.id));
        let _ = writeln!(out, "== node {node} ==");
        for s in rows {
            let _ = writeln!(
                out,
                "{:>12} {:>12}  {}{} [{}]",
                s.start.as_nanos(),
                s.end.as_nanos(),
                "  ".repeat(depth(s)),
                s.name,
                s.id
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use lc_des::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn forest() -> Tracer {
        let tr = Tracer::new();
        let root = tr.root(0, "query", t(0)).unwrap();
        let msg = tr.complete(0, "net.msg", Some(root), t(100), t(600)).unwrap();
        let h = tr.child_of(1, "node.registry", msg, t(600)).unwrap();
        tr.end(h, t(600));
        tr.end(root, t(1000));
        tr
    }

    #[test]
    fn collapsed_stacks_weight_self_time() {
        let out = to_collapsed(&forest().spans());
        let lines: Vec<&str> = out.lines().collect();
        // root self time: 1000 - (600-100 child cover) = 500
        assert!(lines.contains(&"query 500"));
        assert!(lines.contains(&"query;net.msg 500"));
        // zero-width leaf still appears
        assert!(lines.contains(&"query;net.msg;node.registry 0"));
        // sorted + reproducible
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(out, to_collapsed(&forest().spans()));
    }

    #[test]
    fn overlapping_children_count_once() {
        let tr = Tracer::new();
        let root = tr.root(0, "r", t(0)).unwrap();
        tr.complete(0, "a", Some(root), t(0), t(60));
        tr.complete(0, "b", Some(root), t(40), t(100));
        tr.end(root, t(100));
        let out = to_collapsed(&tr.spans());
        // overlap [40,60] counted once: children cover all 100 ns, so the
        // root has zero self time and, having children, is elided
        assert!(!out.lines().any(|l| l.starts_with("r ")), "{out}");
        assert!(out.lines().any(|l| l == "r;a 60"), "{out}");
        assert!(out.lines().any(|l| l == "r;b 60"), "{out}");
    }

    #[test]
    fn timeline_groups_by_node_and_indents() {
        let out = to_timeline(&forest().spans(), &[]);
        let n0 = out.find("== node 0 ==").unwrap();
        let n1 = out.find("== node 1 ==").unwrap();
        assert!(n0 < n1);
        assert!(out.lines().any(|l| l.contains("  query [")));
        assert!(out.lines().any(|l| l.contains("    net.msg [")));
        assert!(out.lines().any(|l| l.contains("      node.registry [")));
        // node filter
        let only1 = to_timeline(&forest().spans(), &[1]);
        assert!(!only1.contains("== node 0 ==") && only1.contains("== node 1 =="));
    }
}
