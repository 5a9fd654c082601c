//! Struct-of-arrays node state.
//!
//! The actor-based [`NodeState`](crate::node::NodeState) spends
//! kilobytes per node on maps, boxed continuations and owned strings.
//! [`CampusSoa`] stores the same information for 10⁶ nodes as parallel
//! columns indexed by [`NodeIdx`]:
//!
//! * **cold columns** — always allocated, a few bytes per node: site
//!   id, capability flags, one service-state handle.
//! * **hot rows** — [`SvcState`], appended to one `Vec` on the *first
//!   message addressed to the node* and reached through a 4-byte row
//!   number. A campus where queries only ever touch 1 % of nodes
//!   allocates 1 % of the rows (`nodes_materialized` reports the count).
//! * **shared strings** — site names are stored once per site, not once
//!   per node; a row holds the 4-byte index of its site's name.

use super::NodeIdx;
use std::collections::BTreeMap;

/// Sentinel in the `svc` column: service state not yet materialized.
const UNMATERIALIZED: u32 = u32::MAX;

/// Capability flag: node hosts component 0.
pub const FLAG_OWNER_C0: u8 = 1 << 0;
/// Capability flag: node hosts component 1.
pub const FLAG_OWNER_C1: u8 = 1 << 1;

/// Hosts per site (a "building" of the campus; sites share one
/// interned name).
pub const SITE_SIZE: u32 = 256;

/// Mutable per-node service state — the part of a node that only
/// exists once the node has actually been messaged. Kept deliberately
/// small and flat: every field is plain data.
#[derive(Clone, Debug, Default)]
pub struct SvcState {
    /// Queries this node originated.
    pub queries_issued: u32,
    /// Offers this node answered as a component owner.
    pub offers_served: u32,
    /// Offers received back on queries it originated.
    pub offers_received: u32,
    /// Index of the node's site name ([`CampusSoa::site_name`]).
    pub site_name: Option<u32>,
}

/// The campus as parallel columns.
#[derive(Clone, Debug)]
pub struct CampusSoa {
    /// Site id per node (cold).
    site: Vec<u16>,
    /// Capability flags per node (cold).
    flags: Vec<u8>,
    /// Row of `rows` per node; `UNMATERIALIZED` until first use.
    svc: Vec<u32>,
    /// Lazily-populated service rows, in materialization order. Rows are
    /// never removed (the scale model's lifetimes are whole-run).
    rows: Vec<SvcState>,
    /// Distinct site names in first-use order, and their index by name.
    site_names: Vec<String>,
    site_index: BTreeMap<String, u32>,
}

impl CampusSoa {
    /// Columns for `n` nodes; `flags_of` assigns capability flags
    /// (deterministic rules, e.g. "every 256th node owns component 0").
    pub fn build(n: u32, flags_of: impl Fn(u32) -> u8) -> CampusSoa {
        assert!(n.div_ceil(SITE_SIZE) <= u32::from(u16::MAX) + 1, "more than u16::MAX sites");
        let site = (0..n).map(|i| (i / SITE_SIZE) as u16).collect();
        let flags = (0..n).map(&flags_of).collect();
        CampusSoa {
            site,
            flags,
            svc: vec![UNMATERIALIZED; n as usize],
            rows: Vec::new(),
            site_names: Vec::new(),
            site_index: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// Any nodes?
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Capability flags of a node (cold read, never materializes).
    #[inline]
    pub fn flags(&self, node: NodeIdx) -> u8 {
        self.flags[node.row()]
    }

    /// Site id of a node (cold read, never materializes).
    #[inline]
    pub fn site(&self, node: NodeIdx) -> u16 {
        self.site[node.row()]
    }

    /// Has this node's service state been materialized?
    pub fn is_materialized(&self, node: NodeIdx) -> bool {
        self.svc[node.row()] != UNMATERIALIZED
    }

    /// Nodes whose service state exists — the `nodes_materialized`
    /// metric.
    pub fn nodes_materialized(&self) -> usize {
        self.rows.len()
    }

    /// Distinct site names stored so far.
    pub fn distinct_sites(&self) -> usize {
        self.site_names.len()
    }

    /// Service state of `node`, allocating it on first call. The
    /// node's site name is stored here — shared with every other node
    /// of the site.
    pub fn materialize(&mut self, node: NodeIdx) -> &mut SvcState {
        let mut slot = self.svc[node.row()];
        if slot == UNMATERIALIZED {
            let name = format!("site-{}", self.site[node.row()]);
            let site_name = match self.site_index.get(&name) {
                Some(&i) => i,
                None => {
                    // The list and the index each own a fresh exact-size
                    // copy — what `bytes()` counts, and the allocations
                    // `PERF_EXACT.txt` pins for `scale_hier`.
                    let i = self.site_names.len() as u32;
                    self.site_index.insert(name.clone(), i);
                    self.site_names.push(name.clone());
                    i
                }
            };
            slot = self.rows.len() as u32;
            self.rows.push(SvcState { site_name: Some(site_name), ..SvcState::default() });
            self.svc[node.row()] = slot;
        }
        &mut self.rows[slot as usize]
    }

    /// Service state of `node` if already materialized
    /// (`UNMATERIALIZED` is past the end of any row list).
    pub fn svc(&self, node: NodeIdx) -> Option<&SvcState> {
        self.rows.get(self.svc[node.row()] as usize)
    }

    /// Materialize every node up front (the eager baseline the lazy
    /// tests compare against).
    pub fn materialize_all(&mut self) {
        for i in 0..self.len() as u32 {
            self.materialize(NodeIdx(i));
        }
    }

    /// The site name a row's [`SvcState::site_name`] indexes.
    pub fn site_name(&self, index: u32) -> &str {
        &self.site_names[index as usize]
    }

    /// Bytes held, len-based: cold columns + materialized rows + site
    /// names (payload twice — list entry and index key — plus the index
    /// value). Deterministic across identical runs.
    pub fn bytes(&self) -> usize {
        self.site.len() * std::mem::size_of::<u16>()
            + self.flags.len() * std::mem::size_of::<u8>()
            + self.svc.len() * std::mem::size_of::<u32>()
            + self.rows.len() * std::mem::size_of::<SvcState>()
            + self.site_names.iter().map(|n| 2 * n.len() + 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_flags(i: u32) -> u8 {
        let mut f = 0;
        if i % 256 == 7 {
            f |= FLAG_OWNER_C0;
        }
        if i % 256 == 19 {
            f |= FLAG_OWNER_C1;
        }
        f
    }

    #[test]
    fn cold_columns_are_small_and_never_materialize() {
        let soa = CampusSoa::build(10_000, demo_flags);
        assert_eq!(soa.len(), 10_000);
        assert_eq!(soa.flags(NodeIdx(7)), FLAG_OWNER_C0);
        assert_eq!(soa.flags(NodeIdx(19 + 256)), FLAG_OWNER_C1);
        assert_eq!(soa.flags(NodeIdx(8)), 0);
        assert_eq!(soa.site(NodeIdx(255)), 0);
        assert_eq!(soa.site(NodeIdx(256)), 1);
        assert_eq!(soa.nodes_materialized(), 0);
        // Cold footprint: 2 + 1 + 4 bytes per node, nothing else.
        assert_eq!(soa.bytes(), 10_000 * 7);
    }

    #[test]
    fn materialization_is_lazy_and_idempotent() {
        let mut soa = CampusSoa::build(1_000, demo_flags);
        soa.materialize(NodeIdx(300)).queries_issued += 1;
        soa.materialize(NodeIdx(300)).queries_issued += 1;
        soa.materialize(NodeIdx(301)).offers_served += 1;
        assert_eq!(soa.nodes_materialized(), 2);
        assert_eq!(soa.svc(NodeIdx(300)).unwrap().queries_issued, 2);
        assert_eq!(soa.svc(NodeIdx(301)).unwrap().offers_served, 1);
        assert!(soa.svc(NodeIdx(302)).is_none());
        assert!(!soa.is_materialized(NodeIdx(302)));
    }

    #[test]
    fn site_names_are_shared() {
        let mut soa = CampusSoa::build(1_000, demo_flags);
        // 300 and 301 are both in site 1; 700 is in site 2.
        let a = soa.materialize(NodeIdx(300)).site_name.unwrap();
        let b = soa.materialize(NodeIdx(301)).site_name.unwrap();
        let c = soa.materialize(NodeIdx(700)).site_name.unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(soa.site_name(a), "site-1");
        assert_eq!(soa.site_name(c), "site-2");
        assert_eq!(soa.distinct_sites(), 2);
        // The byte accounting BENCH_e13.json's columns rest on: 7 cold
        // bytes per node, 20 per materialized row, 2·len + 4 per name.
        assert_eq!(std::mem::size_of::<SvcState>(), 20);
        assert_eq!(soa.bytes(), 1_000 * 7 + 3 * 20 + 2 * (2 * "site-1".len() + 4));
    }

    #[test]
    fn eager_baseline_materializes_everything() {
        let mut soa = CampusSoa::build(512, demo_flags);
        soa.materialize_all();
        assert_eq!(soa.nodes_materialized(), 512);
        assert_eq!(soa.distinct_sites(), 2);
    }
}
