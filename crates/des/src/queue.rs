//! Index-addressed event queues for the DES kernel.
//!
//! The original kernel kept its calendar in a
//! `BinaryHeap<Reverse<Scheduled>>`, which sifts whole `Scheduled`
//! structs (~40 bytes with a boxed payload) up and down the heap array
//! on every push/pop. At campus sizes of 10⁵–10⁶ nodes the calendar
//! holds hundreds of thousands of pending events and that movement is
//! the kernel's dominant cost.
//!
//! [`IndexedQueue`] replaces it with an arena-backed **pairing heap**:
//! payloads live in fixed slots that never move once written, and heap
//! restructuring relinks `u32` child/sibling indices only. Freed slots
//! go on a free list and are reused, so steady-state simulation does no
//! queue allocation at all.
//!
//! Ordering is the exact total order of the old kernel — strictly by
//! `(SimTime, seq)` where `seq` is the global schedule sequence number.
//! Keys are therefore unique, every correct priority queue pops them in
//! the same order, and all existing experiment outputs stay
//! byte-identical. The original binary heap survives under `cfg(test)`
//! as this crate's oracle: the equivalence and property tests replay
//! random schedules through both and compare pop order.

use crate::time::SimTime;

const NIL: u32 = u32::MAX;

struct Slot<P> {
    at: SimTime,
    seq: u64,
    /// First child in the pairing heap (NIL if leaf).
    child: u32,
    /// Next sibling in the parent's child list (NIL at end; doubles as
    /// the free-list link when the slot is vacant).
    sibling: u32,
    payload: Option<P>,
}

/// Arena-backed pairing heap ordered by `(SimTime, seq)`, min first.
///
/// `seq` values must be unique per queue instance (the kernel's global
/// schedule counter guarantees this); the tie-break therefore makes the
/// order total, so same-time events pop in schedule (FIFO) order.
pub struct IndexedQueue<P> {
    slots: Vec<Slot<P>>,
    free: u32,
    root: u32,
    len: usize,
    /// Reused across pops so steady-state delete-min never allocates.
    scratch: Vec<u32>,
}

impl<P> Default for IndexedQueue<P> {
    fn default() -> Self {
        IndexedQueue::new()
    }
}

impl<P> IndexedQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        IndexedQueue { slots: Vec::new(), free: NIL, root: NIL, len: 0, scratch: Vec::new() }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn key(&self, i: u32) -> (SimTime, u64) {
        let s = &self.slots[i as usize];
        (s.at, s.seq)
    }

    /// Meld two pairing-heap roots, returning the new root index.
    /// The smaller `(at, seq)` key wins; the loser becomes its first
    /// child. Only `u32` links move — payloads stay in place.
    #[inline]
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (winner, loser) = if self.key(a) <= self.key(b) { (a, b) } else { (b, a) };
        let first = self.slots[winner as usize].child;
        self.slots[loser as usize].sibling = first;
        self.slots[winner as usize].child = loser;
        winner
    }

    /// Schedule `payload` at `(at, seq)`. O(1).
    pub fn push(&mut self, at: SimTime, seq: u64, payload: P) {
        let idx = if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            self.free = slot.sibling;
            slot.at = at;
            slot.seq = seq;
            slot.child = NIL;
            slot.sibling = NIL;
            slot.payload = Some(payload);
            idx
        } else {
            assert!(self.slots.len() < u32::MAX as usize, "event arena exceeds u32 slots");
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { at, seq, child: NIL, sibling: NIL, payload: Some(payload) });
            idx
        };
        self.root = self.meld(self.root, idx);
        self.len += 1;
    }

    /// Key of the minimum event, without removing it.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        if self.root == NIL {
            None
        } else {
            Some(self.key(self.root))
        }
    }

    /// Remove and return the minimum event. Amortised O(log n).
    pub fn pop(&mut self) -> Option<(SimTime, u64, P)> {
        if self.root == NIL {
            return None;
        }
        let min = self.root;
        let children = self.slots[min as usize].child;
        self.root = self.merge_pairs(children);
        let slot = &mut self.slots[min as usize];
        let at = slot.at;
        let seq = slot.seq;
        let payload = match slot.payload.take() {
            Some(p) => p,
            None => unreachable!("occupied slot has payload"),
        };
        slot.child = NIL;
        slot.sibling = self.free;
        self.free = min;
        self.len -= 1;
        Some((at, seq, payload))
    }

    /// Two-pass pairwise merge of a sibling list (the classic pairing-
    /// heap delete-min). Iterative so a long same-time burst cannot
    /// overflow the stack.
    fn merge_pairs(&mut self, first: u32) -> u32 {
        if first == NIL {
            return NIL;
        }
        // Pass 1: meld adjacent pairs left to right.
        let mut pairs = std::mem::take(&mut self.scratch);
        pairs.clear();
        let mut cur = first;
        while cur != NIL {
            let a = cur;
            let b = self.slots[a as usize].sibling;
            if b == NIL {
                self.slots[a as usize].sibling = NIL;
                pairs.push(a);
                break;
            }
            let next = self.slots[b as usize].sibling;
            self.slots[a as usize].sibling = NIL;
            self.slots[b as usize].sibling = NIL;
            pairs.push(self.meld(a, b));
            cur = next;
        }
        // Pass 2: meld right to left.
        let mut root = NIL;
        for &p in pairs.iter().rev() {
            root = self.meld(root, p);
        }
        self.scratch = pairs;
        root
    }

    /// Bytes held by the queue arena (capacity-inclusive), for the
    /// kernel's memory accounting.
    pub fn arena_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<P>>()
    }
}

/// The pre-refactor calendar: a binary heap over `(at, seq)`-ordered
/// entries. Kept as the reference implementation — the kernel
/// equivalence tests replay random schedules through both queues and
/// assert identical pop sequences.
#[cfg(test)]
pub(crate) mod legacy {
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub(crate) struct LegacyQueue<P> {
        heap: BinaryHeap<Reverse<LegacyEntry<P>>>,
    }

    struct LegacyEntry<P> {
        at: SimTime,
        seq: u64,
        payload: P,
    }

    impl<P> PartialEq for LegacyEntry<P> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<P> Eq for LegacyEntry<P> {}
    impl<P> PartialOrd for LegacyEntry<P> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<P> Ord for LegacyEntry<P> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    impl<P> LegacyQueue<P> {
        /// An empty queue.
        pub(crate) fn new() -> Self {
            LegacyQueue { heap: BinaryHeap::new() }
        }

        /// Is the queue empty?
        pub(crate) fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `payload` at `(at, seq)`.
        pub(crate) fn push(&mut self, at: SimTime, seq: u64, payload: P) {
            self.heap.push(Reverse(LegacyEntry { at, seq, payload }));
        }

        /// Key of the minimum event, without removing it.
        pub(crate) fn peek(&self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
        }

        /// Remove and return the minimum event.
        pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, P)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyQueue;
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn same_time_events_pop_in_schedule_order_indexed() {
        let mut q = IndexedQueue::new();
        q.push(t(100), 0, "first");
        q.push(t(100), 1, "second");
        q.push(t(50), 2, "early");
        q.push(t(100), 3, "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["early", "first", "second", "third"]);
    }

    #[test]
    fn same_time_events_pop_in_schedule_order_legacy() {
        let mut q = LegacyQueue::new();
        q.push(t(100), 0, "first");
        q.push(t(100), 1, "second");
        q.push(t(50), 2, "early");
        q.push(t(100), 3, "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["early", "first", "second", "third"]);
    }

    #[test]
    fn slots_are_reused_after_pop() {
        let mut q = IndexedQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(t(round * 1000 + i), round * 100 + i, i);
            }
            for _ in 0..100 {
                q.pop();
            }
        }
        // Arena never grows past the high-water mark of 100 live slots.
        assert!(q.arena_bytes() <= 128 * std::mem::size_of::<Slot<u64>>());
        assert!(q.is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a private stream drives the queue against its oracle")]
    fn interleaved_push_pop_matches_legacy() {
        let mut rng = crate::SimRng::seed_from_u64(0xE13);
        let mut indexed = IndexedQueue::new();
        let mut legacy = LegacyQueue::new();
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if legacy.is_empty() || rng.gen_f64() < 0.6 {
                let at = t(rng.gen_range(0..10_000u64));
                indexed.push(at, seq, seq);
                legacy.push(at, seq, seq);
                seq += 1;
            } else {
                assert_eq!(indexed.peek(), legacy.peek());
                assert_eq!(indexed.pop(), legacy.pop());
            }
        }
        while let Some(want) = legacy.pop() {
            assert_eq!(indexed.pop(), Some(want));
        }
        assert!(indexed.is_empty());
    }
}
