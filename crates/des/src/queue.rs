//! The DES kernel's event calendar: a monotone radix heap (Ahuja,
//! Mehlhorn, Orlin and Tarjan, 1990) over a slot arena.
//!
//! A simulation never schedules before the event it last fired, so the
//! calendar keeps that instant as its *floor* and files each pending
//! event by the highest 8-bit digit in which its `at` differs from it:
//! bucket 0 is the floor's own instant, bucket `1 + 256·d + v` the events
//! that first differ at digit `d`, carrying `v` there — bucket order is
//! time order. When bucket 0 is empty, a pop opens the first non-empty
//! bucket, raises the floor to its earliest event and re-files its events
//! into the empty buckets below, so an event moves at most eight times.
//!
//! Events sit in fixed 24-byte slots that never move — an instant, the
//! event's `u64` word and `u32` tag ([`crate::Payload::pack`] encodes
//! both) and a `u32` link; a bucket is an intrusive list through the
//! links, with head, tail, earliest instant and occupancy bit inline in
//! the queue. Freed slots go on a free list: steady-state simulation
//! allocates nothing here.
//! Order is exactly `(SimTime, push order)` with no sequence number
//! stored: events with one `at` always share a bucket, every list stays
//! in push order and a re-file walks it in order, so appending builds
//! bucket 0 with no sort.

use crate::time::SimTime;

const NIL: u32 = u32::MAX;
/// Width of one radix digit of a `u64` instant.
const DIGIT_BITS: u32 = 8;
const RADIX: usize = 1 << DIGIT_BITS;
/// The current instant, then `RADIX` buckets per digit.
const BUCKETS: usize = 1 + (u64::BITS / DIGIT_BITS) as usize * RADIX;

/// A tag's payload kind sits in its bits from here up. The calendar
/// knows one kind, [`VACANT`]'s; every other is the encoder's.
pub(crate) const KIND_SHIFT: u32 = 30;
/// The tag of a vacant slot: the fourth kind, target zero.
pub(crate) const VACANT: u32 = 3 << KIND_SHIFT;

pub(crate) struct Slot {
    at: SimTime,
    word: u64,
    /// Below [`VACANT`] while the slot holds an event.
    tag: u32,
    /// Next slot in its bucket or, vacant, on the free list (NIL ends).
    next: u32,
}

/// Monotone radix calendar of `(word, tag)` events ordered by
/// `(SimTime, push order)`, min first: same-time events pop in schedule
/// (FIFO) order. No push may precede the last popped instant.
pub(crate) struct IndexedQueue {
    slots: Vec<Slot>,
    free: u32,
    len: usize,
    /// The last popped instant: no pending event is earlier.
    floor: u64,
    head: [u32; BUCKETS],
    tail: [u32; BUCKETS],
    /// Earliest instant in each non-empty bucket.
    min: [u64; BUCKETS],
    /// Bit `b % 64` of word `b / 64` is set iff bucket `1 + b` is non-empty.
    occupied: [u64; (BUCKETS - 1) / 64],
}

impl IndexedQueue {
    /// An empty calendar, its floor at time zero.
    pub(crate) fn new() -> Self {
        IndexedQueue {
            slots: Vec::new(),
            free: NIL,
            len: 0,
            floor: 0,
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            min: [0; BUCKETS],
            occupied: [0; (BUCKETS - 1) / 64],
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bucket an event at `at` files into under the current floor.
    #[inline]
    fn bucket(&self, at: u64) -> usize {
        let diff = at ^ self.floor;
        if diff == 0 {
            return 0;
        }
        let digit = (diff.ilog2() / DIGIT_BITS) as usize;
        1 + digit * RADIX + (at >> (digit as u32 * DIGIT_BITS)) as usize % RADIX
    }

    /// Append slot `i`, due at `at`, to bucket `b`'s list.
    #[inline]
    fn append(&mut self, b: usize, i: u32, at: u64) {
        self.slots[i as usize].next = NIL;
        if self.head[b] == NIL {
            self.head[b] = i;
            self.min[b] = at;
            if b > 0 {
                self.occupied[(b - 1) / 64] |= 1 << ((b - 1) % 64);
            }
        } else {
            self.slots[self.tail[b] as usize].next = i;
            self.min[b] = self.min[b].min(at);
        }
        self.tail[b] = i;
    }

    /// Schedule the event `(word, tag)` at `at`, after every event
    /// already there. O(1).
    ///
    /// # Panics
    /// If `at` precedes the last popped instant: the past is closed.
    pub(crate) fn push(&mut self, at: SimTime, word: u64, tag: u32) {
        assert!(at.as_nanos() >= self.floor, "cannot schedule into the past");
        debug_assert!(tag < VACANT, "an event's tag is not the vacant kind");
        let i = if self.free != NIL {
            let i = self.free;
            let slot = &mut self.slots[i as usize];
            self.free = slot.next;
            (slot.at, slot.word, slot.tag) = (at, word, tag);
            i
        } else {
            assert!(self.slots.len() < NIL as usize, "event arena exceeds u32 slots");
            self.slots.push(Slot { at, word, tag, next: NIL });
            (self.slots.len() - 1) as u32
        };
        self.append(self.bucket(at.as_nanos()), i, at.as_nanos());
        self.len += 1;
    }

    /// Remove and return the earliest event if it is due by `deadline`.
    /// When nothing is due the floor stays where it was, so the caller
    /// may go on scheduling from any instant it has reached.
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, u32)> {
        let deadline = deadline.as_nanos();
        let i = match self.head[0] {
            NIL => self.advance(deadline)?,
            _ if self.floor > deadline => return None,
            i => {
                self.head[0] = self.slots[i as usize].next;
                i
            }
        };
        let slot = &mut self.slots[i as usize];
        let tag = std::mem::replace(&mut slot.tag, VACANT);
        assert!(tag < VACANT, "a popped slot holds an event");
        slot.next = self.free;
        self.free = i;
        self.len -= 1;
        Some((slot.at, slot.word, tag))
    }

    /// Open the first non-empty bucket if its earliest event is due by
    /// `deadline`: raise the floor to that event, re-file the bucket in
    /// list order into the empty buckets below it, and unlink the first
    /// event of the new current instant.
    fn advance(&mut self, deadline: u64) -> Option<u32> {
        let w = self.occupied.iter().position(|&o| o != 0)?;
        let b = 1 + w * 64 + self.occupied[w].trailing_zeros() as usize;
        if self.min[b] > deadline {
            return None;
        }
        self.floor = self.min[b];
        self.occupied[w] &= self.occupied[w] - 1;
        let mut i = std::mem::replace(&mut self.head[b], NIL);
        if i == self.tail[b] {
            // A lone event is the whole of the new instant.
            return Some(i);
        }
        while i != NIL {
            let slot = &self.slots[i as usize];
            let (at, next) = (slot.at.as_nanos(), slot.next);
            self.append(self.bucket(at), i, at);
            i = next;
        }
        let i = self.head[0];
        self.head[0] = self.slots[i as usize].next;
        Some(i)
    }

    /// Bytes held by the queue arena (capacity-inclusive), for the
    /// kernel's memory accounting.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
/// The kernel's first calendar: a binary heap over `(at, seq)`-ordered
/// entries, `seq` its own push counter. Kept as the reference
/// implementation — the equivalence tests replay random schedules through
/// both queues and assert identical pop sequences.
pub(crate) mod legacy {
    use super::{IndexedQueue, KIND_SHIFT};
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    impl IndexedQueue {
        /// Remove and return the earliest event.
        pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.pop_until(SimTime::MAX)
        }
    }

    pub(crate) struct LegacyQueue<P> {
        heap: BinaryHeap<Reverse<LegacyEntry<P>>>,
        /// The next push's tie-break.
        seq: u64,
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
            LegacyQueue { heap: BinaryHeap::new(), seq: 0 }
        }

        /// Is the queue empty?
        pub(crate) fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `payload` at `(at, seq)`, `seq` counting pushes.
        pub(crate) fn push(&mut self, at: SimTime, payload: P) {
            self.heap.push(Reverse(LegacyEntry { at, seq: self.seq, payload }));
            self.seq += 1;
        }

        /// Remove and return the minimum event if it is due by `deadline`.
        pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, P)> {
            if self.heap.peek()?.0.at > deadline {
                return None;
            }
            self.heap.pop().map(|Reverse(e)| (e.at, e.payload))
        }

        /// Remove and return the minimum event.
        pub(crate) fn pop(&mut self) -> Option<(SimTime, P)> {
            self.pop_until(SimTime::MAX)
        }
    }

    /// Replay `ops` random steps through the calendar and the oracle the
    /// way the kernel drives it, asserting both pop the same events in
    /// the same order. The clock starts at a random instant below 2⁶²
    /// while the floor is still zero, so the first pushes file at the
    /// high digits; delays are log-uniform below 2⁴⁰ ns, a quarter of the
    /// pushes come in same-instant bursts, and a pop's deadline often
    /// falls short of the next event — after which, as after
    /// `Sim::run_until`, the clock stands at the deadline and pushes land
    /// between the old floor and that event. Each event's word is its push
    /// number, so equal pops mean equal order among same-instant events;
    /// its tag runs through the three occupied kinds and scrambles the
    /// 30 target bits, so equal pops mean each tag came back whole.
    pub(crate) fn replay_against_legacy(rng: &mut SimRng, ops: usize) {
        let delay = |rng: &mut SimRng| rng.next_u64() >> rng.gen_range(24..64u32);
        let mut calendar = IndexedQueue::new();
        let mut legacy = LegacyQueue::new();
        let (mut pushed, mut now) = (0u64, rng.next_u64() >> rng.gen_range(2..26u32));
        for _ in 0..ops {
            if legacy.is_empty() || rng.gen_f64() < 0.55 {
                let at = SimTime::from_nanos(now + delay(rng));
                let burst = if rng.gen_range(0..4u32) == 0 { rng.gen_range(2..9u32) } else { 1 };
                for _ in 0..burst {
                    let target = (pushed as u32).wrapping_mul(0x9E37_79B9) >> (32 - KIND_SHIFT);
                    let tag = ((pushed % 3) as u32) << KIND_SHIFT | target;
                    calendar.push(at, pushed, tag);
                    legacy.push(at, (pushed, tag));
                    pushed += 1;
                }
            } else {
                let deadline = SimTime::from_nanos(now + delay(rng));
                let want = legacy.pop_until(deadline).map(|(at, (word, tag))| (at, word, tag));
                assert_eq!(calendar.pop_until(deadline), want);
                now = want.map_or(deadline, |(at, ..)| at).as_nanos();
            }
        }
        while let Some((at, (word, tag))) = legacy.pop() {
            assert_eq!(calendar.pop(), Some((at, word, tag)));
        }
        assert_eq!(calendar.len(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::{replay_against_legacy, LegacyQueue};
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// The tag pushed with `word`: never the vacant one.
    fn tag_of(word: u64) -> u32 {
        word as u32 % VACANT
    }

    /// Push event `word` at `ns`.
    fn push(q: &mut IndexedQueue, ns: u64, word: u64) {
        q.push(t(ns), word, tag_of(word));
    }

    /// Pop event `word`, checking its tag came back with it.
    fn pop_word(popped: Option<(SimTime, u64, u32)>) -> Option<u64> {
        popped.map(|(_, word, tag)| {
            assert_eq!(tag, tag_of(word));
            word
        })
    }

    /// Pop every event's word.
    fn drain(q: &mut IndexedQueue) -> Vec<u64> {
        std::iter::from_fn(|| pop_word(q.pop())).collect()
    }

    #[test]
    fn same_time_events_pop_in_schedule_order_indexed() {
        let (early, first, second, third) = (0, 1, 2, 3);
        let mut q = IndexedQueue::new();
        push(&mut q, 100, first);
        push(&mut q, 100, second);
        push(&mut q, 50, early);
        push(&mut q, 100, third);
        assert_eq!(drain(&mut q), [early, first, second, third]);
    }

    #[test]
    fn same_time_events_pop_in_schedule_order_legacy() {
        let mut q = LegacyQueue::new();
        q.push(t(100), "first");
        q.push(t(100), "second");
        q.push(t(50), "early");
        q.push(t(100), "third");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["early", "first", "second", "third"]);
    }

    #[test]
    fn slots_are_reused_after_pop() {
        let mut q = IndexedQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                push(&mut q, round * 1000 + i, i);
            }
            for _ in 0..100 {
                q.pop();
            }
        }
        // Arena never grows past the high-water mark of 100 live slots.
        assert!(q.arena_bytes() <= 128 * std::mem::size_of::<Slot>());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn every_digit_level_pops_in_time_order() {
        // One instant per bucket level, the top one included, pushed
        // latest first from floor zero; each pop re-files what is left.
        let mut times: Vec<u64> = (0..64).step_by(8).map(|s| 3 << s).collect();
        times.extend([0, u64::MAX, u64::MAX - 1, 1 << 63]);
        let mut q = IndexedQueue::new();
        for &at in times.iter().rev() {
            push(&mut q, at, at);
        }
        times.sort_unstable();
        assert_eq!(drain(&mut q), times);
    }

    #[test]
    fn pop_until_short_of_the_next_event_keeps_the_floor() {
        let (late, between, same_instant) = (1, 2, 3);
        let mut q = IndexedQueue::new();
        push(&mut q, 1_000, late);
        assert_eq!(q.pop_until(t(400)), None);
        // The clock may stand anywhere up to the deadline: push there.
        push(&mut q, 400, between);
        assert_eq!(pop_word(q.pop_until(t(400))), Some(between));
        assert_eq!(q.pop_until(t(999)), None);
        assert_eq!(pop_word(q.pop()), Some(late));
        // A deadline behind the current instant fires nothing.
        push(&mut q, 1_000, same_instant);
        assert_eq!(q.pop_until(t(999)), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn push_below_the_floor_panics() {
        let mut q = IndexedQueue::new();
        push(&mut q, 500, 0);
        q.pop();
        push(&mut q, 499, 1);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a private stream drives the queue against its oracle")]
    fn interleaved_push_pop_matches_legacy() {
        replay_against_legacy(&mut crate::SimRng::seed_from_u64(0xE13), 5_000);
    }
}
