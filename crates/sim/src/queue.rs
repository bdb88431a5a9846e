//! Cancellable priority queue of timestamped events.
//!
//! Ordering is `(time, class, sequence)` where the sequence number is
//! assigned at insertion, so events scheduled for the same instant pop in
//! FIFO order within their class; the class lets a family of events
//! outrank same-instant events of the default class regardless of
//! insertion order. Cancellation tombstones the entry; dead entries are
//! skipped on pop, and the backing store is compacted whenever tombstones
//! outnumber live entries, so cancelled-event memory stays bounded at
//! twice the live set no matter how many timers a long run abandons.
//!
//! Two interchangeable backends implement the store ([`QueueKind`]):
//!
//! * [`QueueKind::TimerWheel`] (the default, and the backend the
//!   simulation driver runs on) — a hierarchical timer wheel (6 bits per
//!   level, 11 levels covering the full `u64` microsecond clock). A push
//!   drops the entry into the bucket addressed by the highest bit-block
//!   in which its deadline differs from the wheel cursor — O(1), no
//!   comparisons. Pops cascade the lowest occupied bucket down one level
//!   at a time until a bucket resolves to an exact instant, whose entries
//!   move to a small `due` set ordered by `(time, class, seq)`. Work per
//!   event is bounded by the number of levels (11), independent of how
//!   many events are pending, and entries pushed at-or-before the cursor
//!   (same-instant follow-ups, the driver's hottest case) bypass the
//!   wheel entirely.
//! * [`QueueKind::BinaryHeap`] — the reference `BinaryHeap` of
//!   `(time, class, seq)` entries, kept as the model the wheel is tested
//!   against. O(log n) push/pop with pointer-free sift traffic
//!   proportional to the whole pending set.
//!
//! Both backends pop in exactly the same `(time, class, seq)` order —
//! `tests/event_queue_invariants.rs` replays random interleavings through
//! both and requires identical traces.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use crate::time::SimTime;

/// Tie-break class popping *before* [`CLASS_NORMAL`] at the same instant.
///
/// Exists for event families that must win every same-instant tie no
/// matter when they were inserted — e.g. workload arrivals, which were
/// historically all scheduled before the simulation began (and therefore
/// always carried the smallest sequence numbers) and keep that ordering
/// guarantee now that they are scheduled one at a time, mid-run.
pub const CLASS_EARLY: u8 = 0;

/// Default tie-break class used by [`EventQueue::push`].
pub const CLASS_NORMAL: u8 = 1;

/// Backing store selector for [`EventQueue`]. Both kinds are
/// observationally identical; the wheel trades the heap's O(log n)
/// comparison churn for O(levels) bucket hops and is the production
/// default.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// Reference binary-heap backend (the original implementation, kept
    /// as the test model).
    BinaryHeap,
    /// Hierarchical timer-wheel backend.
    #[default]
    TimerWheel,
}

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey(u64);

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    class: u8,
    seq: u64,
}

/// Bits consumed per wheel level: 64 buckets each.
const WHEEL_BITS: u32 = 6;
/// Buckets per level.
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Levels needed to cover a full `u64` clock (11 × 6 = 66 ≥ 64 bits).
const WHEEL_LEVELS: usize = 11;

/// Hierarchical timer wheel over `(time, class, seq)` triples.
///
/// Invariants (checked in debug builds by construction):
/// * every entry in `due` has `time <= cursor`;
/// * every entry in a bucket has `time > cursor`, lives at the level of
///   the highest bit-block where its time differs from `cursor`, and its
///   bucket index at that level is strictly greater than the cursor's —
///   so the earliest pending instant is always the lowest occupied
///   bucket of the lowest occupied level, found with two
///   `trailing_zeros` and no wrap-around handling;
/// * `cursor` never moves backwards, so late pushes (engine-clamped
///   same-instant follow-ups) land in `due` where `(time, class, seq)`
///   order still resolves them correctly.
struct Wheel {
    cursor: u64,
    /// Occupancy bitmap per level: bit `i` set iff bucket `i` is
    /// non-empty (tombstones included — emptiness is structural).
    occupied: [u64; WHEEL_LEVELS],
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets, flattened.
    buckets: Vec<Vec<(SimTime, u8, u64)>>,
    /// Entries at or before the cursor, ready to pop in key order.
    due: BTreeSet<(SimTime, u8, u64)>,
    /// Total entries stored (buckets + due), tombstones included.
    stored: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            cursor: 0,
            occupied: [0; WHEEL_LEVELS],
            buckets: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect(),
            due: BTreeSet::new(),
            stored: 0,
        }
    }

    /// Stores an entry, routing past-or-present deadlines straight to
    /// `due` and future ones to their bucket.
    fn insert(&mut self, time: SimTime, class: u8, seq: u64) {
        self.stored += 1;
        if time.0 <= self.cursor {
            self.due.insert((time, class, seq));
        } else {
            self.place(time, class, seq);
        }
    }

    /// Buckets a strictly-future entry at the level of the highest
    /// bit-block differing from the cursor.
    fn place(&mut self, time: SimTime, class: u8, seq: u64) {
        debug_assert!(time.0 > self.cursor);
        let diff = time.0 ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / WHEEL_BITS) as usize;
        let slot = ((time.0 >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        self.buckets[level * WHEEL_SLOTS + slot].push((time, class, seq));
        self.occupied[level] |= 1 << slot;
    }

    fn buckets_empty(&self) -> bool {
        self.occupied.iter().all(|&o| o == 0)
    }

    /// Advances the cursor to the next occupied bucket, draining it:
    /// level-0 buckets resolve to a single exact instant and move to
    /// `due`; higher buckets redistribute into lower levels. Dead
    /// entries (cancelled seqs, per `live`) are dropped on the way.
    /// Returns the number of tombstones it discarded.
    fn cascade_once<E>(&mut self, live: &HashMap<u64, E>) -> usize {
        let level = self
            .occupied
            .iter()
            .position(|&o| o != 0)
            .expect("cascade_once requires an occupied bucket");
        let slot = self.occupied[level].trailing_zeros() as usize;
        let entries = std::mem::take(&mut self.buckets[level * WHEEL_SLOTS + slot]);
        self.occupied[level] &= !(1 << slot);
        // The bucket's start instant: cursor bits above this level, the
        // bucket index at this level, zeros below. For level 0 this is
        // the exact deadline every entry in the bucket shares.
        let width = WHEEL_BITS * level as u32;
        let above = if level + 1 == WHEEL_LEVELS {
            0
        } else {
            self.cursor >> (width + WHEEL_BITS) << (width + WHEEL_BITS)
        };
        let start = above | ((slot as u64) << width);
        debug_assert!(start >= self.cursor);
        self.cursor = start;
        let mut dropped = 0;
        for (time, class, seq) in entries {
            if !live.contains_key(&seq) {
                dropped += 1;
                continue;
            }
            if time.0 <= self.cursor {
                debug_assert!(time.0 == self.cursor);
                self.due.insert((time, class, seq));
            } else {
                self.place(time, class, seq);
            }
        }
        self.stored -= dropped;
        dropped
    }

    /// Rebuilds the wheel from its live entries (compaction).
    fn rebuild<E>(&mut self, live: &HashMap<u64, E>) {
        let mut entries: Vec<(SimTime, u8, u64)> = Vec::with_capacity(live.len());
        entries.extend(self.due.iter().filter(|(_, _, s)| live.contains_key(s)));
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..).filter(|(_, _, s)| live.contains_key(s)));
        }
        self.due.clear();
        self.occupied = [0; WHEEL_LEVELS];
        self.stored = 0;
        for (time, class, seq) in entries {
            self.insert(time, class, seq);
        }
    }
}

enum Backend {
    Heap(BinaryHeap<Reverse<Entry>>),
    Wheel(Box<Wheel>),
}

/// A time-ordered queue of events of type `E` supporting O(log n) push/pop
/// and O(1) cancellation (amortised: tombstones are drained lazily).
pub struct EventQueue<E> {
    backend: Backend,
    live: HashMap<u64, E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue on the default backend ([`QueueKind::TimerWheel`]).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default())
    }

    /// A queue on the given backend; both kinds pop identically.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            backend: match kind {
                QueueKind::BinaryHeap => Backend::Heap(BinaryHeap::new()),
                QueueKind::TimerWheel => Backend::Wheel(Box::new(Wheel::new())),
            },
            live: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Schedules `event` at `time` in [`CLASS_NORMAL`], returning a key
    /// usable with [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        self.push_with_class(time, CLASS_NORMAL, event)
    }

    /// Schedules `event` at `time` in an explicit tie-break `class`
    /// (lower classes pop first at equal instants; FIFO within a class).
    pub fn push_with_class(&mut self, time: SimTime, class: u8, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Reverse(Entry { time, class, seq })),
            Backend::Wheel(wheel) => wheel.insert(time, class, seq),
        }
        self.live.insert(seq, event);
        EventKey(seq)
    }

    /// Number of store slots currently backing the queue — live entries
    /// plus tombstones. Compaction keeps this at ≤ 2 × [`EventQueue::len`]
    /// after every operation; exposed so tests (and capacity telemetry)
    /// can observe the bound.
    pub fn heap_len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Wheel(wheel) => wheel.stored,
        }
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event was still pending.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.live.remove(&key.0);
        if payload.is_some() {
            self.maybe_compact();
        }
        payload
    }

    /// Time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_head().map(|(t, _)| t)
    }

    /// `(time, class)` of the earliest live event, if any — lets callers
    /// distinguish same-instant [`CLASS_EARLY`] arrivals from ordinary
    /// events without consuming anything (the driver's batch window
    /// test).
    pub fn peek_head(&mut self) -> Option<(SimTime, u8)> {
        self.settle_head();
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|Reverse(e)| (e.time, e.class)),
            Backend::Wheel(wheel) => wheel.due.first().map(|&(t, c, _)| (t, c)),
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle_head();
        let (time, seq) = match &mut self.backend {
            Backend::Heap(heap) => {
                let Reverse(entry) = heap.pop()?;
                (entry.time, entry.seq)
            }
            Backend::Wheel(wheel) => {
                let (time, _, seq) = wheel.due.pop_first()?;
                wheel.stored -= 1;
                (time, seq)
            }
        };
        let event = self
            .live
            .remove(&seq)
            .expect("settle_head guarantees the head entry is live");
        self.maybe_compact();
        Some((time, event))
    }

    /// Brings the earliest *live* entry to the head of the store: skips
    /// heap tombstones, or (wheel) drops dead due-heads and cascades
    /// buckets until the due set leads with a live entry.
    fn settle_head(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => {
                while let Some(Reverse(entry)) = heap.peek() {
                    if self.live.contains_key(&entry.seq) {
                        return;
                    }
                    heap.pop();
                }
            }
            Backend::Wheel(wheel) => loop {
                while let Some(&(_, _, seq)) = wheel.due.first() {
                    if self.live.contains_key(&seq) {
                        return;
                    }
                    wheel.due.pop_first();
                    wheel.stored -= 1;
                }
                if wheel.buckets_empty() {
                    return;
                }
                wheel.cascade_once(&self.live);
            },
        }
    }

    /// Rebuilds the store from its live entries once tombstones outnumber
    /// them. Amortised O(1) per cancellation: a compaction touching `h`
    /// entries only happens after ≥ h/2 cancellations or pops, and the
    /// rebuilt store pops in exactly the same `(time, class, seq)` order.
    fn maybe_compact(&mut self) {
        match &mut self.backend {
            Backend::Heap(heap) => {
                if heap.len() > 2 * self.live.len() {
                    let mut entries = std::mem::take(heap).into_vec();
                    entries.retain(|Reverse(e)| self.live.contains_key(&e.seq));
                    *heap = BinaryHeap::from(entries);
                }
            }
            Backend::Wheel(wheel) => {
                if wheel.stored > 2 * self.live.len() {
                    wheel.rebuild(&self.live);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every unit test runs against both backends — the wheel must be
    /// observationally identical to the heap.
    fn both(check: impl Fn(QueueKind)) {
        check(QueueKind::BinaryHeap);
        check(QueueKind::TimerWheel);
    }

    #[test]
    fn pops_in_time_order() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime(30), "c");
            q.push(SimTime(10), "a");
            q.push(SimTime(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        });
    }

    #[test]
    fn ties_pop_fifo() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.push(SimTime(5), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn early_class_beats_normal_at_same_instant() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime(5), "normal-1");
            q.push_with_class(SimTime(5), CLASS_EARLY, "early-1");
            q.push(SimTime(5), "normal-2");
            q.push_with_class(SimTime(5), CLASS_EARLY, "early-2");
            // Earlier *times* still dominate any class.
            q.push(SimTime(1), "first");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(
                order,
                vec!["first", "early-1", "early-2", "normal-1", "normal-2"]
            );
        });
    }

    #[test]
    fn cancel_removes_event() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let k1 = q.push(SimTime(1), "x");
            q.push(SimTime(2), "y");
            assert_eq!(q.cancel(k1), Some("x"));
            assert_eq!(q.cancel(k1), None, "double cancel is a no-op");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((SimTime(2), "y")));
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn peek_skips_cancelled_head() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let k = q.push(SimTime(1), 1);
            q.push(SimTime(9), 9);
            q.cancel(k);
            assert_eq!(q.peek_time(), Some(SimTime(9)));
        });
    }

    #[test]
    fn peek_head_exposes_the_class() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime(5), "normal");
            assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_NORMAL)));
            q.push_with_class(SimTime(5), CLASS_EARLY, "early");
            assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_EARLY)));
            q.pop();
            assert_eq!(q.peek_head(), Some((SimTime(5), CLASS_NORMAL)));
        });
    }

    #[test]
    fn len_tracks_live_only() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..10).map(|i| q.push(SimTime(i), i)).collect();
            for k in &keys[..4] {
                q.cancel(*k);
            }
            assert_eq!(q.len(), 6);
            assert!(!q.is_empty());
        });
    }

    #[test]
    fn compaction_bounds_tombstones() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..1000).map(|i| q.push(SimTime(i), i)).collect();
            // Cancel almost everything: the store must shrink with the
            // live set instead of retaining a tombstone per cancellation.
            for k in &keys[..990] {
                q.cancel(*k);
            }
            assert_eq!(q.len(), 10);
            assert!(
                q.heap_len() <= 2 * q.len(),
                "store {} vs live {}",
                q.heap_len(),
                q.len()
            );
            // Pop order is unaffected by the rebuild.
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (990..1000).collect::<Vec<_>>());
            assert_eq!(q.heap_len(), 0, "empty queue keeps no tombstones");
        });
    }

    #[test]
    fn cancel_everything_releases_the_heap() {
        both(|kind| {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..64).map(|i| q.push(SimTime(1), i)).collect();
            for k in keys {
                q.cancel(k);
            }
            assert!(q.is_empty());
            assert_eq!(q.heap_len(), 0);
            assert_eq!(q.pop(), None::<(SimTime, i32)>);
        });
    }

    #[test]
    fn wheel_handles_pushes_below_the_cursor() {
        // Popping at t=1000 advances the wheel cursor; a later push at
        // t=900 (the engine clamps, but the queue contract is general)
        // must still pop before a pending t=2000 event.
        let mut q = EventQueue::with_kind(QueueKind::TimerWheel);
        q.push(SimTime(1000), "a");
        q.push(SimTime(2000), "c");
        assert_eq!(q.pop(), Some((SimTime(1000), "a")));
        q.push(SimTime(900), "b");
        assert_eq!(q.pop(), Some((SimTime(900), "b")));
        assert_eq!(q.pop(), Some((SimTime(2000), "c")));
    }

    #[test]
    fn wheel_cascades_across_levels() {
        // Deadlines spread over many bit-blocks force multi-level
        // cascades; order must still be exact.
        let mut q = EventQueue::with_kind(QueueKind::TimerWheel);
        let times = [
            1u64,
            63,
            64,
            65,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 1,
            1 << 40,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let mut want: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime(t), i))
            .collect();
        want.sort();
        assert_eq!(order, want);
    }
}
