//! Property tests for [`dmr::sim::EventQueue`]: time-ordered pops, FIFO
//! among same-instant events, and cancellation that never resurrects or
//! leaks entries — the invariants the whole discrete-event driver (and
//! therefore sweep determinism) rests on. Every invariant runs against
//! *both* backends (the binary heap and the hierarchical timer wheel),
//! and a dedicated cross-backend property drives one random op sequence
//! — pushes in both event classes, tombstone cancellations, interleaved
//! pops that trigger compaction, same-instant follow-ups pushed at the
//! instant just popped — through both queues and requires the full pop
//! traces to be identical.

use dmr::sim::queue::{EventQueue, QueueKind, CLASS_EARLY, CLASS_NORMAL};
use dmr::sim::SimTime;
use proptest::prelude::*;

const KINDS: [QueueKind; 2] = [QueueKind::BinaryHeap, QueueKind::TimerWheel];

/// Replays a random schedule: `ops` is a list of (time, cancel_hint)
/// pairs; every pair pushes an event, and `cancel_hint` (mod pushed so
/// far) optionally cancels an earlier one.
fn replay(kind: QueueKind, ops: &[(u64, u64, bool)]) -> (Vec<(SimTime, usize)>, usize) {
    let mut q: EventQueue<usize> = EventQueue::with_kind(kind);
    let mut keys = Vec::new();
    let mut cancelled = std::collections::HashSet::new();
    for (seq, &(time, hint, do_cancel)) in ops.iter().enumerate() {
        keys.push(q.push(SimTime(time), seq));
        if do_cancel {
            let victim = (hint as usize) % keys.len();
            if q.cancel(keys[victim]).is_some() {
                cancelled.insert(victim);
            }
        }
    }
    let mut popped = Vec::new();
    while let Some((t, e)) = q.pop() {
        popped.push((t, e));
    }
    (popped, ops.len() - cancelled.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_are_time_ordered_and_fifo_within_ties(
        ops in proptest::collection::vec((0u64..50, 0u64..100, proptest::bool::ANY), 1..60),
    ) {
        for kind in KINDS {
            let (popped, live) = replay(kind, &ops);
            // Every live event pops exactly once; cancelled ones never do.
            prop_assert_eq!(popped.len(), live, "{:?}", kind);
            for win in popped.windows(2) {
                let (t0, e0) = win[0];
                let (t1, e1) = win[1];
                // Non-decreasing time.
                prop_assert!(t0 <= t1, "{:?} went backwards: {:?} then {:?}", kind, t0, t1);
                // FIFO among equal instants: insertion sequence must rise.
                if t0 == t1 {
                    prop_assert!(e0 < e1, "{:?} tie at {:?} popped {} before {}", kind, t0, e0, e1);
                }
            }
            // Each popped event carries the time it was pushed with.
            for &(t, e) in &popped {
                prop_assert_eq!(t, SimTime(ops[e].0));
            }
        }
    }

    #[test]
    fn compaction_bounds_storage_and_preserves_pop_order(
        ops in proptest::collection::vec(
            (0u64..50, 0u64..100, proptest::bool::ANY, proptest::bool::ANY),
            1..120,
        ),
    ) {
        for kind in KINDS {
            // Reference model: a plain list of (time, seq, alive) entries
            // that never compacts — pops take the minimum (time, seq)
            // alive entry, exactly the queue's CLASS_NORMAL contract.
            let mut model: Vec<(u64, usize, bool)> = Vec::new();
            let model_pop = |model: &mut Vec<(u64, usize, bool)>| -> Option<(SimTime, usize)> {
                let best = model
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, _, alive))| alive)
                    .min_by_key(|(_, &(time, seq, _))| (time, seq))
                    .map(|(i, _)| i)?;
                model[best].2 = false;
                Some((SimTime(model[best].0), model[best].1))
            };

            let mut q: EventQueue<usize> = EventQueue::with_kind(kind);
            let mut keys = Vec::new();
            for (seq, &(time, hint, do_cancel, do_pop)) in ops.iter().enumerate() {
                keys.push(q.push(SimTime(time), seq));
                model.push((time, seq, true));
                if do_cancel {
                    let victim = (hint as usize) % keys.len();
                    if q.cancel(keys[victim]).is_some() {
                        model[victim].2 = false;
                    }
                }
                if do_pop {
                    prop_assert_eq!(q.pop(), model_pop(&mut model));
                }
                // The compaction bound: dead stored entries never
                // outnumber live ones, after every single operation.
                prop_assert!(
                    q.heap_len() <= 2 * q.len(),
                    "{:?} stored {} exceeds 2x live {} after op {}",
                    kind,
                    q.heap_len(),
                    q.len(),
                    seq
                );
            }
            // Drain both to the end: order identical to the
            // never-compacting reference, bound maintained throughout.
            loop {
                let got = q.pop();
                prop_assert_eq!(got, model_pop(&mut model));
                prop_assert!(q.heap_len() <= 2 * q.len());
                if got.is_none() {
                    break;
                }
            }
            prop_assert_eq!(q.heap_len(), 0, "drained {:?} retains tombstones", kind);
        }
    }

    #[test]
    fn len_tracks_live_entries_through_cancellation(
        ops in proptest::collection::vec((0u64..20, 0u64..100, proptest::bool::ANY), 1..40),
    ) {
        for kind in KINDS {
            let mut q: EventQueue<usize> = EventQueue::with_kind(kind);
            let mut keys = Vec::new();
            let mut live = 0usize;
            for (seq, &(time, hint, do_cancel)) in ops.iter().enumerate() {
                keys.push(q.push(SimTime(time), seq));
                live += 1;
                if do_cancel {
                    let victim = (hint as usize) % keys.len();
                    if q.cancel(keys[victim]).is_some() {
                        live -= 1;
                    }
                    // Double cancellation is a no-op.
                    prop_assert!(q.cancel(keys[victim]).is_none());
                }
                prop_assert_eq!(q.len(), live);
                prop_assert_eq!(q.is_empty(), live == 0);
            }
        }
    }

    /// The timer wheel is a drop-in replacement for the binary heap: one
    /// random op sequence — both event classes, far-future times that
    /// exercise cascading across wheel levels, tombstone cancellations
    /// interleaved with pops (which trigger compaction on either side),
    /// and follow-ups pushed in both classes at the instant of the last
    /// pop (the driver's same-instant case, which the wheel serves
    /// without touching its buckets) — produces byte-identical pop traces
    /// and head peeks on both.
    #[test]
    fn wheel_and_heap_pop_identical_traces(
        ops in proptest::collection::vec(
            (0u64..1 << 40, proptest::bool::ANY, 0u64..100, 0u8..5),
            1..150,
        ),
    ) {
        let mut heap: EventQueue<usize> = EventQueue::with_kind(QueueKind::BinaryHeap);
        let mut wheel: EventQueue<usize> = EventQueue::with_kind(QueueKind::TimerWheel);
        let mut heap_keys = Vec::new();
        let mut wheel_keys = Vec::new();
        let mut trace_h = Vec::new();
        let mut trace_w = Vec::new();
        let mut last_pop: Option<SimTime> = None;
        for (seq, &(time, early, hint, action)) in ops.iter().enumerate() {
            let class = if early { CLASS_EARLY } else { CLASS_NORMAL };
            heap_keys.push(heap.push_with_class(SimTime(time), class, seq));
            wheel_keys.push(wheel.push_with_class(SimTime(time), class, seq));
            match action {
                // Cancel the same victim in both queues.
                0 => {
                    let victim = (hint as usize) % heap_keys.len();
                    prop_assert_eq!(
                        heap.cancel(heap_keys[victim]),
                        wheel.cancel(wheel_keys[victim])
                    );
                }
                // Pop one event from each and compare immediately.
                1 => {
                    let (h, w) = (heap.pop(), wheel.pop());
                    prop_assert_eq!(h, w);
                    if let Some((t, _)) = h {
                        last_pop = Some(t);
                    }
                    trace_h.extend(h);
                    trace_w.extend(w);
                }
                // Peek must agree without disturbing either queue.
                2 => prop_assert_eq!(heap.peek_head(), wheel.peek_head()),
                // Same-instant follow-ups: push one event of each class at
                // the instant just popped, as the driver does when an
                // event schedules work for "now".
                3 => {
                    if let Some(t) = last_pop {
                        for (k, class) in [CLASS_NORMAL, CLASS_EARLY].into_iter().enumerate() {
                            let payload = ops.len() + 2 * seq + k;
                            heap_keys.push(heap.push_with_class(t, class, payload));
                            wheel_keys.push(wheel.push_with_class(t, class, payload));
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(heap.len(), wheel.len(), "live counts diverged at op {}", seq);
        }
        while let Some(ev) = heap.pop() {
            trace_h.push(ev);
        }
        while let Some(ev) = wheel.pop() {
            trace_w.push(ev);
        }
        prop_assert_eq!(trace_h, trace_w, "pop traces diverged");
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}

/// Regression for the kill-and-requeue stale-event path: when a node
/// failure kills a running job, the driver cancels the dead
/// incarnation's pending completion *and* the timeout of any resizer it
/// was waiting on, then schedules the requeued incarnation's events.
/// Neither tombstone may ever fire, cancel a second time, or disturb
/// the surviving events — on either backend.
#[test]
fn killed_jobs_stale_events_never_fire() {
    for kind in KINDS {
        let mut q: EventQueue<&'static str> = EventQueue::with_kind(kind);
        // The doomed incarnation: a completion far out and a resize
        // timeout before it; an unrelated job's completion in between.
        let completion = q.push(SimTime(900), "victim-completion");
        let resize = q.push(SimTime(300), "victim-resize-timeout");
        let other = q.push(SimTime(500), "other-completion");
        // The failure lands at t=100: cancel both victim events.
        assert_eq!(q.cancel(completion), Some("victim-completion"), "{kind:?}");
        assert_eq!(q.cancel(resize), Some("victim-resize-timeout"), "{kind:?}");
        // Double-cancel is inert; the tombstoned keys stay dead.
        assert!(q.cancel(completion).is_none(), "{kind:?}");
        assert!(q.cancel(resize).is_none(), "{kind:?}");
        // The requeued incarnation schedules a fresh completion.
        let requeued = q.push(SimTime(1200), "requeue-completion");
        // Only live events pop, in time order — no stale firing.
        assert_eq!(
            q.pop(),
            Some((SimTime(500), "other-completion")),
            "{kind:?}"
        );
        assert_eq!(
            q.pop(),
            Some((SimTime(1200), "requeue-completion")),
            "{kind:?}"
        );
        assert_eq!(q.pop(), None, "{kind:?}");
        // Cancelling an already-popped key is a no-op that cannot
        // resurrect or corrupt anything.
        assert!(q.cancel(requeued).is_none(), "{kind:?}");
        assert!(q.cancel(other).is_none(), "{kind:?}");
        assert!(q.is_empty(), "{kind:?}");
        assert_eq!(q.heap_len(), 0, "{kind:?} retains tombstones after drain");
    }
}
