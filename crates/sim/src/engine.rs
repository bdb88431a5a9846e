//! The simulation engine: a clock plus an event queue, with a driver loop.

use crate::queue::{EventKey, EventQueue, QueueKind, CLASS_EARLY, CLASS_NORMAL};
use crate::time::{SimTime, Span};

/// Handle for a scheduled event (re-exported key type).
pub type EventId = EventKey;

/// A virtual clock bound to a cancellable event queue.
///
/// `Engine` is deliberately passive: it owns time and pending events, and the
/// simulation *world* (e.g. the workload driver in `dmr-core`) pulls events
/// and dispatches them. This inversion keeps every domain rule out of the
/// engine and makes the engine reusable and independently testable.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    past_schedules: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// An engine on the default queue backend ([`QueueKind::TimerWheel`]).
    pub fn new() -> Self {
        Self::with_queue_kind(QueueKind::default())
    }

    /// An engine whose event queue runs on the given backend. Backends
    /// are observationally identical (`(time, class, seq)` pop order).
    pub fn with_queue_kind(kind: QueueKind) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_kind(kind),
            processed: 0,
            past_schedules: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of [`Engine::schedule_at`] calls that targeted an instant in
    /// the past and were clamped to `now`. Always observable (debug *and*
    /// release), so callers — e.g. scenario sweeps, which run in release
    /// where the debug panic is compiled out — can assert
    /// no-past-scheduling.
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }

    /// Schedules an event at an absolute instant. Scheduling in the past is
    /// a logic error: debug builds panic at the first occurrence; release
    /// builds clamp the instant to `now` (the event fires immediately next)
    /// and count the clamp in [`Engine::past_schedules`], which is also
    /// maintained in debug builds so sweeps can assert on it uniformly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_class(at, CLASS_NORMAL, event)
    }

    /// Like [`Engine::schedule_at`], but the event wins every tie against
    /// same-instant [`Engine::schedule_at`] events regardless of insertion
    /// order (FIFO among early events). Used for event families that must
    /// keep front-of-queue semantics — e.g. streamed workload arrivals,
    /// which historically were all scheduled before the run began and
    /// therefore always popped first at their instant.
    pub fn schedule_at_early(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_class(at, CLASS_EARLY, event)
    }

    fn schedule_class(&mut self, at: SimTime, class: u8, event: E) -> EventId {
        if at < self.now {
            self.past_schedules += 1;
            debug_assert!(
                false,
                "scheduled event in the past: at={:?} now={:?}",
                at, self.now
            );
        }
        let at = at.max(self.now);
        self.queue.push_with_class(at, class, event)
    }

    /// Schedules an event `delay` after the current instant. Routed through
    /// [`Engine::schedule_at`] so both entry points share the
    /// past-scheduling clamp and [`Engine::past_schedules`] accounting (a
    /// non-negative `delay` can never trip it, but the invariant lives in
    /// exactly one place).
    pub fn schedule_in(&mut self, delay: Span, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a pending event, returning its payload if it had not fired.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        self.queue.cancel(id)
    }

    /// Time of the next pending event without consuming it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// `(time, class)` of the next pending event without consuming it.
    /// The class is [`CLASS_EARLY`] for events scheduled through
    /// [`Engine::schedule_at_early`]; drivers use it to tell whether the
    /// head of the queue is a same-instant arrival (extend the batch
    /// window) or an ordinary event (flush deferred scheduling work).
    pub fn peek_head(&mut self) -> Option<(SimTime, u8)> {
        self.queue.peek_head()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Runs the event loop to exhaustion, dispatching each event to
    /// `handler`. The handler receives the engine so it can schedule further
    /// events; this is the standard DES pattern.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, SimTime, E)) {
        while let Some((t, e)) = self.next_event() {
            handler(self, t, e);
        }
    }

    /// Like [`Engine::run`] but stops (leaving the queue intact) once the
    /// clock would pass `deadline`. Events at exactly `deadline` still run.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Engine<E>, SimTime, E),
    ) {
        while self.peek_time().is_some_and(|t| t <= deadline) {
            let Some((t, e)) = self.next_event() else {
                break;
            };
            handler(self, t, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Spawn,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Tick(1));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tick(0));
        let (t, e) = eng.next_event().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), Ev::Tick(0)));
        assert_eq!(eng.now(), SimTime::from_secs(2));
        let (t, _) = eng.next_event().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert!(eng.next_event().is_none());
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Spawn);
        let mut ticks = Vec::new();
        eng.run(|eng, t, e| match e {
            Ev::Spawn => {
                for i in 0..3 {
                    eng.schedule_in(Span::from_secs(i + 1), Ev::Tick(i as u32));
                }
            }
            Ev::Tick(i) => ticks.push((t, i)),
        });
        assert_eq!(
            ticks,
            vec![
                (SimTime::from_secs(2), 0),
                (SimTime::from_secs(3), 1),
                (SimTime::from_secs(4), 2)
            ]
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 1..=10u64 {
            eng.schedule_at(SimTime::from_secs(i), i as u32);
        }
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(4), |_, _, e| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(eng.pending(), 6);
        assert_eq!(eng.now(), SimTime::from_secs(4));
    }

    #[test]
    fn past_scheduling_clamps_and_counts() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10), 1);
        eng.next_event();
        assert_eq!(eng.past_schedules(), 0);
        // now = 10; scheduling at 3 panics in debug builds and clamps to
        // `now` in release builds — the counter records it either way.
        if cfg!(debug_assertions) {
            let poked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.schedule_at(SimTime::from_secs(3), 2);
            }));
            assert!(poked.is_err(), "debug builds must panic");
        } else {
            eng.schedule_at(SimTime::from_secs(3), 2);
            let (t, e) = eng.next_event().unwrap();
            assert_eq!((t, e), (SimTime::from_secs(10), 2), "clamped to now");
        }
        assert_eq!(eng.past_schedules(), 1);
        // Scheduling exactly at `now` is fine.
        eng.schedule_at(SimTime::from_secs(10), 3);
        assert_eq!(eng.past_schedules(), 1);
    }

    #[test]
    fn early_events_outrank_same_instant_normal_events() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), "normal");
        eng.schedule_at_early(SimTime::from_secs(5), "early");
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec!["early", "normal"]);
    }

    #[test]
    fn schedule_in_shares_the_schedule_at_invariant() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(4), 1);
        eng.next_event();
        // Zero and positive delays from `now` are never "in the past".
        eng.schedule_in(Span::ZERO, 2);
        eng.schedule_in(Span::from_secs(1), 3);
        assert_eq!(eng.past_schedules(), 0);
        let (t2, e2) = eng.next_event().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(4), 2));
        let (t3, e3) = eng.next_event().unwrap();
        assert_eq!((t3, e3), (SimTime::from_secs(5), 3));
    }

    #[test]
    fn run_until_survives_concurrent_cancellation() {
        // A handler that cancels the next pending event must not trip
        // run_until: the loop re-peeks instead of trusting a stale peek.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), 1);
        let doomed = eng.schedule_at(SimTime::from_secs(2), 2);
        eng.schedule_at(SimTime::from_secs(3), 3);
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(10), |eng, _, e| {
            if e == 1 {
                eng.cancel(doomed);
            }
            seen.push(e);
        });
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_at(SimTime::from_secs(1), 1);
        eng.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(eng.cancel(id), Some(1));
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..5 {
            eng.schedule_at(SimTime::from_secs(7), i);
        }
        let mut seen = Vec::new();
        eng.run(|_, _, e| seen.push(e));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
