//! The discrete-event engine: a calendar queue plus a driver loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::time::{SimDuration, SimTime};
use crate::trace::{EngineProfile, NoProbe, Probe};

/// The simulated world: all mutable state of a simulation plus the handler
/// that advances it one event at a time.
///
/// The engine owns a `World` and feeds it events in non-decreasing time
/// order. Handlers schedule follow-up events through the [`EventQueue`]
/// passed to [`World::handle`].
pub trait World: Sized {
    /// The event type processed by this world.
    type Event;

    /// Processes one event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Names of this world's event kinds, indexed by [`World::event_kind`].
    ///
    /// Only consulted by kinded probes (see [`Probe::KINDED`]); the
    /// default collapses every event into a single `"event"` bucket so
    /// worlds that never profile need not implement it.
    #[must_use]
    fn event_kinds() -> &'static [&'static str] {
        &["event"]
    }

    /// Dense kind index of `event`, in `0..event_kinds().len()`.
    ///
    /// Must be cheap (a discriminant read): kinded probes call it once
    /// per processed event.
    #[must_use]
    fn event_kind(event: &Self::Event) -> u32 {
        let _ = event;
        0
    }
}

/// Heap key plus a slot index into the payload slab. Keeping the payload
/// out of the heap means sift operations move 24 bytes instead of a full
/// event (~120 bytes for the simulator's `Ev`) — the heap was the
/// single largest memory-traffic source in the event loop. `(at, seq)`
/// is a total order (`seq` is unique), so pop order is exactly what the
/// payload-carrying heap produced.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // (breaking ties by insertion order) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list ordered by `(time, insertion sequence)`.
///
/// Ties in event time are broken by insertion order, which makes simulations
/// fully deterministic for a fixed seed.
///
/// # Examples
///
/// ```
/// use netrs_simcore::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(20), "later");
/// q.schedule_at(SimTime::from_nanos(10), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), ev), (10, "sooner"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// Event payloads, indexed by `Entry::idx`; freed slots recycle
    /// through `free`, so the slab stays at the queue's high-water size.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    popped: u64,
    now: SimTime,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            popped: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Deepest the pending-event list has ever been.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events ever scheduled (each `schedule_*` call is one push).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Events ever popped; `pushes() - pops()` is the pending count.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// An `at` earlier than the current time indicates a logic error in
    /// the caller: the event would fire "before" events that already ran,
    /// corrupting the timeline and the simulation's determinism. Debug
    /// builds panic; release builds clamp the event to `now` so the
    /// causal order of everything already processed still holds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule an event in the past: at={at}, now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(event);
                i
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Entry { at, seq, idx });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Schedules `event` at `now() + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.popped += 1;
        self.now = entry.at;
        let event = self.slab[entry.idx as usize]
            .take()
            .expect("every heap entry owns a live slab slot");
        self.free.push(entry.idx);
        Some((entry.at, event))
    }

    /// Returns the timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

/// Drives a [`World`] through its event queue.
///
/// The engine is generic over a [`Probe`] for instrumentation; the
/// default [`NoProbe`] makes every hook a no-op that compiles away, so an
/// uninstrumented engine pays nothing. See the
/// [crate-level documentation](crate) for a complete example.
pub struct Engine<W: World, P: Probe = NoProbe> {
    world: W,
    queue: EventQueue<W::Event>,
    processed: u64,
    probe: P,
    started: Instant,
}

impl<W: World> Engine<W> {
    /// Creates an engine around `world` with an empty queue at time zero
    /// and no instrumentation.
    pub fn new(world: W) -> Self {
        Engine::with_probe(world, NoProbe)
    }
}

impl<W: World, P: Probe> Engine<W, P> {
    /// Creates an engine that reports each processed event to `probe`.
    pub fn with_probe(world: W, probe: P) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            processed: 0,
            probe,
            started: Instant::now(),
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world state.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the event queue, e.g. for churn counters.
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Exclusive access to the event queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Shared access to the probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Exclusive access to the probe.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Consumes the engine and returns the world and the probe.
    pub fn into_parts(self) -> (W, P) {
        (self.world, self.probe)
    }

    /// The engine's self-measurement: events processed, queue-depth
    /// high-water mark, and wall-clock throughput since construction.
    #[must_use]
    pub fn profile(&self) -> EngineProfile {
        EngineProfile::capture(
            self.processed,
            self.queue.high_water(),
            self.queue.pushes(),
            self.queue.pops(),
            self.started,
        )
    }

    /// Processes a single event. Returns the time of the processed event, or
    /// `None` if the queue was empty.
    ///
    /// When the probe is kinded ([`Probe::KINDED`]) the engine asks
    /// [`Probe::sample_due`] whether to time this step; if so it brackets
    /// the whole step (pop, kind lookup, handler, `on_event`) between two
    /// `Instant` reads and hands the elapsed nanoseconds to
    /// [`Probe::on_event_kind`]. Pairing the reads around each sampled
    /// event — instead of attributing inter-sample gaps to the boundary
    /// event — keeps the per-kind estimate proportional to per-kind
    /// *cost*, not per-kind count. `KINDED` is an associated const, so
    /// for [`NoProbe`] every branch here folds away.
    pub fn step(&mut self) -> Option<SimTime> {
        let t0 = if P::KINDED && self.probe.sample_due() {
            Some(Instant::now())
        } else {
            None
        };
        let (at, event) = self.queue.pop()?;
        self.processed += 1;
        let kind = if P::KINDED { W::event_kind(&event) } else { 0 };
        self.world.handle(at, event, &mut self.queue);
        self.probe.on_event(at, self.queue.len());
        if P::KINDED {
            let sampled_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
            self.probe.on_event_kind(kind, sampled_ns);
        }
        Some(at)
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until the queue is empty or the next event would occur after
    /// `deadline` (events exactly at `deadline` are processed).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs while `keep_going` returns true (checked before each event) and
    /// events remain.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&W) -> bool) {
        while keep_going(&self.world) {
            if self.step().is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CollectingProbe;

    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now.as_nanos(), ev));
            if ev == 1 {
                // Handler-scheduled events interleave correctly.
                queue.schedule_after(SimDuration::from_nanos(5), 100);
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { seen: Vec::new() })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(30), 3);
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 1);
        e.queue_mut().schedule_at(SimTime::from_nanos(20), 2);
        e.run();
        assert_eq!(e.world().seen, vec![(10, 1), (15, 100), (20, 2), (30, 3)]);
        assert_eq!(e.processed(), 4);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = engine();
        // Start at 2 so no event triggers the handler's follow-up schedule.
        for ev in 2..102 {
            e.queue_mut().schedule_at(SimTime::from_nanos(7), ev);
        }
        e.run();
        let expected: Vec<(u64, u32)> = (2..102).map(|ev| (7, ev)).collect();
        assert_eq!(e.world().seen, expected);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut e = engine();
        for t in [5u64, 10, 15, 20] {
            e.queue_mut().schedule_at(SimTime::from_nanos(t), t as u32);
        }
        e.run_until(SimTime::from_nanos(15));
        assert_eq!(e.world().seen, vec![(5, 5), (10, 10), (15, 15)]);
        assert_eq!(e.queue_mut().len(), 1);
        // The clock does not advance past the last processed event.
        assert_eq!(e.now(), SimTime::from_nanos(15));
    }

    #[test]
    fn run_while_respects_predicate() {
        let mut e = engine();
        for t in 1..=10u64 {
            e.queue_mut().schedule_at(SimTime::from_nanos(t), 0);
        }
        e.run_while(|w| w.seen.len() < 4);
        assert_eq!(e.world().seen.len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(50), 1);
        e.step();
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_in_the_past_clamps_to_now() {
        // Regression guard: release builds must not let a past timestamp
        // fire out of order (it would corrupt the trace timeline).
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(50), 1);
        e.step();
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 2);
        e.run();
        // The late event fired at now (50), not in the causal past.
        assert_eq!(e.world().seen, vec![(50, 1), (50, 2), (55, 100)]);
    }

    #[test]
    fn empty_queue_reports_exhaustion() {
        let mut e = engine();
        assert!(e.step().is_none());
        assert!(e.queue_mut().is_empty());
        assert_eq!(e.queue_mut().peek_time(), None);
    }

    #[test]
    fn queue_tracks_high_water_mark() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for t in [10u64, 20, 30] {
            q.schedule_at(SimTime::from_nanos(t), 0);
        }
        assert_eq!(q.high_water(), 3);
        let _ = q.pop();
        let _ = q.pop();
        q.schedule_at(SimTime::from_nanos(40), 0);
        // Draining and refilling below the peak does not move the mark.
        assert_eq!(q.high_water(), 3);
        // Churn counters: 4 schedules, 2 pops, difference is pending.
        assert_eq!(q.pushes(), 4);
        assert_eq!(q.pops(), 2);
        assert_eq!((q.pushes() - q.pops()) as usize, q.len());
    }

    #[test]
    fn tie_storm_interleaved_with_pops_preserves_insertion_order() {
        // Many events at ONE timestamp, with pops interleaved between the
        // schedules: insertion order must survive the heap churn exactly.
        let t = SimTime::from_nanos(100);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut popped = Vec::new();
        let mut next_id = 0u32;
        // Alternate bursts of schedules with partial drains.
        for burst in 0..20 {
            for _ in 0..burst + 1 {
                q.schedule_at(t, next_id);
                next_id += 1;
            }
            for _ in 0..burst / 2 {
                let (at, id) = q.pop().unwrap();
                assert_eq!(at, t);
                popped.push(id);
            }
        }
        while let Some((_, id)) = q.pop() {
            popped.push(id);
        }
        let expected: Vec<u32> = (0..next_id).collect();
        assert_eq!(popped, expected, "tie-storm must pop in insertion order");
    }

    #[test]
    fn slab_reuses_slots_after_heavy_churn() {
        // Push/pop far more events than are ever simultaneously pending:
        // the payload slab must stay at the high-water size, recycling
        // freed slots instead of growing without bound.
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..4 {
                q.schedule_at(SimTime::from_nanos(round * 10 + i), round * 4 + i);
            }
            for _ in 0..4 {
                let _ = q.pop().unwrap();
            }
        }
        assert_eq!(q.pushes(), 4_000);
        assert_eq!(q.pops(), 4_000);
        assert_eq!(q.high_water(), 4);
        assert!(
            q.slab.len() <= q.high_water(),
            "slab grew to {} slots with a high-water of {}",
            q.slab.len(),
            q.high_water()
        );
        assert_eq!(q.free.len(), q.slab.len(), "all slots free after drain");
    }

    #[test]
    fn probe_observes_every_event_and_profile_matches() {
        let mut e = Engine::with_probe(Recorder { seen: Vec::new() }, CollectingProbe::new());
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 1);
        e.queue_mut().schedule_at(SimTime::from_nanos(20), 2);
        e.run();
        // 1 schedules a follow-up, so three events total.
        assert_eq!(e.probe().events, 3);
        assert!(e.probe().max_queue_depth >= 1);
        let profile = e.profile();
        assert_eq!(profile.events, 3);
        assert_eq!(profile.queue_high_water, 2);
        assert_eq!(profile.pushes, 3);
        assert_eq!(profile.pops, 3);
        assert!(profile.wall_seconds >= 0.0);
        let (world, probe) = e.into_parts();
        assert_eq!(world.seen.len(), 3);
        assert_eq!(probe.events, 3);
    }
}
