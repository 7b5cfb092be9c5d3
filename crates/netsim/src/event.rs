//! The discrete-event queue.
//!
//! Two interchangeable backends sit behind [`EventQueue`]:
//!
//! * [`QueueBackend::TimerWheel`] (default) — the hierarchical timer wheel
//!   in [`crate::wheel`], O(1) amortized push/pop;
//! * [`QueueBackend::BinaryHeap`] — the original `BinaryHeap` future-event
//!   list, kept as the reference implementation for differential testing
//!   and for benchmarking the wheel against.
//!
//! Both produce the **same** pop order — ascending `(at, seq)` — which is
//! the determinism contract the whole simulator rests on. The property
//! tests at the bottom of this file drive both backends with identical
//! random schedules (including far-future RTO-style deadlines and bursts
//! of events in one wheel tick) and require identical pop sequences.

use crate::cbr::CbrId;
use crate::link::LinkId;
use crate::packet::Packet;
use crate::sim::ConnId;
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::tcp::SackRanges;

/// Selects the data structure behind the simulator's event queue.
///
/// Both backends are observationally identical (bit-for-bit identical runs
/// for a fixed seed); they differ only in speed. The default is the timer
/// wheel unless the crate is built with the `heap-queue` feature, which
/// flips the default back to the binary heap (useful for A/B timing runs
/// and as an escape hatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// Hierarchical timer wheel: O(1) amortized, allocation-free steady
    /// state. The default.
    TimerWheel,
    /// `std::collections::BinaryHeap` future-event list: O(log n), the
    /// seed implementation, kept as the reference for differential tests.
    BinaryHeap,
}

impl Default for QueueBackend {
    fn default() -> Self {
        if cfg!(feature = "heap-queue") {
            QueueBackend::BinaryHeap
        } else {
            QueueBackend::TimerWheel
        }
    }
}

impl QueueBackend {
    /// Short stable name, used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::TimerWheel => "wheel",
            QueueBackend::BinaryHeap => "heap",
        }
    }
}

/// Information carried by an ACK back to the sender. The ACK's content is
/// fixed at the moment the receiver generates it, so it is computed at
/// delivery time and carried in the event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckInfo {
    /// Receiver's cumulative ACK: the next subflow sequence number expected.
    pub cum: u64,
    /// Selective acknowledgment ranges above the cumulative point.
    pub sacks: SackRanges,
}

/// Everything that can happen in the simulated world.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A link finished serializing the packet in service.
    TxDone { link: LinkId },
    /// A packet finished propagating and arrives at `pkt.hop` of its path
    /// (or at the destination if the path is exhausted).
    Arrive { pkt: Packet },
    /// An ACK reaches the sender of `conn`/`sub`. The ACK's content (fixed
    /// at delivery time) lives in the simulator's [`AckInfo`] pool; `ack`
    /// is its slot index, freed when the event is dispatched. Carrying the
    /// 4-byte slot instead of the ~100-byte `AckInfo` inline keeps every
    /// queued `Event` small, which matters because the timer wheel copies
    /// events between slabs as time advances.
    AckArrive { conn: ConnId, sub: usize, ack: u32 },
    /// A retransmission-timer event. Timers are lazy: at most one event is
    /// pending per subflow, and a firing that arrives before the current
    /// deadline simply re-schedules itself — this keeps the event queue at
    /// O(subflows) instead of one stale entry per ACK.
    RtoFire { conn: ConnId, sub: usize },
    /// A connection begins transmitting.
    ConnStart { conn: ConnId },
    /// A finished connection's hot arena window is recycled (flow
    /// lifecycle mode only — see [`crate::Simulator::set_flow_lifecycle`]).
    /// Scheduled one straggler-grace period after the transfer completed,
    /// so every in-flight packet, ACK and stale timer for the flow has
    /// drained before its slots are handed to another connection.
    ConnRetire { conn: ConnId },
    /// A CBR source emits its next packet.
    CbrSend { src: CbrId, gen: u64 },
    /// A CBR source toggles between its on and off states.
    CbrToggle { src: CbrId },
    /// A scripted fault fires: `idx` indexes the simulator's installed
    /// fault-action table (see [`crate::Simulator::install_fault_plan`]).
    /// Faults are ordinary events, so they execute at their exact time in
    /// deterministic order with everything else — never "between steps".
    Fault { idx: usize },
    /// The telemetry probe samples the world and re-schedules itself (see
    /// [`crate::Simulator::enable_probe`]). Sampling draws no randomness
    /// and emits no packets, so the tick cannot perturb packet history.
    ProbeTick,
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    /// Monotonic tie-breaker: simultaneous events fire in insertion order,
    /// making runs fully deterministic.
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
enum BackendImpl {
    // Boxed: the wheel's slot array is ~2.5 KiB, the heap variant 24 bytes.
    Wheel(Box<TimerWheel>),
    Heap(BinaryHeap<Event>),
}

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue {
    backend: BackendImpl,
    next_seq: u64,
    /// Total events ever pushed.
    scheduled: u64,
    /// High-water mark of pending events.
    peak_pending: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::with_backend(QueueBackend::default())
    }
}

impl EventQueue {
    pub fn with_backend(backend: QueueBackend) -> Self {
        let backend = match backend {
            QueueBackend::TimerWheel => BackendImpl::Wheel(Box::new(TimerWheel::new())),
            QueueBackend::BinaryHeap => BackendImpl::Heap(BinaryHeap::new()),
        };
        EventQueue { backend, next_seq: 0, scheduled: 0, peak_pending: 0 }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            BackendImpl::Wheel(_) => QueueBackend::TimerWheel,
            BackendImpl::Heap(_) => QueueBackend::BinaryHeap,
        }
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        match &mut self.backend {
            BackendImpl::Wheel(w) => w.push(at, seq, kind),
            BackendImpl::Heap(h) => h.push(Event { at, seq, kind }),
        }
        let pending = self.len();
        if pending > self.peak_pending {
            self.peak_pending = pending;
        }
    }

    /// Pop the next event at or before `horizon`, if any.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<Event> {
        match &mut self.backend {
            BackendImpl::Wheel(w) => w.pop_before(horizon),
            BackendImpl::Heap(h) => {
                if h.peek().is_some_and(|e| e.at <= horizon) {
                    h.pop()
                } else {
                    None
                }
            }
        }
    }

    /// A lower bound on the `at` of the next event [`Self::pop_before`]
    /// would return, without popping it; `None` exactly when the queue is
    /// empty. Exact on the heap; on the wheel it may undershoot by up to
    /// one coarse slot until the slot cascades (see
    /// [`TimerWheel::next_floor`]).
    pub fn next_floor(&self) -> Option<SimTime> {
        match &self.backend {
            BackendImpl::Wheel(w) => w.next_floor(),
            BackendImpl::Heap(h) => h.peek().map(|e| e.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            BackendImpl::Wheel(w) => w.len(),
            BackendImpl::Heap(h) => h.len(),
        }
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// High-water mark of simultaneously pending events.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }
}

/// Scheduler-only micro-benchmark: hold `pending` events resident and do
/// `ops` pop-then-push steps (each pop re-schedules one event a pseudo-random
/// RTT-scale delta ahead), returning the wall time of the churn loop.
///
/// This isolates the event queue from the rest of the simulator so the
/// wheel-vs-heap comparison is not diluted by per-event TCP processing;
/// `benches/sim_micro.rs` reports both this and the end-to-end numbers.
/// The schedule is deterministic (internal xorshift), so both backends see
/// the identical workload.
pub fn queue_churn(backend: QueueBackend, pending: usize, ops: u64) -> std::time::Duration {
    let mut q = EventQueue::with_backend(backend);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Deltas up to 100 ms spread events across several wheel levels, like
    // the mix of serialization, propagation and RTO timers in a real run.
    const SPREAD: u64 = 100_000_000;
    for _ in 0..pending {
        q.push(SimTime(next() % SPREAD), EventKind::ConnStart { conn: 0 });
    }
    let started = crate::perf::wall_clock();
    for _ in 0..ops {
        let e = q.pop_before(SimTime::MAX).expect("queue stays at `pending` events");
        q.push(SimTime(e.at.as_nanos() + 1 + next() % SPREAD), EventKind::ConnStart { conn: 0 });
    }
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn both_backends() -> [EventQueue; 2] {
        [
            EventQueue::with_backend(QueueBackend::TimerWheel),
            EventQueue::with_backend(QueueBackend::BinaryHeap),
        ]
    }

    #[test]
    fn events_pop_in_time_order() {
        for mut q in both_backends() {
            q.push(SimTime::from_millis(5), EventKind::ConnStart { conn: 0 });
            q.push(SimTime::from_millis(1), EventKind::ConnStart { conn: 1 });
            q.push(SimTime::from_millis(3), EventKind::ConnStart { conn: 2 });
            let order: Vec<SimTime> =
                std::iter::from_fn(|| q.pop_before(SimTime::MAX).map(|e| e.at)).collect();
            assert_eq!(
                order,
                vec![SimTime::from_millis(1), SimTime::from_millis(3), SimTime::from_millis(5)]
            );
        }
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        for mut q in both_backends() {
            let t = SimTime::from_millis(1);
            for conn in 0..10 {
                q.push(t, EventKind::ConnStart { conn });
            }
            let mut seen = Vec::new();
            while let Some(e) = q.pop_before(SimTime::MAX) {
                if let EventKind::ConnStart { conn } = e.kind {
                    seen.push(conn);
                }
            }
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pop_respects_horizon() {
        // Satellite regression: an event exactly AT the horizon pops; one
        // nanosecond past it does not — on both backends.
        for mut q in both_backends() {
            let backend = q.backend();
            q.push(SimTime::from_millis(10), EventKind::ConnStart { conn: 0 });
            assert!(
                q.pop_before(SimTime::from_millis(5)).is_none(),
                "{}: early horizon must not pop",
                backend.name()
            );
            assert_eq!(q.len(), 1);
            assert!(
                q.pop_before(SimTime::from_millis(10)).is_some(),
                "{}: event exactly at the horizon must pop",
                backend.name()
            );
        }
        for mut q in both_backends() {
            let backend = q.backend();
            let at = SimTime::from_millis(10);
            q.push(at, EventKind::ConnStart { conn: 0 });
            let just_before = SimTime(at.as_nanos() - 1);
            assert!(
                q.pop_before(just_before).is_none(),
                "{}: horizon 1 ns short must not pop",
                backend.name()
            );
            assert!(q.pop_before(at).is_some(), "{}", backend.name());
            assert!(q.pop_before(SimTime::MAX).is_none());
        }
    }

    #[test]
    fn default_backend_tracks_feature_flag() {
        let expect = if cfg!(feature = "heap-queue") {
            QueueBackend::BinaryHeap
        } else {
            QueueBackend::TimerWheel
        };
        assert_eq!(QueueBackend::default(), expect);
        assert_eq!(EventQueue::default().backend(), expect);
    }

    #[test]
    fn counters_track_scheduled_and_peak() {
        for mut q in both_backends() {
            for i in 0..5u64 {
                q.push(SimTime(i * 100), EventKind::ConnStart { conn: 0 });
            }
            for _ in 0..3 {
                q.pop_before(SimTime::MAX);
            }
            q.push(SimTime(1_000), EventKind::ConnStart { conn: 0 });
            assert_eq!(q.scheduled(), 6);
            assert_eq!(q.peak_pending(), 5);
            assert_eq!(q.len(), 3);
        }
    }

    /// One step of a random schedule: push an event at `now + delta`, or
    /// pop everything up to a horizon `delta` from now.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push { delta: u64 },
        PopUntil { delta: u64 },
    }

    fn op_strategy() -> BoxedStrategy<Op> {
        prop_oneof![
            // Mostly near-term deltas (sub-tick to a few ms)...
            (0u64..5_000_000).prop_map(|delta| Op::Push { delta }),
            // ...same-tick bursts (several events inside one 1.024 µs tick),
            (0u64..1_024).prop_map(|delta| Op::Push { delta }),
            // ...far-future RTO-style deadlines (up to 60 s and beyond the
            // wheel span at ~19 h),
            (0u64..80_000_000_000_000).prop_map(|delta| Op::Push { delta }),
            // ...and pops that advance simulated time.
            (0u64..10_000_000).prop_map(|delta| Op::PopUntil { delta }),
        ]
        .boxed()
    }

    /// The peek contract at one step of a schedule: a floor exists exactly
    /// when events are pending, and the wheel's floor never exceeds the
    /// heap's. Returns the heap's floor, which the caller checks is the
    /// exact `at` of the next event to pop.
    fn check_floors(
        wheel: &EventQueue,
        heap: &EventQueue,
    ) -> Result<Option<SimTime>, TestCaseError> {
        let (w, h) = (wheel.next_floor(), heap.next_floor());
        prop_assert_eq!(w.is_none(), wheel.len() == 0);
        prop_assert_eq!(h.is_none(), heap.len() == 0);
        if let (Some(w), Some(h)) = (w, h) {
            prop_assert!(w <= h, "wheel floor {w:?} above the next event at {h:?}");
        }
        Ok(h)
    }

    proptest! {
        /// Differential test: the wheel pops the exact same (at, seq)
        /// sequence as the reference heap under arbitrary interleavings of
        /// pushes and horizon-bounded pops, and at every step `next_floor`
        /// bounds (wheel) or equals (heap) the `at` of the next pop.
        #[test]
        fn wheel_matches_heap_pop_order(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mut wheel = EventQueue::with_backend(QueueBackend::TimerWheel);
            let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
            // Simulated "now": pushes are never scheduled in the past,
            // matching the simulator's contract.
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::Push { delta } => {
                        let at = SimTime(now + delta);
                        wheel.push(at, EventKind::ConnStart { conn: 0 });
                        heap.push(at, EventKind::ConnStart { conn: 0 });
                        check_floors(&wheel, &heap)?;
                    }
                    Op::PopUntil { delta } => {
                        let horizon = SimTime(now + delta);
                        loop {
                            let next = check_floors(&wheel, &heap)?;
                            let a = wheel.pop_before(horizon);
                            let b = heap.pop_before(horizon);
                            prop_assert_eq!(
                                a.as_ref().map(|e| (e.at, e.seq)),
                                b.as_ref().map(|e| (e.at, e.seq))
                            );
                            match a {
                                Some(e) => {
                                    prop_assert_eq!(next, Some(e.at));
                                    now = now.max(e.at.as_nanos());
                                }
                                None => break,
                            }
                        }
                        now = now.max(horizon.as_nanos());
                    }
                }
            }
            // Drain both fully; the tails must agree too.
            loop {
                let next = check_floors(&wheel, &heap)?;
                let a = wheel.pop_before(SimTime::MAX);
                let b = heap.pop_before(SimTime::MAX);
                prop_assert_eq!(
                    a.as_ref().map(|e| (e.at, e.seq)),
                    b.as_ref().map(|e| (e.at, e.seq))
                );
                let Some(e) = a else { break };
                prop_assert_eq!(next, Some(e.at));
            }
            prop_assert_eq!(wheel.len(), 0);
            prop_assert_eq!(heap.len(), 0);
        }
    }

    /// The wheel copies events between slabs as time advances, so `Event`
    /// size is a real throughput knob. `AckArrive` must carry its pool
    /// slot, never an inline `AckInfo` (which alone is bigger than this
    /// whole bound).
    #[test]
    fn queued_events_stay_small() {
        assert!(std::mem::size_of::<AckInfo>() > 64, "payload belongs in the pool");
        let sz = std::mem::size_of::<Event>();
        assert!(sz <= 72, "Event grew to {sz} bytes; keep it lean");
    }

    /// Regression pinned from a proptest shrink: two horizon-bounded pops
    /// park the wheel cursor mid-slot, then two pushes land one event in the
    /// cursor's own level-1 slot (one revolution ahead in rotation order)
    /// and one in a later slot with an earlier tick. A candidate search that
    /// stopped at the cursor's slot skipped the second event entirely.
    #[test]
    fn cursor_slot_does_not_shadow_later_slots() {
        let mut wheel = EventQueue::with_backend(QueueBackend::TimerWheel);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        assert!(wheel.pop_before(SimTime(180_074)).is_none());
        assert!(wheel.pop_before(SimTime(6_203_118)).is_none());
        for at in [SimTime(10_396_556), SimTime(9_002_129)] {
            wheel.push(at, EventKind::ConnStart { conn: 0 });
            heap.push(at, EventKind::ConnStart { conn: 0 });
        }
        loop {
            let a = wheel.pop_before(SimTime::MAX);
            let b = heap.pop_before(SimTime::MAX);
            assert_eq!(
                a.as_ref().map(|e| (e.at, e.seq)),
                b.as_ref().map(|e| (e.at, e.seq))
            );
            if a.is_none() {
                break;
            }
        }
    }
}
