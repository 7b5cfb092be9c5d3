//! A hierarchical timer wheel: the simulator's default event queue.
//!
//! The seed drove every event through a `BinaryHeap` — O(log n) per
//! operation with poor cache behaviour once tens of thousands of events
//! are pending (FatTree-128 runs). This wheel gives O(1) amortized push
//! and pop while preserving the **exact** `(at, seq)` pop order of the
//! heap, which is what keeps runs bit-for-bit deterministic (the
//! differential property test in `event.rs` pins this down).
//!
//! Layout, following the classic hashed hierarchical wheel (Varghese &
//! Lauck) as used by production timer subsystems (Linux, s2n-quic):
//!
//! * time is bucketed into ticks of `2^GRAN_BITS` ns (1.024 µs);
//! * `LEVELS` levels of 64 slots each; level `L` spans `64^(L+1)` ticks,
//!   so the whole wheel covers ≈ 19.5 hours of simulated time, with a
//!   far-future overflow list beyond that (RTO backoff caps at seconds,
//!   so the overflow is effectively never used by real workloads);
//! * events live in a **slab** of nodes with an intrusive free list —
//!   after warm-up the steady state allocates nothing per event;
//! * each level keeps a 64-bit occupancy bitmap, so finding the next
//!   non-empty slot is a rotate + trailing-zeros, never a scan;
//! * slots hold unsorted intrusive lists; when the cursor reaches a
//!   level-0 slot (which corresponds to exactly one tick) the slot is
//!   drained into a scratch bucket and sorted **descending** by
//!   `(at, seq)` so pops are `Vec::pop` from the back. Events pushed
//!   into the current tick while it drains are inserted in order;
//! * each slot also records the minimum tick of its entries
//!   (`slot_min`), so the next event is found without walking any list.
//!
//! Exactness argument: a level-0 slot within the active 64-tick window
//! maps to a single tick value, so sorting one bucket recovers the exact
//! global order — earlier ticks were already drained, later ticks sort
//! after, and the cursor never moves past a tick that still holds an
//! event (higher-level slots whose range starts at or before the next
//! level-0 candidate are cascaded down first).
//!
//! The cursor can, however, come to rest *inside* an occupied coarse
//! slot without cascading it. When a finer slot and a coarse slot start
//! on the same tick, the tie goes to the finer level, and its cascade
//! moves the cursor to that shared start — which is also inside the
//! coarse slot, whose entries may all lie much later (FatTree runs park
//! ~1,000 one-second initial RTO timers in one level-3 slot this way).
//! That "cursor's own slot" is not cascaded until its earliest entry is
//! due, so its range start is no longer a useful bound. Its candidate is
//! its exact minimum tick instead, read from `slot_min`.
//!
//! `slot_min` invariant: for every occupied slot (occupancy bit set),
//! `slot_min[level][slot]` is the minimum tick of the entries in that
//! slot. Entries leave a slot only all at once (`take_slot`), so `insert`
//! alone maintains it: it sets the minimum when the slot was empty and
//! lowers it when the new tick is earlier. For an empty slot the value is
//! stale and never read.

use crate::event::{Event, EventKind};
use crate::time::SimTime;

/// log2 of the level-0 tick width in nanoseconds.
const GRAN_BITS: u32 = 10;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel spans `64^LEVELS` ticks.
const LEVELS: usize = 6;
/// Null index in the node slab.
const NIL: u32 = u32::MAX;

/// Ticks covered by one slot of `level`.
const fn slot_width(level: usize) -> u64 {
    1 << (SLOT_BITS as u64 * level as u64)
}

/// Ticks covered by the whole of `level` (64 slots).
const fn level_span(level: usize) -> u64 {
    1 << (SLOT_BITS as u64 * (level as u64 + 1))
}

/// Total ticks the wheel can hold relative to its cursor.
const WHEEL_SPAN: u64 = level_span(LEVELS - 1);

#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    seq: u64,
    kind: EventKind,
    next: u32,
}

/// Where the earliest pending event can be, level by level (ticks).
#[derive(Debug, Clone, Copy)]
struct Candidates {
    /// The minimum tick of any level-0 event (exact).
    c0: Option<u64>,
    /// The most promising higher-level slot, as `(lower bound, level)`.
    upper: Option<(u64, usize)>,
    /// The minimum tick in the overflow list (exact).
    overflow_min: Option<u64>,
}

impl Candidates {
    /// The earliest tick any pending event can fire: every candidate is a
    /// lower bound, and `c0` and `overflow_min` are exact.
    fn floor(&self) -> Option<u64> {
        [self.c0, self.upper.map(|(b, _)| b), self.overflow_min].into_iter().flatten().min()
    }
}

/// The timer wheel. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    /// Intrusive singly-linked slot heads, indexed `[level][slot]`.
    slots: [[u32; SLOTS]; LEVELS],
    /// Per-level slot occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Minimum entry tick of each occupied slot (stale while the slot's
    /// occupancy bit is clear).
    slot_min: [[u64; SLOTS]; LEVELS],
    /// Node slab; freed nodes are chained through `next`.
    nodes: Vec<Node>,
    /// Head of the slab free list.
    free: u32,
    /// Current tick: `cur` holds the events of exactly this tick, and
    /// every event in the wheel has tick ≥ `origin`.
    origin: u64,
    /// Drain bucket for the current tick, sorted descending by
    /// `(at, seq)` so the next event to fire is at the back.
    cur: Vec<(SimTime, u64, EventKind)>,
    /// Events beyond the wheel span, kept unsorted (rare).
    overflow: Vec<(SimTime, u64, EventKind)>,
    /// Total events pending.
    len: usize,
    /// Coarse slots cascaded down so far.
    cascades: u64,
    /// Nodes those cascades re-inserted.
    cascaded_events: u64,
}

fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> GRAN_BITS
}

impl TimerWheel {
    pub fn new() -> Self {
        TimerWheel {
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            slot_min: [[0; SLOTS]; LEVELS],
            nodes: Vec::with_capacity(1024),
            free: NIL,
            origin: 0,
            cur: Vec::with_capacity(64),
            overflow: Vec::new(),
            len: 0,
            cascades: 0,
            cascaded_events: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// `(coarse slots cascaded, nodes those cascades re-inserted)` so far.
    /// Each node lands at a lower level, except an entry a full revolution
    /// ahead of the cursor's own slot, which returns to its level.
    pub fn cascades(&self) -> (u64, u64) {
        (self.cascades, self.cascaded_events)
    }

    pub fn push(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        self.len += 1;
        self.insert(at, seq, kind);
    }

    /// Pop the earliest event if it fires at or before `horizon`.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<Event> {
        loop {
            if let Some(&(at, _seq, _)) = self.cur.last() {
                if at <= horizon {
                    let (at, seq, kind) = self.cur.pop().expect("just peeked");
                    self.len -= 1;
                    return Some(Event { at, seq, kind });
                }
                return None;
            }
            if !self.advance(tick_of(horizon)) {
                return None;
            }
        }
    }

    /// Route one event to the drain bucket, a wheel slot, or the
    /// overflow list, based on its tick distance from the cursor.
    fn insert(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        let t = tick_of(at);
        debug_assert!(t >= self.origin, "event scheduled before the wheel cursor");
        let delta = t.saturating_sub(self.origin);
        if delta == 0 {
            // Lands in the tick currently draining: insert in descending
            // (at, seq) position so pop order stays exact.
            let idx = self.cur.partition_point(|&(a, s, _)| (a, s) > (at, seq));
            self.cur.insert(idx, (at, seq, kind));
            return;
        }
        if delta >= WHEEL_SPAN {
            self.overflow.push((at, seq, kind));
            return;
        }
        let level = (0..LEVELS)
            .find(|&l| delta < level_span(l))
            .expect("delta < WHEEL_SPAN");
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = self.slots[level][slot];
        let node = Node { at, seq, kind, next: head };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.slots[level][slot] = idx;
        let bit = 1u64 << slot;
        let min = &mut self.slot_min[level][slot];
        if self.occupied[level] & bit == 0 || t < *min {
            *min = t;
        }
        self.occupied[level] |= bit;
    }

    /// Unlink a slot's list, returning its head (slot marked empty).
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.slots[level][slot];
        self.slots[level][slot] = NIL;
        self.occupied[level] &= !(1 << slot);
        head
    }

    /// The minimum tick of any level-0 event. Exact: within the live
    /// window every level-0 slot holds exactly one tick value, and bit
    /// `(origin + delta) mod 64` is at rotated position `delta`.
    fn level0_candidate(&self) -> Option<u64> {
        let occ = self.occupied[0];
        if occ == 0 {
            return None;
        }
        let o = (self.origin & (SLOTS as u64 - 1)) as u32;
        let delta = occ.rotate_right(o).trailing_zeros() as u64;
        Some(self.origin + delta)
    }

    /// A lower bound on the event ticks in `level` (≥ 1): the range start
    /// of its first occupied slot at or after the cursor. For the slot the
    /// cursor currently sits in the range start lies in the past and the
    /// slot may even hold events a full wheel revolution ahead, so that
    /// one slot contributes its exact minimum tick (`slot_min`) instead.
    fn level_candidate(&self, level: usize) -> Option<u64> {
        let occ = self.occupied[level];
        if occ == 0 {
            return None;
        }
        let width = slot_width(level);
        let shift = SLOT_BITS * level as u32;
        let o_slot = ((self.origin >> shift) & (SLOTS as u64 - 1)) as u32;
        let rotated = occ.rotate_right(o_slot);
        let mut best = u64::MAX;
        if rotated & 1 == 1 {
            // The cursor's own slot. Its minimum can be *later* than the
            // next occupied slot's range start (it may hold events a
            // revolution ahead), so the other slots are still considered
            // below.
            best = self.slot_min[level][o_slot as usize];
            debug_assert!(best >= self.origin);
        }
        let rest = rotated & !1;
        if rest != 0 {
            let slot_delta = rest.trailing_zeros() as u64;
            best = best.min((self.origin & !(width - 1)) + slot_delta * width);
        }
        Some(best)
    }

    /// Whether the cursor sits inside an occupied slot of `level` — the
    /// parked state `slot_min` answers for.
    #[cfg(test)]
    pub(crate) fn cursor_slot_occupied(&self, level: usize) -> bool {
        let slot = (self.origin >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1);
        self.occupied[level] & (1 << slot) != 0
    }

    /// The per-level candidates `advance` chooses among, without moving
    /// anything.
    fn candidates(&self) -> Candidates {
        let c0 = self.level0_candidate();
        let mut upper: Option<(u64, usize)> = None;
        for level in 1..LEVELS {
            if let Some(c) = self.level_candidate(level) {
                if upper.is_none_or(|(b, _)| c < b) {
                    upper = Some((c, level));
                }
            }
        }
        let overflow_min = self.overflow.iter().map(|&(at, _, _)| tick_of(at)).min();
        Candidates { c0, upper, overflow_min }
    }

    /// A lower bound on the `at` of the next event to pop, or `None` when
    /// the wheel is empty. Exact while the drain bucket holds the current
    /// tick; otherwise the start of the tick [`Candidates::floor`] names,
    /// which may lie up to one coarse slot before the event itself (the
    /// slot cascades, and the bound tightens, once a pop reaches it).
    pub fn next_floor(&self) -> Option<SimTime> {
        if let Some(&(at, _, _)) = self.cur.last() {
            return Some(at);
        }
        self.candidates().floor().map(|tick| SimTime(tick << GRAN_BITS))
    }

    /// Advance the cursor to the next occupied tick ≤ `h_tick` and load
    /// its events into the drain bucket. Returns `false` (leaving the
    /// cursor at `h_tick` at most) when no event fires by the horizon.
    fn advance(&mut self, h_tick: u64) -> bool {
        debug_assert!(self.cur.is_empty());
        loop {
            let cands = self.candidates();
            let Candidates { c0, upper, overflow_min } = cands;
            let floor = cands.floor();

            if !self.cur.is_empty() {
                // A cascade below dropped events of tick == origin into the
                // bucket. Done once no other slot can contribute that tick.
                if floor.is_none_or(|f| f > self.origin) {
                    return true;
                }
            }
            let Some(floor) = floor else {
                // Queue is empty: park the cursor at the horizon so later
                // pushes (which are ≥ now) stay ahead of it.
                self.origin = self.origin.max(h_tick);
                return false;
            };
            if floor > h_tick {
                self.origin = self.origin.max(h_tick);
                return false;
            }

            if let Some(m) = overflow_min {
                if m <= floor {
                    // Pull the far future closer: move the cursor to the
                    // overflow's first tick and re-route what now fits.
                    self.origin = self.origin.max(m);
                    let pending = std::mem::take(&mut self.overflow);
                    for (at, seq, kind) in pending {
                        self.insert(at, seq, kind);
                    }
                    continue;
                }
            }
            if let Some((base, level)) = upper {
                if c0.is_none_or(|c| base <= c) {
                    // A coarser slot starts at or before the level-0
                    // candidate: cascade it down before firing anything.
                    // (Events landing at tick == base go straight to the
                    // drain bucket via `insert`.)
                    self.origin = self.origin.max(base);
                    let slot = ((base >> (SLOT_BITS * level as u32))
                        & (SLOTS as u64 - 1)) as usize;
                    let mut node = self.take_slot(level, slot);
                    self.cascades += 1;
                    while node != NIL {
                        let Node { at, seq, kind, next } = self.nodes[node as usize];
                        self.nodes[node as usize].next = self.free;
                        self.free = node;
                        self.insert(at, seq, kind);
                        self.cascaded_events += 1;
                        node = next;
                    }
                    continue;
                }
            }

            // The level-0 candidate is the true next tick: drain it,
            // merging with any same-tick events a cascade already placed.
            let tick = c0.expect("floor ≤ h_tick and no earlier coarse slot");
            debug_assert!(self.cur.is_empty() || tick == self.origin);
            self.origin = tick;
            let slot = (tick & (SLOTS as u64 - 1)) as usize;
            let mut node = self.take_slot(0, slot);
            while node != NIL {
                let Node { at, seq, kind, next } = self.nodes[node as usize];
                self.nodes[node as usize].next = self.free;
                self.free = node;
                debug_assert_eq!(tick_of(at), tick);
                self.cur.push((at, seq, kind));
                node = next;
            }
            // Descending, so the earliest (at, seq) pops from the back.
            self.cur.sort_unstable_by_key(|&(a, s, _)| std::cmp::Reverse((a, s)));
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop_before(SimTime::MAX).map(|e| (e.at.as_nanos(), e.seq)))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        let times = [5_000u64, 1_000, 3_000, 1_000, 7_919_999, 64 * 1024, 1_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            w.push(SimTime(t), seq as u64, EventKind::ConnStart { conn: seq });
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_tick_bursts_fire_in_seq_order() {
        let mut w = TimerWheel::new();
        // All in one 1.024 µs tick but with distinct nanosecond times.
        for seq in 0..100u64 {
            w.push(SimTime(500 + (seq % 7)), seq, EventKind::ConnStart { conn: 0 });
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = (0..100u64).map(|s| (500 + (s % 7), s)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_overflow_events_come_back() {
        let mut w = TimerWheel::new();
        let far = SimTime::from_secs(100_000); // beyond the wheel span
        w.push(far, 0, EventKind::ConnStart { conn: 1 });
        w.push(SimTime::from_millis(1), 1, EventKind::ConnStart { conn: 2 });
        assert_eq!(w.pop_before(SimTime::from_secs(1)).map(|e| e.seq), Some(1));
        assert_eq!(w.pop_before(SimTime::from_secs(1)), None);
        assert_eq!(w.pop_before(SimTime::MAX).map(|e| e.seq), Some(0));
    }

    #[test]
    fn horizon_bounded_cursor_allows_later_near_pushes() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(5), 0, EventKind::ConnStart { conn: 0 });
        // Nothing before 1 s; the cursor must not run past the horizon...
        assert!(w.pop_before(SimTime::from_secs(1)).is_none());
        // ...so a push at 2 s (later "now" is 1 s) still works and pops first.
        w.push(SimTime::from_secs(2), 1, EventKind::ConnStart { conn: 1 });
        let got = drain(&mut w);
        assert_eq!(got, vec![(SimTime::from_secs(2).as_nanos(), 1), (SimTime::from_secs(5).as_nanos(), 0)]);
    }

    #[test]
    fn interleaved_push_pop_with_current_tick_inserts() {
        let mut w = TimerWheel::new();
        w.push(SimTime(100), 0, EventKind::ConnStart { conn: 0 });
        w.push(SimTime(200), 1, EventKind::ConnStart { conn: 1 });
        let first = w.pop_before(SimTime::MAX).unwrap();
        assert_eq!(first.seq, 0);
        // Push into the tick currently draining (tick 0 covers 0..1024 ns).
        w.push(SimTime(150), 2, EventKind::ConnStart { conn: 2 });
        w.push(SimTime(120), 3, EventKind::ConnStart { conn: 3 });
        let rest = drain(&mut w);
        assert_eq!(rest, vec![(120, 3), (150, 2), (200, 1)]);
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut w = TimerWheel::new();
        for round in 0..50u64 {
            for i in 0..100u64 {
                w.push(SimTime(round * 1_000_000 + i * 900), round * 100 + i,
                    EventKind::ConnStart { conn: 0 });
            }
            // Drain with a bounded horizon so the cursor stays behind the
            // next round's pushes (the simulator's `now` contract).
            while w.pop_before(SimTime(round * 1_000_000 + 500_000)).is_some() {}
        }
        // 100 live events at a time → the slab never needs more than the
        // high-water mark even over 5000 total events.
        assert!(w.nodes.len() <= 128, "slab grew to {}", w.nodes.len());
    }
}
