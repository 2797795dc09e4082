//! Deterministic discrete-event scheduling for the fleet runtime.
//!
//! The lockstep fleet loop touches every stream on every tick: admission
//! scans all N streams even when most of them are drained or waiting, and
//! scripted faults are polled once per frame whether or not an edge is due.
//! This module provides the alternative backbone: a priority queue of typed
//! events ([`EventQueue`]) that the event-driven [`FleetRuntime`](crate::fleet::FleetRuntime)
//! pops in a
//! **total, deterministic order**, so that only streams with work pending
//! cost anything and fault edges fire exactly when scripted.
//!
//! # Ordering contract
//!
//! Events are ordered by [`EventKey`] — the lexicographic tuple
//!
//! ```text
//! (time, event-kind rank, stream id, sequence number)
//! ```
//!
//! * `time` — the fleet's discrete clock (frames admitted so far). The fleet
//!   deliberately keys events on this logical tick rather than on virtual
//!   seconds: admission order is decided by the fairness policy over the
//!   *live* occupancy/lag state, so replaying the lockstep tick order is
//!   what makes the two execution modes bit-identical (see `fleet.rs`).
//! * `rank` — [`EventKind::rank`]: fault edges fire before frame work at the
//!   same tick (matching the lockstep loop, which advances the injector
//!   before admission), session departures and arrivals land next (detach
//!   frees capacity before the same tick's attach is admission-checked),
//!   and within one frame the lifecycle runs
//!   arrival → load-complete → inference-complete.
//! * `stream` — lower stream index first, mirroring the lockstep tie-break.
//! * `seq` — a queue-assigned monotonic sequence number, so two events that
//!   tie on everything else pop in insertion order (FIFO). This makes pop
//!   order *total*: no two events ever compare equal.
//!
//! The queue itself is pure state — no clocks, no randomness — so replaying
//! the same schedule calls yields a byte-identical drain order, which
//! `tests/property_event_queue.rs` locks in.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the fleet executes its streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// The original loop: every step polls the fault injector and scans all
    /// streams for admission. Kept as the differential-testing oracle.
    Lockstep,
    /// The discrete-event loop: fault edges are pre-scheduled, admission
    /// scans only the ready set, and each frame's lifecycle flows through
    /// the [`EventQueue`]. Bit-identical outcomes to [`Lockstep`], at
    /// O(active streams) per step.
    ///
    /// [`Lockstep`]: ExecutionMode::Lockstep
    #[default]
    EventDriven,
}

/// The kinds of events the fleet schedules, in rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A scripted fault or recovery edge is due (rank 0: platform state
    /// changes land before any frame work at the same tick).
    FaultEdge,
    /// A session leaves the fleet (rank 1: departures free capacity before
    /// the same tick's arrivals are admission-checked).
    SessionDetach,
    /// A session asks to join the fleet (rank 2: admission control sees the
    /// post-detach state but runs before any frame work).
    SessionAttach,
    /// A stream's next frame is admitted (rank 3).
    FrameArrival,
    /// The frame's model load (or resident fast path) finished; inference
    /// may start (rank 4).
    LoadComplete,
    /// The frame's inference finished; the outcome can be committed
    /// (rank 5).
    InferenceComplete,
}

impl EventKind {
    /// All kinds, in rank order.
    pub const ALL: [EventKind; 6] = [
        EventKind::FaultEdge,
        EventKind::SessionDetach,
        EventKind::SessionAttach,
        EventKind::FrameArrival,
        EventKind::LoadComplete,
        EventKind::InferenceComplete,
    ];

    /// The kind's position in the same-tick firing order.
    pub const fn rank(self) -> u8 {
        match self {
            EventKind::FaultEdge => 0,
            EventKind::SessionDetach => 1,
            EventKind::SessionAttach => 2,
            EventKind::FrameArrival => 3,
            EventKind::LoadComplete => 4,
            EventKind::InferenceComplete => 5,
        }
    }
}

/// The total-order key events pop in: `(time, rank, stream, seq)`,
/// lexicographic (the derived `Ord` compares fields in declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventKey {
    /// Discrete time the event is due at.
    pub time: u64,
    /// [`EventKind::rank`] of the event's kind.
    pub rank: u8,
    /// Stream the event belongs to (0 for fleet-wide events).
    pub stream: u32,
    /// Queue-assigned insertion sequence number — the final, always-unique
    /// tie-break.
    pub seq: u64,
}

/// One scheduled event: its key, kind and payload.
#[derive(Debug, Clone)]
pub struct Event<P> {
    /// The total-order key the event popped under.
    pub key: EventKey,
    /// The event's kind (also encoded in `key.rank`).
    pub kind: EventKind,
    /// The caller's payload.
    pub payload: P,
}

/// Internal heap slot; ordering delegates to the key alone so payloads need
/// no `Ord`.
#[derive(Debug, Clone)]
struct Slot<P> {
    key: EventKey,
    kind: EventKind,
    payload: P,
}

impl<P> PartialEq for Slot<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<P> Eq for Slot<P> {}

impl<P> PartialOrd for Slot<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Slot<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on the key: the smallest key pops first.
        Reverse(self.key).cmp(&Reverse(other.key))
    }
}

/// A deterministic priority queue of typed events.
///
/// Pop order is the total order documented on [`EventKey`]; the queue
/// assigns `seq` itself, so identical `(time, kind, stream)` schedules drain
/// FIFO and replaying the same schedule sequence is byte-identical.
///
/// ```
/// use shift_core::des::{EventKind, EventQueue};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(3, EventKind::FrameArrival, 1, "late");
/// queue.schedule(0, EventKind::FrameArrival, 2, "early-hi-stream");
/// queue.schedule(0, EventKind::FaultEdge, 0, "edge");
/// queue.schedule(0, EventKind::FrameArrival, 2, "early-second");
/// let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, ["edge", "early-hi-stream", "early-second", "late"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue<P> {
    heap: BinaryHeap<Slot<P>>,
    next_seq: u64,
}

impl<P> EventQueue<P> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` as a `kind` event for `stream` at `time`,
    /// returning the assigned key (with its unique `seq`).
    pub fn schedule(&mut self, time: u64, kind: EventKind, stream: u32, payload: P) -> EventKey {
        let key = EventKey {
            time,
            rank: kind.rank(),
            stream,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Slot { key, kind, payload });
        key
    }

    /// The key of the next event to pop, without popping it.
    pub fn peek(&self) -> Option<&EventKey> {
        self.heap.peek().map(|slot| &slot.key)
    }

    /// Pops the smallest-keyed event.
    pub fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|slot| Event {
            key: slot.key,
            kind: slot.kind,
            payload: slot.payload,
        })
    }

    /// Drops every pending event. The sequence counter is *not* reset, so
    /// keys stay unique across a clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_the_documented_order() {
        let ranks: Vec<u8> = EventKind::ALL.iter().map(|k| k.rank()).collect();
        assert_eq!(ranks, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn key_order_is_lexicographic() {
        let base = EventKey {
            time: 5,
            rank: 1,
            stream: 2,
            seq: 7,
        };
        assert!(EventKey { time: 4, ..base } < base);
        assert!(EventKey { rank: 0, ..base } < base);
        assert!(EventKey { stream: 1, ..base } < base);
        assert!(EventKey { seq: 6, ..base } < base);
        assert!(
            EventKey {
                time: 6,
                rank: 0,
                stream: 0,
                seq: 0
            } > base
        );
    }

    #[test]
    fn pop_is_globally_ordered_and_fifo_on_full_ties() {
        let mut queue = EventQueue::new();
        queue.schedule(1, EventKind::InferenceComplete, 0, "d");
        queue.schedule(0, EventKind::LoadComplete, 3, "c");
        queue.schedule(0, EventKind::LoadComplete, 1, "a1");
        queue.schedule(0, EventKind::LoadComplete, 1, "a2");
        queue.schedule(0, EventKind::FaultEdge, 9, "b");
        let drained: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        assert_eq!(drained, ["b", "a1", "a2", "c", "d"]);
        assert!(queue.is_empty());
    }

    #[test]
    fn peek_matches_pop_and_len_tracks() {
        let mut queue = EventQueue::new();
        assert!(queue.peek().is_none());
        queue.schedule(2, EventKind::FrameArrival, 0, ());
        queue.schedule(1, EventKind::FrameArrival, 0, ());
        assert_eq!(queue.len(), 2);
        let peeked = *queue.peek().unwrap();
        let popped = queue.pop().unwrap();
        assert_eq!(peeked, popped.key);
        assert_eq!(popped.key.time, 1);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn clear_keeps_sequence_numbers_unique() {
        let mut queue = EventQueue::new();
        let first = queue.schedule(0, EventKind::FaultEdge, 0, ());
        queue.clear();
        let second = queue.schedule(0, EventKind::FaultEdge, 0, ());
        assert_eq!(queue.len(), 1);
        assert!(second.seq > first.seq, "seq survives clear");
    }
}
