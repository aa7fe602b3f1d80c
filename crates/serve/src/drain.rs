//! The graceful-shutdown handshake between clients and the dispatcher.
//!
//! A single word carries both halves of the protocol: the high bit says
//! "draining — refuse new work", the low 63 bits count requests that
//! were *accepted* (admitted and queued). A second counter tracks
//! requests fully answered. The invariant the dispatcher relies on:
//! once the drain bit is set, `accepted` can no longer grow, so
//! `accepted == completed` (with an empty queue) really means every
//! request that will ever exist has been answered.
//!
//! The accept path must check the drain bit and bump the count in one
//! atomic step — a separate load-then-increment would let an accept
//! slip in after the dispatcher's final check, losing the request. This
//! exact race is what `tests/loom.rs` model-checks exhaustively.

use crate::sync::{AtomicU64, Ordering};

/// High bit of the state word: the service is draining.
const DRAIN_BIT: u64 = 1 << 63;

/// Drain flag + accepted count + completed count. See module docs.
#[derive(Debug, Default)]
pub struct DrainGate {
    /// Drain flag (high bit) + accepted-request count (low bits).
    state: AtomicU64,
    /// Requests fully answered.
    completed: AtomicU64,
}

impl DrainGate {
    /// A gate accepting work, with nothing in flight.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// Try to accept one request: bumps the accepted count unless the
    /// drain bit is already set. Atomic against [`DrainGate::begin_drain`]:
    /// every accept either lands before the drain begins (and will be
    /// waited for) or is refused.
    pub fn try_accept(&self) -> bool {
        self.state
            // ordering: drain-state-acqrel
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s & DRAIN_BIT == 0).then_some(s + 1)
            })
            .is_ok()
    }

    /// Roll back an acceptance whose enqueue failed (queue full): the
    /// dispatcher must not wait for a request that never entered the
    /// queue.
    pub fn retract(&self) {
        self.state.fetch_sub(1, Ordering::AcqRel); // ordering: drain-state-acqrel
    }

    /// Record one accepted request as fully answered.
    pub fn complete(&self) {
        self.completed.fetch_add(1, Ordering::AcqRel); // ordering: drain-completed-acqrel
    }

    /// Set the drain bit: all future [`DrainGate::try_accept`] calls fail.
    pub fn begin_drain(&self) {
        self.state.fetch_or(DRAIN_BIT, Ordering::AcqRel); // ordering: drain-state-acqrel
    }

    /// Whether the drain bit is set.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.load(Ordering::Acquire) & DRAIN_BIT != 0 // ordering: drain-quiescent-acquire
    }

    /// Whether the service is draining *and* every accepted request has
    /// been answered. Only meaningful combined with an empty queue check
    /// (a request can be accepted and answered while others still sit
    /// in the ring).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        let state = self.state.load(Ordering::Acquire); // ordering: drain-quiescent-acquire
        if state & DRAIN_BIT == 0 {
            return false;
        }
        let completed = self.completed.load(Ordering::Acquire); // ordering: drain-quiescent-acquire
        state & !DRAIN_BIT == completed
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn accept_then_drain_then_complete() {
        let g = DrainGate::new();
        assert!(g.try_accept());
        assert!(g.try_accept());
        g.begin_drain();
        assert!(!g.try_accept(), "drained gate refuses new work");
        assert!(g.is_draining());
        assert!(!g.quiescent(), "two accepted, none answered");
        g.complete();
        g.complete();
        assert!(g.quiescent());
    }

    #[test]
    fn retract_unwinds_an_accept() {
        let g = DrainGate::new();
        assert!(g.try_accept());
        g.retract();
        g.begin_drain();
        assert!(g.quiescent(), "retracted accept is not waited for");
    }

    #[test]
    fn not_quiescent_before_drain() {
        let g = DrainGate::new();
        assert!(!g.quiescent(), "quiescence requires the drain bit");
    }
}
