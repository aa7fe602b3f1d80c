//! Bounded multi-producer submission queue.
//!
//! A fixed-capacity ring in the style of Vyukov's bounded MPMC queue:
//! producers and the consumer reserve slots with atomic compare-and-
//! swap on monotonically increasing tickets, and each slot's sequence
//! number tells whoever looks at it whether it is ready to fill or
//! ready to drain. The hot path never takes a shared lock — the only
//! lock is *per slot* and is touched strictly after the slot has been
//! won by exactly one thread, so it is never contended; it exists to
//! keep the value handoff in safe Rust instead of `UnsafeCell`.
//!
//! The bounded capacity is the service's backpressure primitive: a
//! full ring rejects the push immediately (no blocking, no unbounded
//! growth) and the caller surfaces that as a typed `Overloaded` error.

use crate::sync::{AtomicUsize, Mutex, Ordering};

/// One ring slot: `seq` encodes the slot's lap state per the Vyukov
/// protocol, `value` is the actual handoff cell.
#[derive(Debug)]
struct Slot<T> {
    seq: AtomicUsize,
    value: Mutex<Option<T>>,
}

/// A bounded multi-producer / multi-consumer ring buffer.
///
/// Used by the service as an MPSC submission queue (many client
/// threads push, one dispatcher pops), but the algorithm is symmetric
/// and safe for multiple consumers too.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    slots: Box<[Slot<T>]>,
    /// Next pop ticket.
    head: AtomicUsize,
    /// Next push ticket.
    tail: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// Ring of `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity < 2`. A one-slot ring is unsound under this
    /// protocol: the sequence value after "filled by ticket 0"
    /// (`0 + 1`) collides with "freed for ticket 1" (`head + capacity`
    /// `= 1`), so a second producer would overwrite the queued value.
    /// Found by the loom model in `tests/loom.rs`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "queue capacity must be at least 2");
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: Mutex::new("serve.queue.slot", None),
            })
            .collect();
        Self {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Items currently queued (racy snapshot, exact when quiescent).
    #[must_use]
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed); // ordering: queue-len-relaxed
        let head = self.head.load(Ordering::Relaxed); // ordering: queue-len-relaxed
        tail.saturating_sub(head)
    }

    /// Whether the queue currently holds nothing (racy snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Self::pop`] would find a value right now (racy
    /// snapshot): `pop`'s scan without the claim. Unlike `!is_empty()`,
    /// a ticket whose producer has reserved it but not yet published
    /// the value reads as not ready, so a dispatcher re-checking before
    /// it parks does not spin on a half-finished push; that producer
    /// rings the doorbell once its push returns.
    #[must_use]
    pub fn has_ready(&self) -> bool {
        let cap = self.slots.len();
        let mut head = self.head.load(Ordering::Relaxed); // ordering: ticket-relaxed
        loop {
            let seq = self.slots[head % cap].seq.load(Ordering::Acquire); // ordering: queue-seq-acquire
            if seq == head + 1 {
                return true;
            }
            if seq <= head {
                return false;
            }
            // Another consumer freed this slot: our head is stale.
            head = self.head.load(Ordering::Relaxed); // ordering: ticket-relaxed
        }
    }

    /// Non-blocking push. On a full ring the value is handed back so
    /// the caller can shed it.
    ///
    /// # Errors
    /// Returns `Err(value)` when the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let cap = self.slots.len();
        let mut tail = self.tail.load(Ordering::Relaxed); // ordering: ticket-relaxed
        loop {
            let slot = &self.slots[tail % cap];
            let seq = slot.seq.load(Ordering::Acquire); // ordering: queue-seq-acquire
            if seq == tail {
                // Slot is empty and it is our lap: try to claim the ticket.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail + 1,
                    Ordering::Relaxed, // ordering: ticket-relaxed
                    Ordering::Relaxed, // ordering: ticket-relaxed
                ) {
                    Ok(_) => {
                        *slot.value.lock() = Some(value);
                        slot.seq.store(tail + 1, Ordering::Release); // ordering: queue-seq-release
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if seq < tail {
                // The consumer has not freed this slot yet: full.
                return Err(value);
            } else {
                // Another producer claimed this ticket; move on.
                tail = self.tail.load(Ordering::Relaxed); // ordering: ticket-relaxed
            }
        }
    }

    /// Non-blocking pop; `None` when the queue is empty.
    pub fn pop(&self) -> Option<T> {
        let cap = self.slots.len();
        let mut head = self.head.load(Ordering::Relaxed); // ordering: ticket-relaxed
        loop {
            let slot = &self.slots[head % cap];
            let seq = slot.seq.load(Ordering::Acquire); // ordering: queue-seq-acquire
            if seq == head + 1 {
                // Slot holds a value from this lap: claim it.
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed, // ordering: ticket-relaxed
                    Ordering::Relaxed, // ordering: ticket-relaxed
                ) {
                    Ok(_) => {
                        let value = slot
                            .value
                            .lock()
                            .take()
                            // hot-ok: the CAS won this slot, so the Vyukov
                            // seq protocol guarantees a value is present.
                            .expect("claimed slot holds a value");
                        slot.seq.store(head + cap, Ordering::Release); // ordering: queue-seq-release
                        return Some(value);
                    }
                    Err(h) => head = h,
                }
            } else if seq <= head {
                // Producer has not filled this slot yet: empty.
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed); // ordering: ticket-relaxed
            }
        }
    }

    /// Pop up to `max` items into `out`, returning how many landed.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn wraps_around_many_laps() {
        let q = BoundedQueue::new(3);
        for lap in 0..10 {
            for i in 0..3 {
                q.push(lap * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(q.pop(), Some(lap * 3 + i));
            }
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: usize = 4;
        // Miri runs this interpreter-speed; keep the schedule space small.
        const PER_PRODUCER: usize = if cfg!(miri) { 25 } else { 500 };
        let q = Arc::new(BoundedQueue::new(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = p * PER_PRODUCER + i;
                    // Spin until accepted: the consumer drains in parallel.
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut seen = vec![false; PRODUCERS * PER_PRODUCER];
        let mut got = 0;
        while got < PRODUCERS * PER_PRODUCER {
            if let Some(v) = q.pop() {
                assert!(!seen[v], "duplicate {v}");
                seen[v] = true;
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.pop(), None);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn has_ready_tracks_poppable_values_across_laps() {
        let q = BoundedQueue::new(2);
        assert!(!q.has_ready());
        for i in 0..5 {
            q.push(i).unwrap();
            assert!(q.has_ready());
            assert_eq!(q.pop(), Some(i));
            assert!(!q.has_ready());
        }
    }

    #[test]
    fn drain_into_respects_max() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.drain_into(&mut out, 4), 2);
        assert_eq!(out.len(), 6);
    }
}
